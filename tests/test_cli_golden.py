"""CLI goldens: every task's artifacts are byte-stable across releases.

Each task in ``cli.TASKS`` has a ``tests/golden/cli_<task>.json`` that holds
a small run config, the exit code, the SHA-256 of every CSV the task writes
and the ``results`` object of its ``summary.json`` (the whole file is not
hashed: it echoes the output path).
A change that alters the numerical scheme on purpose re-records these files
and says so in ``CHANGES.md``.
"""

import hashlib
import inspect
import json
from pathlib import Path

import pytest

from kimura import cli, estimators, pde
from kimura.operator import KimuraOperator

GOLDEN = Path(__file__).parent / "golden"

MONTE_CARLO = (
    "simulate", "decompose", "hitting", "occupation", "duhamel", "crosscheck", "corner", "counterexample",
    "doubling",
)


def _golden(task):
    return json.loads((GOLDEN / f"cli_{task}.json").read_text())


def _run(tmp_path, task, workers=None, config=None):
    doc = _golden(task)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**(config or doc["config"]), "task": task}))
    out = tmp_path / "out"
    argv = [task, "--config", str(cfg_path), "--out", str(out)]
    if workers is not None:
        argv += ["--workers", str(workers)]
    rc = cli.main(argv)
    sha = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}
    results = json.loads((out / "summary.json").read_text())["results"]
    return doc, rc, sha, results


@pytest.mark.parametrize("task", cli.TASKS)
def test_cli_task_matches_golden(tmp_path, task):
    doc, rc, sha, results = _run(tmp_path, task)
    assert rc == doc["exit"]
    assert sha == doc["sha256"]
    assert results == doc["results"]


@pytest.mark.parametrize("task", MONTE_CARLO)
def test_cli_task_matches_golden_on_two_workers(tmp_path, task):
    doc, rc, sha, results = _run(tmp_path, task, workers=2)
    assert rc == doc["exit"]
    assert sha == doc["sha256"]
    assert results == doc["results"]


@pytest.mark.parametrize(
    "task, key, fn",
    [
        ("check", "samples", KimuraOperator.check_assumptions),
        ("decompose", "bins", estimators.decompose),
        ("hitting", "time_bins", estimators.hitting_histogram),
        ("hitting", "loc_bins", estimators.hitting_histogram),
        ("kernel", "M", pde.dirichlet_kernel),
        ("duhamel", "M", pde.solve_nonhomogeneous),
    ],
)
def test_an_unset_key_runs_on_the_library_default(tmp_path, task, key, fn):
    """A config without an optional key gives what the same config with the
    key set to the library function's own default gives."""
    config = _golden(task)["config"]
    params = {k: v for k, v in config["params"].items() if k != key}
    default = inspect.signature(fn).parameters[key].default
    runs = []
    for name, p in (("unset", params), ("default", {**params, key: default})):
        (tmp_path / name).mkdir()
        runs.append(_run(tmp_path / name, task, config={**config, "params": p})[1:])
    unset, with_default = runs  # (exit code, CSV SHA-256s, results)
    assert unset[0] == 0
    assert unset == with_default
