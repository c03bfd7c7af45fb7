"""CLI goldens: every task's artifacts are byte-stable across releases.

Each ``tests/golden/cli_<task>.json`` holds a small run config, the exit code,
the SHA-256 of every CSV the task writes and the ``results`` object of its
``summary.json`` (the whole file is not hashed: it echoes the output path).
A change that alters the numerical scheme on purpose re-records these files
and says so in ``CHANGES.md``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from kimura import cli

GOLDEN = Path(__file__).parent / "golden"

MONTE_CARLO = (
    "simulate", "decompose", "hitting", "occupation", "duhamel", "crosscheck", "corner", "counterexample",
    "doubling",
)
TASKS = MONTE_CARLO + ("growth", "barriers", "kernel", "check")


def _run(tmp_path, task, workers=None):
    doc = json.loads((GOLDEN / f"cli_{task}.json").read_text())
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**doc["config"], "task": task}))
    out = tmp_path / "out"
    argv = [task, "--config", str(cfg_path), "--out", str(out)]
    if workers is not None:
        argv += ["--workers", str(workers)]
    rc = cli.main(argv)
    sha = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}
    results = json.loads((out / "summary.json").read_text())["results"]
    return doc, rc, sha, results


@pytest.mark.parametrize("task", TASKS)
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
