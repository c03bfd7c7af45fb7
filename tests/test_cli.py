"""Command-line interface: exit codes, schema errors, artifact stability."""

import hashlib
import json
from pathlib import Path

import pytest

from kimura import cli

GOLDEN = Path(__file__).parent / "golden"


def _write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _base(task, out, operator=None, params=None, seed=0):
    cfg = {"version": "1", "task": task, "seed": seed, "out": str(out)}
    if operator is not None:
        cfg["operator"] = operator
    if params is not None:
        cfg["params"] = params
    return cfg


MODEL0 = {"preset": "model1d", "params": {"b": 0.0}}
WF = {"preset": "wright-fisher", "params": {"N": 1, "b": [0.0, 0.0]}}


def _summary(out):
    return json.loads((out / "summary.json").read_text())


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_check_clean_operator_exits_zero(tmp_path):
    out = tmp_path / "out"
    cfg = _base("check", out, operator=WF)
    assert cli.main(["check", "--config", _write(tmp_path, cfg)]) == 0
    doc = _summary(out)
    assert doc["status"] == "ok"
    assert doc["schema_version"] == "1"
    assert doc["results"]["cleanness"] == "ok"
    assert sorted(doc["results"]["tangent"]) == [1, 2]


def test_check_nonclean_operator_exits_two(tmp_path):
    out = tmp_path / "out"
    cfg = _base("check", out, operator={"preset": "remark-counterexample", "params": {}})
    assert cli.main(["check", "--config", _write(tmp_path, cfg)]) == 2
    doc = _summary(out)
    assert doc["status"] == "assumption-failure"
    assert doc["results"]["cleanness"] == "violated"
    wit = doc["results"]["witness"]
    assert wit["points"], "witness points must be recorded"


def test_missing_required_param_exits_three(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base(
        "decompose",
        out,
        operator=WF,
        params={"p0": [0.3], "dt": 1e-3, "n_paths": 50},  # t missing
    )
    assert cli.main(["decompose", "--config", _write(tmp_path, cfg)]) == 3
    assert "params.t" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_unknown_key_exits_three_with_dotted_path(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base(
        "decompose",
        out,
        operator=WF,
        params={"p0": [0.3], "dt": 1e-3, "n_path": 50, "t": 1.0},
    )
    assert cli.main(["decompose", "--config", _write(tmp_path, cfg)]) == 3
    assert "params.n_path" in capsys.readouterr().err


def test_wrong_schema_version_exits_three(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base("check", out, operator=WF)
    cfg["version"] = "2"
    assert cli.main(["check", "--config", _write(tmp_path, cfg)]) == 3
    assert "version" in capsys.readouterr().err


def test_task_mismatch_exits_three(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _base("simulate", out, operator=WF, params={})
    assert cli.main(["check", "--config", _write(tmp_path, cfg)]) == 3
    assert "task" in capsys.readouterr().err


def test_unknown_task_exits_three(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = {"version": "1", "seed": 0, "out": str(out), "operator": WF}
    assert cli.run_config("nope", cfg) == 3
    err = capsys.readouterr().err
    assert "config invalid at task" in err and "decompose" in err
    assert not out.exists()


_SIM = {"p0": [0.3], "dt": 1e-3, "n_paths": 8, "T": 0.01}


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda c: [c], "<root>"),
        (lambda c: {**c, "params": {**c["params"], "n_paths": "8"}}, "params.n_paths"),
        (lambda c: {**c, "params": {**c["params"], "dt": 0.0}}, "params.dt"),
        (lambda c: {**c, "operator": {"preset": "nope"}}, "operator.preset"),
        (lambda c: {**c, "seed": -1}, "seed"),
        (lambda c: {k: v for k, v in c.items() if k != "operator"}, "operator"),
    ],
    ids=["root-not-object", "wrong-type", "not-positive", "unknown-preset", "negative-seed", "no-operator"],
)
def test_invalid_config_exits_three(tmp_path, capsys, edit, field):
    """Each schema error exits 3 naming its field, before any output."""
    out = tmp_path / "out"
    cfg = edit(_base("simulate", out, operator=MODEL0, params=dict(_SIM)))
    assert cli.main(["simulate", "--config", _write(tmp_path, cfg)]) == 3
    assert f"config invalid at {field}:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message", [(None, "cannot read config"), ("{not json", "config is not valid JSON")],
    ids=["unreadable", "invalid-json"],
)
def test_config_that_does_not_load_exits_three(tmp_path, capsys, text, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["simulate", "--config", str(path)]) == 3
    assert message in capsys.readouterr().err


def test_not_clean_inside_a_task_exits_two(tmp_path, capsys):
    """``simulate`` classifies its operator's faces; the cross-fed preset's
    do not classify, so the task's :class:`NotClean` exits 2 with a summary
    naming it."""
    out = tmp_path / "out"
    params = {"p0": [0.05, 0.05], "dt": 1e-3, "n_paths": 8, "T": 0.01}
    cfg = _base("simulate", out, operator={"preset": "remark-counterexample", "params": {}}, params=params)
    assert cli.main(["simulate", "--config", _write(tmp_path, cfg)]) == 2
    doc = _summary(out)
    assert doc["status"] == "assumption-failure"
    assert doc["results"]["error"] == "NotClean"
    assert capsys.readouterr().err.startswith("simulate: ")


def test_runtime_error_exits_one(tmp_path):
    out = tmp_path / "out"
    cfg = _base(
        "decompose",
        out,
        operator=MODEL0,
        params={"p0": [0.3, 0.4], "dt": 1e-3, "n_paths": 20, "t": 0.1},  # 2-D start
    )
    assert cli.main(["decompose", "--config", _write(tmp_path, cfg)]) == 1
    assert _summary(out)["status"] == "error"


@pytest.mark.parametrize(
    "task, operator, params",
    [
        ("decompose", WF, {"p0": [0.3], "dt": 2.0, "n_paths": 8, "t": 8.0}),
        (
            "occupation",
            {"preset": "wright-fisher", "params": {"N": 2, "b": [0.0, 0.0, 0.5]}},
            {"p0": [0.3, 0.3], "dt": 2.0, "n_paths": 20, "T": 8.0, "eps": [0.2, 0.5]},
        ),
    ],
    ids=["decompose", "occupation"],
)
def test_a_step_longer_than_one_runs_at_the_task_horizon(tmp_path, task, operator, params):
    """The simulation horizon is the task's own, so ``dt > 1`` is a valid step
    whenever it does not exceed that horizon."""
    out = tmp_path / "out"
    cfg = _base(task, out, operator=operator, params=params)
    assert cli.main([task, "--config", _write(tmp_path, cfg)]) == 0
    assert _summary(out)["status"] == "ok"


_WF2 = {"preset": "wright-fisher", "params": {"N": 2, "b": [0.0, 0.0, 0.5]}}


@pytest.mark.parametrize(
    "seed, eps", [(0, [0.1]), (1, [0.1]), (0, [0.02, 0.1, 0.4])], ids=["zero-mean", "one-eps", "three-eps"]
)
def test_occupation_writes_null_for_an_undefined_fit(tmp_path, seed, eps):
    """A zero mean occupation at some ε, or fewer than 2 ε, leaves the slope
    undefined, and fewer than 3 ε or a zero standard error at some ε the
    floor: each is written as null and the run exits 0.  Seed 0 reads zero
    occupation of face 3 at ε = 0.1, and at ε = 0.02 and 0.1 on every path;
    seed 1 does not."""
    out = tmp_path / "out"
    params = {"p0": [0.3, 0.3], "dt": 2.0, "n_paths": 8, "T": 8.0, "eps": eps}
    cfg = _base("occupation", out, operator=_WF2, params=params, seed=seed)
    assert cli.main(["occupation", "--config", _write(tmp_path, cfg)]) == 0
    (fit,) = _summary(out)["results"]["faces"].values()
    rows = (out / "occupation.csv").read_text().splitlines()[1:]
    means = [float(r.split(",")[2]) for r in rows]
    stderrs = [float(r.split(",")[3]) for r in rows]
    assert (fit["loglog_slope"] is None) == (len(eps) < 2 or min(means) == 0.0)
    assert (fit["floor"] is None) == (fit["floor_stderr"] is None) == (len(eps) < 3 or min(stderrs) == 0.0)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def _md5(path):
    return hashlib.md5(path.read_bytes()).hexdigest()


def test_decompose_artifacts_are_byte_stable(tmp_path):
    params = {"p0": [0.3], "dt": 1e-3, "n_paths": 400, "t": 1.0}
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = _base("decompose", out_a, operator=WF, params=params)
    cfg_b = _base("decompose", out_b, operator=WF, params=params)
    assert cli.main(["decompose", "--config", _write(tmp_path, cfg_a, "a.json")]) == 0
    assert cli.main(["decompose", "--config", _write(tmp_path, cfg_b, "b.json")]) == 0
    assert _md5(out_a / "masses.csv") == _md5(out_b / "masses.csv")


def test_worker_count_is_invisible_in_artifacts(tmp_path):
    params = {"p0": [0.3], "dt": 1e-3, "n_paths": 400, "t": 1.0}
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = _base("decompose", out_a, operator=WF, params=params)
    cfg_b = _base("decompose", out_b, operator=WF, params=params)
    cfg_b["workers"] = 3
    assert cli.main(["decompose", "--config", _write(tmp_path, cfg_a, "a.json")]) == 0
    assert cli.main(["decompose", "--config", _write(tmp_path, cfg_b, "b.json")]) == 0
    assert _md5(out_a / "masses.csv") == _md5(out_b / "masses.csv")


def test_decompose_reports_stderr_for_every_mass(tmp_path):
    out = tmp_path / "out"
    params = {"p0": [0.3], "dt": 1e-3, "n_paths": 500, "t": 1.0}
    cfg = _base("decompose", out, operator=WF, params=params)
    assert cli.main(["decompose", "--config", _write(tmp_path, cfg)]) == 0
    lines = (out / "masses.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert "stderr" in header
    assert len(lines) >= 3


def test_seed_flag_overrides_config(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    params = {"p0": [0.3], "dt": 1e-3, "n_paths": 200, "t": 0.5}
    cfg_a = _base("decompose", out_a, operator=WF, params=params, seed=3)
    cfg_b = _base("decompose", out_b, operator=WF, params=params, seed=3)
    assert cli.main(["decompose", "--config", _write(tmp_path, cfg_a, "a.json")]) == 0
    rc = cli.main(
        ["decompose", "--config", _write(tmp_path, cfg_b, "b.json"), "--seed", "4"]
    )
    assert rc == 0
    da, db = _summary(out_a), _summary(out_b)
    assert da["seed"] == 3 and db["seed"] == 4
    assert db["config"]["seed"] == 3  # the echo preserves the file
    assert _md5(out_a / "masses.csv") != _md5(out_b / "masses.csv")


def test_barriers_task_passes(tmp_path):
    out = tmp_path / "out"
    cfg = _base("barriers", out, params={})
    assert cli.main(["barriers", "--config", _write(tmp_path, cfg)]) == 0
    rows = (out / "barriers.csv").read_text().splitlines()
    assert len(rows) == 4  # header + w2 + w1 + w_reg
    assert all("pass" in r for r in rows[1:])


def test_barriers_task_failure_exits_two(tmp_path):
    # the golden barriers config with a strip height far too tall for w2
    golden = json.loads((GOLDEN / "cli_barriers.json").read_text())["config"]
    out = tmp_path / "out"
    cfg = {**golden, "task": "barriers", "out": str(out)}
    cfg["params"] = {**cfg["params"], "H": 1.0}
    assert cli.main(["barriers", "--config", _write(tmp_path, cfg)]) == 2
    doc = _summary(out)
    assert doc["status"] == "assumption-failure"
    assert doc["results"]["verdict"] == "fail"
    assert doc["results"]["barriers"]["w2"]["verdict"] == "fail"


def test_kernel_task_artifacts(tmp_path):
    out = tmp_path / "out"
    params = {"p0": 0.3, "T": 0.5, "dt": 1e-3, "M": 100}
    cfg = _base("kernel", out, operator=WF, params=params)
    assert cli.main(["kernel", "--config", _write(tmp_path, cfg)]) == 0
    assert (out / "kernel.csv").exists()
    assert (out / "survival.csv").exists()
    doc = _summary(out)
    assert 0.0 < doc["results"]["survival_final"] < 1.0


def test_kernel_task_absorbed_mass_closes_the_balance(tmp_path):
    """``absorbed`` is what the implicit march loses per step, so survival
    plus absorbed is 1 far inside the time step (the trapezoid rule missed
    by 2.4e-4 here)."""
    out = tmp_path / "out"
    params = {"p0": 0.3, "T": 1.0, "dt": 1e-3, "M": 400}
    cfg = _base("kernel", out, operator=WF, params=params)
    assert cli.main(["kernel", "--config", _write(tmp_path, cfg)]) == 0
    res = _summary(out)["results"]
    assert abs(res["survival_final"] + sum(res["absorbed"].values()) - 1.0) <= 2e-5


def test_counterexample_all_hit_interval_is_rule_of_three(tmp_path):
    """With every path hit (eps_abs ≥ s₀), the interval is [1 − 3/n, 1], as
    in the corner task, not the zero-width [1, 1]."""
    out = tmp_path / "out"
    params = {
        "p0": [0.05, 0.05],
        "dt": 1e-3,
        "n_paths": 100,
        "T": 5.0,
        "eps_abs": 0.2,
    }
    cfg = _base(
        "counterexample",
        out,
        operator={"preset": "remark-counterexample", "params": {}},
        params=params,
    )
    assert cli.main(["counterexample", "--config", _write(tmp_path, cfg)]) == 0
    res = _summary(out)["results"]
    assert res["frequency"] == 1.0
    assert res["ci_lo"] == 0.97
    assert res["ci_hi"] == 1.0


_BOX8 = {"preset": "model1d", "params": {"b": 0.0, "radius": 8.0}}


def test_counterexample_rejects_other_operators(tmp_path, capsys):
    """The task runs the corner stop on a two-dimensional box whose faces do
    not classify; an operator whose faces classify, on a simplex or on such
    a box, is a config error (exit 3, no summary), not a silent corner run."""
    clean_box = {"preset": "product", "params": {"factors": [_BOX8, _BOX8]}}
    params = {"p0": [0.05, 0.05], "dt": 1e-3, "n_paths": 20, "T": 1.0}
    for i, operator in enumerate((WF, clean_box)):
        out = tmp_path / f"out{i}"
        cfg = _base("counterexample", out, operator=operator, params=params)
        assert cli.main(["counterexample", "--config", _write(tmp_path, cfg)]) == 3
        assert "operator.preset" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


@pytest.mark.parametrize("faces", [[1, 3], [1, 1], [1, 2, 3]])
def test_corner_rejects_faces_the_domain_lacks(tmp_path, capsys, faces):
    """Faces that are not two distinct faces of the operator's domain are a
    config error (exit 3, no summary)."""
    out = tmp_path / "out"
    box = {"preset": "model1d", "params": {"b": 0.0, "radius": 8.0}}
    operator = {"preset": "product", "params": {"factors": [box, box]}}
    params = {"p0": [0.05, 5.0], "dt": 1e-3, "n_paths": 20, "T": 0.1, "faces": faces, "eps": [0.01]}
    cfg = _base("corner", out, operator=operator, params=params)
    assert cli.main(["corner", "--config", _write(tmp_path, cfg)]) == 3
    assert "params.faces" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


APPENDIX = {"preset": "appendix-A"}


@pytest.mark.parametrize(
    "task, operator, params",
    [
        ("simulate", MODEL0, {"p0": [], "dt": 1e-3, "n_paths": 20, "T": 0.1}),
        ("simulate", MODEL0, {"p0": [-0.5], "dt": 1e-3, "n_paths": 20, "T": 0.1}),
        (
            "decompose",
            {"preset": "wright-fisher", "params": {"N": 2, "b": [0.0, 0.0, 0.0]}},
            {"p0": [0.3], "dt": 1e-3, "n_paths": 20, "t": 0.1},
        ),
        ("crosscheck", MODEL0, {"p0": [], "dt": 1e-3, "n_paths": 20, "times": [0.1], "M": 50}),
    ],
    ids=["simulate-empty", "simulate-negative", "decompose-short", "crosscheck-empty"],
)
def test_start_point_outside_the_domain_exits_one(tmp_path, task, operator, params):
    """A start point of the wrong dimension or outside the domain is a typed
    error (exit 1, with a summary), not a traceback or a silent run."""
    out = tmp_path / "out"
    cfg = _base(task, out, operator=operator, params=params)
    assert cli.main([task, "--config", _write(tmp_path, cfg)]) == 1
    doc = _summary(out)
    assert doc["status"] == "error"
    assert doc["results"]["error"] == "PointOutsideDomain"


def test_check_on_appendix_preset_classifies_its_faces(tmp_path):
    out = tmp_path / "out"
    cfg = _base("check", out, operator=APPENDIX)
    assert cli.main(["check", "--config", _write(tmp_path, cfg)]) == 0
    res = _summary(out)["results"]
    assert res["tangent"] == [1]
    assert res["transverse"] == [2]
    assert res["beta0"] == 0.5


def test_simulate_on_appendix_preset_exits_zero(tmp_path):
    out = tmp_path / "out"
    params = {"p0": [0.3, 0.3], "dt": 1e-3, "n_paths": 20, "T": 0.1}
    cfg = _base("simulate", out, operator=APPENDIX, params=params)
    assert cli.main(["simulate", "--config", _write(tmp_path, cfg)]) == 0
    assert _summary(out)["results"]["n_paths"] == 20


def test_kernel_on_appendix_preset_is_a_typed_error(tmp_path):
    """The kernel takes 1-D operators only; the 2-D preset is refused with a
    summary naming the error."""
    out = tmp_path / "out"
    params = {"p0": 0.3, "T": 0.1, "dt": 1e-3, "M": 50}
    cfg = _base("kernel", out, operator=APPENDIX, params=params)
    assert cli.main(["kernel", "--config", _write(tmp_path, cfg)]) == 1
    doc = _summary(out)
    assert doc["status"] == "error"
    assert doc["results"]["error"] == "KimuraError"
