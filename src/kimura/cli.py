"""Command-line front end: config ingestion, run orchestration, artifacts.

One task per invocation; the subcommand names the task and ``--config``
supplies a strict, versioned JSON document describing the operator and the
task parameters.  Every run writes ``summary.json`` (config echo, effective
seed, package version, and the results with a standard error or confidence
interval for every stochastic estimate) plus task-specific CSV artifacts
into the output directory.  CSVs are RFC-4180 with a header row, ``.``
decimal separator, ``\\n`` line endings, and shortest round-trip float
formatting, so identical (config, seed, version) runs produce byte-identical
files.

Exit codes: 0 success; 2 when a mathematical assumption check fails (a face
that is neither tangent nor uniformly transverse, a barrier search that
exhausts its budget, data on a face that carries no hitting law); 3 when the
config does not parse against the schema; 1 for any other runtime error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigInvalid,
    FaceNotTangent,
    KimuraError,
    NotClean,
    NoValidH,
    NoValidParams,
)
from .estimators import _prob_ci
from .geometry import Point, classify_point
from .operator import PRESET_NAMES, KimuraOperator, make_preset
from .sde import SimConfig

__all__ = ["main", "run_config", "TASKS"]

_SCHEMA_VERSION = "1"

_ASSUMPTION_ERRORS = (
    NotClean,
    FaceNotTangent,
    NoValidH,
    NoValidParams,
)


# --------------------------------------------------------------------------
# strict config schema
# --------------------------------------------------------------------------


def _type_ok(value, kind: str) -> bool:
    if kind == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if kind == "string":
        return isinstance(value, str)
    if kind == "list[number]":
        return isinstance(value, list) and all(_type_ok(v, "number") for v in value)
    if kind == "list[int]":
        return isinstance(value, list) and all(_type_ok(v, "int") for v in value)
    if kind == "object":
        return isinstance(value, dict)
    if kind == "list[object]":
        return isinstance(value, list) and all(isinstance(v, dict) for v in value)
    raise AssertionError(f"unknown schema kind {kind}")


def _check_fields(obj: dict, spec: dict, path: str) -> None:
    for key in obj:
        if key not in spec:
            raise ConfigInvalid(f"unknown key {key!r}", field=f"{path}{key}")
    for key, (kind, required, positive) in spec.items():
        if key not in obj:
            if required:
                raise ConfigInvalid("required field missing", field=f"{path}{key}")
            continue
        val = obj[key]
        if not _type_ok(val, kind):
            raise ConfigInvalid(f"expected {kind}", field=f"{path}{key}")
        if positive:
            vals = val if isinstance(val, list) else [val]
            if any(v <= 0 for v in vals):
                raise ConfigInvalid("must be positive", field=f"{path}{key}")


_OPERATOR_PARAMS = {
    "model1d": {"b": ("number", True, False), "radius": ("number", False, True)},
    "wright-fisher": {"N": ("int", True, True), "b": ("list[number]", True, False)},
    "product": {"factors": ("list[object]", True, False)},
    "remark-counterexample": {"radius": ("number", False, True)},
    "appendix-A": {
        "a11": ("number", False, True),
        "a22": ("number", False, True),
        "b1": ("number", False, False),
        "b2": ("number", False, False),
        "nu": ("number", False, False),
    },
}

_COMMON_SIM = {
    "p0": ("list[number]", True, False),
    "dt": ("number", True, True),
    "n_paths": ("int", True, True),
}

_TOP_SPEC = {
    "version": ("string", True, False),
    "task": ("string", False, False),
    "operator": ("object", False, False),
    "params": ("object", False, False),
    "seed": ("int", False, False),
    "workers": ("int", False, True),
    "out": ("string", False, False),
}

# the tasks that build their own comparison operator and read no ``operator``
_OWN_OPERATOR = ("barriers", "growth")


def _validate_operator(spec: dict, path: str) -> None:
    _check_fields(
        spec,
        {"preset": ("string", True, False), "params": ("object", False, False)},
        path,
    )
    preset = spec["preset"]
    if preset not in PRESET_NAMES:
        raise ConfigInvalid(
            f"unknown preset {preset!r}; known: {', '.join(PRESET_NAMES)}",
            field=f"{path}preset",
        )
    params = spec.get("params", {})
    _check_fields(params, _OPERATOR_PARAMS[preset], f"{path}params.")
    if preset == "product":
        for i, factor in enumerate(params["factors"]):
            _validate_operator(factor, f"{path}params.factors[{i}].")


def validate_config(cfg: dict, task: str) -> None:
    """Strict-schema validation; raises :class:`ConfigInvalid` on any drift."""
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config root must be an object", field="")
    if task not in TASKS:
        raise ConfigInvalid(f"unknown task {task!r}; known: {', '.join(sorted(TASKS))}", field="task")
    _check_fields(cfg, _TOP_SPEC, "")
    if cfg["version"] != _SCHEMA_VERSION:
        raise ConfigInvalid(
            f"unsupported schema version {cfg['version']!r} (expected {_SCHEMA_VERSION!r})",
            field="version",
        )
    if "task" in cfg and cfg["task"] != task:
        raise ConfigInvalid(
            f"config names task {cfg['task']!r} but the {task!r} subcommand was invoked",
            field="task",
        )
    if cfg.get("seed", 0) < 0:
        raise ConfigInvalid("seed must be non-negative", field="seed")
    if task not in _OWN_OPERATOR:
        if "operator" not in cfg:
            raise ConfigInvalid("this task needs an operator", field="operator")
        _validate_operator(cfg["operator"], "operator.")
    _check_fields(cfg.get("params", {}), TASKS[task][0], "params.")


def _build_operator(spec: dict) -> KimuraOperator:
    params = dict(spec.get("params", {}))
    if spec["preset"] == "product":
        params["factors"] = [_build_operator(f) for f in params["factors"]]
    return make_preset(spec["preset"], **params)


# --------------------------------------------------------------------------
# artifact helpers
# --------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _stratum_label(stratum) -> str:
    return "{" + ",".join(str(f) for f in sorted(stratum)) + "}"


def _sim_config(params: dict, seed: int, T: float) -> SimConfig:
    return SimConfig(dt=params["dt"], T=T, seed=seed)


def _given(params: dict, *keys: str) -> dict:
    """The optional settings the config gives; the library keeps the rest."""
    return {k: params[k] for k in keys if k in params}


def _point(params: dict) -> Point:
    return Point(np.asarray(params["p0"], dtype=float))


# --------------------------------------------------------------------------
# task implementations (each returns the ``results`` block of summary.json)
# --------------------------------------------------------------------------


def _point_json(pt: Point) -> dict:
    return {"x": _jsonable(pt.x), "y": _jsonable(pt.y)}


def _task_check(L, params, seed, workers, out: Path) -> dict:
    try:
        fc = L.classify_faces()
    except NotClean as exc:
        results = {
            "cleanness": "violated",
            "witness": {
                "face": exc.face,
                "points": [
                    {"point": _point_json(pt), "weight": w}
                    for pt, w in exc.witnesses
                ],
            },
            "message": str(exc),
        }
        raise _CheckFailed(results) from exc
    report = L.check_assumptions(seed=seed, **_given(params, "samples"))
    return {
        "cleanness": "ok",
        "tangent": sorted(fc.tangent),
        "transverse": sorted(fc.transverse),
        "beta0": fc.beta0 if math.isfinite(fc.beta0) else None,
        "nonneg_ok": report.nonneg_ok,
        "lambda_estimate": report.lambda_estimate,
        "violations": [str(v) for v in report.violations],
    }


class _CheckFailed(Exception):
    """Internal: carries the summary results of a failed cleanness check."""

    def __init__(self, results: dict):
        super().__init__("cleanness violated")
        self.results = results


def _task_simulate(L, params, seed, workers, out: Path) -> dict:
    from .sde import simulate_ensemble

    cfg = _sim_config(params, seed, params["T"])
    ens = simulate_ensemble(L, _point(params), cfg, params["n_paths"], workers=workers)
    strata = ens.strata()
    rows = []
    for i in range(ens.n_paths):
        rows.append(
            [
                i,
                _stratum_label(strata[i]),
                ens.terminal_time[i],
                int(ens.first_hit_face[i]),
                ens.first_hit_time[i] if ens.first_hit_face[i] else "",
                *ens.terminal_xy[i],
            ]
        )
    coord_names = [f"x{i+1}" for i in range(L.n)] + [f"y{l+1}" for l in range(L.m)]
    _write_csv(
        out / "terminal.csv",
        ["path", "stratum", "t_final", "first_hit_face", "first_hit_time", *coord_names],
        rows,
    )
    counts: dict = {}
    for s in strata:
        counts[s] = counts.get(s, 0) + 1
    mass = {}
    for s, c in sorted(counts.items(), key=lambda kv: sorted(kv[0])):
        p, (lo, hi) = _prob_ci(c, ens.n_paths)
        mass[_stratum_label(s)] = {"estimate": p, "ci_lo": lo, "ci_hi": hi}
    return {"n_paths": ens.n_paths, "strata": mass}


def _task_decompose(L, params, seed, workers, out: Path) -> dict:
    from .estimators import decompose

    dec = decompose(
        L,
        _point(params),
        params["t"],
        params["n_paths"],
        cfg=_sim_config(params, seed, params["t"]),
        workers=workers,
        **_given(params, "bins"),
    )
    rows = [
        [_stratum_label(s), dec.counts[s], est, se]
        for s, (est, se) in sorted(dec.masses.items(), key=lambda kv: sorted(kv[0]))
    ]
    _write_csv(out / "masses.csv", ["stratum", "count", "mass", "stderr"], rows)
    return {
        "t": dec.t,
        "n_paths": dec.n_paths,
        "masses": {
            _stratum_label(s): {"estimate": est, "stderr": se}
            for s, (est, se) in dec.masses.items()
        },
    }


def _task_hitting(L, params, seed, workers, out: Path) -> dict:
    from .estimators import hitting_histogram

    cfg = _sim_config(params, seed, params["T"])
    hist = hitting_histogram(
        L,
        _point(params),
        params["face"],
        params["n_paths"],
        cfg=cfg,
        workers=workers,
        **_given(params, "time_bins", "loc_bins"),
    )
    n_loc = len(hist.loc_edges)
    header = ["t_lo", "t_hi"]
    for d in range(n_loc):
        header += [f"loc{d}_lo", f"loc{d}_hi"]
    header += ["count", "mass"]
    rows = []
    for idx in np.ndindex(hist.counts.shape):
        c = hist.counts[idx]
        if c == 0:
            continue
        row = [hist.time_edges[idx[0]], hist.time_edges[idx[0] + 1]]
        for d in range(n_loc):
            row += [hist.loc_edges[d][idx[1 + d]], hist.loc_edges[d][idx[1 + d] + 1]]
        rows.append(row + [int(c), c / hist.n_paths])
    _write_csv(out / "hitting.csv", header, rows)
    marg = hist.time_marginal()
    widths = np.diff(hist.time_edges)
    _write_csv(
        out / "time_marginal.csv",
        ["t_lo", "t_hi", "count", "density"],
        [
            [hist.time_edges[i], hist.time_edges[i + 1], int(marg[i]),
             marg[i] / (hist.n_paths * widths[i])]
            for i in range(marg.size)
        ],
    )
    p, (lo, hi) = _prob_ci(hist.total, hist.n_paths)
    return {
        "face": hist.face,
        "hit_mass": {"estimate": p, "ci_lo": lo, "ci_hi": hi},
        "n_paths": hist.n_paths,
    }


def _task_occupation(L, params, seed, workers, out: Path) -> dict:
    from .estimators import transverse_occupation

    occ = transverse_occupation(
        L,
        _point(params),
        params["T"],
        params["n_paths"],
        params["eps"],
        cfg=_sim_config(params, seed, params["T"]),
        workers=workers,
    )
    rows = []
    for row_i, face in enumerate(occ.faces):
        for j, eps in enumerate(occ.eps):
            rows.append([face, eps, occ.mean[row_i, j], occ.stderr[row_i, j]])
    _write_csv(out / "occupation.csv", ["face", "eps", "mean", "stderr"], rows)
    per_face = {}
    for face in occ.faces:  # an undefined fit is written as null
        floor, floor_se = occ.intercept_estimate(face) or (None, None)
        per_face[str(face)] = {
            "loglog_slope": occ.loglog_slope(face),
            "floor": floor,
            "floor_stderr": floor_se,
        }
    return {"faces": per_face, "eps": list(occ.eps), "n_paths": occ.n_paths}


def _task_kernel(L, params, seed, workers, out: Path) -> dict:
    from .pde import dirichlet_kernel

    ks = dirichlet_kernel(
        L, params["p0"], params["T"], params["dt"], **_given(params, "M")
    )
    _write_csv(
        out / "kernel.csv",
        ["x", "density"],
        [[x, d] for x, d in zip(ks.grid.nodes, ks.k[-1])],
    )
    faces = sorted(ks.flux)
    _write_csv(
        out / "survival.csv",
        ["t", "survival", *[f"flux_face{f}" for f in faces]],
        [
            [ks.step_times[i], ks.survival[i], *[ks.flux[f][i] for f in faces]]
            for i in range(ks.step_times.size)
        ],
    )
    # the implicit march loses dt·flux(tᵢ) through a face in step i, so the
    # absorbed mass is the backward-rectangle sum, as in CaloricDensity.total
    return {
        "p0_snapped": ks.p0,
        "survival_final": float(ks.survival[-1]),
        "absorbed": {
            str(f): float(np.dot(np.diff(ks.step_times), ks.flux[f][1:])) for f in faces
        },
    }


def _zeta(omega: float):
    return lambda t: math.sin(omega * t) ** 2


def _task_duhamel(L, params, seed, workers, out: Path) -> dict:
    from .pde import duhamel_solve, solve_nonhomogeneous, stochastic_rep_check

    T, dt, M = params["T"], params["dt"], _given(params, "M")
    zeta = _zeta(params.get("omega", 1.0))  # the library takes any ζ, so the CLI picks one
    direct = solve_nonhomogeneous(L, zeta, T, dt, store_times=(T,), **M)
    via = duhamel_solve(L, zeta, T, dt, grid=direct.grid, store_times=(T,))
    ud, uv = direct.at(T), via.at(T)
    _write_csv(
        out / "duhamel.csv",
        ["x", "direct", "superposition", "abs_diff"],
        [[x, a, b, abs(a - b)] for x, a, b in zip(direct.grid.nodes, ud, uv)],
    )
    results: dict = {"max_abs_diff": float(np.max(np.abs(ud - uv))), "T": T}
    if "n_paths" in params:
        rep = stochastic_rep_check(
            L,
            zeta,
            params.get("p0", 0.3),  # the library has no default start
            T,
            params["n_paths"],
            dt_pde=dt,
            dt_mc=params.get("dt_mc", dt),  # the paths step like the solve unless split
            seed=seed,
            workers=workers,
            **M,
        )
        results["stochastic_rep"] = {
            "pde_value": rep.pde_value,
            "mc_value": rep.mc_value,
            "mc_stderr": rep.mc_stderr,
            "discrepancy": rep.discrepancy,
        }
    return results


def _task_crosscheck(L, params, seed, workers, out: Path) -> dict:
    from .estimators import decompose
    from .pde import Grid1D, dirichlet_kernel

    times = sorted(params["times"])
    M = params.get("M", 800)  # finer than the kernel default: the M/2 grid bounds its error
    dt_pde = params.get("dt_pde", params["dt"])  # one step for paths and solve unless split
    horizon = max(times)
    grid_f = Grid1D.for_operator(L, M)
    grid_h = Grid1D.for_operator(L, M // 2)
    p0 = _point(params)
    classify_point(p0, L.dom)  # the kernels read p0 before any path runs
    ks_f = dirichlet_kernel(L, float(p0.x[0]), horizon, dt_pde, grid=grid_f)
    ks_h = dirichlet_kernel(L, float(p0.x[0]), horizon, dt_pde, grid=grid_h)
    rows, worst = [], {}
    for t in times:
        cfg = _sim_config(params, seed, t)
        dec = decompose(L, p0, t, params["n_paths"], cfg=cfg, workers=workers)
        mc, se = dec.mass(frozenset())
        pde = ks_f.survival_at(t)
        grid_err = abs(pde - ks_h.survival_at(t))
        rows.append([t, mc, se, pde, abs(mc - pde), grid_err])
        worst[str(t)] = {
            "mc_mass": mc,
            "mc_stderr": se,
            "pde_mass": pde,
            "abs_diff": abs(mc - pde),
            "pde_grid_err": grid_err,
            "bound": 3.0 * se + 2.0 * grid_err,
        }
    _write_csv(
        out / "crosscheck.csv",
        ["t", "mc_mass", "mc_stderr", "pde_mass", "abs_diff", "pde_grid_err"],
        rows,
    )
    return {"times": worst, "M": M}


def _task_corner(L, params, seed, workers, out: Path) -> dict:
    from .estimators import _corner_faces, corner_hit_probability

    try:
        faces = _corner_faces(L.dom, params["faces"])
    except ValueError as exc:
        raise ConfigInvalid(str(exc), field="params.faces") from exc
    cfg = _sim_config(params, seed, params["T"])
    trips = corner_hit_probability(
        L,
        _point(params),
        faces,
        params["n_paths"],
        cfg=cfg,
        eps_corner=params["eps"],
        workers=workers,
    )
    n = params["n_paths"]
    rows = [
        [eps, int(round(p * n)), n, p, lo, hi] for eps, p, (lo, hi) in trips
    ]
    _write_csv(
        out / "corner.csv", ["eps", "count", "n_paths", "p_hat", "ci_lo", "ci_hi"], rows
    )
    return {
        "faces": list(faces),
        "estimates": {
            repr(eps): {"p_hat": p, "ci_lo": lo, "ci_hi": hi}
            for eps, p, (lo, hi) in trips
        },
    }


def _task_counterexample(L, params, seed, workers, out: Path) -> dict:
    from .sde import _corner_run, _faces_or_corner_stop, _run_chunked

    if _faces_or_corner_stop(L) is not None:
        raise ConfigInvalid(
            "the counterexample task runs operators whose faces do not classify; this one's do",
            field="operator.preset",
        )
    cfg = _sim_config(params, seed, params["T"])
    parts = _run_chunked(
        _corner_run,
        params["n_paths"],
        workers,
        L=L,
        p0=_point(params),
        cfg=cfg,
        **_given(params, "eps_abs", "s_freeze"),
    )
    hit, hit_time = (np.concatenate([part[k][:, 0] for part in parts]) for k in (0, 1))
    _write_csv(
        out / "hits.csv",
        ["path", "hit", "hit_time"],
        [
            [i, int(hit[i]), hit_time[i] if hit[i] else ""]
            for i in range(params["n_paths"])
        ],
    )
    p, (lo, hi) = _prob_ci(int(hit.sum()), params["n_paths"])
    return {"frequency": p, "ci_lo": lo, "ci_hi": hi, "n_paths": params["n_paths"]}


def _task_doubling(L, params, seed, workers, out: Path) -> dict:
    from .estimators import aligned_hitting_edges, doubling_ratio, hitting_histogram

    cfg = _sim_config(params, seed, params["T"])
    r_max, levels = params["r_max"], params["levels"]
    extent = getattr(L.dom, "radius", 1.0)
    time_edges, loc_edges = aligned_hitting_edges(
        params["t"], params["q"], r_max, levels, params["T"], loc_range=(0.0, extent)
    )
    hist = hitting_histogram(
        L,
        _point(params),
        params["face"],
        params["n_paths"],
        time_bins=time_edges,
        loc_bins=(loc_edges,),
        cfg=cfg,
        workers=workers,
    )
    r_grid = [r_max / 2**j for j in range(levels)]
    trips = doubling_ratio(hist, params["q"], r_grid, params["t"])
    _write_csv(out / "doubling.csv", ["r", "ratio", "stderr"], trips)
    return {
        "t": params["t"],
        "q": params["q"],
        "ratios": [
            {"r": r, "ratio": ratio, "stderr": se} for r, ratio, se in trips
        ],
    }


def _task_barriers(L, params, seed, workers, out: Path) -> dict:
    from .operator import model1d
    from .verify import (
        AppendixOperator,
        check_barrier_regularity,
        check_barrier_w1,
        check_barrier_w2,
    )

    M = params.get("M", 64)  # also sets the regularity grid below
    nu = _given(params, "nu")
    A2 = AppendixOperator(b2=lambda x1, x2: x1, **nu)
    r_w2 = check_barrier_w2(A2, M=M, **_given(params, "H"))
    r_w1 = check_barrier_w1(AppendixOperator(**nu), M=M, **_given(params, "theta2"))
    # the library has no default window for the regularity barrier
    r_reg = check_barrier_regularity(
        model1d(0.0), rho=params.get("rho", 0.25), M=max(32, M // 2)
    )
    reports = [r_w2, r_w1, r_reg]
    _write_csv(
        out / "barriers.csv",
        ["barrier", "verdict", "min_margin", "parameters"],
        [
            [
                r.name,
                "pass" if r.passed else "fail",
                r.min_margin,
                ";".join(f"{k}={_fmt(v)}" for k, v in sorted(r.params.items())),
            ]
            for r in reports
        ],
    )
    results = {r.name: json.loads(r.to_json()) for r in reports}
    if not all(r.passed for r in reports):
        raise _CheckFailed({"barriers": results, "verdict": "fail"})
    return {"barriers": results, "verdict": "pass"}


def _task_growth(L, params, seed, workers, out: Path) -> dict:
    from .verify import AppendixOperator, growth_ratio

    # tangent-face data 0 unless the config sets it (the operator's own ν is ½)
    A = AppendixOperator(
        nu=params.get("nu", 0.0), **_given(params, "a11", "a22", "b1", "b2")
    )
    rep = growth_ratio(A, **_given(params, "r_values", "outer", "M"))
    _write_csv(
        out / "growth.csv",
        ["r", "m_half", "m_one", "ratio"],
        [[e.r, e.m_half, e.m_one, e.ratio] for e in rep.entries],
    )
    return json.loads(rep.to_json())


# each task's params schema and runner: (kind, required, positive) per key
TASKS: dict = {
    "check": ({"samples": ("int", False, True)}, _task_check),
    "simulate": ({**_COMMON_SIM, "T": ("number", True, True)}, _task_simulate),
    "decompose": ({
        **_COMMON_SIM,
        "t": ("number", True, True),
        "bins": ("int", False, True),
    }, _task_decompose),
    "hitting": ({
        **_COMMON_SIM,
        "T": ("number", True, True),
        "face": ("int", True, True),
        "time_bins": ("int", False, True),
        "loc_bins": ("int", False, True),
    }, _task_hitting),
    "occupation": ({
        **_COMMON_SIM,
        "T": ("number", True, True),
        "eps": ("list[number]", True, True),
    }, _task_occupation),
    "kernel": ({
        "p0": ("number", True, True),
        "T": ("number", True, True),
        "dt": ("number", True, True),
        "M": ("int", False, True),
    }, _task_kernel),
    "duhamel": ({
        "T": ("number", True, True),
        "dt": ("number", True, True),
        "M": ("int", False, True),
        "omega": ("number", False, True),
        "p0": ("number", False, True),
        "n_paths": ("int", False, True),
        "dt_mc": ("number", False, True),
    }, _task_duhamel),
    "crosscheck": ({
        **_COMMON_SIM,
        "times": ("list[number]", True, True),
        "dt_pde": ("number", False, True),
        "M": ("int", False, True),
    }, _task_crosscheck),
    "corner": ({
        **_COMMON_SIM,
        "T": ("number", True, True),
        "faces": ("list[int]", True, True),
        "eps": ("list[number]", True, True),
    }, _task_corner),
    "counterexample": ({
        **_COMMON_SIM,
        "T": ("number", True, True),
        "eps_abs": ("number", False, True),
        "s_freeze": ("number", False, True),
    }, _task_counterexample),
    "doubling": ({
        **_COMMON_SIM,
        "T": ("number", True, True),
        "face": ("int", True, True),
        "t": ("number", True, True),
        "q": ("number", True, False),
        "r_max": ("number", True, True),
        "levels": ("int", True, True),
    }, _task_doubling),
    "barriers": ({
        "theta2": ("number", False, True),
        "rho": ("number", False, True),
        "H": ("number", False, True),
        "nu": ("number", False, True),
        "M": ("int", False, True),
    }, _task_barriers),
    "growth": ({
        "nu": ("number", False, False),
        "outer": ("number", False, False),
        "M": ("int", False, True),
        "r_values": ("list[number]", False, True),
        "a11": ("number", False, True),
        "a22": ("number", False, True),
        "b1": ("number", False, False),
        "b2": ("number", False, False),
    }, _task_growth),
}


# --------------------------------------------------------------------------
# orchestration
# --------------------------------------------------------------------------


def _write_summary(out: Path, task: str, cfg: dict, seed, workers, results, status) -> None:
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": _SCHEMA_VERSION,
        "task": task,
        "status": status,
        "config": cfg,
        "seed": seed,
        "workers": workers,
        "version": __version__,
        "results": _jsonable(results),
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_config(
    task: str,
    cfg: dict,
    *,
    seed: int | None = None,
    out: str | None = None,
    workers: int | None = None,
) -> int:
    """Validate and execute one task; returns the process exit code."""
    try:
        validate_config(cfg, task)
    except ConfigInvalid as exc:
        print(f"config invalid at {exc.field or '<root>'}: {exc}", file=sys.stderr)
        return 3
    eff_seed = seed if seed is not None else cfg.get("seed", 0)
    eff_workers = workers if workers is not None else cfg.get("workers", 1)
    out_dir = Path(out if out is not None else cfg.get("out", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        L = None if task in _OWN_OPERATOR else _build_operator(cfg["operator"])
        results = TASKS[task][1](L, cfg.get("params", {}), eff_seed, eff_workers, out_dir)
        code, status, line = 0, "ok", None
    except ConfigInvalid as exc:
        print(f"config invalid at {exc.field or '<root>'}: {exc}", file=sys.stderr)
        return 3
    except _CheckFailed as exc:
        code, status, line = 2, "assumption-failure", "assumption check failed"
        results = exc.results
    except _ASSUMPTION_ERRORS as exc:
        code, status, line = 2, "assumption-failure", str(exc)
        results = {"error": type(exc).__name__, "message": str(exc)}
    except (KimuraError, ValueError, OSError, KeyError) as exc:
        code, status, line = 1, "error", f"{type(exc).__name__}: {exc}"
        results = {"error": type(exc).__name__, "message": str(exc)}
    _write_summary(out_dir, task, cfg, eff_seed, eff_workers, results, status)
    if line is not None:
        print(f"{task}: {line}", file=sys.stderr)
    return code


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kimura",
        description="Corner-domain degenerate diffusions: simulation, solves, checks.",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for name in TASKS:
        p = sub.add_parser(name, help=f"run the {name} task")
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--workers", type=int, default=None, help="override worker count")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 3
    return run_config(
        args.task, cfg, seed=args.seed, out=args.out, workers=args.workers
    )


if __name__ == "__main__":
    sys.exit(main())
