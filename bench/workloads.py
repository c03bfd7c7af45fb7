"""The benchmark's four workloads.

Each workload is one closed-loop caller: a single process that runs the same
operation again and again, each call after the previous one returned.  One
operation is one estimate by the package together with its checks against
the exact laws in :mod:`laws`.  ``setup`` builds the inputs from the seed
(this is what ``setup_s`` times), ``run`` makes the package calls (this is
what ``wall_s`` times), ``check`` compares the outputs with the references
and returns the failed checks, and ``digest`` fingerprints the estimates, so
that repeats of an operation can be held to bit-identical results.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from kimura import cli, estimators, pde, sde, verify
from kimura.geometry import Point
from kimura.operator import make_preset, model1d, product_operator, wright_fisher


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path], Any]
    reference: Callable[[Any], Any]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any, Any], list[str]]
    digest: Callable[[Any, Any], str]


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        raw = np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray) else repr(p).encode()
        h.update(raw)
    return h.hexdigest()


def _within(failed: list, label: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        failed.append(f"{label}: got {got:.6g}, exact {want:.6g}, |Δ| > {tol:.3g}")


# --- wf3_absorb ---------------------------------------------------------------
# Neutral three-allele Wright–Fisher from (0.3, 0.3), decomposed at t = 10.
# Paths are absorbed interior → edge → vertex, so the cohort shrinks from full
# batches to a tail of a few paths on the edges.

WF3_P0 = (0.3, 0.3)
WF3_T = 10.0
WF3_PATHS = 4000
# vertex stratum → the allele it fixes → its fixation probability
WF3_VERTICES = {frozenset({2, 3}): 0.3, frozenset({1, 3}): 0.3, frozenset({1, 2}): 0.4}


def _wf3_setup(seed: int, out: Path):
    L = wright_fisher(2, [0.0, 0.0, 0.0])
    L.classify_faces()
    return {"L": L, "p0": Point(list(WF3_P0)), "cfg": sde.SimConfig(dt=1e-3, seed=seed)}


def _wf3_reference(inp):
    import laws  # scipy.stats stays out of setup_s

    # P(not yet fixed at t) decays like e^{-t} (the heterozygosity's rate);
    # at t = 10 it is below 1e-4 of the mass, far inside the binomial band.
    z = laws.z_tolerance(len(WF3_VERTICES))
    return {
        stratum: (p, z * laws.binomial_se(p, WF3_PATHS) + math.exp(-WF3_T))
        for stratum, p in WF3_VERTICES.items()
    }


def _wf3_run(inp):
    return estimators.decompose(inp["L"], inp["p0"], WF3_T, WF3_PATHS, cfg=inp["cfg"])


def _wf3_check(inp, ref, dec) -> list[str]:
    failed: list[str] = []
    if sum(dec.counts.values()) != WF3_PATHS:
        failed.append(f"stratum counts sum to {sum(dec.counts.values())}, not {WF3_PATHS}")
    for stratum, (p, tol) in ref.items():
        _within(failed, f"mass{sorted(stratum)}", dec.counts.get(stratum, 0) / WF3_PATHS, p, tol)
    return failed


def _wf3_digest(inp, dec) -> str:
    keys = sorted(dec.counts, key=sorted)
    return _sha([(sorted(k), dec.counts[k]) for k in keys], dec.interior_hist,
                *[dec.location_hists[k][1] for k in keys])


# --- crossfed_corner ----------------------------------------------------------
# The CLI ``corner`` task on the cross-fed-drift preset: the dedicated
# full-truncation loop, which never calls ``operator``, plus the CLI's
# validation and writers.  Two ε values, because the estimator re-simulates
# the ensemble per ε.

CORNER_P0 = (0.05, 0.05)
CORNER_EPS = (1e-4, 1e-6)
CORNER_PATHS = 10000


def _corner_setup(seed: int, out: Path):
    cfg = {
        "version": "1",
        "operator": {"preset": "remark-counterexample"},
        "params": {
            "p0": list(CORNER_P0),
            "dt": 1e-3,
            "n_paths": CORNER_PATHS,
            "T": 20.0,
            "faces": [1, 2],
            "eps": list(CORNER_EPS),
        },
    }
    cli.validate_config(cfg, "corner")
    return {"cfg": cfg, "seed": seed, "out": out / "corner"}


def _corner_reference(inp):
    import laws

    z = laws.z_tolerance(len(CORNER_EPS))
    ref = {}
    for eps in CORNER_EPS:
        p = laws.corner_hit_probability(sum(CORNER_P0), eps)
        ref[eps] = (p, z * laws.binomial_se(p, CORNER_PATHS))
    return ref


def _corner_run(inp):
    shutil.rmtree(inp["out"], ignore_errors=True)
    return cli.run_config("corner", inp["cfg"], seed=inp["seed"], out=str(inp["out"]))


def _corner_read(inp):
    summary = json.loads((inp["out"] / "summary.json").read_text())
    csv_bytes = (inp["out"] / "corner.csv").read_bytes()
    return summary, csv_bytes


def _corner_check(inp, ref, rc) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    summary, csv_bytes = _corner_read(inp)
    if summary["status"] != "ok":
        return [f"status {summary['status']!r}"]
    rows = [line.split(",") for line in csv_bytes.decode().splitlines()[1:]]
    counts = {float(r[0]): int(r[1]) for r in rows}
    failed: list[str] = []
    for eps, (p, tol) in ref.items():
        got = summary["results"]["estimates"][repr(eps)]["p_hat"]
        _within(failed, f"freq(eps={eps:g})", got, p, tol)
        if counts.get(eps) != round(got * CORNER_PATHS):
            failed.append(f"corner.csv count for eps={eps:g} disagrees with summary.json")
    if not counts.get(1e-4, -1) >= counts.get(1e-6, math.inf):
        failed.append(f"count(eps=1e-4)={counts.get(1e-4)} < count(eps=1e-6)={counts.get(1e-6)}")
    return failed


def _corner_digest(inp, rc) -> str:
    summary, csv_bytes = _corner_read(inp)
    return _sha(summary["results"], csv_bytes)


# --- product_hitting ----------------------------------------------------------
# A11's mechanism: the product of x∂² (tangent face 1) and x∂² + ∂ (transverse
# face 2) from (0.15, 0.30), stopped at the first tangent hit, with occupation
# accounting near face 2.  Batches stay full until each path's hit.

PROD_P0 = (0.15, 0.30)
PROD_T = 0.36
PROD_R_MAX, PROD_LEVELS = 0.2, 5
PROD_DT = (PROD_R_MAX / 2 ** (PROD_LEVELS - 1)) ** 2  # hit times land on bin edges
PROD_T_CENTER, PROD_Q_CENTER = 0.18, 0.45
PROD_R = (0.2, 0.1, 0.05)
PROD_OCC_EPS = (0.02, 0.05, 0.1, 0.2)
PROD_CDF_T = (0.09, 0.18, 0.27, 0.36)
PROD_LOC_BINS = ((0.0, 0.25), (0.25, 0.5), (0.5, 1.0), (1.0, 4.0))
PROD_PATHS = 15000
PROD_BOUND = 16.0  # twice the smooth-density parabolic count 2³, as in A11


def _prod_setup(seed: int, out: Path):
    P = product_operator(model1d(0.0, radius=4.0), model1d(1.0, radius=4.0))
    P.classify_faces()
    te, le = estimators.aligned_hitting_edges(
        PROD_T_CENTER, PROD_Q_CENTER, PROD_R_MAX, PROD_LEVELS, PROD_T, loc_range=(0.0, 4.0)
    )
    cfg = sde.SimConfig(
        dt=PROD_DT, T=PROD_T, seed=seed,
        stop_at_first_tangent_hit=True, occupation_eps=PROD_OCC_EPS,
    )
    return {"P": P, "p0": Point(list(PROD_P0)), "cfg": cfg, "te": te, "le": le}


def _prod_reference(inp):
    import laws

    x0, y0 = PROD_P0
    n_checks = len(PROD_CDF_T) + len(PROD_LOC_BINS) + len(PROD_OCC_EPS) + 3 * len(PROD_R)
    z = laws.z_tolerance(n_checks)

    def band(p: float):
        return p, z * laws.binomial_se(p, PROD_PATHS)

    # A hit is recorded at the end of the step in which the clamp happens, so
    # a recorded time in [a, b) on the step grid is a crossing in (a−dt, b−dt].
    windows = {}
    for r in PROD_R:
        for rr in (r, 2 * r):
            windows[rr] = band(laws.hit_mass(
                x0, y0,
                PROD_T_CENTER - rr * rr - PROD_DT, PROD_T_CENTER + rr * rr - PROD_DT,
                PROD_Q_CENTER - rr, PROD_Q_CENTER + rr,
            ))
    return {
        "cdf": [band(laws.tau_cdf(t, x0)) for t in PROD_CDF_T],
        "loc": [band(laws.hit_mass(x0, y0, 0.0, PROD_T, a, b)) for a, b in PROD_LOC_BINS],
        "occ": [laws.mean_occupation(x0, y0, PROD_T, e) for e in PROD_OCC_EPS],
        "windows": windows,
        "z": z,
    }


def _prod_run(inp):
    P, p0, cfg = inp["P"], inp["p0"], inp["cfg"]
    ens = sde.simulate_ensemble(P, p0, cfg, PROD_PATHS)
    hist = estimators.hitting_histogram(
        P, p0, 1, PROD_PATHS, time_bins=inp["te"], loc_bins=(inp["le"],), cfg=cfg, ens=ens
    )
    trips = estimators.doubling_ratio(hist, PROD_Q_CENTER, PROD_R, PROD_T_CENTER)
    return ens, hist, trips


def _window_count(hist, t: float, q: float, r: float) -> int:
    """Hits in [t−r², t+r²) × [q−r, q+r), read off the bin edges directly."""
    te, le = hist.time_edges, hist.loc_edges[0]
    i0, i1 = np.searchsorted(te, [t - r * r - 1e-12, t + r * r - 1e-12])
    j0, j1 = np.searchsorted(le, [q - r - 1e-12, q + r - 1e-12])
    return int(hist.counts[i0:i1, j0:j1].sum())


def _prod_check(inp, ref, out) -> list[str]:
    ens, hist, trips = out
    n, z, dt = PROD_PATHS, ref["z"], PROD_DT
    failed: list[str] = []
    hit = ens.first_hit_face == 1
    t_hit = ens.first_hit_time[hit]
    for t, (p, tol) in zip(PROD_CDF_T, ref["cdf"]):
        got = np.count_nonzero(t_hit <= t + 0.5 * dt) / n
        _within(failed, f"P(tau<={t:g})", got, p, tol)
    y_hit = ens.first_hit_xy[hit, 1]
    for (a, b), (p, tol) in zip(PROD_LOC_BINS, ref["loc"]):
        got = np.count_nonzero((y_hit >= a) & (y_hit < b)) / n
        _within(failed, f"P(Y_tau in [{a:g},{b:g}))", got, p, tol)
    face_row = ens.tracked_faces.index(2)
    for j, (eps, want) in enumerate(zip(PROD_OCC_EPS, ref["occ"])):
        occ = ens.occupation[:, face_row, j]
        se = float(occ.std(ddof=1)) / math.sqrt(n)
        _within(failed, f"occupation(eps={eps:g})", float(occ.mean()), want, z * se)
    for r, ratio, se in trips:
        n1 = _window_count(hist, PROD_T_CENTER, PROD_Q_CENTER, r)
        n2 = _window_count(hist, PROD_T_CENTER, PROD_Q_CENTER, 2 * r)
        for rr, count in ((r, n1), (2 * r, n2)):
            p, tol = ref["windows"][rr]
            _within(failed, f"window mass r={rr:g}", count / n, p, tol)
        if n1 == 0 or not math.isclose(ratio, n2 / n1, rel_tol=1e-12):
            failed.append(f"doubling ratio at r={r:g} is {ratio}, window counts give {n2}/{n1}")
        elif ratio - z * se > PROD_BOUND:
            failed.append(f"doubling ratio at r={r:g} is {ratio:.3f}±{se:.3f} > {PROD_BOUND:g}")
    return failed


def _prod_digest(inp, out) -> str:
    ens, hist, trips = out
    return _sha(ens.first_hit_time, ens.first_hit_face, ens.first_hit_xy,
                ens.terminal_xy, ens.occupation, hist.counts, trips)


# --- pde_solves ---------------------------------------------------------------
# The only workload through ``pde`` and ``verify``: graded grids, generator
# assembly, sparse LU, about 10⁴ solves per march.  No random numbers, so a
# path-engine change leaves it unmoved.

PDE_X0, PDE_T, PDE_DT = 0.3, 1.0, 1e-4
PDE_M = (800, 1600)
GROWTH_M = (256, 128)
GROWTH_PRESET = dict(a11=1.0, a22=1.0, b1=0.0, b2=0.5, nu=0.0)  # A10's operator
GROWTH_STEP = 0.05  # A10's bound on θ_obs between a grid and its refinement


def _pde_setup(seed: int, out: Path):
    wf = wright_fisher(1, [0.0, 0.0])
    wf.classify_faces()
    return {"wf": wf, "G": make_preset("appendix-A", **GROWTH_PRESET)}


def _pde_reference(inp):
    import laws

    n = round(PDE_T / PDE_DT)
    return {"decay": laws.implicit_euler_decay(1.0, PDE_T, n), "exact": math.exp(-PDE_T)}


def _pde_run(inp):
    wf, G = inp["wf"], inp["G"]
    per_m = {}
    for M in PDE_M:
        ks = pde.dirichlet_kernel(wf, PDE_X0, PDE_T, PDE_DT, M=M)
        h = {face: pde.caloric_density(ks, face) for face in (1, 2)}
        back = pde.solve_backward(wf, lambda x: x * (1.0 - x), PDE_T, PDE_DT, M=M)
        per_m[M] = (ks, h, back)
    growth = {M: verify.growth_ratio(G, M=M, nu=GROWTH_PRESET["nu"]) for M in GROWTH_M}
    return per_m, growth


def _pde_quantities(ks, h, back):
    """The identities' left-hand sides and their exact right-hand sides."""
    g = ks.grid
    x, mu, k = g.nodes, g.cell_mass, ks.k[-1]
    x0 = ks.p0  # the kernel starts from the grid node nearest PDE_X0
    absorbed = h[1].total + h[2].total  # face 1 is x = 0, face 2 is x = 1
    e = math.exp(-PDE_T)
    return {
        "mass": (ks.survival[-1] + absorbed, 1.0),
        "mean": (float(np.sum(mu * x * k)) + h[2].total, x0),
        "eigen": (float(np.sum(mu * x * (1 - x) * k)), x0 * (1 - x0) * e),
        "backward": (float(np.max(np.abs(back.final - e * x * (1 - x)))), 0.0),
    }


def _pde_check(inp, ref, out) -> list[str]:
    per_m, growth = out
    q = {M: _pde_quantities(*per_m[M]) for M in PDE_M}
    # Implicit Euler in time: x(1−x) decays by (1+dt)^{−n} instead of e^{−T},
    # and the flux integral (trapezoid) differs from the scheme's own
    # backward-rectangle loss by at most dt·sup(flux).
    step_err = abs(ref["decay"] - ref["exact"])
    failed: list[str] = []
    for M in PDE_M:
        ks, h, _ = per_m[M]
        flux_sup = float(np.max(h[1].values + h[2].values))
        time_err = {
            "mass": PDE_DT * flux_sup,
            "mean": PDE_DT * flux_sup,
            "eigen": ks.p0 * (1 - ks.p0) * step_err,
            "backward": 0.25 * step_err,
        }
        for key, (got, want) in q[M].items():
            # grid error: under second-order convergence the error on M is at
            # most (4/3)|e(M) − e(2M)|, so twice the change covers both grids
            e_coarse, e_fine = (q[m][key][0] - q[m][key][1] for m in PDE_M)
            grid_err = 2.0 * abs(e_coarse - e_fine)
            _within(failed, f"{key} (M={M})", got, want, time_err[key] + grid_err + 1e-12)
    thetas = [growth[M].theta_obs for M in GROWTH_M]
    for M, th in zip(GROWTH_M, thetas):
        ratios = [e.ratio for e in growth[M].entries]
        if not (th < 1.0 and all(0.0 < r < 1.0 for r in ratios)):
            failed.append(f"growth ratios at M={M} not all in (0, 1): {ratios}")
    step = abs(thetas[0] - thetas[1])
    if not step <= GROWTH_STEP:
        failed.append(f"θ_obs moves by {step:.3g} > {GROWTH_STEP} on the halved grid")
    return failed


def _pde_digest(inp, out) -> str:
    per_m, growth = out
    parts = []
    for M in PDE_M:
        ks, h, back = per_m[M]
        parts += [ks.survival, ks.k, h[1].values, h[2].values, back.final]
    parts += [[(e.r, e.m_half, e.m_one) for e in growth[M].entries] for M in GROWTH_M]
    return _sha(*parts)


WORKLOADS = {
    "wf3_absorb": Workload(
        _wf3_setup, _wf3_reference, _wf3_run, _wf3_check, _wf3_digest
    ),
    "crossfed_corner": Workload(
        _corner_setup, _corner_reference, _corner_run, _corner_check, _corner_digest
    ),
    "product_hitting": Workload(
        _prod_setup, _prod_reference, _prod_run, _prod_check, _prod_digest
    ),
    "pde_solves": Workload(
        _pde_setup, _pde_reference, _pde_run, _pde_check, _pde_digest
    ),
}
