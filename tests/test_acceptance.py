"""Acceptance suite: one end-to-end check per shipped guarantee (A1–A12).

Every test prints a single ``A# PASS/FAIL: …`` line on the real terminal
(bypassing capture) before asserting, so a full run reads as a scorecard.
All Monte Carlo configurations use fixed seeds and the counter-based
generator, so reruns reproduce these numbers bit for bit.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kimura.estimators import (
    aligned_hitting_edges,
    corner_hit_probability,
    decompose,
    doubling_ratio,
    hitting_histogram,
    transverse_occupation,
)
from kimura.geometry import CornerBox, Point
from kimura.operator import (
    KimuraOperator,
    PolyField,
    make_preset,
    model1d,
    product_operator,
    sample_domain,
    wright_fisher,
)
from kimura.pde import (
    Grid1D,
    caloric_density,
    dirichlet_kernel,
    duhamel_solve,
    generator_matrix,
    mu_inner,
    solve_nonhomogeneous,
    stochastic_rep_check,
)
from kimura.sde import SimConfig, counterexample_ensemble
from kimura.verify import (
    AppendixOperator,
    check_barrier_regularity,
    check_barrier_w1,
    check_barrier_w2,
    growth_ratio,
)

GOLDEN = Path(__file__).parent / "golden" / "growth_theta.json"


def _verdict(capsys, tag: str, ok: bool, detail: str) -> None:
    line = f"{tag} {'PASS' if ok else 'FAIL'}: {detail}"
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# A1 — absorbed-mass decomposition of the driftless 1D diffusion
# ---------------------------------------------------------------------------


def test_A1_stratum_masses(wf, capsys):
    t0 = time.time()
    dec = decompose(wf, Point([0.3]), 50.0, 100_000, cfg=SimConfig(dt=1e-3, seed=1))
    elapsed = time.time() - t0
    m1, s1 = dec.mass({1})
    m2, s2 = dec.mass({2})
    mi, _ = dec.mass(frozenset())
    ok = (
        mi <= 0.01
        and abs(m1 - 0.7) <= 3 * s1
        and abs(m2 - 0.3) <= 3 * s2
        and elapsed <= 60.0
    )
    _verdict(
        capsys,
        "A1",
        ok,
        f"mass(x=0)={m1:.4f}±{s1:.4f} (|Δ|={abs(m1-0.7):.4f}≤{3*s1:.4f}), "
        f"mass(x=1)={m2:.4f}±{s2:.4f}, interior={mi:.4f}≤0.01, {elapsed:.0f}s≤60s",
    )


# ---------------------------------------------------------------------------
# A2 — no corner first-hits for a clean tangent-tangent product
# ---------------------------------------------------------------------------


def test_A2_corner_avoidance(tangent_product, capsys):
    t0 = time.time()
    res = corner_hit_probability(
        tangent_product,
        Point([0.05, 5.0]),
        (1, 2),
        10_000,
        cfg=SimConfig(dt=1e-4, T=0.25, seed=12),
        eps_corner=(1e-2, 1e-3, 1e-4),
    )
    elapsed = time.time() - t0
    ok = elapsed <= 120.0 and all(
        est == 0.0 and hi <= 3.7e-4 for _, est, (_, hi) in res
    )
    detail = ", ".join(f"ε={e:g}: est={est:g} hi={hi:.1e}" for e, est, (_, hi) in res)
    _verdict(capsys, "A2", ok, f"{detail} (hi≤3.7e-4), {elapsed:.0f}s≤120s")


# ---------------------------------------------------------------------------
# A3 — the cross-fed-drift system reaches the corner
# ---------------------------------------------------------------------------


def test_A3_corner_hit_frequency(capsys):
    p0 = Point([0.05, 0.05])
    t0 = time.time()
    hit1, _ = counterexample_ensemble(p0, SimConfig(dt=1e-4, T=20.0, seed=2), 10_000)
    hit2, _ = counterexample_ensemble(p0, SimConfig(dt=5e-5, T=20.0, seed=2), 10_000)
    elapsed = time.time() - t0
    f1, f2 = float(hit1.mean()), float(hit2.mean())
    se1 = math.sqrt(f1 * (1 - f1) / hit1.size)
    se2 = math.sqrt(f2 * (1 - f2) / hit2.size)
    ok = f1 >= 0.9 and f2 > f1 and elapsed <= 300.0
    _verdict(
        capsys,
        "A3",
        ok,
        f"freq(dt=1e-4)={f1:.4f}±{se1:.4f} (need ≥0.9), "
        f"freq(dt=5e-5)={f2:.4f}±{se2:.4f} (increasing: {f2 > f1}), "
        f"exact e^-0.1={math.exp(-0.1):.4f}, {elapsed:.0f}s≤300s",
    )


# ---------------------------------------------------------------------------
# A4 — Monte Carlo interior mass vs solver survival mass
# ---------------------------------------------------------------------------


def test_A4_survival_cross_validation(wf, capsys):
    ks800 = dirichlet_kernel(wf, 0.3, 1.0, 1e-4, M=800)
    ks400 = dirichlet_kernel(wf, 0.3, 1.0, 1e-4, M=400)
    parts, ok = [], True
    for t in (0.1, 0.5, 1.0):
        dec = decompose(wf, Point([0.3]), t, 10_000, cfg=SimConfig(dt=1e-4, seed=13))
        mi, si = dec.mass(frozenset())
        s8 = ks800.survival_at(t)
        tol = 3 * si + 2 * abs(s8 - ks400.survival_at(t))
        ok = ok and abs(mi - s8) <= tol
        parts.append(f"t={t}: |{mi:.4f}-{s8:.4f}|={abs(mi-s8):.1e}≤{tol:.1e}")
    _verdict(capsys, "A4", ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# A5 — hitting-time histogram vs solver boundary flux
# ---------------------------------------------------------------------------


def test_A5_caloric_time_marginal(wf, capsys):
    hist = hitting_histogram(
        wf,
        Point([0.3]),
        1,
        100_000,
        time_bins=40,
        loc_bins=1,
        cfg=SimConfig(dt=1e-3, T=1.0, seed=3),
    )
    ks = dirichlet_kernel(wf, 0.3, 1.0, 2e-4, M=800)
    h = caloric_density(ks, 1)
    edges = hist.time_edges
    mc = hist.time_marginal() / hist.n_paths
    pde_mass = np.array(
        [h.cumulative(edges[i + 1]) - h.cumulative(edges[i]) for i in range(40)]
    )
    l1 = float(np.sum(np.abs(mc - pde_mass)))
    ok = l1 <= 0.05
    _verdict(capsys, "A5", ok, f"L1(MC, flux)={l1:.4f} ≤ 0.05 over [0,1], 40 bins")


# ---------------------------------------------------------------------------
# A6 — boundary-strip occupation scales like ε^b on a transverse face
# ---------------------------------------------------------------------------


def test_A6_occupation_exponent(capsys):
    eps = np.geomspace(1e-3, 1e-1, 7)
    parts, ok = [], True
    for b in (0.3, 0.7):
        occ = transverse_occupation(
            model1d(b, radius=1.0),
            Point([0.5]),
            1.0,
            10_000,
            eps,
            cfg=SimConfig(dt=1e-4, seed=4),
        )
        slope = occ.loglog_slope(1)
        floor, fse = occ.intercept_estimate(1)
        ok = ok and abs(slope - b) <= 0.1 and floor <= 3 * fse + 1e-3
        parts.append(
            f"b={b}: slope={slope:.3f} (±0.1), ε→0 floor={floor:.1e}≤{3*fse+1e-3:.1e}"
        )
    _verdict(capsys, "A6", ok, "; ".join(parts))


# ---------------------------------------------------------------------------
# A7 — forward/backward duality in the weighted inner product
# ---------------------------------------------------------------------------


def test_A7_duality(wf, capsys):
    grid = Grid1D.for_operator(wf, M=800)
    A = generator_matrix(grid).tocsc()
    mu = grid.cell_mass
    D = sp.diags(mu)
    Dinv = sp.diags(np.where(mu > 0, 1.0 / np.where(mu > 0, mu, 1.0), 0.0))
    B = (Dinv @ A.T @ D).tocsc()
    dt, steps = 0.01, 10
    back = spla.splu(sp.eye(A.shape[0], format="csc") - dt * A)
    fwd = spla.splu(sp.eye(B.shape[0], format="csc") - dt * B)
    rng = np.random.default_rng(712)
    mask = ~grid.dirichlet_mask()
    worst = 0.0
    for _ in range(20):
        f = rng.normal(size=A.shape[0]) * mask
        g = rng.normal(size=A.shape[0]) * mask
        Tg, Sf = g.copy(), f.copy()
        for _k in range(steps):
            Tg = back.solve(Tg)
            Sf = fwd.solve(Sf)
        lhs = mu_inner(grid, f, Tg)
        rhs = mu_inner(grid, Sf, g)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ka = dirichlet_kernel(wf, 0.3, 0.5, 1e-3, grid=grid)
    kb = dirichlet_kernel(wf, 0.6, 0.5, 1e-3, grid=grid)
    ia, ib = grid.nearest_interior(0.3), grid.nearest_interior(0.6)
    sym = abs(ka.k[-1][ib] - kb.k[-1][ia]) / abs(kb.k[-1][ia])
    ok = worst <= 1e-10 and sym <= 1e-4
    _verdict(
        capsys,
        "A7",
        ok,
        f"20-pair duality defect={worst:.1e}≤1e-10; kernel symmetry rel={sym:.1e}≤1e-4 (M=800)",
    )


# ---------------------------------------------------------------------------
# A8 — source-term solve vs time-convolution; both vs Monte Carlo
# ---------------------------------------------------------------------------


def test_A8_duhamel_and_representation(capsys):
    L = model1d(0.0, radius=8.0)
    zeta = lambda t: math.sin(1.3 * t) ** 2
    dh = duhamel_solve(L, zeta, 1.0, 1e-3, M=800)
    nh = solve_nonhomogeneous(L, zeta, 1.0, 1e-3, M=800)
    diff = float(np.max(np.abs(dh.final - nh.final)))
    rep = stochastic_rep_check(
        L, zeta, 0.3, 1.0, 20_000, dt_pde=1e-3, dt_mc=1e-3, M=400, seed=6
    )
    bound = 3 * rep.mc_stderr + 1e-3
    ok = diff <= 1e-3 and rep.discrepancy <= bound
    _verdict(
        capsys,
        "A8",
        ok,
        f"max|duhamel-direct|={diff:.1e}≤1e-3 (M=800); "
        f"|pde-mc|={rep.discrepancy:.4f}≤{bound:.4f} "
        f"(pde={rep.pde_value:.4f}, mc={rep.mc_value:.4f}±{rep.mc_stderr:.4f})",
    )


# ---------------------------------------------------------------------------
# A9 — barrier inequalities hold with grid-stable margins
# ---------------------------------------------------------------------------


def test_A9_barriers(capsys):
    w2_op = AppendixOperator(a11=1.0, a22=1.0, b1=0.0, b2=lambda x1, x2: x1, nu=0.5)
    w1_op = AppendixOperator(a11=1.0, a22=1.0, b1=0.0, b2=0.5, nu=0.5)
    reg_op = model1d(0.0)
    r2a = check_barrier_w2(w2_op, nu=0.5, M=64)
    r2b = check_barrier_w2(w2_op, nu=0.5, M=640)
    r1a = check_barrier_w1(w1_op, theta2=0.5, M=64)
    r1b = check_barrier_w1(w1_op, theta2=0.5, M=640)
    rga = check_barrier_regularity(reg_op, rho=0.25, M=48)
    rgb = check_barrier_regularity(reg_op, rho=0.25, M=480)
    ok = (
        all(r.passed and r.min_margin > 0 for r in (r2a, r2b, r1a, r1b, rga, rgb))
        and r2a.min_margin == r2b.min_margin
        and r1a.min_margin == r1b.min_margin
        and rga.min_margin == rgb.min_margin
    )
    _verdict(
        capsys,
        "A9",
        ok,
        f"w2 margin={r2a.min_margin} (10x grid: {r2b.min_margin}), "
        f"w1 margin={r1a.min_margin} (10x: {r1b.min_margin}), "
        f"w_reg margin={rga.min_margin} (10x: {rgb.min_margin}); all pass, bit-stable",
    )


# ---------------------------------------------------------------------------
# A10 — dyadic growth ratios stay uniformly below one
# ---------------------------------------------------------------------------


def test_A10_growth_ratios(capsys):
    gold = json.loads(GOLDEN.read_text())
    G = make_preset("appendix-A", a11=1.0, a22=1.0, b1=0.0, b2=0.5, nu=gold["nu"])
    gr = growth_ratio(G, M=gold["grid"], nu=gold["nu"])
    gr2 = growth_ratio(G, M=2 * gold["grid"], nu=gold["nu"])
    rs = [e.r for e in gr.entries]
    ratios = [e.ratio for e in gr.entries]
    ok = (
        rs == gold["r_values"]
        and all(0.0 < q < 1.0 for q in ratios)
        and abs(gr.theta_obs - gold["theta_obs"]) <= 1e-9
        and abs(gr2.theta_obs - gr.theta_obs) <= 0.05
    )
    _verdict(
        capsys,
        "A10",
        ok,
        f"θ_obs={gr.theta_obs:.6f}<1 over r={rs} (golden match ±1e-9); "
        f"grid-doubled θ_obs={gr2.theta_obs:.6f} (Δ={abs(gr2.theta_obs-gr.theta_obs):.1e}≤0.05)",
    )


# ---------------------------------------------------------------------------
# A11 — caloric window masses satisfy a uniform doubling bound
# ---------------------------------------------------------------------------


def test_A11_doubling(capsys):
    r_max, levels = 0.2, 5
    t_center, q_center, T = 0.18, 0.45, 0.36
    dt = (r_max / 2 ** (levels - 1)) ** 2  # hit times land on window edges
    P = product_operator(model1d(0.0, radius=4.0), model1d(1.0, radius=4.0))
    te, le = aligned_hitting_edges(
        t_center, q_center, r_max, levels, T, loc_range=(0.0, 4.0)
    )
    hist = hitting_histogram(
        P,
        Point([0.15, 0.30]),
        1,
        500_000,
        time_bins=te,
        loc_bins=(le,),
        cfg=SimConfig(dt=dt, T=T, seed=11),
    )
    trips = sorted(
        doubling_ratio(hist, q_center, [r_max / 2**j for j in range(levels)], t_center)
    )
    ratios = [ratio for _, ratio, _ in trips]
    ses = [se for _, _, se in trips]
    bound = 16.0  # fixed a-priori: twice the smooth-density parabolic count 2³
    overlap = all(
        abs(ratios[i + 1] - ratios[i]) <= 3 * (ses[i + 1] + ses[i])
        for i in range(len(ratios) - 1)
    )
    no_blowup = ratios[0] <= max(ratios[1:]) + 3 * ses[0]
    ok = all(q <= bound for q in ratios) and overlap and no_blowup
    detail = ", ".join(
        f"r={r:g}: {q:.2f}±{s:.2f}" for (r, q, s) in zip([t[0] for t in trips], ratios, ses)
    )
    _verdict(
        capsys,
        "A11",
        ok,
        f"{detail}; all ≤{bound:g}, consecutive 3σ CIs overlap={overlap}, "
        f"finest not blown up={no_blowup} (r spans 16x)",
    )


# ---------------------------------------------------------------------------
# A12 — parabolic rescaling identity on polynomial data
# ---------------------------------------------------------------------------


def _varying_operator() -> KimuraOperator:
    n, m = 2, 1
    b = (
        PolyField(((0.5, (0, 0), (0,)), (0.25, (1, 0), (0,))), n, m),
        PolyField(((0.75, (0, 0), (0,)), (0.5, (0, 1), (0,))), n, m),
    )
    a12 = PolyField(((0.1, (0, 0), (0,)),), n, m)
    a = (
        (PolyField(((0.3, (0, 0), (0,)),), n, m), a12),
        (a12, PolyField(((0.2, (0, 0), (0,)),), n, m)),
    )
    c = (
        (PolyField(((0.15, (0, 0), (0,)),), n, m),),
        (PolyField(((0.05, (1, 0), (0,)),), n, m),),
    )
    d = ((PolyField(((1.0, (0, 0), (0,)), (0.5, (1, 0), (0,))), n, m),),)
    e = (PolyField(((0.2, (0, 0), (1,)),), n, m),)
    lead = (
        PolyField(((1.0, (0, 0), (0,)), (0.5, (0, 1), (0,))), n, m),
        PolyField(((1.5, (0, 0), (0,)),), n, m),
    )
    return KimuraOperator(dom=CornerBox(n, m, 1.0), b=b, a=a, c=c, d=d, e=e, lead=lead)


def test_A12_rescaling_identity(capsys):
    L = _varying_operator()
    rng = np.random.default_rng(1212)
    xs, ys = sample_domain(L.dom, 100, seed=77)
    worst = 0.0
    for _ in range(5):
        terms = [
            (
                float(rng.uniform(-1, 1)),
                (int(rng.integers(0, 3)), int(rng.integers(0, 3))),
                (int(rng.integers(0, 3)),),
            )
            for _ in range(4)
        ]
        u = PolyField(terms, n=2, m=1)
        for lam in (1.0, 0.5, 0.25):
            Lp = L.rescale(lam)
            v = u.rescaled(lam, 1.0)
            for x, y in zip(xs, ys):
                lhs = lam * L.apply(u, Point(lam * x, math.sqrt(lam) * y))
                rhs = Lp.apply(v, Point(x, y))
                worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-8
    _verdict(
        capsys,
        "A12",
        ok,
        f"max |λ(Lu)(λx,√λy) - (L'v)(x,y)| = {worst:.1e} ≤ 1e-8 "
        f"(5 polynomials × 3 scales × 100 points)",
    )
