"""Path statistics: decomposition, hitting histograms, occupation, doubling."""

import hashlib

import numpy as np
import pytest

from kimura.errors import EmptyBin, FaceNotTangent, NotClean
from kimura.estimators import (
    HittingHistogram,
    OccupationCurve,
    _prob_ci,
    aligned_hitting_edges,
    corner_hit_probability,
    decompose,
    decompose_ensemble,
    doubling_ratio,
    hitting_histogram,
    transverse_occupation,
)
from kimura.geometry import CornerBox, Point, Simplex
from kimura.operator import (
    KimuraOperator,
    PolyField,
    model1d,
    product_operator,
    remark_counterexample,
    wright_fisher,
)
from kimura.sde import SimConfig, simulate_ensemble
from kimura import pde, sde


CFG = SimConfig(dt=1e-3, T=1.0, seed=9)


# ---------------------------------------------------------------------------
# transition decomposition
# ---------------------------------------------------------------------------


def test_masses_sum_to_one_exactly(wf, p03):
    dec = decompose(wf, p03, 1.0, 2000, cfg=CFG)
    total = sum(est for est, _ in dec.masses.values())
    assert total == pytest.approx(1.0, abs=1e-12)
    assert sum(dec.counts.values()) == 2000


def test_decompose_same_sample_identity(wf, p03):
    """Interior mass at t equals 1 − cumulative hit mass, on the same paths."""
    cfg = SimConfig(dt=1e-3, T=1.0, seed=10, stop_at_first_tangent_hit=True)
    ens = simulate_ensemble(wf, p03, cfg, 3000)
    dec = decompose_ensemble(wf, p03, 1.0, ens)
    hist1 = hitting_histogram(wf, p03, 1, 3000, ens=ens)
    hist2 = hitting_histogram(wf, p03, 2, 3000, ens=ens)
    interior, _ = dec.mass(frozenset())
    cum = hist1.cumulative_mass(1.0) + hist2.cumulative_mass(1.0)
    assert interior == pytest.approx(1.0 - cum, abs=1e-12)


def test_hitting_histogram_bins_over_the_ensemble_horizon(wf):
    """Without ``cfg``, a reused ensemble's hits are binned over ``[0, ens.T]``."""
    p0 = Point([0.5])
    cfg = SimConfig(dt=1e-2, T=3.0, seed=4, stop_at_first_tangent_hit=True)
    ens = simulate_ensemble(wf, p0, cfg, 400)
    hits = int(np.sum(ens.first_hit_face == 1))
    assert np.any(ens.first_hit_time[ens.first_hit_face == 1] > 1.0)
    hist = hitting_histogram(wf, p0, 1, 400, ens=ens)
    assert hist.time_edges[-1] == 3.0
    assert int(hist.counts.sum()) == hits
    assert hist.cumulative_mass(3.0) == hits / 400
    assert hitting_histogram(wf, p0, 1, 400, cfg=cfg, ens=ens).time_edges[-1] == 3.0
    with pytest.raises(ValueError):
        hitting_histogram(wf, p0, 1, 400, cfg=CFG, ens=ens)


def test_product_masses_factorize():
    """Joint face masses of a product equal products of 1D masses (3·se)."""
    L1, L2 = model1d(0.0, radius=4.0), model1d(0.0, radius=4.0)
    P = product_operator(L1, L2)
    p1, p2 = 0.3, 0.8
    cfg = SimConfig(dt=1e-3, T=0.5, seed=11)
    n = 8000
    dec = decompose(P, Point([p1, p2]), 0.5, n, cfg=cfg)
    d1 = decompose(L1, Point([p1]), 0.5, n, cfg=cfg)
    d2 = decompose(L2, Point([p2]), 0.5, n, cfg=SimConfig(dt=1e-3, T=0.5, seed=12))
    m12, _ = dec.mass({1, 2})
    m1, s1 = d1.mass({1})
    m2, s2 = d2.mass({1})
    prod = m1 * m2
    se = np.sqrt(prod * (1 - prod) / n) + m1 * s2 + m2 * s1
    assert abs(m12 - prod) <= 3 * se + 5e-3


def test_decompose_matches_pde_survival(wf, p03):
    dec = decompose(wf, p03, 0.5, 20_000, cfg=CFG)
    interior, se = dec.mass(frozenset())
    ks = pde.dirichlet_kernel(wf, 0.3, 0.5, 5e-4, M=400)
    assert abs(interior - ks.survival_at(0.5)) <= 3 * se + 5e-3


def _ensemble_digest(ens):
    h = hashlib.sha256()
    for arr in (
        ens.terminal_time, ens.terminal_xy, ens.strata_bits,
        ens.first_hit_time, ens.first_hit_face, ens.first_hit_xy,
    ):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_hand_built_wright_fisher_decomposes_like_the_preset(monkeypatch):
    """ℓ ≡ ½, a ≡ −½ and the genetic-drift drift table on ``Simplex(2)``,
    built without a preset, absorb through the slack face as
    ``wright_fisher(2, (0, 0, 0))`` does: every ensemble array is
    bit-identical."""
    drift = tuple(
        PolyField(((0.0, (0, 0), ()), (-0.0, tuple(int(j == i) for j in range(2)), ())), 2)
        for i in range(2)
    )
    H = KimuraOperator(
        dom=Simplex(2), b=drift, lead=(0.5, 0.5), a=((-0.5, -0.5), (-0.5, -0.5))
    )
    seen = []
    real = sde.simulate_ensemble

    def capture(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(sde, "simulate_ensemble", capture)
    cfg = SimConfig(dt=1e-2, seed=21)
    hand, preset = (
        decompose(L, Point([0.3, 0.3]), 2.0, 400, cfg=cfg)
        for L in (H, wright_fisher(2, (0.0, 0.0, 0.0)))
    )
    assert _ensemble_digest(seen[0]) == _ensemble_digest(seen[1])
    assert hand.counts == preset.counts
    assert any(3 in s for s in hand.counts), "no path was absorbed on the slack face"


# ---------------------------------------------------------------------------
# hitting histograms
# ---------------------------------------------------------------------------


def test_histogram_totals_and_marginal(wf, p03):
    hist = hitting_histogram(wf, p03, 1, 4000, time_bins=20, cfg=CFG)
    assert hist.total == hist.counts.sum()
    assert hist.time_marginal().sum() == hist.total
    assert hist.cumulative_mass(1.0) == pytest.approx(hist.total / 4000)
    assert hist.cumulative_mass(0.0) == 0.0


def test_histogram_against_pde_flux(wf, p03):
    """Time-marginal of face-1 hits tracks the PDE boundary flux."""
    hist = hitting_histogram(wf, p03, 1, 20_000, time_bins=10, cfg=CFG)
    ks = pde.dirichlet_kernel(wf, 0.3, 1.0, 5e-4, M=400)
    cal = pde.caloric_density(ks, 1)
    edges = hist.time_edges
    mc = hist.time_marginal() / hist.n_paths
    ref = np.array(
        [cal.cumulative(b) - cal.cumulative(a) for a, b in zip(edges, edges[1:])]
    )
    assert np.abs(mc - ref).sum() < 0.03


def test_hitting_histogram_rejects_a_transverse_face():
    with pytest.raises(FaceNotTangent):
        hitting_histogram(model1d(0.5), Point([0.5]), 1, 10)


# ---------------------------------------------------------------------------
# corner probability
# ---------------------------------------------------------------------------


def test_corner_probability_rejects_a_transverse_first_face():
    P = product_operator(model1d(0.5), model1d(0.0))
    with pytest.raises(FaceNotTangent):
        corner_hit_probability(P, Point([0.5, 0.5]), (1, 2), 10)


def test_corner_probability_rule_of_three():
    P = product_operator(model1d(0.0, radius=8.0), model1d(0.0, radius=8.0))
    cfg = SimConfig(dt=1e-3, T=0.25, seed=13)
    est, (lo, hi) = corner_hit_probability(
        P, Point([0.05, 5.0]), (1, 2), 1000, cfg=cfg
    )
    assert est == 0.0
    assert lo == 0.0 and hi == pytest.approx(3 / 1000)


def test_corner_probability_eps_sweep_shares_paths():
    P = product_operator(model1d(0.0, radius=8.0), model1d(0.0, radius=8.0))
    cfg = SimConfig(dt=1e-3, T=0.25, seed=13)
    rows = corner_hit_probability(
        P, Point([0.05, 5.0]), (1, 2), 1000, cfg=cfg, eps_corner=(1e-2, 1e-3)
    )
    assert [r[0] for r in rows] == [1e-2, 1e-3]
    # bigger window can only catch more paths
    assert rows[0][1] >= rows[1][1]


def test_corner_probability_crossfed_sweep_is_one_ensemble(monkeypatch):
    calls = []
    real = sde._corner_run

    def counted(*args, **kwargs):
        calls.append(kwargs.get("eps_abs"))
        return real(*args, **kwargs)

    monkeypatch.setattr(sde, "_corner_run", counted)
    eps = (1e-3, 1e-5, 1e-2)
    rows = corner_hit_probability(
        remark_counterexample(), Point([0.05, 0.05]), (1, 2), 300,
        cfg=SimConfig(dt=1e-3, T=5.0, seed=3), eps_corner=eps,
    )
    assert len(calls) == 1
    assert [r[0] for r in rows] == list(eps)
    assert rows[1][1] <= rows[0][1] <= rows[2][1]


def test_corner_probability_crossfed_is_chosen_by_coefficients():
    """A hand-built operator with the cross-fed coefficients gets the preset's
    estimate, on its own radius-8 box.  Changing one drift coefficient
    (``b₂ = 2x₁``) leaves the faces unclassified still, so that operator is
    run as it is given under the corner stop too."""
    def box_op(c2):
        return KimuraOperator(
            dom=CornerBox(2, 0, 8.0),
            b=(PolyField(((1.0, (0, 1), ()),), 2), PolyField(((c2, (1, 0), ()),), 2)),
        )

    args = (Point([0.05, 0.05]), (1, 2), 300)
    kw = dict(cfg=SimConfig(dt=1e-3, T=2.0, seed=4), eps_corner=(1e-3, 1e-4))
    assert corner_hit_probability(box_op(1.0), *args, **kw) == corner_hit_probability(
        remark_counterexample(), *args, **kw
    )
    with pytest.raises(NotClean):
        box_op(2.0).classify_faces()
    hit, _, _ = sde._corner_run(box_op(2.0), Point([0.05, 0.05]), kw["cfg"], 300, eps_abs=kw["eps_corner"])
    want = [(eps, *_prob_ci(int(h.sum()), 300)) for eps, h in zip(kw["eps_corner"], hit.T)]
    assert corner_hit_probability(box_op(2.0), *args, **kw) == want


def test_corner_probability_on_the_preset_counts_as_the_unbounded_run():
    """No path meets the edge of the preset's radius-32 box before it is
    frozen at ``S ≥ 16``, so its estimate equals the count of
    :func:`sde.counterexample_ensemble`, whose box is unbounded, for every
    ``eps``."""
    p0, cfg, eps = Point([0.05, 0.05]), SimConfig(dt=1e-3, T=5.0, seed=6), (1e-2, 1e-3, 1e-4)
    rows = corner_hit_probability(remark_counterexample(), p0, (1, 2), 400, cfg=cfg, eps_corner=eps)
    hit, _ = sde.counterexample_ensemble(p0, cfg, 400, eps_abs=eps)
    assert rows == [(e, *_prob_ci(int(h.sum()), 400)) for e, h in zip(eps, hit.T)]


@pytest.mark.parametrize(
    "L",
    [
        KimuraOperator(dom=CornerBox(3, 0, 1.0), b=(-0.5, 1.0, 1.0)),
        KimuraOperator(dom=CornerBox(2, 1, 1.0), b=(-0.5, 1.0), d=((1.0,),)),
    ],
    ids=["three-corner-coordinates", "with-y"],
)
def test_corner_probability_raises_other_not_clean_operators(L):
    """Only a two-dimensional box with no ``y`` runs under the corner stop;
    any other operator whose faces do not classify raises ``NotClean``."""
    p0 = Point(np.full(L.n, 0.05), np.zeros(L.m))
    with pytest.raises(NotClean):
        corner_hit_probability(L, p0, (1, 2), 20, cfg=SimConfig(dt=1e-3, T=0.1))


_TANGENT_BOX = product_operator(model1d(0.0, radius=8.0), model1d(0.0, radius=8.0))


@pytest.mark.parametrize(
    "L, faces",
    [(_TANGENT_BOX, (1, 3)), (_TANGENT_BOX, (1, 1)), (remark_counterexample(), (7, 9))],
)
def test_corner_probability_needs_two_faces_of_the_domain(L, faces):
    with pytest.raises(ValueError, match="two distinct faces"):
        corner_hit_probability(L, Point([0.05, 0.05]), faces, 50, cfg=CFG)


def test_corner_probability_crossfed_splits_over_workers():
    args = (remark_counterexample(), Point([0.05, 0.05]), (1, 2), 300)
    kw = dict(cfg=SimConfig(dt=1e-3, T=2.0, seed=4), eps_corner=(1e-3, 1e-4))
    assert corner_hit_probability(*args, workers=2, **kw) == corner_hit_probability(
        *args, workers=1, **kw
    )


# ---------------------------------------------------------------------------
# occupation curves
# ---------------------------------------------------------------------------


def test_occupation_slope_recovers_weight():
    L = model1d(0.5)
    eps = np.geomspace(1e-3, 1e-1, 6)
    occ = transverse_occupation(
        L, Point([0.5]), 1.0, 4000, eps, cfg=SimConfig(dt=2e-4, seed=14)
    )
    assert occ.faces == (1,)
    assert np.all(np.diff(occ.mean[0]) > 0)
    assert occ.loglog_slope(1) == pytest.approx(0.5, abs=0.15)


def _curve(eps, mean):
    mean = np.asarray([mean], dtype=float)
    return OccupationCurve(np.asarray(eps), (1,), mean, np.full_like(mean, 1e-3), 1.0, 100)


def test_undefined_occupation_fits_are_none():
    """The log-log slope needs two ``eps`` and no zero mean; the floor fit,
    with three parameters, needs three ``eps``, each with a positive
    standard error, and a fit that converges.  Short of that there is no
    fit, and each method says so with None."""
    assert _curve([0.1, 0.2, 0.4], [0.0, 0.1, 0.2]).loglog_slope(1) is None
    assert _curve([0.1], [0.05]).loglog_slope(1) is None
    assert _curve([0.1, 0.2], [0.05, 0.1]).intercept_estimate(1) is None
    assert _curve([0.1], [0.05]).intercept_estimate(1) is None
    assert _curve([0.1, 0.4], [0.05, 0.1]).loglog_slope(1) == pytest.approx(0.5)
    floor, se = _curve([0.1, 0.2, 0.4], [0.0, 0.1, 0.2]).intercept_estimate(1)
    assert np.isfinite(floor) and np.isfinite(se)
    # every path read zero occupation at the two smallest eps (stderr 0)
    zero_se = OccupationCurve(np.array([0.02, 0.1, 0.4]), (1,), np.array([[0.0, 0.0, 0.75]]),
                              np.array([[0.0, 0.0, 0.2]]), 1.0, 8)
    assert zero_se.intercept_estimate(1) is None
    # curve_fit exhausts its evaluations (RuntimeError) on this curve
    no_fit = OccupationCurve(np.array([0.02, 0.1, 0.4]), (1,), np.array([[0.0, 1e-3, 0.75]]),
                             np.array([[1e-4, 1e-4, 1e-9]]), 1.0, 8)
    assert no_fit.intercept_estimate(1) is None


# ---------------------------------------------------------------------------
# doubling machinery
# ---------------------------------------------------------------------------


def _synthetic_histogram(n_paths=10**8):
    """Deterministic counts from a smooth density: ratio must approach 8."""
    t0, q0, r_max, levels = 0.5, 0.5, 0.1, 4
    te, le = aligned_hitting_edges(t0, q0, r_max, levels, 1.0, loc_range=(0.0, 1.0))
    tc = 0.5 * (te[:-1] + te[1:])
    lc = 0.5 * (le[:-1] + le[1:])
    dens = np.outer(1.0 + 0.2 * (tc - t0), 1.0 + 0.1 * (lc - q0))
    cell = np.diff(te)[:, None] * np.diff(le)[None, :]
    counts = dens * cell * n_paths
    return (
        HittingHistogram(
            face=1, time_edges=te, loc_edges=(le,), counts=counts, n_paths=n_paths
        ),
        t0,
        q0,
        r_max,
        levels,
    )


def test_doubling_ratio_smooth_density_approaches_eight():
    hist, t0, q0, r_max, levels = _synthetic_histogram()
    trips = doubling_ratio(hist, q0, [r_max / 2**j for j in range(levels)], t0)
    ratios = [ratio for _, ratio, _ in trips]
    # The density is bilinear around the window center, so the midpoint-rule
    # bin counts integrate it exactly: every ratio is 8 up to count rounding,
    # whose relative effect is largest in the smallest (fewest-count) window.
    assert all(abs(r - 8.0) < 0.15 for r in ratios)
    assert ratios[-1] == pytest.approx(8.0, abs=1e-3)


def test_doubling_ratio_empty_bin():
    hist, t0, q0, r_max, levels = _synthetic_histogram()
    hist.counts[:] = 0.0
    with pytest.raises(EmptyBin):
        doubling_ratio(hist, q0, [r_max], t0)


def test_doubling_ratio_requires_aligned_edges():
    hist, t0, q0, r_max, _ = _synthetic_histogram()
    with pytest.raises(ValueError):
        doubling_ratio(hist, q0, [r_max * 1.0371], t0)


def test_aligned_edges_cover_and_align():
    te, le = aligned_hitting_edges(0.5, 0.5, 0.1, 3, 1.0)
    w_t, w_x = (0.1 / 4) ** 2, 0.1 / 4
    assert te[0] <= w_t and te[-1] >= 1.0 - w_t
    assert np.allclose(np.diff(te), w_t)
    assert np.allclose(np.diff(le), w_x)
    # t and q themselves are edges
    assert np.min(np.abs(te - 0.5)) < 1e-12
    assert np.min(np.abs(le - 0.5)) < 1e-12
    with pytest.raises(ValueError):
        aligned_hitting_edges(0.02, 0.5, 0.1, 3, 1.0)
