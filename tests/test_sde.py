"""Path simulation: determinism, absorption cascade, boundary policies."""

import dataclasses
import hashlib
import weakref

import numpy as np
import pytest

from kimura import _rng, sde
from kimura.errors import KimuraError, MaxStepsExceeded, NonFinite
from kimura.geometry import CornerBox, Point
from kimura.operator import KimuraOperator, PolyField, model1d, product_operator, wright_fisher
from kimura.sde import (
    _OCC_CHUNK,
    SimConfig,
    _count_seconds,
    _simulate_cohort,
    counterexample_ensemble,
    simulate,
    simulate_ensemble,
    sum_process_ensemble,
)


CFG = SimConfig(dt=1e-3, T=1.0, seed=42)


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_ensemble_reproducible(wf, p03):
    a = simulate_ensemble(wf, p03, CFG, 500)
    b = simulate_ensemble(wf, p03, CFG, 500)
    assert np.array_equal(a.terminal_xy, b.terminal_xy)
    assert np.array_equal(a.strata_bits, b.strata_bits)
    assert np.array_equal(a.first_hit_time, b.first_hit_time, equal_nan=True)


def test_worker_count_does_not_change_results(wf, p03):
    a = simulate_ensemble(wf, p03, CFG, 300, workers=1)
    b = simulate_ensemble(wf, p03, CFG, 300, workers=3)
    assert np.array_equal(a.terminal_xy, b.terminal_xy)
    assert np.array_equal(a.first_hit_face, b.first_hit_face)


def test_unpicklable_operator_on_workers_is_a_typed_error():
    """A lambda coefficient cannot reach a worker process: the run says so
    before any process starts, and runs in one process."""
    from kimura.verify import AppendixOperator

    L = AppendixOperator(b2=lambda x1, x2: 0.5 + x1)
    cfg = SimConfig(dt=1e-3, T=0.01)
    with pytest.raises(KimuraError, match="workers=1"):
        simulate_ensemble(L, Point([0.3, 0.3]), cfg, 8, workers=2)
    assert simulate_ensemble(L, Point([0.3, 0.3]), cfg, 8, workers=1).n_paths == 8


def test_single_path_matches_its_ensemble_slot(wf, p03):
    ens = simulate_ensemble(wf, p03, CFG, 8)
    rec = simulate(wf, p03, CFG, path_index=3)
    t, pt, stratum = rec.terminal
    assert t == ens.terminal_time[3]
    assert np.allclose(np.concatenate([pt.x, pt.y]), ens.terminal_xy[3])
    assert stratum == ens.strata()[3]


def _ensemble_sha(ens) -> str:
    """SHA-256 over every array of an ``EnsembleResult`` and its events."""
    h = hashlib.sha256()
    for name in (
        "terminal_time", "terminal_xy", "strata_bits",
        "first_hit_time", "first_hit_face", "first_hit_xy", "occupation",
    ):
        a = getattr(ens, name)
        if a is not None:
            h.update(np.ascontiguousarray(a).tobytes())
    for events in ens.events or ():
        for ev in events:
            h.update(np.array([ev.time, ev.face, ev.depth, *ev.location.x, *ev.location.y]).tobytes())
    return h.hexdigest()


def test_cascade_with_events_is_pinned():
    """Interior → edge → vertex: children join their edge at many different
    steps, and each keeps its own stream."""
    W = wright_fisher(2, (0.0, 0.0, 0.0))
    ens = simulate_ensemble(
        W, Point([0.3, 0.3]), SimConfig(dt=1e-3, T=3.0, seed=11), 300, collect_events=True
    )
    assert len(np.unique(ens.first_hit_time[ens.first_hit_face > 0])) > 100
    assert sum(len(ev) == 2 for ev in ens.events) > 100
    assert _ensemble_sha(ens) == "2f3346c5f862354b5ddf15c438125f9971cb5c97a20d28658707ba42b8a83a99"


def test_slack_face_occupation_is_pinned():
    """A transverse slack face is tracked for occupation beside two tangent
    coordinate faces."""
    W = wright_fisher(2, (0.0, 0.0, 0.4))
    cfg = SimConfig(dt=1e-3, T=2.0, seed=12, occupation_eps=(0.02, 0.1))
    ens = simulate_ensemble(W, Point([0.3, 0.3]), cfg, 300)
    assert ens.tracked_faces == (3,) and ens.occupation.sum() > 0
    assert _ensemble_sha(ens) == "438802194e67f4da163f288d9192af72fae84f116c85543167a54bbdc920f526"


@pytest.mark.parametrize("workers", [1, 2])
def test_product_occupation_is_pinned(workers):
    P = product_operator(model1d(0.0, radius=4.0), model1d(1.0, radius=4.0))
    cfg = SimConfig(dt=1e-3, T=0.5, seed=13, occupation_eps=(0.05, 0.2))
    ens = simulate_ensemble(P, Point([0.15, 0.3]), cfg, 400, workers=workers)
    assert ens.occupation.sum() > 0
    assert _ensemble_sha(ens) == "9aea4007c90727a2b186a45a3bab0d1d54e231dbf9aadf788248880a7ce512d0"


@pytest.mark.parametrize(
    "strategy, L, sha",
    [
        ("diag", KimuraOperator(dom=CornerBox(3, 1, 3.0, 1.5), b=(0.0, PolyField(((0.5, (0, 1, 0), (0,)),), 3, 1), 0.8),
                        d=((0.7,),), e=(0.3,)),
         "1d6edbaafd7357070420b98748f1bdcc7c01acdb6c4394c2a486e7466317dad5"),
        ("diag+chol", KimuraOperator(dom=CornerBox(2, 2, 3.0, 1.5), b=(0.0, 0.6), d=((1.0, 0.3), (0.3, 0.5))),
         "053e4a92b8579a2fb5ea1ccd0de5a527cd6c40f7b7f3561a2a272235dac0df9a"),
        ("generic", KimuraOperator(dom=CornerBox(2, 1, 3.0, 1.5), b=(0.0, 0.7), c=((0.2,), (0.0,))),
         "aa36b8afb7c1d14e26b9a6638ff887f529c0cae9bf7ea57798990b32750729c0"),
    ],
    ids=["diag", "diag+chol", "generic"],
)
def test_y_coordinates_are_pinned(strategy, L, sha):
    """One ensemble with ``y`` coordinates per y-noise strategy: tangent
    hits, occupation of the transverse face and, under ``diag`` and
    ``diag+chol``, ``y`` reflected at the outer edge 1.5."""
    cfg = SimConfig(dt=2e-3, T=1.5, seed=5, occupation_eps=(0.05, 0.2))
    ens = simulate_ensemble(L, Point([0.2] * L.n, [0.1] * L.m), cfg, 300, collect_events=True)
    assert L._noise_strategy == strategy
    assert ens.first_hit_face.any() and ens.occupation.sum() > 0
    assert _ensemble_sha(ens) == sha


def _count_cohorts(monkeypatch) -> list:
    """Count the engine's cohort loops: one ``_advance`` call per cohort."""
    calls = []
    real = sde._advance

    def counted(group, *args, **kwargs):
        calls.append(len(group))
        return real(group, *args, **kwargs)

    monkeypatch.setattr(sde, "_advance", counted)
    return calls


def test_sibling_faces_step_as_one_cohort(monkeypatch):
    """Neutral WF(3) absorbs interior → four triangles → twelve (triangle,
    edge) levels → vertices.  The triangles share one step plan and so do
    the edges, so three cohorts run, not seventeen.  The merged run equals
    its two-worker run and each path's own ``simulate``, bit for bit; the
    paths compared include two that end on one edge stratum, reached
    through its two faces in opposite orders."""
    W = wright_fisher(3, (0.0, 0.0, 0.0, 0.0))
    p0 = Point([0.25, 0.25, 0.25])
    cfg = SimConfig(dt=1e-3, T=3.0, seed=21)
    calls = _count_cohorts(monkeypatch)
    ens = simulate_ensemble(W, p0, cfg, 300, collect_events=True)
    assert calls == [1, 4, 12]
    assert _ensemble_sha(ens) == _ensemble_sha(simulate_ensemble(W, p0, cfg, 300, workers=2, collect_events=True))
    # per edge stratum, its paths by the face they hit first
    picks = []
    for bits in np.unique(ens.strata_bits):
        on = ens.strata_bits == bits
        firsts = np.unique(ens.first_hit_face[on])
        if bin(int(bits)).count("1") == 2 and firsts.size == 2:
            picks += [int(np.flatnonzero(on & (ens.first_hit_face == f))[0]) for f in firsts]
    assert len(picks) >= 4
    picks += [int(i) for i in np.flatnonzero(np.isin(ens.strata_bits, [0, 7, 11]))[:8]]
    assert len(picks) >= 10
    for i in picks:
        rec = simulate(W, p0, cfg, path_index=i)
        t, pt, stratum = rec.terminal
        assert t == ens.terminal_time[i] and stratum == ens.strata()[i]
        assert np.concatenate([pt.x, pt.y]).tobytes() == ens.terminal_xy[i].tobytes()
        assert _event_rows([rec.events]) == _event_rows([ens.events[i]])


def _selection(s1: float, s2: float) -> KimuraOperator:
    """Three-allele genetic drift with selection ``(s1, s2, 0)`` and no
    mutation: ``b_i = x_i (s_i − s̄)``.  Every face is tangent, and each edge
    carries ``c·x(1 − x)``, with ``c = s2``, ``s1`` and ``s1 − s2`` in turn."""
    b = (
        PolyField(((s1, (1, 0), ()), (-s1, (2, 0), ()), (-s2, (1, 1), ())), 2),
        PolyField(((s2, (0, 1), ()), (-s1, (1, 1), ()), (-s2, (0, 2), ())), 2),
    )
    return dataclasses.replace(wright_fisher(2, (0.0, 0.0, 0.0)), b=b)


@pytest.mark.parametrize(
    "W, seed, cohorts, sha",
    [
        (wright_fisher(2, (0.0, 0.5, 0.0)), 22, [1, 1, 1],
         "20be1f46008995eed3c8a3044faa959a2605d0b0d1020379cccedcd4684c8bef"),
        (_selection(0.3, 0.1), 23, [1, 1, 1, 1],
         "22de42e83194e5265935a2107ee4f9b1658c84c9113e5fa5acdb2f811a055379"),
    ],
    ids=["rate_on_face_2", "selection"],
)
def test_siblings_that_step_differently_do_not_merge(monkeypatch, W, seed, cohorts, sha):
    """Sibling edges whose steps differ run as cohorts of their own.  A rate
    on face 2 leaves faces 1 and 3 tangent, and their edges differ in their
    tangent faces; under selection the three edges differ in their drift
    tables alone.  Pinned at the engine that ran every level as its own
    cohort."""
    calls = _count_cohorts(monkeypatch)
    ens = simulate_ensemble(W, Point([0.3, 0.3]), SimConfig(dt=1e-3, T=3.0, seed=seed), 300, collect_events=True)
    assert calls == cohorts
    assert _ensemble_sha(ens) == sha


def test_a_queued_cohort_is_released_once_its_loop_starts(monkeypatch):
    """A cohort's loop joins its queued arrays and then drops them: at the
    first step of neutral WF(2)'s edge cohort, the ``x`` arrays that its
    three edges were queued with are already gone, so the cohort's state is
    held once."""
    refs, dead = [], []
    advance, step = sde._advance, sde._Level.step

    def spy_advance(group, *args, **kwargs):
        if group[0][0].parent is not None:  # the edge cohort
            refs[:] = [weakref.ref(e[1]) for e in group]
        return advance(group, *args, **kwargs)

    def spy_step(level, z, eta):
        if refs and not dead:
            dead.append([r() is None for r in refs])
        return step(level, z, eta)

    monkeypatch.setattr(sde, "_advance", spy_advance)
    monkeypatch.setattr(sde._Level, "step", spy_step)
    simulate_ensemble(wright_fisher(2, (0.0, 0.0, 0.0)), Point([0.3, 0.3]), SimConfig(dt=1e-3, T=3.0, seed=11), 300)
    assert len(refs) == 3 and dead == [[True] * 3]


# The configurations of the pins above, as (operator, start, config, paths,
# collect events).
_CASCADE = (wright_fisher(2, (0.0, 0.0, 0.0)), Point([0.3, 0.3]), SimConfig(dt=1e-3, T=3.0, seed=11), 300, True)
_PRODUCT_OCCUPATION = (
    product_operator(model1d(0.0, radius=4.0), model1d(1.0, radius=4.0)),
    Point([0.15, 0.3]),
    SimConfig(dt=1e-3, T=0.5, seed=13, occupation_eps=(0.05, 0.2)),
    400,
    False,
)


def _event_rows(events):
    return [[(e.time, e.face, e.depth, e.location.x.tolist(), e.location.y.tolist()) for e in ev] for ev in events]


@pytest.mark.parametrize("case", [_CASCADE, _PRODUCT_OCCUPATION], ids=["cascade", "product_occupation"])
def test_cohort_in_reversed_row_order_gives_reversed_results(case):
    """A path's result does not depend on its row in the cohort, which the
    engine's compaction reorders: reversed path ids give every per-path
    array reversed, bit for bit."""
    L, p0, cfg, n, events = case
    ids = np.arange(n, dtype=np.uint64)
    fwd = _simulate_cohort(L, p0, cfg, ids, events)
    rev = _simulate_cohort(L, p0, cfg, ids[::-1].copy(), events)
    for name in (
        "terminal_time", "terminal_xy", "strata_bits", "first_hit_time", "first_hit_face", "first_hit_xy", "occupation"
    ):
        a, b = getattr(fwd, name), getattr(rev, name)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.tobytes() == np.ascontiguousarray(b[::-1]).tobytes(), name
    if events:
        assert _event_rows(fwd.events) == _event_rows(rev.events[::-1])
    assert fwd.first_hit_face.any() and (fwd.occupation is not None) == bool(cfg.occupation_eps)


def test_simulate_occupation_equals_its_ensemble_row():
    """``simulate()`` copies a path's occupation out of its one-path
    ensemble; on the two-level slack-face run it equals that path's row of
    the full ensemble bit for bit, for paths absorbed on an edge and for
    paths still inside."""
    W = wright_fisher(2, (0.0, 0.0, 0.4))
    p0 = Point([0.3, 0.3])
    cfg = SimConfig(dt=1e-3, T=2.0, seed=12, occupation_eps=(0.02, 0.1))
    ens = simulate_ensemble(W, p0, cfg, 300)
    near = ens.occupation[:, 0, -1] > 0
    edge = np.flatnonzero(near & (ens.strata_bits != 0))[:3]
    inside = np.flatnonzero(near & (ens.strata_bits == 0))[:1]
    assert edge.size == 3 and inside.size == 1
    for i in (*edge, *inside):
        rec = simulate(W, p0, cfg, path_index=int(i))
        assert set(rec.occupation) == {3}
        assert rec.occupation[3].tobytes() == ens.occupation[i, 0].tobytes()


@pytest.mark.parametrize("dt", [1e-3, 0.1, 1.5625e-4])
def test_occupation_counts_become_sequential_sums_of_dt(dt):
    """A count ``k`` becomes the float that ``k`` additions ``s += dt`` from
    0.0 give, at the ends of every table chunk up to 10⁶ steps."""
    edges = [j * _OCC_CHUNK + d for j in range(1, 10**6 // _OCC_CHUNK + 1) for d in (-1, 0, 1)]
    counts = np.array([0, 1, *edges, 10**6])
    want, s = {}, 0.0
    wanted = set(counts.tolist())
    for k in range(int(counts.max()) + 1):
        if k in wanted:
            want[k] = s
        s += dt
    got = _count_seconds(counts[::-1].reshape(-1, 1, 1), dt)
    assert got.shape == (counts.size, 1, 1)
    assert got.ravel()[::-1].tolist() == [want[k] for k in counts.tolist()]


def test_seed_changes_paths(wf, p03):
    a = simulate_ensemble(wf, p03, CFG, 200)
    b = simulate_ensemble(wf, p03, SimConfig(dt=1e-3, T=1.0, seed=43), 200)
    assert not np.array_equal(a.terminal_xy, b.terminal_xy)


# ---------------------------------------------------------------------------
# absorption semantics
# ---------------------------------------------------------------------------


def test_tangent_absorption_is_permanent(wf, p03):
    cfg = SimConfig(dt=1e-3, T=5.0, seed=1)
    ens = simulate_ensemble(wf, p03, cfg, 2000)
    hit = ens.first_hit_face > 0
    assert hit.mean() > 0.9  # almost everything is absorbed by t=5
    # absorbed 1-simplex paths land on a vertex and stay there
    absorbed_x = ens.terminal_xy[hit, 0]
    assert np.all((absorbed_x == 0.0) | (absorbed_x == 1.0))
    assert np.all(ens.first_hit_time[hit] <= ens.terminal_time[hit] + 1e-12)


def test_first_hit_location_is_on_the_face():
    P = product_operator(model1d(0.0, radius=4.0), model1d(0.5, radius=4.0))
    cfg = SimConfig(dt=1e-3, T=2.0, seed=2, stop_at_first_tangent_hit=True)
    ens = simulate_ensemble(P, Point([0.2, 1.0]), cfg, 2000)
    hit = ens.first_hit_face == 1
    assert hit.any()
    assert np.all(ens.first_hit_xy[hit, 0] == 0.0)
    # the transverse coordinate at the hit stays inside its chart
    assert np.all(ens.first_hit_xy[hit, 1] >= 0.0)


def test_transverse_only_operator_never_absorbs():
    L = model1d(0.5)
    ens = simulate_ensemble(L, Point([0.4]), SimConfig(dt=1e-3, T=1.0, seed=3), 500)
    assert np.all(ens.first_hit_face == 0)
    assert np.allclose(ens.terminal_time, 1.0, atol=1e-9)
    assert np.all(ens.terminal_xy[:, 0] >= 0.0)


@pytest.mark.parametrize("b", [0.5, 0.0], ids=["transverse", "tangent"])
def test_a_start_inside_the_tolerance_runs_as_the_face_point(b):
    """``classify_point`` admits a coordinate a hair below 0.  The run
    starts from ``x⁺``, so it equals the run from the face bit for bit: on a
    transverse face its first step is finite, and on a tangent face its
    first hit test still sees the path on the face."""
    cfg = SimConfig(dt=1e-3, T=0.01)
    want = simulate_ensemble(model1d(b), Point([0.0]), cfg, 4)
    got = simulate_ensemble(model1d(b), Point([-1e-11]), cfg, 4)
    for f in ("terminal_time", "terminal_xy", "strata_bits", "first_hit_time", "first_hit_face", "first_hit_xy"):
        assert getattr(got, f).tobytes() == getattr(want, f).tobytes(), f


def test_martingale_mean_is_preserved(wf, p03):
    # b ≡ 0 makes X_t a bounded martingale: E[X_t] = 0.3 at every t
    ens = simulate_ensemble(wf, p03, SimConfig(dt=1e-3, T=2.0, seed=4), 20_000)
    mean = ens.terminal_xy[:, 0].mean()
    se = ens.terminal_xy[:, 0].std() / np.sqrt(ens.n_paths)
    assert abs(mean - 0.3) <= 3 * se + 2e-3


def test_nonclean_operator_requires_opt_in():
    """The engine refuses an operator whose faces are not cleanly tangent or
    transverse; there is no opt-in that would clamp them without absorbing."""
    from kimura.errors import NotClean
    from kimura.operator import remark_counterexample

    C = remark_counterexample()
    with pytest.raises(NotClean):
        simulate_ensemble(C, Point([0.05, 0.05]), SimConfig(dt=1e-3, T=0.1, seed=5), 4)


# ---------------------------------------------------------------------------
# occupation accounting
# ---------------------------------------------------------------------------


def test_occupation_monotone_in_eps():
    L = model1d(0.5)
    cfg = SimConfig(
        dt=1e-3, T=1.0, seed=6, occupation_eps=(1e-2, 5e-2, 1e-1)
    )
    ens = simulate_ensemble(L, Point([0.3]), cfg, 300)
    occ = ens.occupation
    assert occ is not None and occ.shape == (300, 1, 3)
    assert np.all(np.diff(occ, axis=2) >= 0.0)
    assert np.all(occ <= 1.0 + 1e-9)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the clamp at a transverse face reads this occupation 8.3 standard errors low; full "
    "truncation reads it within the band but fails A6's eps->0 floor fit, which the exact law fails too",
)
def test_occupation_near_a_transverse_face_matches_the_exact_law():
    """For ``x∂² + b∂`` from ``y₀``, ``Y = Z/2`` with ``Z`` a squared Bessel
    process of dimension ``2b``, so the mean time below ``ε`` up to ``T`` is
    ``∫₀ᵀ ncx2.cdf(2ε/s, 2b, 2y₀/s) ds``.  The ensemble mean should stay
    within a two-sided 1e-5 band (|z| ≤ 4.42) of it; the engine's clamp at
    the transverse face reads 8 or more standard errors low here, so the
    test is a strict expected failure until that scheme changes."""
    from scipy import integrate, stats

    b, y0, T, eps, n = 0.3, 0.5, 1.0, 1e-2, 10_000
    cfg = SimConfig(dt=1e-3, T=T, seed=4, occupation_eps=(eps,))
    occ = simulate_ensemble(model1d(b, radius=8.0), Point([y0]), cfg, n).occupation[:, 0, 0]
    exact, _ = integrate.quad(
        lambda s: stats.ncx2.cdf(2.0 * eps / s, 2.0 * b, 2.0 * y0 / s), 0.0, T, epsabs=1e-12, epsrel=1e-10
    )
    assert abs(exact - 0.10673) < 5e-6
    z = (occ.mean() - exact) / (occ.std(ddof=1) / np.sqrt(n))
    assert abs(z) <= 4.42, z


# ---------------------------------------------------------------------------
# cross-fed-drift system
# ---------------------------------------------------------------------------


def test_counterexample_hits_and_is_reproducible():
    cfg = SimConfig(dt=1e-3, T=10.0, seed=7)
    hit, t = counterexample_ensemble(Point([0.05, 0.05]), cfg, 400)
    hit2, t2 = counterexample_ensemble(Point([0.05, 0.05]), cfg, 400)
    assert np.array_equal(hit, hit2)
    assert np.array_equal(t, t2, equal_nan=True)
    assert 0.5 < hit.mean() <= 1.0
    assert np.all(t[hit] <= 10.0) and np.all(t[hit] > 0.0)


def test_sum_process_matches_counterexample_frequency():
    """X₁+X₂ follows the 1D square-root process dS = S dt + √(2S) dW."""
    cfg = SimConfig(dt=1e-3, T=10.0, seed=8)
    hit_2d, _ = counterexample_ensemble(Point([0.05, 0.05]), cfg, 3000)
    hit_1d, _, _ = sum_process_ensemble(0.1, cfg, 3000)
    f2, f1 = hit_2d.mean(), hit_1d.mean()
    se = np.sqrt(f1 * (1 - f1) / 3000 + f2 * (1 - f2) / 3000)
    assert abs(f2 - f1) <= 3 * se


def test_sum_process_outputs_are_pinned():
    """The oracle's ``(hit, hit_time, S_T)`` are a fixed function of the seed."""
    hit, t, s_end = sum_process_ensemble(0.1, SimConfig(dt=1e-3, T=10, seed=8), 3000)
    h = hashlib.sha256()
    for a in (hit, t, s_end):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == "0c9402df2bee4d5b56fc0be838e1d9510ff717c5982bbb4b19a559d926a5b7bb"


def test_counterexample_eps_sequence_equals_scalar_runs():
    """One ensemble for several ε gives, column by column, the scalar runs."""
    cfg = SimConfig(dt=1e-3, T=10.0, seed=7)
    p0 = Point([0.05, 0.05])
    eps = (1e-3, 0.2, 1e-6, 1e-2)  # unsorted; 0.2 ≥ S₀ = 0.1
    hit, t = counterexample_ensemble(p0, cfg, 300, eps_abs=eps)
    assert hit.shape == t.shape == (300, 4)
    for j, e in enumerate(eps):
        h1, t1 = counterexample_ensemble(p0, cfg, 300, eps_abs=e)
        assert np.array_equal(hit[:, j], h1)
        assert np.array_equal(t[:, j], t1, equal_nan=True)
    assert hit[:, 1].all() and np.all(t[:, 1] == 0.0)
    # a larger ε is passed no later than a smaller one
    both = hit[:, 2]
    assert both.any() and np.all(hit[both]) and np.all(t[both, 0] <= t[both, 2])


def _poison_path(monkeypatch, path_id, slots):
    """Make every normal that path ``path_id`` draws on ``slots`` NaN.

    The key builder names the path's rows.  The draw advances the keys it is
    given in place, so the wrapper below follows those rows by value through
    every draw and every compaction of the key array."""
    real_keys, real_draw = _rng.stream_keys, _rng.next_normals
    marked = None  # the path's current key rows

    def keys(seed, path, *args):
        nonlocal marked
        out = real_keys(seed, path, *args)
        marked = out[np.asarray(path) == path_id]
        return out

    def draw(keys, *args):
        nonlocal marked
        rows = (keys[:, None, :] == marked[None]).all(axis=2).any(axis=1)
        out = real_draw(keys, *args)
        marked = keys[rows]
        out[:, rows, slots] = np.nan
        return out

    monkeypatch.setattr(_rng, "stream_keys", keys)
    monkeypatch.setattr(_rng, "next_normals", draw)


def test_counterexample_non_finite_names_the_path(monkeypatch):
    _poison_path(monkeypatch, 3, slice(None))
    with pytest.raises(NonFinite, match=r"paths \[3\]"):
        counterexample_ensemble(Point([0.05, 0.05]), SimConfig(dt=1e-3, T=1.0), 20)


def test_step_guard_trips_before_any_step(monkeypatch):
    """T/dt = 10¹⁰ steps is refused up front, before any noise is keyed or
    drawn."""
    def no_steps(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(_rng, "stream_keys", no_steps)
    monkeypatch.setattr(_rng, "next_normals", no_steps)
    with pytest.raises(MaxStepsExceeded):
        simulate_ensemble(model1d(0.0), Point([0.5]), SimConfig(dt=1e-9, T=10.0), 5)


def test_non_finite_y_names_the_path(monkeypatch):
    """A state whose y alone turns NaN is reported by its path id."""
    L = KimuraOperator(dom=CornerBox(1, 1, 8.0), b=(1.0,), d=((1.0,),))
    _poison_path(monkeypatch, 12, 1)
    with pytest.raises(NonFinite, match=r"paths \[12\]"):
        simulate_ensemble(L, Point([1.0], [0.0]), CFG, 5, path_offset=10)


def test_short_run_non_finite_y_names_the_path(monkeypatch):
    """A run of 50 steps, shorter than any periodic check, reports a NaN in
    the rows it recorded at the horizon instead of returning it."""
    L = KimuraOperator(dom=CornerBox(1, 1, 8.0), b=(1.0,), d=((1.0,),))
    _poison_path(monkeypatch, 12, 1)
    with pytest.raises(NonFinite, match=r"paths \[12\]"):
        simulate_ensemble(L, Point([1.0], [0.0]), SimConfig(dt=1e-3, T=0.05), 5, path_offset=10)


def test_terminal_hit_with_non_finite_y_names_the_path(monkeypatch):
    """A path absorbed with a NaN ``y`` is reported, not returned as a
    terminal hit."""
    L = KimuraOperator(dom=CornerBox(1, 1, 8.0), b=(0.0,), d=((1.0,),))
    _poison_path(monkeypatch, 2, 1)
    cfg = SimConfig(dt=1e-3, T=0.05, stop_at_first_tangent_hit=True)
    with pytest.raises(NonFinite, match=r"paths \[2\]"):
        simulate_ensemble(L, Point([1e-4], [0.0]), cfg, 4)


@pytest.mark.parametrize("oracle", [False, True])
def test_short_corner_sum_non_finite_names_the_path(monkeypatch, oracle):
    """A run under the corner stop checks what it recorded before it
    returns, so a run of 50 steps reports the poisoned path too."""
    _poison_path(monkeypatch, 3, slice(None))
    cfg = SimConfig(dt=1e-3, T=0.05)
    with pytest.raises(NonFinite, match=r"paths \[3\]"):
        if oracle:
            sum_process_ensemble(0.1, cfg, 20)
        else:
            counterexample_ensemble(Point([0.05, 0.05]), cfg, 20)
