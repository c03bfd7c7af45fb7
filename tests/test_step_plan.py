"""The engine's level step against the reference, bit for bit.

A level's step (``sde._Level``, with ``operator._EulerUpdate``) must give the
same states, overshoots and hits as ``drift_batch`` + ``noise_increment``
(the noise factor's first form, below) followed by the domain step and the
hit test below.  The reference evaluates
drift and noise at ``x⁺ = max(x, 0)`` with the normals scaled by ``√dt``
first, adds the increment to ``x``, and clamps every coordinate to 0, or
none in a raw level (full truncation, a level under the corner stop).  Nothing here is
timed.
"""

import math

import numpy as np
import pytest

from kimura import sde
from kimura.errors import NotClean
from kimura.geometry import CornerBox, Point, Simplex, face_distance_rows
from kimura.operator import (
    FaceClassification,
    FuncField,
    KimuraOperator,
    PolyField,
    _EulerUpdate,
    _wf_noise,
    model1d,
    product_operator,
    remark_counterexample,
    sample_domain,
    wright_fisher,
)


def _ref_simplex_clamp(x):
    over = np.maximum(x.sum(axis=1) - 1.0, 0.0)
    for j in range(x.shape[1] - 1, -1, -1):
        s = x.sum(axis=1) - 1.0
        bad = s > 0
        if not bad.any():
            break
        adj = np.minimum(x[:, j], np.where(bad, s, 0.0))
        x[:, j] -= np.maximum(adj, 0.0)
    fired = over > 0
    if fired.any():
        rest = x[fired, :-1].sum(axis=1)
        x[fired, -1] = np.maximum(1.0 - rest, 0.0)
    return over


def noise_increment(L, x, y, xi):
    """``G(z)·ξ`` for a batch of states, ``G Gᵀ = 2M``: the closed forms
    where the operator's structure allows (diagonal blocks; the genetic-drift
    covariance has an explicit triangular factor), otherwise the full matrix
    factored per state with negative-curvature clipping."""
    s = L._noise_strategy
    if s == "wf":
        return _wf_noise(x, xi)
    if s in ("diag", "diag+chol"):
        out = np.empty_like(xi)
        n = L.n
        if n:
            lead = (
                L._lead_const
                if L._lead_const is not None
                else np.column_stack([f.eval(x, y) for f in L.lead])
            )
            out[:, :n] = np.sqrt(2.0 * lead * np.maximum(x, 0.0)) * xi[:, :n]
        if L.m:
            if s == "diag":
                out[:, n:] = np.sqrt(2.0 * L._d_diag_const) * xi[:, n:]
            else:
                out[:, n:] = xi[:, n:] @ L._yy_chol_const.T
        return out
    A = 2.0 * L.diffusion_matrix_batch(x, y)
    w, V = np.linalg.eigh(A)
    G = V * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
    return np.einsum("kij,kj->ki", G, xi)


def _ref_update(L, x, y, eta, dt):
    """``(x′, y′)``: drift and noise at ``x⁺``, normals ``η`` already scaled
    by ``√dt``, added to the raw state."""
    xp = np.maximum(x, 0.0)
    drift, inc = L.drift_batch(xp, y), noise_increment(L, xp, y, eta)
    xn = x + drift[:, : L.n] * dt + inc[:, : L.n]
    yn = y + drift[:, L.n :] * dt + inc[:, L.n :] if L.m else y
    return xn, yn


def _ref_step(level, x, y, eta, dt, raw=False):
    """One Euler step and the domain step: ``(x′, y′, ov)`` with every
    face's overshoot row."""
    L, nx = level.op, level.op.n
    xn, y = _ref_update(L, x, y, eta, dt)
    ov = np.empty((len(level.dom.face_ids), xn.shape[0]))
    np.maximum(-xn.T, 0.0, out=ov[:nx])
    if not raw:
        np.maximum(xn, 0.0, out=xn)
    if isinstance(level.dom, Simplex):
        ov[nx] = _ref_simplex_clamp(xn)
    else:
        if nx:
            np.minimum(xn, np.maximum(2.0 * level.dom.radius - xn, 0.0), out=xn)
        if y.shape[1]:
            ry = level.dom.y_radius
            y = np.clip(np.where(y > ry, 2 * ry - y, np.where(y < -ry, -2 * ry - y, y)), -ry, ry)
    return xn, y, ov


def _ref_hits(level, x, ov):
    face = np.zeros(x.shape[0], dtype=np.int64)
    best = np.full(x.shape[0], -np.inf)
    for f, _, tol in level.tangent:
        on = face_distance_rows(x, f, level.dom) <= tol
        if not on.any():
            continue
        sc = np.where(on, ov[f - 1], -np.inf)
        upd = sc > best
        face[upd] = f
        best[upd] = sc[upd]
    return face


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _same(a, b):
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


def _callable_operator():
    """Drift given by a point closure (tangent face 1) and a vectorized
    closure (transverse face 2)."""
    return KimuraOperator(
        dom=CornerBox(2, 1, 3.0),
        b=(
            lambda p: p.x[0] * (0.5 + 0.25 * p.x[1]),
            FuncField(lambda x, y: 0.75 + 0.1 * x[:, 0] * y[:, 0] ** 2, True),
        ),
        e=(FuncField(lambda x, y: np.sin(y[:, 0]), True),),
    )


def _varying_lead_operator():
    """Diagonal noise with a polynomial ``ℓ``; the drift's zero-coefficient
    term drops, which leaves it constant."""
    n = 2
    return KimuraOperator(
        dom=CornerBox(n, 0, 2.0),
        b=(PolyField(((0.5, (0, 0), ()), (0.0, (1, 1), ())), n), 1.0),
        lead=(PolyField(((1.0, (0, 0), ()), (0.5, (0, 1), ())), n), 1.5),
    )


def _generic_operator():
    """Varying ``a``, ``c``, ``d`` and ``e``: the per-state factorisation."""
    n, m = 2, 1
    a12 = PolyField(((0.1, (0, 0), (0,)),), n, m)
    return KimuraOperator(
        dom=CornerBox(n, m, 1.0),
        b=(
            PolyField(((0.5, (0, 0), (0,)), (0.25, (1, 0), (0,))), n, m),
            PolyField(((0.75, (0, 0), (0,)), (0.5, (0, 1), (0,))), n, m),
        ),
        a=((PolyField(((0.3, (0, 0), (0,)),), n, m), a12), (a12, PolyField(((0.2, (0, 0), (0,)),), n, m))),
        c=((PolyField(((0.15, (0, 0), (0,)),), n, m),), (PolyField(((0.05, (1, 0), (0,)),), n, m),)),
        d=((PolyField(((1.0, (0, 0), (0,)), (0.5, (1, 0), (0,))), n, m),),),
        e=(PolyField(((0.2, (0, 0), (1,)),), n, m),),
    )


# (operator, its drift kind, its noise strategy)
CASES = {
    "wf1-zero": (wright_fisher(1, (0.0, 0.0)), "zero", "wf"),
    "wf2-zero": (wright_fisher(2, (0.0, 0.0, 0.0)), "zero", "wf"),
    "wf3-polynomial": (wright_fisher(3, (0.1, 0.2, 0.3, 0.4)), "varying", "wf"),
    "model1d-zero": (model1d(0.0, radius=2.0), "zero", "diag"),
    "product-constant": (
        product_operator(model1d(0.0, radius=4.0), model1d(1.0, radius=4.0)), "constant", "diag"
    ),
    "diag-y-constant": (KimuraOperator(dom=CornerBox(1, 1, 8.0), b=(1.0,), d=((1.0,),)), "constant", "diag"),
    "chol-constant": (
        KimuraOperator(dom=CornerBox(1, 2, 2.0), b=(0.5,), d=((1.0, 0.3), (0.3, 0.5))),
        "constant",
        "diag+chol",
    ),
    "lead-varying": (_varying_lead_operator(), "constant", "diag"),
    "callable": (_callable_operator(), "varying", "diag"),
    "crossfed-polynomial": (remark_counterexample(radius=2.0), "varying", "diag"),
    "generic-polynomial": (_generic_operator(), "varying", "generic"),
}


def _states(L, k, seed):
    """Sampled states, the corner, and the vertices of a simplex or, on a
    box, states next to its outer edges and raw states below its faces."""
    x, y = sample_domain(L.dom, k, seed=seed)
    x[:8] = 0.0
    if isinstance(L.dom, Simplex):
        x[8 : 8 + L.n] = np.eye(L.n)
    else:
        x[8:40] = 0.99 * L.dom.radius
        y[8:24] = 0.99 * L.dom.y_radius
        y[24:40] = -0.99 * L.dom.y_radius
        x[40:56] = -0.02 * L.dom.radius * np.arange(1, 17)[:, None]
    return x, y


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("dt", [1e-3, 0.05])
def test_update_equals_drift_batch_and_noise_increment(name, dt):
    """A raw update meets states below 0; a clamped level never hands its
    update one, so the clamped update sees the states clamped."""
    L, drift, noise = CASES[name]
    x, y = _states(L, 300, seed=3)
    eta = np.random.default_rng(5).standard_normal((x.shape[0], L.dim)) * math.sqrt(dt)
    for raw in (False, True):
        upd = _EulerUpdate(L, dt)
        assert (upd.drift, upd.noise) == (drift, noise)
        z = x if raw else np.maximum(x, 0.0)
        want_x, want_y = _ref_update(L, z, y, eta, dt)
        zy = np.concatenate([z, y], axis=1)
        zy0 = zy.copy()
        got = upd(zy, np.maximum(zy[:, : L.n], 0.0) if raw else zy[:, : L.n], eta)
        got_x, got_y = got[:, : L.n], got[:, L.n :]
        assert _same(got_x, want_x) and _same(got_y, want_y)
        assert _same(zy, zy0)  # the input is left as it is


def _faces(L):
    """``L``'s classification, or none for an operator that does not
    classify, as under the corner stop."""
    try:
        return L.classify_faces()
    except NotClean:
        return FaceClassification(frozenset(), frozenset(), {}, math.inf)


def _levels(L, dt):
    """The root level of ``L`` at ``dt`` and, through each tangent face, its
    child."""
    fc = _faces(L)
    root = sde._Level(L, fc, dt, {})
    kids = [root.child(f) for f in sorted(fc.tangent) if L.dim > 1]
    return [root, *kids]


def _raw_level(L, dt):
    """A raw level of ``L`` at ``dt``: built under a corner stop, it skips
    the clamp and hands its update ``x⁺``."""
    return sde._Level(L, _faces(L), dt, {}, sde._CornerStop(np.array([1e-6]), 16.0, 0))


@pytest.mark.parametrize("name", sorted(CASES))
def test_step_and_hits_equal_the_reference(name):
    """A large ``dt`` pushes many rows past one face or two at once, so the
    clamp, the reflection and the tie rule all run.  Only the raw level
    starts from states below 0; a clamped level never holds one."""
    dt = 0.05
    L0 = CASES[name][0]
    for level in _levels(L0, dt):
        L = level.op
        xr, y = _states(L, 400, seed=7)
        x = np.maximum(xr, 0.0)
        eta = np.random.default_rng(9).standard_normal((x.shape[0], L.dim)) * math.sqrt(dt)
        rx, ry, rov = _ref_step(level, x, y, eta, dt)
        pz, pov = level.step(np.concatenate([x, y], axis=1), eta)
        px, py = pz[:, : L.n], pz[:, L.n :]
        assert _same(px, rx) and _same(py, ry)
        want = _ref_hits(level, rx, rov)
        got = level.hits(pz, pov)
        assert _same(np.zeros_like(want) if got is None else got, want)
        # the first test of a level sees no overshoot: face order breaks ties
        want0 = _ref_hits(level, x, np.zeros_like(rov))
        got0 = level.hits(np.concatenate([x, y], axis=1), None)
        assert _same(np.zeros_like(want0) if got0 is None else got0, want0)
        if isinstance(level.dom, CornerBox):  # a raw level leaves x below 0
            rx, ry, _ = _ref_step(level, xr, y, eta, dt, raw=True)
            pz, _ = _raw_level(L, dt).step(np.concatenate([xr, y], axis=1), eta)
            px, py = pz[:, : L.n], pz[:, L.n :]
            assert _same(px, rx) and _same(py, ry)


def _raw_step(L, x, y, dt):
    """The reference update before the domain step, on the states and
    normals of the step test."""
    eta = np.random.default_rng(9).standard_normal((x.shape[0], L.dim)) * math.sqrt(dt)
    return np.concatenate(_ref_update(L, x, y, eta, dt), axis=1)


def test_the_reference_cases_reach_ties_and_clamps():
    """The step test above meets rows on two tangent faces at once, rows
    past the slack face, rows past a box's outer edges in x and y, and rows
    that a raw level leaves below 0."""
    L = CASES["wf2-zero"][0]
    level = _levels(L, 0.05)[0]
    x, y = _states(L, 400, seed=7)
    eta = np.random.default_rng(9).standard_normal((400, 2)) * math.sqrt(0.05)
    rx, _, rov = _ref_step(level, x, y, eta, 0.05)
    on = np.stack([face_distance_rows(rx, f, L.dom) <= tol for f, _, tol in level.tangent])
    assert np.any(on.sum(axis=0) >= 2)
    assert np.any(rov[L.n] > 0)
    for name in ("product-constant", "diag-y-constant"):
        B = CASES[name][0]
        z = _raw_step(B, *_states(B, 400, seed=7), 0.05)
        assert np.any(z[:, : B.n] > B.dom.radius)
        assert not B.m or (np.any(z[:, B.n :] > B.dom.y_radius) and np.any(z[:, B.n :] < -B.dom.y_radius))
    P = CASES["product-constant"][0]
    px, _, _ = _ref_step(_levels(P, 0.05)[0], *_states(P, 400, seed=7), eta, 0.05, raw=True)
    assert np.any(px < 0.0)


def _ref_wf_noise(x, xi):
    """The genetic-drift factor applied to ξ as first written: ``x⁺`` per
    column, ``q₋₁`` an array of ones, and the off-diagonal part added with
    its sign."""
    k, N = x.shape
    tiny = 1e-300
    out = np.zeros((k, N))
    q_prev = np.ones(k)
    for j in range(N):
        xj = np.maximum(x[:, j], 0.0)
        qj = np.maximum(q_prev - xj, 0.0)
        out[:, j] += np.sqrt(xj * qj / np.maximum(q_prev, tiny)) * xi[:, j]
        if j + 1 < N:
            f = np.sqrt(xj / np.maximum(q_prev * qj, tiny))
            f[qj <= 0.0] = 0.0
            out[:, j + 1 :] += -np.maximum(x[:, j + 1 :], 0.0) * (f * xi[:, j])[:, None]
        q_prev = qj
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_wf_noise_equals_its_first_form(N):
    """Inside the simplex, on its faces and vertices, past the slack face
    and below 0 (a raw state), with signed zeros in the state and in ξ."""
    x, _ = sample_domain(Simplex(N), 400, seed=N)
    x[:8] = 0.0
    x[8 : 8 + N] = np.eye(N)
    x[20:40] *= 1.5
    x[40:60] -= 0.3
    x[60:70] = -0.0
    xi = np.random.default_rng(N).standard_normal(x.shape)
    xi[::7] = -0.0
    assert _same(_wf_noise(x, xi), _ref_wf_noise(x, xi))


def test_simplex_one_clamp_is_min_one():
    """On ``Simplex(1)`` the chart swap lands exactly on 1."""
    x = np.array([[0.0], [0.5], [1.0], [1.0 + 2**-40], [1.5], [3.0], [7.25]])
    want = x.copy()
    over = _ref_simplex_clamp(want)
    assert _same(np.minimum(x, 1.0), want)
    assert _same(np.maximum(x - 1.0, 0.0)[:, 0], over)
    got = x.copy()
    assert _same(sde._simplex_clamp(got), over) and _same(got, want)


def test_zero_polynomial_drift_is_skipped():
    """Neutral Wright–Fisher's drift table holds only zero coefficients; the
    update drops them and adds no drift at all."""
    L = wright_fisher(2, (0.0, 0.0, 0.0))
    assert all(isinstance(f, PolyField) and f.const is None for f in L.b)
    assert _EulerUpdate(L, 1e-3).drift == "zero"
    R = L.restrict(1)
    assert _EulerUpdate(R, 1e-3).drift == "zero"
    p = Point([0.25, 0.5])
    assert L.drift_batch(p.x[None], p.y[None]).tolist() == [[0.0, 0.0]]
