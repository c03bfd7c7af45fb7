"""Operator core: apply, face classification, assumptions, presets, rescaling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kimura.errors import KimuraError, NotClean
from kimura.geometry import CornerBox, Point, Simplex
from kimura.operator import (
    FuncField,
    KimuraOperator,
    PolyField,
    make_preset,
    model1d,
    product_operator,
    remark_counterexample,
    sample_domain,
    wright_fisher,
    PRESET_NAMES,
    _EulerUpdate,
    _SliceField,
    _XformField,
)


def _noise(L, x, y, xi):
    """``G·ξ`` of the engine's update (``_EulerUpdate``) at states
    ``(x, y)`` with ``x ≥ 0``."""
    return _EulerUpdate(L, 1.0)._noise(x, np.concatenate([x, y], axis=1), xi)


# ---------------------------------------------------------------------------
# apply on hand-computed cases
# ---------------------------------------------------------------------------


def test_apply_1d_model_on_quadratic():
    # L u = x u'' + b u'  on  u = x²:  L u = 2x + 2bx
    L = model1d(0.7)
    u = PolyField([(1.0, (2,), ())], n=1)
    p = Point([0.3])
    assert L.apply(u, p) == pytest.approx(2 * 0.3 + 2 * 0.7 * 0.3)


def test_apply_wright_fisher_on_quadratic():
    # The preset carries the conventional ½:  L u = ½x(1-x) u'', so u = x²
    # gives x(1-x).
    W = wright_fisher(1, np.array([0.0, 0.0]))
    u = PolyField([(1.0, (2,), ())], n=1)
    assert W.apply(u, Point([0.25])) == pytest.approx(0.25 * 0.75)


def test_apply_mixed_terms_2d():
    # b=(1, 2) constant drift, unit leads: L(x₁x₂) = x₂ + 2x₁ (+ a-term 0)
    L = KimuraOperator(dom=CornerBox(2, 0), b=(1.0, 2.0))
    u = PolyField([(1.0, (1, 1), ())], n=2)
    p = Point([0.2, 0.5])
    assert L.apply(u, p) == pytest.approx(0.5 + 2 * 0.2)


def test_apply_on_every_block_matches_the_hand_expanded_formula():
    """On ``CornerBox(1, 1)`` with varying ``ℓ, b, a, c, d, e`` and
    ``u = x²y + y²`` (``u_x = 2xy``, ``u_xx = 2y``, ``u_xy = 2x``,
    ``u_y = x² + 2y``, ``u_yy = 2``), the Kimura form gives
    ``Lu = ℓ·x·2y + b·2xy + x²a·2y + x·c·2x + d·2 + e·(x² + 2y)``."""
    P = lambda *terms: PolyField(terms, 1, 1)
    L = KimuraOperator(
        dom=CornerBox(1, 1),
        lead=(P((1.0, (0,), (0,)), (0.5, (1,), (0,))),),
        b=(P((0.3, (0,), (0,)), (0.2, (0,), (1,))),),
        a=((P((0.2, (0,), (0,)), (0.1, (1,), (0,))),),),
        c=((P((0.15, (0,), (0,)), (0.25, (0,), (1,))),),),
        d=((P((1.0, (0,), (0,)), (0.5, (2,), (0,))),),),
        e=(P((0.2, (0,), (1,))),),
    )
    u = P((1.0, (2,), (1,)), (1.0, (0,), (2,)))
    for x, y in ((0.0, 0.4), (0.3, -0.7), (0.8, 0.5)):
        ell, b, a = 1 + 0.5 * x, 0.3 + 0.2 * y, 0.2 + 0.1 * x
        c, d, e = 0.15 + 0.25 * y, 1 + 0.5 * x**2, 0.2 * y
        want = (
            ell * x * 2 * y + b * 2 * x * y + x * x * a * 2 * y
            + x * c * 2 * x + d * 2 + e * (x * x + 2 * y)
        )
        assert L.apply(u, Point([x], [y])) == pytest.approx(want, rel=1e-14, abs=1e-15)


# ---------------------------------------------------------------------------
# face classification / cleanness
# ---------------------------------------------------------------------------


def test_model1d_tangent_vs_transverse():
    assert model1d(0.0).classify_faces().tangent == frozenset({1})
    fc = model1d(0.5).classify_faces()
    assert fc.transverse == frozenset({1})
    assert fc.beta0 == pytest.approx(0.5)


def test_wright_fisher_is_clean(wf):
    fc = wf.classify_faces()
    assert fc.tangent == frozenset({1, 2})
    assert fc.transverse == frozenset()


def test_product_operator_combines_classifications():
    P = product_operator(model1d(0.0), model1d(0.5))
    fc = P.classify_faces()
    assert fc.tangent == frozenset({1})
    assert fc.transverse == frozenset({2})


def _assert_product_blocks(P, factors):
    """Drift, second-order matrix and noise of the product equal each
    factor's on its own block, bit for bit, and vanish across blocks."""
    x, y = sample_domain(P.dom, 200, seed=5)
    xi = np.random.default_rng(6).standard_normal((200, P.dim))
    drift, M = P.drift_batch(x, y), P.diffusion_matrix_batch(x, y)
    noise = _noise(P, x, y, xi)
    cross = np.ones((P.dim, P.dim), dtype=bool)
    x0 = y0 = 0
    for F in factors:
        idx = np.r_[x0 : x0 + F.n, P.n + y0 : P.n + y0 + F.m]
        fx, fy = x[:, x0 : x0 + F.n], y[:, y0 : y0 + F.m]
        assert np.array_equal(drift[:, idx], F.drift_batch(fx, fy))
        assert np.array_equal(M[:, idx[:, None], idx], F.diffusion_matrix_batch(fx, fy))
        assert np.array_equal(noise[:, idx], _noise(F, fx, fy, xi[:, idx]))
        cross[np.ix_(idx, idx)] = False
        x0, y0 = x0 + F.n, y0 + F.m
    assert not np.any(M[:, cross])


def test_product_lifts_a_non_constant_factor():
    """A factor with drift 0.5 + x is read through its block of the product."""
    F = KimuraOperator(dom=CornerBox(1, 0, 2.0), b=(PolyField(((0.5, (0,), ()), (1.0, (1,), ())), 1),))
    P = product_operator(model1d(0.0, radius=2.0), F)
    assert isinstance(P.b[1], _SliceField)
    _assert_product_blocks(P, (model1d(0.0, radius=2.0), F))


def test_product_lifts_factors_with_y_blocks():
    """Two factors with one tangential coordinate each: the y-dependent
    drifts, leading term and y drifts are read at the factor's offsets."""
    A = KimuraOperator(
        dom=CornerBox(1, 1, 2.0),
        b=(PolyField(((0.5, (0,), (0,)), (0.25, (0,), (2,))), 1, 1),),
        lead=(PolyField(((1.0, (0,), (0,)), (0.5, (1,), (0,))), 1, 1),),
        d=((0.75,),),
        e=(PolyField(((-1.0, (0,), (1,)), (0.5, (1,), (0,))), 1, 1),),
    )
    B = KimuraOperator(
        dom=CornerBox(1, 1, 2.0),
        b=(PolyField(((1.0, (0,), (0,)), (1.0, (1,), (0,))), 1, 1),),
        d=((0.5,),),
        e=(PolyField(((0.25, (0,), (1,)),), 1, 1),),
    )
    P = product_operator(A, B)
    assert (P.n, P.m) == (2, 2)
    assert isinstance(P.e[1], _SliceField) and isinstance(P.lead[0], _SliceField)
    _assert_product_blocks(P, (A, B))


def test_product_restriction_equals_the_factor():
    """The generic restriction of a product gives the remaining factor's
    coefficients: classification, drift and noise agree bit for bit."""
    R = product_operator(model1d(0.0, radius=4.0), model1d(1.0, radius=4.0)).restrict(1)
    F = model1d(1.0, radius=4.0)
    assert R.dom == F.dom
    assert R.classify_faces() == F.classify_faces()
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 4.0, size=(200, 1))
    x[:10] = 0.0
    y, xi = np.empty((200, 0)), rng.standard_normal((200, 1))
    assert np.array_equal(R.drift_batch(x, y), F.drift_batch(x, y))
    assert np.array_equal(_noise(R, x, y, xi), _noise(F, x, y, xi))


def test_counterexample_is_not_clean():
    C = remark_counterexample()
    with pytest.raises(NotClean) as err:
        C.classify_faces()
    assert err.value.witnesses, "a cleanness violation must carry witnesses"
    pt, wt = err.value.witnesses[0]
    assert isinstance(pt, Point)
    assert np.isfinite(wt)


def test_constant_face_weights_draw_no_samples(monkeypatch):
    """A constant weight is its own sup and inf: classifying and restricting
    Wright–Fisher and a product draw no Sobol points, and a constant weight
    that is not clean names the face's first corner as its witness."""
    import kimura.operator as operator_module

    def no_samples(*args):
        raise AssertionError("sampled a constant weight")

    monkeypatch.setattr(operator_module, "_sobol", no_samples)
    W = wright_fisher(2, (0.0, 0.5, 0.0))
    fc = W.classify_faces()
    assert (fc.tangent, fc.transverse) == ({1, 3}, {2})
    assert W.restrict(1).classify_faces().tangent == {2}
    P = product_operator(model1d(0.0, radius=4.0), model1d(1.0, radius=4.0))
    assert P.classify_faces().transverse == {2}
    with pytest.raises(NotClean) as err:
        KimuraOperator(dom=CornerBox(2, 0, 1.0), b=(-0.5, 1.0)).classify_faces()
    ((pt, wt),) = set((tuple(p.x), w) for p, w in err.value.witnesses)
    assert pt == (0.0,) and wt == -0.5


def _eval_from_full(f, x, y):
    """``PolyField.eval`` as each term's product from a full array of its
    coefficient, summed into zeros."""
    out = np.zeros(x.shape[0])
    for coeff, xp, yp in f.terms:
        t = np.full(x.shape[0], float(coeff))
        for i, p in enumerate(xp):
            if p:
                t = t * x[:, i] ** p
        for l, p in enumerate(yp):
            if p:
                t = t * y[:, l] ** p
        out += t
    return out


def test_poly_eval_equals_the_product_from_a_full_array():
    """Starting each term from its first factor changes no bit, −0.0 and
    zero coefficients included."""
    rng = np.random.default_rng(2)
    x, y = rng.normal(size=(50, 2)), rng.normal(size=(50, 1))
    x[:5], x[5:10] = -0.0, 0.0
    tables = [
        ((1.0, (0, 1), (0,)),),
        ((-1.0, (1, 0), (0,)),),
        ((0.0, (1, 1), (0,)), (0.5, (0, 0), (0,))),
        ((1.0, (0, 0), (0,)),),
        ((-0.0, (0, 0), (0,)), (1.0, (1, 0), (0,))),
        ((0.3, (2, 1), (3,)), (1.0, (1, 0), (1,)), (-2.5, (0, 3), (0,))),
        (),
    ]
    for terms in tables:
        f = PolyField(terms, 2, 1)
        assert f.eval(x, y).tobytes() == _eval_from_full(f, x, y).tobytes(), terms


# ---------------------------------------------------------------------------
# assumption report
# ---------------------------------------------------------------------------


def test_check_assumptions_wright_fisher(wf):
    rep = wf.check_assumptions(samples=256)
    assert rep.nonneg_ok
    assert not rep.violations
    # The simplex chart splits ½x(1-x)∂² as x·½(ℓ) + x²·(-½) (a-term); in the
    # variable √x ∂ its reduced form is ½ − ½x, positive inside the simplex
    # and tending to 0 only at the slack face x = 1.
    x, _ = sample_domain(wf.dom, 256, seed=0)
    assert rep.lambda_estimate == pytest.approx(0.5 * (1.0 - x.max()), rel=1e-12)
    assert 0.0 < rep.lambda_estimate < 1e-3
    assert rep.elliptic_ok
    # Three alleles: ½(δ_ij − √(x_i x_j)) has least eigenvalue ½(1 − Σx),
    # where the unweighted ℓ + a read −½ everywhere.
    W = wright_fisher(2, (0.0, 0.5, 0.0))
    rep = W.check_assumptions(samples=256, seed=7)
    x, _ = sample_domain(W.dom, 256, seed=7)
    assert rep.elliptic_ok and not rep.violations
    assert rep.lambda_estimate == pytest.approx(0.5 * (1.0 - x.sum(axis=1)).min(), rel=1e-9)


@pytest.mark.parametrize(
    "make",
    [
        lambda: wright_fisher(2, (0.0, 0.5, 0.0)),
        lambda: wright_fisher(3, (0.1, 0.2, 0.3, 0.4)),
        lambda: _poly_operator(),
    ],
    ids=["wf2", "wf3", "poly-y-block"],
)
def test_reduced_form_scaled_by_root_x_is_the_diffusion_matrix(make):
    """``D Q D`` equals ``diffusion_matrix_batch`` with ``D = diag(√x, 1)``
    at every sample, so the checked form is the generator's."""
    L = make()
    x, y = sample_domain(L.dom, 256, seed=3)
    D = np.sqrt(np.concatenate([x, np.ones_like(y)], axis=1))
    DQD = D[:, :, None] * L._reduced_form_batch(x, y) * D[:, None, :]
    assert np.allclose(DQD, L.diffusion_matrix_batch(x, y), rtol=1e-13, atol=1e-15)


def test_check_assumptions_elliptic_box_preset():
    rep = model1d(0.5).check_assumptions(samples=128)
    assert rep.nonneg_ok
    assert rep.elliptic_ok
    assert rep.lambda_estimate > 0


def test_check_assumptions_reads_the_y_block():
    """A12's operator has ``c`` and ``d`` terms; its reduced form is
    ``[[ℓ₁+x₁a₁₁, √(x₁x₂)a₁₂, √x₁c₁/2], [·, ℓ₂+x₂a₂₂, √x₂c₂/2], [·, ·, d]]``,
    written out here from the coefficient tables, and the report's λ is its
    least eigenvalue over the same samples."""
    L = _poly_operator()
    x, y = sample_domain(L.dom, 64, seed=3)
    x1, x2, one = x[:, 0], x[:, 1], np.ones(len(x))
    r1, r2 = np.sqrt(x1), np.sqrt(x2)
    c1, c2, a12 = 0.15 * r1, 0.05 * x1 * r2, 0.1 * r1 * r2
    want = np.stack(
        [
            np.stack([1.0 + 0.5 * x2 + 0.3 * x1, a12, c1 / 2], axis=1),
            np.stack([a12, 1.5 + 0.2 * x2, c2 / 2], axis=1),
            np.stack([c1 / 2, c2 / 2, 1.0 + 0.5 * x1], axis=1),
        ],
        axis=1,
    )
    assert np.max(np.abs(L._reduced_form_batch(x, y) - want)) <= 1e-15
    rep = L.check_assumptions(samples=64, seed=3)
    assert rep.nonneg_ok and rep.elliptic_ok and not rep.violations
    assert rep.lambda_estimate == pytest.approx(np.linalg.eigvalsh(want)[:, 0].min(), abs=1e-14)


def test_check_assumptions_flags_negative_drift():
    L = model1d(-0.2)
    rep = L.check_assumptions(samples=128)
    assert not rep.nonneg_ok
    assert rep.violations


def test_check_assumptions_flags_an_indefinite_reduced_form():
    """``a₁₂ = −3`` with unit leads: the reduced form ``[[1, −3r], [−3r, 1]]``
    (``r = √(x₁x₂)``) is indefinite wherever ``r > 1/3``; the report gives
    one ellipticity violation, its least eigenvalue ``1 − 3r`` at the
    witness."""
    L = KimuraOperator(dom=CornerBox(2, 0, 1.0), a=((0, -3), (-3, 0)))
    rep = L.check_assumptions()
    assert rep.nonneg_ok and not rep.elliptic_ok
    (v,) = rep.violations
    assert v.condition == "ellipticity" and v.value == rep.lambda_estimate < -1.9
    assert v.value == pytest.approx(1.0 - 3.0 * np.sqrt(v.point.x[0] * v.point.x[1]), abs=1e-14)


def test_hand_built_wright_fisher_noise_is_the_presets():
    """ℓ ≡ ½ and a ≡ −½ on a simplex select the closed-form genetic-drift
    factor without a preset: the increments equal the preset's bit for bit."""
    H = KimuraOperator(
        dom=Simplex(2),
        lead=(0.5, 0.5),
        a=((-0.5, -0.5), (-0.5, -0.5)),
    )
    W = wright_fisher(2, (0.0, 0.0, 0.0))
    rng = np.random.default_rng(5)
    x = rng.dirichlet(np.ones(3), size=300)[:, :2]
    x[:20, 0] = 0.0
    y, xi = np.empty((300, 0)), rng.standard_normal((300, 2))
    assert np.array_equal(_noise(H, x, y, xi), _noise(W, x, y, xi))


# ---------------------------------------------------------------------------
# the simplex slack face
# ---------------------------------------------------------------------------


def _fold(rates, face):
    """The rates of ``wright_fisher(N−1, ·)`` on a face of
    ``wright_fisher(N, rates)``: the face's rate joins the slack rate, or on
    the slack face the last coordinate's."""
    N, r = len(rates) - 1, list(rates)
    if face <= N:
        return tuple(r[: face - 1] + r[face:N] + [r[N] + r[face - 1]])
    return tuple(r[: N - 1] + [r[N - 1] + r[N]])


@pytest.mark.parametrize("face", [1, 2, 3, 4])
def test_wright_fisher_restriction_is_wright_fisher(face):
    """Every face of ``wright_fisher(3, r)``, the slack face included,
    restricts by its coefficients alone to ``wright_fisher(2, folded r)``:
    classification, drift and noise agree bit for bit.  Dyadic rates keep
    the rate sums exact."""
    rates = [0.25, 0.5, 0.125, 0.375]
    rates[face - 1] = 0.0
    R = wright_fisher(3, rates).restrict(face)
    W = wright_fisher(2, _fold(rates, face))
    assert R.dom == W.dom
    assert R.classify_faces() == W.classify_faces()
    rng = np.random.default_rng(face)
    x = rng.dirichlet(np.ones(3), size=300)[:, :2]
    x[:20, 0] = 0.0
    x[20:40, 1] = 1.0 - x[20:40, 0]
    y, xi = np.empty((300, 0)), rng.standard_normal((300, 2))
    assert np.array_equal(R.drift_batch(x, y), W.drift_batch(x, y))
    assert np.array_equal(_noise(R, x, y, xi), _noise(W, x, y, xi))


def test_slack_weight_follows_the_time_scale():
    """With ``ℓ ≡ c`` and ``a ≡ −c`` the slack weight is ``−Σ b_i / c``: for
    the genetic-drift drift table at ``c = 1`` that is the slack rate."""
    rates, S = (0.25, 0.5, 0.125), 0.875
    b = tuple(
        PolyField(((rates[i], (0, 0), ()), (-S, tuple(int(j == i) for j in range(2)), ())), 2)
        for i in range(2)
    )
    H = KimuraOperator(dom=Simplex(2), b=b, lead=(1.0, 1.0), a=((-1.0, -1.0), (-1.0, -1.0)))
    assert [H.weight(f).const for f in (1, 2, 3)] == list(rates)


def test_slack_rule_reads_non_polynomial_drift():
    """A drift given by closures still gets the slack weight ``−Σ b_i / c``,
    evaluated on the face, and restricts through a coordinate face."""
    rates, S = (0.0, 0.25, 0.5), 0.75
    b = tuple(
        FuncField(lambda x, y, i=i: rates[i] - S * x[:, i], vectorized=True) for i in range(2)
    )
    H = KimuraOperator(dom=Simplex(2), b=b, lead=(0.5, 0.5), a=((-0.5, -0.5), (-0.5, -0.5)))
    x, y = sample_domain(Simplex(1), 64)
    assert np.allclose(H.weight(3).eval(x, y), 2 * rates[2], rtol=0, atol=1e-12)
    fc = H.classify_faces()
    assert (fc.tangent, fc.transverse) == ({1}, {2, 3})
    R = H.restrict(1)
    assert isinstance(R.dom, Simplex) and R.dom.N == 1
    assert R.classify_faces().transverse == {1, 2}


@pytest.mark.parametrize(
    "lead, a",
    [
        # ℓ₁ is not constant
        ((PolyField(((0.5, (0, 0), ()), (0.25, (1, 0), ())), 2), 0.5), ((-0.5, -0.5), (-0.5, -0.5))),
        # a ≠ −ℓ
        ((0.5, 0.5), ((-0.25, -0.25), (-0.25, -0.25))),
    ],
)
def test_slack_face_outside_the_rule_raises(lead, a):
    H = KimuraOperator(dom=Simplex(2), lead=lead, a=a)
    assert H.weight(1).const == 0.0  # coordinate faces need no rule
    with pytest.raises(KimuraError):
        H.weight(3)
    with pytest.raises(KimuraError):
        H.restrict(3)
    with pytest.raises(KimuraError):
        H.classify_faces()


# ---------------------------------------------------------------------------
# presets registry
# ---------------------------------------------------------------------------


def test_registry_round_trip():
    for name in PRESET_NAMES:
        assert isinstance(name, str)
    L = make_preset("model1d", b=0.3, radius=2.0)
    assert L.b[0].const == 0.3
    assert L.dom.radius == 2.0


_MINIMAL_PARAMS = {
    "model1d": {"b": 0.0},
    "wright-fisher": {"N": 1, "b": [0.0, 0.0]},
    "product": {"factors": [model1d(0.0), model1d(0.5)]},
    "remark-counterexample": {},
    "appendix-A": {},
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_every_preset_is_a_kimura_operator(name):
    """Each preset serves every operator task, so each is one operator class."""
    assert isinstance(make_preset(name, **_MINIMAL_PARAMS[name]), KimuraOperator)


def test_registry_rejects_unknown_names():
    with pytest.raises(ValueError):
        make_preset("not-a-preset")


# ---------------------------------------------------------------------------
# rescaling identity (exact, scalar λ)
# ---------------------------------------------------------------------------


def _poly_operator():
    """A 2-corner, 1-tangential operator with genuinely varying coefficients."""
    n, m = 2, 1
    b = (
        PolyField(((0.5, (0, 0), (0,)), (0.25, (1, 0), (0,))), n, m),
        PolyField(((0.75, (0, 0), (0,)), (0.5, (0, 1), (0,))), n, m),
    )
    a12 = PolyField(((0.1, (0, 0), (0,)),), n, m)
    a = ((PolyField(((0.3, (0, 0), (0,)),), n, m), a12), (a12, PolyField(((0.2, (0, 0), (0,)),), n, m)))
    c = ((PolyField(((0.15, (0, 0), (0,)),), n, m),), (PolyField(((0.05, (1, 0), (0,)),), n, m),))
    d = ((PolyField(((1.0, (0, 0), (0,)), (0.5, (1, 0), (0,))), n, m),),)
    e = (PolyField(((0.2, (0, 0), (1,)),), n, m),)
    lead = (
        PolyField(((1.0, (0, 0), (0,)), (0.5, (0, 1), (0,))), n, m),
        PolyField(((1.5, (0, 0), (0,)),), n, m),
    )
    return KimuraOperator(dom=CornerBox(n, m, 1.0), b=b, a=a, c=c, d=d, e=e, lead=lead)


def _noise_factor(L, x, y):
    """The factor ``G`` of the update's noise ``G·ξ``, read off column by
    column with unit vectors ξ."""
    k = x.shape[0]
    return np.stack(
        [_noise(L, x, y, np.tile(e, (k, 1))) for e in np.eye(L.dim)], axis=2
    )


@pytest.mark.parametrize(
    "L, strategy",
    [
        (KimuraOperator(dom=CornerBox(1, 2, 2.0), b=(0.5,), d=((1.0, 0.3), (0.3, 0.5))), "diag+chol"),
        (_poly_operator(), "generic"),
    ],
)
def test_noise_factor_squares_to_the_covariance(L, strategy):
    """``G Gᵀ = 2M`` on sampled states for the constant non-diagonal ``d``
    (Cholesky) and the varying-coefficient (per-state eigendecomposition)
    branches of the update's noise."""
    assert L._noise_strategy == strategy
    x, y = sample_domain(L.dom, 256, seed=4)
    G = _noise_factor(L, x, y)
    cov = G @ np.swapaxes(G, 1, 2)
    assert np.max(np.abs(cov - 2.0 * L.diffusion_matrix_batch(x, y))) <= 1e-12


@pytest.mark.parametrize("lam", [1.0, 0.5, 0.25])
def test_rescale_identity_on_polynomials(lam):
    L = _poly_operator()
    Lp = L.rescale(lam)
    u = PolyField(
        [(0.7, (2, 0), (0,)), (0.3, (1, 1), (1,)), (-0.2, (0, 0), (2,))], n=2, m=1
    )
    v = u.rescaled(lam, 1.0)
    xs, ys = sample_domain(L.dom, 32, seed=5)
    for x, y in zip(xs, ys):
        zp = Point(x, y)
        z = Point(lam * x, np.sqrt(lam) * y)
        lhs = lam * L.apply(u, z)
        rhs = Lp.apply(v, zp)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_rescale_returns_a_scale_invariant_operator_unchanged():
    """Constant ``ℓ``, ``b`` and ``d`` with no ``a``, ``c`` or ``e`` terms:
    the zoom leaves the operator as it is."""
    L = model1d(0.5)
    assert L.rescale(0.5) is L


def test_rescale_rejects_simplex_and_bad_lambda(wf):
    with pytest.raises(Exception):
        wf.rescale(0.5)
    with pytest.raises(ValueError):
        model1d(0.0).rescale(1.5)


@pytest.mark.parametrize("lam", [0.5, 0.3])
def test_rescale_of_a_point_callable_drift_matches_the_polynomial_route(lam):
    """A drift given as point callables rescales through ``_XformField`` and
    the point form of ``FuncField.eval``; its ``drift_batch`` agrees with the
    exact ``PolyField`` rescaling of the same polynomials."""
    n, m = 2, 1
    poly = (
        PolyField(((0.5, (0, 0), (0,)), (0.25, (1, 0), (0,)), (0.125, (0, 1), (1,))), n, m),
        PolyField(((0.75, (0, 0), (0,)), (-0.5, (1, 1), (0,))), n, m),
    )
    point = (
        lambda p: 0.5 + 0.25 * p.x[0] + 0.125 * p.x[1] * p.y[0],
        lambda p: 0.75 - 0.5 * p.x[0] * p.x[1],
    )
    dom = CornerBox(n, m, 2.0)
    L_poly = KimuraOperator(dom=dom, b=poly).rescale(lam)
    L_point = KimuraOperator(dom=dom, b=point).rescale(lam)
    assert all(isinstance(f, _XformField) and isinstance(f.base, FuncField) for f in L_point.b)
    assert L_point.dom == L_poly.dom
    x, y = sample_domain(L_poly.dom, 64, seed=7)
    assert np.max(np.abs(L_point.drift_batch(x, y) - L_poly.drift_batch(x, y))) <= 1e-15


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@given(
    b=st.floats(0.0, 2.0),
    x=st.floats(0.01, 0.99),
    coef=st.floats(-2.0, 2.0),
)
@settings(max_examples=60, deadline=None)
def test_apply_is_linear_in_u(b, x, coef):
    L = model1d(b)
    u = PolyField([(1.0, (2,), ()), (0.5, (1,), ())], n=1)
    w = PolyField(
        [(coef * 1.0, (2,), ()), (coef * 0.5, (1,), ())], n=1
    )
    p = Point([x])
    assert L.apply(w, p) == pytest.approx(
        coef * L.apply(u, p), rel=1e-9, abs=1e-12
    )
