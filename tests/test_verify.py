"""Barrier checks and the elliptic growth-ratio diagnostic.

The margin values asserted exactly here are closed-form: on the documented
presets the minimum of each barrier margin lands on a grid corner where the
defining expression collapses to a short arithmetic identity, so refining
the grid reproduces the same number bit-for-bit.
"""

import json
import pathlib
import pickle

import numpy as np
import pytest

from kimura.errors import KimuraError, NotClean, NoValidH, NoValidParams
from kimura.geometry import CornerBox
from kimura.operator import KimuraOperator, make_preset, model1d
from kimura.verify import (
    AppendixOperator,
    check_barrier_regularity,
    check_barrier_w1,
    check_barrier_w2,
    growth_ratio,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "growth_theta.json"


def _mixed_op():
    """Tangent first coordinate, transverse second, drift b₂ = x₁."""
    return AppendixOperator(a11=1.0, a22=1.0, b1=0.0, b2=lambda x1, x2: x1, nu=0.5)


def _const_op(b2=0.5, nu=0.5):
    return AppendixOperator(a11=1.0, a22=1.0, b1=0.0, b2=b2, nu=nu)


# ---------------------------------------------------------------------------
# assumptions on the 2-coordinate family
# ---------------------------------------------------------------------------


def test_appendix_assumptions_pass_on_const_preset():
    A = _const_op()
    fc = A.classify_faces()
    assert fc.tangent == frozenset({1})
    assert fc.transverse == frozenset({2})
    assert fc.beta0 == 0.5
    assert A.check_assumptions(samples=256).elliptic_ok


def test_appendix_assumptions_catch_corner_vanishing_drift():
    # b₂ = x₁ vanishes where the transverse face meets the corner
    with pytest.raises(NotClean) as exc:
        _mixed_op().classify_faces()
    assert exc.value.face == 2


def test_appendix_operator_with_a_picklable_coefficient_pickles():
    """Worker processes receive the operator pickled; a module-level
    coefficient function must survive the trip."""
    A = AppendixOperator(b2=np.hypot, nu=0.25)
    B = pickle.loads(pickle.dumps(A))
    x = np.array([[0.3, 0.4], [0.0, 0.5]])
    assert np.array_equal(B.b[1].eval(x, np.empty((2, 0))), [0.5, 0.5])
    assert B.nu == 0.25


# ---------------------------------------------------------------------------
# scale-step barrier (w₂)
# ---------------------------------------------------------------------------


def test_w2_searched_scale_and_margin_are_exact():
    rep = check_barrier_w2(_mixed_op(), nu=0.5)
    assert rep.passed
    assert rep.params["H"] == 2.0**-7
    assert rep.min_margin == 7.9375
    assert not rep.violations


def test_w2_margin_is_grid_stable_at_10x():
    r64 = check_barrier_w2(_mixed_op(), nu=0.5, H=2.0**-7, M=64)
    r640 = check_barrier_w2(_mixed_op(), nu=0.5, H=2.0**-7, M=640)
    assert r64.min_margin == r640.min_margin == 7.9375


def test_w2_explicit_large_scale_fails():
    rep = check_barrier_w2(_mixed_op(), nu=0.5, H=0.5)
    assert not rep.passed
    assert rep.violations


def test_w2_search_failure_raises():
    # 2b₁ > a₁₁ flips the √-term sign: the margin diverges to −∞ near the
    # face and no strip height can rescue it
    bad = AppendixOperator(a11=1.0, a22=1.0, b1=1.0, b2=0.5, nu=0.5)
    with pytest.raises(NoValidH):
        check_barrier_w2(bad, nu=0.5)


# ---------------------------------------------------------------------------
# strip barrier (w₁)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("theta2, margin", [(0.5, 4.0), (0.75, 2.0)])
def test_w1_margin_linear_in_one_minus_theta2(theta2, margin):
    rep = check_barrier_w1(_const_op(), theta2=theta2)
    assert rep.passed
    assert rep.params["beta"] == 64.0
    assert rep.min_margin == margin


def test_w1_margin_is_grid_stable_at_10x():
    r = check_barrier_w1(_const_op(), theta2=0.5, beta=64.0, M=640)
    assert r.min_margin == 4.0


def test_w1_vanishing_transverse_drift_is_flagged():
    # b₂ = x₂ vanishes on the transverse face itself; the sweep still wins
    # on the open grid but the precondition violation must be flagged
    A = AppendixOperator(a11=1.0, a22=1.0, b1=0.0, b2=lambda x1, x2: x2, nu=0.5)
    rep = check_barrier_w1(A, theta2=0.5)
    assert any("vanish" in f for f in rep.flags)


def test_w1_no_valid_params():
    bad = AppendixOperator(a11=1.0, a22=1.0, b1=0.0, b2=-50.0, nu=0.5)
    with pytest.raises(NoValidParams):
        check_barrier_w1(bad, theta2=0.5)


# ---------------------------------------------------------------------------
# regularity barrier (w_reg)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rho, margin", [(0.25, 1.0), (1.0, 0.25)])
def test_wreg_margin_quarter_over_rho(rho, margin):
    rep = check_barrier_regularity(model1d(0.0), rho=rho)
    assert rep.passed
    assert rep.min_margin == margin


def test_wreg_margin_is_grid_stable_at_10x():
    rep = check_barrier_regularity(model1d(0.0), rho=0.25, M=480)
    assert rep.min_margin == 1.0


def test_wreg_flags_nonvanishing_tangent_weight():
    rep = check_barrier_regularity(model1d(0.3), rho=0.25)
    assert rep.min_margin == pytest.approx(0.4, abs=1e-12)
    assert rep.flags


def test_wreg_rejects_bad_radius():
    with pytest.raises(ValueError):
        check_barrier_regularity(model1d(0.0), rho=0.0)
    with pytest.raises(ValueError):
        check_barrier_regularity(model1d(0.0), rho=2.0)


def test_wreg_fixed_rho_failure():
    # b > ½ makes L√(x/ρ) = (2b − 1)/(4√(ρx)) positive at every node, so the
    # margin is most negative at the first node and every node is a witness
    b, rho, M = 0.9, 0.25, 48
    rep = check_barrier_regularity(model1d(b), rho=rho, M=M)
    assert not rep.passed
    nodes = [(k / M) * (k / M) * rho for k in range(1, 17)]
    assert rep.violations == tuple((x,) for x in nodes)
    assert rep.argmin == (nodes[0],)
    exact = (1.0 - 2.0 * b) / (4.0 * np.sqrt(rho * nodes[0]))
    assert rep.min_margin == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "L",
    [
        KimuraOperator(dom=CornerBox(2, 0), b=(0.0, 0.5)),
        KimuraOperator(dom=CornerBox(1, 1), b=(0.0,)),
        make_preset("wright-fisher", N=1, b=[0.0, 0.0]),
    ],
    ids=["2d-box", "1d-with-y", "simplex"],
)
def test_wreg_rejects_operators_other_than_1d_box(L):
    with pytest.raises(KimuraError, match="1-D box"):
        check_barrier_regularity(L, rho=0.25)


def test_reports_serialize():
    rep = check_barrier_w2(_mixed_op(), nu=0.5)
    doc = json.loads(rep.to_json())  # to_json returns the serialized text
    assert doc["min_margin"] == 7.9375
    assert doc["barrier"] == rep.name
    assert doc["verdict"] == "pass"


# ---------------------------------------------------------------------------
# growth ratio
# ---------------------------------------------------------------------------


def test_growth_ratios_below_one_and_match_golden():
    A = make_preset("appendix-A", a11=1.0, a22=1.0, b1=0.0, b2=0.5, nu=0.0)
    rep = growth_ratio(A, M=96, nu=0.0)
    assert not rep.degenerate
    assert all(0 < e.ratio < 1 for e in rep.entries)
    assert rep.theta_obs == max(e.ratio for e in rep.entries)
    assert all(e.m_half <= e.m_one + 1e-15 for e in rep.entries)


def test_growth_degenerate_zero_data():
    A = make_preset("appendix-A", a11=1.0, a22=1.0, b1=0.0, b2=0.5, nu=0.0)
    rep = growth_ratio(A, M=64, nu=0.0, outer=0.0)
    assert rep.degenerate


def test_growth_golden_value_reproduced():
    golden = json.loads(GOLDEN.read_text())
    A = make_preset("appendix-A", a11=1.0, a22=1.0, b1=0.0, b2=0.5, nu=0.0)
    rep = growth_ratio(A, M=golden["grid"], nu=golden["nu"], outer=golden["outer"])
    assert rep.theta_obs == pytest.approx(golden["theta_obs"], abs=1e-9)


def test_growth_rejects_non_separable_coefficients():
    # b₂ = x₁ varies along the other axis: no per-axis grid can carry it
    with pytest.raises(KimuraError, match="separable"):
        growth_ratio(_mixed_op(), M=16)
