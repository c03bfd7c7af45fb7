"""Comparison-operator checks: barrier supersolutions and window growth.

The comparison operator of the barrier and growth arguments,

    A u = x₁ a₁₁ u_{x₁x₁} + x₂ a₂₂ u_{x₂x₂} + b₁ u_{x₁} + b₂ u_{x₂},

is the :class:`AppendixOperator`: a Kimura operator on the unit corner box
with face 1 ({x₁ = 0}) tangent and face 2 ({x₂ = 0}) transverse.  This
module checks three explicit barrier functions against it (and against a
1-D box operator), and measures the two-window growth ratio of its bounded
solutions.  Each barrier check evaluates A(barrier) from *closed-form*
derivatives of the barrier (they are explicit elementary functions) and the
operator's own coefficient fields, so the reported margins carry no
finite-difference error; grids exclude the degenerate edge x₁ = 0, where
the barriers' derivatives blow up.

Search conventions: a w1/w2 barrier parameter passed as ``None`` is
searched — geometric descent/doubling with a 40-iteration budget and a 1e−6
floor — and the first comfortably passing value is reported (not the
razor-thin threshold), so that a re-check on a 10× finer grid stays
negative.  The regularity barrier of a 1-D operator takes its window ρ
as given.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .errors import (
    KimuraError,
    NoValidH,
    NoValidParams,
)
from .geometry import CornerBox
from .operator import CoefficientField, ConstField, FuncField, KimuraOperator

__all__ = [
    "AppendixOperator",
    "BarrierReport",
    "GrowthEntry",
    "GrowthReport",
    "check_barrier_w2",
    "check_barrier_w1",
    "check_barrier_regularity",
    "growth_ratio",
]

_SEARCH_BUDGET = 40
_PARAM_FLOOR = 1e-6
_MAX_WITNESSES = 16


def _corner_call(f, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``f(x1, x2)`` on a batch of corner-box rows, broadcast to shape (k,).

    A module-level function, so an operator built from a picklable ``f``
    can be sent to worker processes.
    """
    return f(x[:, 0], x[:, 1]) + 0.0 * x[:, 0]


@dataclass(frozen=True, init=False)
class AppendixOperator(KimuraOperator):
    """The comparison operator x₁a₁₁∂₁² + x₂a₂₂∂₂² + b₁∂₁ + b₂∂₂ on the unit box.

    A :class:`~kimura.operator.KimuraOperator` on ``CornerBox(2, 0, 1)`` with
    leading coefficients ``(a11, a22)`` and drift ``(b1, b2)``.  Each is a
    number (a constant field) or a vectorized callable ``f(x1, x2)`` of the
    corner coordinates.  Face 1 ({x₁ = 0}) is meant tangent (b₁ vanishes
    there) and face 2 ({x₂ = 0}) transverse (b₂ stays positive there); the
    operator's own :meth:`classify_faces` and :meth:`check_assumptions`
    check both.  ``nu`` is the default level on the tangent face for the w2
    barrier and the growth solve.
    """

    nu: float = 0.5

    def __init__(self, *, a11=1.0, a22=1.0, b1=0.0, b2=0.5, nu: float = 0.5):
        if not 0.0 <= nu < 1.0:
            raise ValueError(f"nu must lie in [0,1), got {nu}")

        def field(v) -> CoefficientField:
            if not callable(v):
                return ConstField(float(v))
            return FuncField(partial(_corner_call, v), vectorized=True)

        super().__init__(
            dom=CornerBox(2, 0, 1.0),
            b=(field(b1), field(b2)),
            lead=(field(a11), field(a22)),
        )
        object.__setattr__(self, "nu", float(nu))


def _on_grid(f: CoefficientField, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """A field of the corner box at the points of a mesh grid (X1, X2)."""
    x = np.column_stack((X1.ravel(), X2.ravel()))
    return f.eval(x, np.empty((x.shape[0], 0))).reshape(X1.shape)


# --------------------------------------------------------------------------
# barrier reports
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BarrierReport:
    """Outcome of one barrier supersolution check.

    ``min_margin`` is the minimum of −A(barrier) over the grid: the check
    passes exactly when it is positive, i.e. the violating-point list is
    empty.  ``flags`` records precondition violations observed on the way
    (the margin itself may still be fine).
    """

    name: str
    params: dict
    grid_shape: tuple
    min_margin: float
    argmin: tuple
    violations: tuple
    flags: tuple = ()

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0

    def to_json(self) -> str:
        payload = {
            "barrier": self.name,
            "verdict": "pass" if self.passed else "fail",
            "parameters": self.params,
            "grid_shape": list(self.grid_shape),
            "min_margin": self.min_margin,
            "argmin": list(self.argmin),
            "witnesses": [list(v) for v in self.violations[:_MAX_WITNESSES]],
            "flags": list(self.flags),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _graded_open(edge: float, M: int) -> np.ndarray:
    """Nodes (k/M)²·edge, k = 1..M — excludes the degenerate endpoint 0."""
    k = np.arange(1, M + 1, dtype=float)
    return (k / M) ** 2 * edge


def _report(name, params, arrays, margin_grid, flags) -> BarrierReport:
    """Assemble a report from the −A(barrier) values on a mesh grid."""
    flat = margin_grid.reshape(-1)
    j = int(np.argmin(flat))
    idx = np.unravel_index(j, margin_grid.shape)
    argmin = tuple(float(arrays[d][idx[d]]) for d in range(len(arrays)))
    viol_idx = np.argwhere(margin_grid <= 0.0)
    violations = tuple(
        tuple(float(arrays[d][ix[d]]) for d in range(len(arrays)))
        for ix in viol_idx[:_MAX_WITNESSES]
    )
    return BarrierReport(
        name,
        params,
        margin_grid.shape,
        float(flat[j]),
        argmin,
        violations,
        tuple(flags),
    )


# --------------------------------------------------------------------------
# barrier: sqrt profile across the tangent face strip
# --------------------------------------------------------------------------


def _w2_margin(A: AppendixOperator, H: float, M: int):
    """−A(w₂) on the strip (0,H]×[¼,¾], from exact derivatives.

    w₂ = ν + 16(x₂−½)² + √(x₁/H), so
    A w₂ = (2b₁ − a₁₁)/(4√(H x₁)) + 32(x₂ a₂₂ + b₂(x₂−½)).
    """
    x1 = _graded_open(H, M)
    x2 = np.linspace(0.25, 0.75, M + 1)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    a1, a2, b1, b2 = (_on_grid(f, X1, X2) for f in (*A.lead, *A.b))
    val = (2.0 * b1 - a1) / (4.0 * np.sqrt(H * X1))
    val += 32.0 * (X2 * a2 + b2 * (X2 - 0.5))
    return [x1, x2], -val


def check_barrier_w2(
    A: AppendixOperator,
    nu: float | None = None,
    H: float | None = None,
    *,
    M: int = 64,
) -> BarrierReport:
    """Check that the √-profile barrier is a strict supersolution on its strip.

    With ``H=None`` the strip height is searched by geometric descent from
    ½ (the drift term 32(x₂a₂₂ + b₂(x₂−½)) is bounded while the √ term
    contributes −a₁₁/(4√(Hx₁)) ≤ −a₁₁/(4H), so small enough H wins whenever
    the drift vanishes on the tangent face).
    """
    nu = A.nu if nu is None else float(nu)
    if not 0.0 < nu < 1.0:
        raise ValueError(f"nu must lie in (0,1), got {nu}")
    flags = []
    _, weight = A._weight_samples(A.weight(1), 1, 64)
    if np.max(np.abs(weight)) > 1e-12:
        flags.append("drift does not vanish on the x1 face: sqrt-term sign logic off")

    def run(h: float) -> BarrierReport:
        arrays, margin = _w2_margin(A, h, M)
        params = {"H": h, "nu": nu}
        return _report("w2", params, arrays, margin, flags)

    if H is not None:
        if H <= 0:
            raise ValueError(f"H must be positive, got {H}")
        return run(float(H))
    h = 0.5
    for _ in range(_SEARCH_BUDGET):
        rep = run(h)
        if rep.passed:
            return rep
        if h <= _PARAM_FLOOR:
            break
        h = max(0.5 * h, _PARAM_FLOOR)
    raise NoValidH(f"no strip height ≥ {_PARAM_FLOOR} makes the w2 barrier strict")


# --------------------------------------------------------------------------
# barrier: drift sweep along a transverse face
# --------------------------------------------------------------------------


def _w1_margin(A: AppendixOperator, theta2: float, k: float, beta: float, M: int):
    """−A(w₁) on [¼,¾]×(0,k], from exact derivatives.

    w₁ = θ₂ + (1−θ₂)[16(x₁−½)² + β(k−x₂) + ½], so
    A w₁ = (1−θ₂)[32(x₁a₁₁ + b₁(x₁−½)) − βb₂].
    """
    x1 = np.linspace(0.25, 0.75, M + 1)
    x2 = _graded_open(k, M)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    a1, b1, b2 = (_on_grid(f, X1, X2) for f in (A.lead[0], *A.b))
    val = 32.0 * (X1 * a1 + b1 * (X1 - 0.5))
    val -= beta * b2
    return [x1, x2], -(1.0 - theta2) * val


def check_barrier_w1(
    A: AppendixOperator,
    theta2: float = 0.5,
    k: float | None = None,
    beta: float | None = None,
    *,
    M: int = 64,
) -> BarrierReport:
    """Check the drift-sweep barrier along the transverse face strip.

    ``beta=None`` doubles β from 1 until the margin is strictly positive;
    if the budget runs out, the strip height ``k`` is halved and the sweep
    retried (helps when the transverse drift is only large near the face).
    """
    if not 0.0 < theta2 < 1.0:
        raise ValueError(f"theta2 must lie in (0,1), got {theta2}")
    flags = []
    probe_x1 = np.linspace(0.25, 0.75, 33)

    def b2_min(height: float) -> float:
        x2 = np.concatenate(([0.0], _graded_open(height, 32)))
        X1, X2 = np.meshgrid(probe_x1, x2, indexing="ij")
        return float(np.min(_on_grid(A.b[1], X1, X2)))

    k0 = 0.5 if k is None else float(k)
    if k0 <= 0:
        raise ValueError(f"k must be positive, got {k0}")
    if b2_min(k0) <= 0.0:
        flags.append("transverse drift vanishes on the strip: no β can win")

    def run(height: float, b: float) -> BarrierReport:
        arrays, margin = _w1_margin(A, theta2, height, b, M)
        params = {"theta2": theta2, "k": height, "beta": b}
        return _report("w1", params, arrays, margin, flags)

    if beta is not None:
        return run(k0, float(beta))
    height = k0
    for _ in range(3):
        b = 1.0
        for _ in range(_SEARCH_BUDGET):
            rep = run(height, b)
            if rep.passed:
                return rep
            b *= 2.0
        if k is not None or height <= _PARAM_FLOOR:
            break
        height = max(0.5 * height, _PARAM_FLOOR)
    raise NoValidParams(
        f"no (β, k) with β ≤ 2^{_SEARCH_BUDGET}, k ≥ {_PARAM_FLOOR} makes the w1 barrier strict"
    )


# --------------------------------------------------------------------------
# barrier: hitting-probability regularity profile
# --------------------------------------------------------------------------


def _w_reg_margin(L: KimuraOperator, rho: float, M: int):
    """−L(w) on (0,ρ], from exact derivatives.

    w = √(x/ρ), so w′ = ½(ρx)^{−½}, w″ = −¼ρ^{−½}x^{−3/2} and
    L w = ℓ x w″ + b w′ + x² a w″.
    """
    x = _graded_open(rho, M)
    X, Y = x[:, None], np.empty((M, 0))
    dw = 0.5 / np.sqrt(rho * x)
    d2w = -0.25 / (math.sqrt(rho) * x**1.5)
    val = L.lead[0].eval(X, Y) * x * d2w + L.b[0].eval(X, Y) * dw
    val += x * x * L.a[0][0].eval(X, Y) * d2w
    return [x], -val


def check_barrier_regularity(L: KimuraOperator, rho: float, *, M: int = 48) -> BarrierReport:
    """Check the regularity barrier L(√(x/ρ)) < 0 of a 1-D box operator.

    Evaluated on the graded window (0, ρ] through the operator's own
    coefficients ``lead[0]``, ``b[0]`` and ``a[0][0]`` (exact barrier
    derivatives).  ``rho`` must be positive and at most the chart radius;
    an operator with ``n ≠ 1``, ``m ≠ 0`` or a non-box chart raises
    :class:`~kimura.errors.KimuraError`.
    """
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    box = L.dom
    if not isinstance(box, CornerBox) or (L.n, L.m) != (1, 0):
        raise KimuraError("the regularity barrier runs on a 1-D box chart")
    if rho > box.radius + 1e-12:
        raise ValueError(f"rho={rho} exceeds the chart radius {box.radius}")
    flags = []
    fc = L.classify_faces()
    if 1 not in fc.tangent:
        flags.append("face 1 drift does not vanish: tangency assumption violated")
    arrays, margin = _w_reg_margin(L, float(rho), M)
    return _report("w_reg", {"rho": float(rho)}, arrays, margin, flags)


# --------------------------------------------------------------------------
# two-window growth ratio
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthEntry:
    """One window scale: sup over the half window and the full window."""

    r: float
    m_half: float
    m_one: float

    @property
    def ratio(self) -> float:
        return self.m_half / self.m_one if self.m_one > 0.0 else math.nan


@dataclass(frozen=True)
class GrowthReport:
    """Window sup-ratios of the bounded steady solution.

    ``theta_obs`` is the largest ratio over the requested scales; it is the
    observed contraction factor of the corner windows.  ``degenerate`` marks
    the all-zero solution (0/0 ratios).
    """

    entries: tuple
    nu: float
    outer: float
    grid: int
    degenerate: bool

    @property
    def theta_obs(self) -> float:
        vals = [e.ratio for e in self.entries if not math.isnan(e.ratio)]
        return max(vals) if vals else math.nan

    def to_json(self) -> str:
        payload = {
            "nu": self.nu,
            "outer": self.outer,
            "grid": self.grid,
            "degenerate": self.degenerate,
            "theta_obs": None if math.isnan(self.theta_obs) else self.theta_obs,
            "entries": [
                {
                    "r": e.r,
                    "m_half": e.m_half,
                    "m_one": e.m_one,
                    "ratio": None if math.isnan(e.ratio) else e.ratio,
                }
                for e in self.entries
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def growth_ratio(
    A: AppendixOperator,
    r_values: Sequence[float] = (0.5, 0.25, 0.125, 0.0625, 0.03125),
    *,
    nu: float | None = None,
    outer: float = 1.0,
    M: int = 256,
) -> GrowthReport:
    """Window sup-ratios M(r;½)/M(r;1) of the steady solution near the corner.

    Solves A u = 0 on the unit box with data ``nu`` on the tangent face
    {x₁=0}, ``outer`` on the far sides {x₁=1} and {x₂=1}, and the natural
    condition on the transverse face {x₂=0}; then reports, for each scale
    r, the sup of u over the corner windows (0, r/2)² and (0, r)².

    The solve runs on per-axis graded grids and is the exact discrete
    steady state, solved in the per-axis dμ eigenbasis by
    :func:`~kimura.pde.solve_elliptic_2d`; the coefficients must be
    separable per coordinate (the probe of
    :func:`~kimura.pde.solve_backward_2d` rejects the rest).
    """
    from .pde import _axis_grids_2d, solve_elliptic_2d

    nu = A.nu if nu is None else float(nu)
    gx, gy = _axis_grids_2d(A, M, dirichlet_left=(True, False), dirichlet_right=True)
    boundary = np.zeros((gx.n_nodes, gy.n_nodes))
    boundary[-1, :] = outer
    boundary[:, -1] = outer
    boundary[0, :] = nu  # tangent-face data wins at the (0, edge) corner
    u = solve_elliptic_2d(gx, gy, boundary)

    entries = []
    for r in sorted(r_values, reverse=True):
        vals = []
        for mu in (0.5, 1.0):
            sel_x = gx.nodes <= mu * r + 1e-15
            sel_y = gy.nodes <= mu * r + 1e-15
            sel_x[0] = False  # interior sup: the face itself carries the data
            if not np.any(sel_x) or not np.any(sel_y):
                raise KimuraError(
                    f"no grid nodes inside the window r={r}, mu={mu}; increase M"
                )
            vals.append(float(np.max(u[np.ix_(sel_x, sel_y)])))
        entries.append(GrowthEntry(float(r), vals[0], vals[1]))
    degenerate = all(e.m_one <= 1e-14 for e in entries)
    return GrowthReport(tuple(entries), nu, outer, M, degenerate)
