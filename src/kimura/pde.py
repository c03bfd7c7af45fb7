"""Finite-volume solvers for the degenerate 1D/2D Kolmogorov equations.

Every solver here works in the natural weighted measure dμ = m(x) dx (the
multi-dimensional speed measure), in which a one-dimensional generator
``A(x) u″ + b(x) u′`` takes the divergence form

    L u = (1/m) d/dx ( (1/s′) du/dx ),      s′ = scale density.

Discretizing the scale flux ``(u_{k+1} − u_k) / S_{k+1}`` across each cell
interface and dividing by the cell's dμ mass gives a generator matrix that
is *exactly* self-adjoint in the discrete dμ inner product.  Consequences
used throughout the test-suite:

* backward/forward duality ``(f, T_t g)_μ = (T̂_t f, g)_μ`` holds to linear
  solver round-off (the forward matrix is the transpose in dμ);
* the discrete kernel is symmetric, ``k(t, p, q) = k(t, q, p)``;
* implicit Euler steps are M-matrix solves, so non-negativity and
  non-increasing mass are structural, not accidental.

Every time-dependent solve is one implicit-Euler march ``(I − Δt B) u⁺ = u``
over ``⌈T/Δt⌉`` equal steps (there is no θ-scheme), so the kernel loses
``Δt·flux(tᵢ)`` through a face in step ``i``; absorbed mass is reported as
that backward-rectangle sum.  Each one-dimensional step is one symmetric
positive-definite tridiagonal solve (LAPACK ``dpttrs``) in ``√μ·u``.

Two-dimensional solves run on the tensor grid of two axes of a
coordinate-separable operator, whose generator is the Kronecker sum
``Bx ⊕ By``.  Each axis's block on its non-Dirichlet nodes is self-adjoint
in dμ, so one small symmetric tridiagonal eigenproblem per axis diagonalises
it, and every tensor-grid system is solved exactly by a transform into the
product eigenbasis, a division and a transform back (the fast
diagonalization method of Lynch, Rice & Thomas, Numer. Math. 6, 1964): an
implicit-Euler step divides by ``1 − Δt(λx_i + λy_j)``, the steady state
with pinned data by ``λx_i + λy_j``.

Boundary treatment: an endpoint whose weight vanishes (absorbing face)
carries a homogeneous Dirichlet row; every other endpoint — reflecting face
or chart edge — is natural, i.e. the half-cell at the end simply has no
outer flux term.  Entrance-type ends (weight ≥ 1, infinite scale) decouple
automatically because ``1/S = 0`` there.

Speed/scale data is closed-form: an axis's coefficients must match one of
the two families every preset lives in (``A = ℓx`` with constant drift, and
the logistic family ``A = g·x(1−x)`` with affine drift); any other axis
raises :class:`~kimura.errors.KimuraError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy import sparse
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dpttrs
from scipy.special import hyp2f1

from .errors import (
    FaceNotTangent,
    GridTooCoarse,
    IncompatibleData,
    KimuraError,
    LinearSolveFailure,
    PointOutsideDomain,
)
from .geometry import CornerBox, Simplex
from .operator import KimuraOperator

__all__ = [
    "SpeedScale",
    "Grid1D",
    "SolveResult",
    "KernelSolution",
    "CaloricDensity",
    "RepCheck",
    "SolveResult2D",
    "solve_backward",
    "dirichlet_kernel",
    "caloric_density",
    "solve_nonhomogeneous",
    "duhamel_solve",
    "stochastic_rep_check",
    "solve_backward_2d",
    "solve_elliptic_2d",
    "mu_inner",
]

_CLIP_TOL = 1e-10  # kernel negativity clip
# ``_march`` runs its per-step checks once per block of at most this many
# steps, and of at most this many state values (1 MB).
_MARCH_BLOCK = 64
_MARCH_BLOCK_VALUES = 2**17


# --------------------------------------------------------------------------
# speed and scale densities
# --------------------------------------------------------------------------


def _int_power(p: float, lo: float, hi: float) -> float:
    """∫_lo^hi t^{p−1} dt, allowing the integrable/divergent lo = 0 cases."""
    if lo < 0 or hi < lo:
        raise ValueError(f"bad interval ({lo}, {hi})")
    if p == 0.0:
        return math.inf if lo == 0.0 else math.log(hi / lo)
    if p < 0.0 and lo == 0.0:
        return math.inf
    return (hi**p - lo**p) / p


def _beta_antideriv(a: float, b: float, z: float) -> float:
    """∫_0^z t^{a−1}(1−t)^{b−1} dt for z ≤ 1/2 (hypergeometric form)."""
    if z == 0.0:
        return 0.0
    if a <= 0.0:
        return math.inf
    return z**a / a * float(hyp2f1(a, 1.0 - b, a + 1.0, z))


def _int_beta(a: float, b: float, lo: float, hi: float) -> float:
    """∫_lo^hi t^{a−1}(1−t)^{b−1} dt on [0,1], any real exponents.

    Evaluated from the nearer endpoint so the hypergeometric argument stays
    in [0, 1/2]; a divergent integral down to the endpoint returns ``inf``;
    for non-positive ``a`` away from the endpoint the antiderivative form
    has a pole in the parameter, so graded quadrature takes over.
    """
    if hi < lo:
        raise ValueError(f"bad interval ({lo}, {hi})")
    if hi == lo:
        return 0.0
    if hi <= 0.5:
        if a > 0.0:
            return _beta_antideriv(a, b, hi) - _beta_antideriv(a, b, lo)
        if lo == 0.0:
            return math.inf
        return _gauss_graded(lambda t: t ** (a - 1.0) * (1.0 - t) ** (b - 1.0), lo, hi)
    if lo >= 0.5:
        return _int_beta(b, a, 1.0 - hi, 1.0 - lo)
    return _int_beta(a, b, lo, 0.5) + _int_beta(a, b, 0.5, hi)


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(12)


def _gauss(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    half = 0.5 * (hi - lo)
    pts = lo + half * (_GAUSS_X + 1.0)
    return half * float(np.dot(_GAUSS_W, f(pts)))


def _gauss_graded(f, lo: float, hi: float, levels: int = 40) -> float:
    """Quadrature on (lo, hi) with a geometric split toward lo.

    Handles an integrand that grows like a power toward ``lo``: the Beta
    integrand with a non-positive exponent, on a cell near but not touching
    its singular end (:func:`_int_beta`).
    """
    if lo > 0 and hi / lo < 4.0:
        return _gauss(f, lo, hi)
    total, right = 0.0, hi
    base = max(lo, hi * 0.5**levels)
    while right > base * 1.0000001:
        left = max(base, 0.5 * right)
        total += _gauss(f, left, right)
        right = left
    if lo < base:
        total += _gauss(f, lo, base)
    return total


@dataclass(frozen=True)
class SpeedScale:
    """Scale/speed data for one axis: ``s′``, ``m``, and their cell integrals.

    ``kind`` selects the closed form:

    * ``"power"``  — ``A = lead·x``, drift ``b`` constant:  s′ = x^{−B},
      m = x^{B−1}/lead with weight ``B = b/lead``；
    * ``"beta"``   — ``A = g·x(edge−x)/edge``, drift affine:  the logistic
      family, s′ = u^{−p}(1−u)^{−q} in u = x/edge with the two face
      weights p, q.
    """

    kind: str
    edge: float
    lead: float = 1.0
    weight_left: float = 0.0
    weight_right: float = 0.0

    def scale_increment(self, lo: float, hi: float) -> float:
        """∫_lo^hi s′ dx (``inf`` marks an entrance end: no flux)."""
        if self.kind == "power":
            return _int_power(1.0 - self.weight_left, lo, hi)
        e = self.edge
        p, q = self.weight_left, self.weight_right
        return e * _int_beta(1.0 - p, 1.0 - q, lo / e, hi / e)

    def cell_mass(self, lo: float, hi: float) -> float:
        """∫_lo^hi m dx (the cell's dμ mass)."""
        if self.kind == "power":
            return _int_power(self.weight_left, lo, hi) / self.lead
        # beta: m = 1/(A s′) = u^{p−1}(1−u)^{q−1}/(lead·edge)
        e = self.edge
        p, q = self.weight_left, self.weight_right
        return _int_beta(p, q, lo / e, hi / e) / self.lead


def _probe_speed_scale(
    a_fn: Callable[[np.ndarray], np.ndarray],
    b_fn: Callable[[np.ndarray], np.ndarray],
    edge: float,
) -> SpeedScale:
    """Match the axis coefficients against the two closed-form families;
    an axis in neither raises :class:`KimuraError`."""
    t = edge * np.array([0.11, 0.239, 0.413, 0.587, 0.761, 0.917])
    av, bv = np.asarray(a_fn(t), float), np.asarray(b_fn(t), float)
    tol = 1e-11 * max(1.0, float(np.max(np.abs(av))), float(np.max(np.abs(bv))))

    lead = av / t
    if np.ptp(lead) <= tol and np.ptp(bv) <= tol:
        ell = float(np.mean(lead))
        if ell <= 0:
            raise KimuraError(f"axis lead coefficient must be positive, got {ell}")
        return SpeedScale("power", edge, ell, float(np.mean(bv)) / ell)

    g = av * edge / (t * (edge - t))
    alpha = bv[0] + (bv[-1] - bv[0]) * (0.0 - t[0]) / (t[-1] - t[0])
    beta = (bv[-1] - bv[0]) / (t[-1] - t[0])
    affine = alpha + beta * t
    if np.ptp(g) <= tol and np.max(np.abs(bv - affine)) <= tol:
        ge = float(np.mean(g))
        if ge <= 0:
            raise KimuraError(f"axis lead coefficient must be positive, got {ge}")
        # b/A = (α/x + (α + β·edge)/(edge − x))/g, so s′ ∝ u^{−p}(1−u)^{−q}
        p = alpha / ge
        q = -(alpha + beta * edge) / ge
        return SpeedScale("beta", edge, ge, float(p), float(q))

    raise KimuraError(
        "axis coefficients fit neither closed speed/scale family: "
        "A = ℓ·x with constant drift, or A = g·x(edge − x)/edge with affine drift"
    )


# --------------------------------------------------------------------------
# one-dimensional grid
# --------------------------------------------------------------------------


def _graded_nodes(edge: float, M: int, grade_right: bool) -> np.ndarray:
    u = np.linspace(0.0, 1.0, M + 1)
    u = u * u * (3.0 - 2.0 * u) if grade_right else u * u
    return edge * u


def _end_mask(n: int, left: bool, right: bool) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[0], mask[-1] = left, right
    return mask


@dataclass(frozen=True)
class Grid1D:
    """A graded finite-volume axis with its dμ cell masses and scale fluxes.

    ``cell_mass[k]`` is the dμ mass of node ``k``'s cell (zero on Dirichlet
    end nodes, whose cells are absorbed); ``inv_scale[k]`` is ``1/S`` across
    the interface between nodes ``k`` and ``k+1`` (zero when the scale
    integral diverges — an entrance end carries no flux).
    """

    nodes: np.ndarray
    cell_mass: np.ndarray
    inv_scale: np.ndarray
    dirichlet_left: bool
    dirichlet_right: bool
    face_left: int | None
    face_right: int | None

    @property
    def edge(self) -> float:
        return float(self.nodes[-1])

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    def dirichlet_mask(self) -> np.ndarray:
        return _end_mask(self.n_nodes, self.dirichlet_left, self.dirichlet_right)

    def nearest_interior(self, x: float) -> int:
        """Index of the interior node closest to ``x``."""
        if not 0.0 < x < self.edge:
            raise PointOutsideDomain(f"{x} is not strictly inside (0, {self.edge})")
        j = int(np.argmin(np.abs(self.nodes - x)))
        return min(max(j, 1), self.n_nodes - 2)

    @classmethod
    def from_coefficients(
        cls,
        a_fn,
        b_fn,
        edge: float,
        M: int,
        dirichlet_left: bool,
        dirichlet_right: bool,
        *,
        face_left: int | None = None,
        face_right: int | None = None,
    ) -> "Grid1D":
        if M < 8:
            raise GridTooCoarse(f"need at least 8 cells, got {M}")
        ss = _probe_speed_scale(a_fn, b_fn, edge)
        nodes = _graded_nodes(edge, M, grade_right=ss.kind == "beta")
        mid = 0.5 * (nodes[:-1] + nodes[1:])
        lo = np.concatenate(([nodes[0]], mid))
        hi = np.concatenate((mid, [nodes[-1]]))

        inv_scale = np.empty(M)
        for k in range(M):
            s = ss.scale_increment(float(nodes[k]), float(nodes[k + 1]))
            inv_scale[k] = 0.0 if not math.isfinite(s) else 1.0 / s

        ends = _end_mask(M + 1, dirichlet_left, dirichlet_right)
        mass = np.zeros(M + 1)  # Dirichlet end cells are absorbed: no mass
        for k in np.flatnonzero(~ends):
            mass[k] = ss.cell_mass(float(lo[k]), float(hi[k]))
        live = mass[~ends]
        if not np.all(np.isfinite(live)) or np.any(live <= 0.0):
            raise KimuraError(
                "cell dμ masses must be positive and finite away from "
                "absorbing ends; an absorbing end without its Dirichlet flag?"
            )
        return cls(
            nodes,
            mass,
            inv_scale,
            dirichlet_left,
            dirichlet_right,
            face_left,
            face_right,
        )

    @classmethod
    def for_operator(cls, L: KimuraOperator, M: int = 400) -> "Grid1D":
        """Build the axis grid for a one-dimensional operator.

        Absorbing faces get Dirichlet ends; reflecting faces and chart
        edges are natural.
        """
        a_fn, b_fn = _axis_callables_1d(L)
        fc = L.classify_faces()
        if isinstance(L.dom, Simplex):
            edge, face_l, face_r = 1.0, 1, 2
            dir_l, dir_r = 1 in fc.tangent, 2 in fc.tangent
        else:
            edge, face_l, face_r = L.dom.radius, 1, None
            dir_l, dir_r = 1 in fc.tangent, False
        return cls.from_coefficients(
            a_fn,
            b_fn,
            edge,
            M,
            dir_l,
            dir_r,
            face_left=face_l,
            face_right=face_r,
        )


def _axis_callables_1d(L: KimuraOperator):
    if L.n != 1 or L.m != 0:
        raise KimuraError(f"need a 1D corner operator, got n={L.n}, m={L.m}")

    def a_fn(t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, float))
        return L.diffusion_matrix_batch(t[:, None], np.zeros((t.size, 0)))[:, 0, 0]

    def b_fn(t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, float))
        return L.drift_batch(t[:, None], np.zeros((t.size, 0)))[:, 0]

    return a_fn, b_fn


# --------------------------------------------------------------------------
# generator matrix and time stepping
# --------------------------------------------------------------------------


def generator_matrix(grid: Grid1D) -> sparse.csr_matrix:
    """The discrete generator (Dirichlet rows identically zero).

    Row k:  [(u_{k+1} − u_k)·invS_k − (u_k − u_{k−1})·invS_{k−1}] / μ_k.
    Couplings *into* Dirichlet columns are kept — they carry boundary data
    for nonhomogeneous problems and the absorbed flux for the kernel.
    """
    live = ~grid.dirichlet_mask()
    mu = np.where(live, grid.cell_mass, 1.0)
    down = np.where(live[1:], grid.inv_scale / mu[1:], 0.0)  # row k, column k − 1
    up = np.where(live[:-1], grid.inv_scale / mu[:-1], 0.0)  # row k, column k + 1
    diag = -np.append(0.0, down) - np.append(up, 0.0)
    return sparse.diags([down, diag, up], [-1, 0, 1], format="csr")


def _live_block(grid: Grid1D) -> tuple[slice, np.ndarray, np.ndarray, np.ndarray]:
    """The generator's block ``D⁻¹K`` on the non-Dirichlet nodes, symmetrised.

    Returns the ``live`` slice, ``root = √μ`` on it, and the diagonal
    ``−(left + right)/μ`` and off-diagonal ``1/(S_k √(μ_k μ_{k+1}))`` of the
    symmetric ``D^{-1/2} K D^{-1/2}`` (``D = diag(μ)``, ``K`` the flux matrix).
    """
    live = slice(int(grid.dirichlet_left), grid.n_nodes - int(grid.dirichlet_right))
    mu = grid.cell_mass[live]
    flux = np.concatenate(([0.0], grid.inv_scale, [0.0]))  # 1/S around each node
    left, right = flux[:-1][live], flux[1:][live]
    root = np.sqrt(mu)
    return live, root, -(left + right) / mu, right[:-1] / (root[:-1] * root[1:])


def _spd_step(grid: Grid1D, dt: float) -> Callable[[np.ndarray], np.ndarray]:
    """The implicit-Euler step ``rhs ↦ (I − Δt B)⁻¹ rhs`` of a 1-D grid.

    Dirichlet rows copy ``rhs``; a non-zero pinned value pulls its live
    neighbour by ``Δt·(1/S)/μ·value``.  In ``v = √μ·u`` the live block is the
    symmetric positive-definite ``I − Δt·D^{-1/2} K D^{-1/2}``
    (:func:`_live_block`), factored once by LAPACK's ``dpttrf``.
    """
    live, root, diag, off = _live_block(grid)
    d, e, info = dpttrf(1.0 - dt * diag, -dt * off)
    if info != 0:
        raise LinearSolveFailure(f"step matrix factorization failed: dpttrf info={info}")
    w = dt * grid.inv_scale[[0, -1]] / root[[0, -1]]  # a pinned end's pull on v = √μ·u
    pulls = [(0, w[0])] * grid.dirichlet_left + [(-1, w[1])] * grid.dirichlet_right

    def step(rhs: np.ndarray) -> np.ndarray:
        out = rhs.copy()
        v = out[live]
        v *= root
        for end, weight in pulls:  # index 0 (−1): the end node in rhs, its neighbour in v
            if rhs[end] != 0.0:
                v[end] += weight * rhs[end]
        np.divide(dpttrs(d, e, v, overwrite_b=1)[0], root, out=v)
        return out

    return step


def _march(
    stepper: Callable[[float], Callable[[np.ndarray], np.ndarray]],
    u: np.ndarray,
    T: float,
    dt: float,
    store_times: Sequence[float] | None,
    max_slices: int,
    *,
    pinned: Callable[[float], tuple] | None = None,
    source: Callable[[float], np.ndarray] | None = None,
    view: Callable[[np.ndarray, float], np.ndarray] | None = None,
    on_block: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Implicit-Euler march ``(I − Δt B) u⁺ = u − Δt·source(t⁺)`` from ``u``.

    ``T`` is split into ``⌈T/dt⌉`` equal steps; ``stepper(Δt)`` builds the
    step ``rhs ↦ u⁺`` once (``partial(_spd_step, grid)`` on one axis,
    :meth:`_TensorBasis.stepper` on a tensor grid).  ``pinned(t)`` gives the
    ``(rows, values)`` set on the right-hand side of the step ending at
    ``t``; ``view(u, t)`` is the quantity stored and minimised (the state
    itself by default).  Step 0, the last step, the steps nearest
    ``store_times`` and every ``n // max_slices``-th step are stored.
    Returns the step length used, the stored times and states, and the
    minimum over all steps.

    The states are written into a block of at most ``_MARCH_BLOCK`` steps,
    and the per-step checks run once per block: ``on_block(step, U)`` gets
    the states ``U[i]`` after steps ``step + i`` that are finite, then the
    first non-finite state raises :class:`LinearSolveFailure`.  So the
    earliest failing step raises, as if each step were checked in turn.
    """
    if not (T > 0 and dt > 0):
        raise ValueError(f"need T, Δt > 0; got T={T}, Δt={dt}")
    n = max(1, int(math.ceil(T / dt - 1e-9)))
    dt = T / n
    step_to = stepper(dt)
    keep = {0, n}
    for t in () if store_times is None else store_times:
        keep.add(min(n, max(0, int(round(t / dt)))))
    keep.update(range(0, n + 1, max(1, n // max(2, max_slices))))

    shown = u if view is None else view(u, 0.0)
    slices, times = [shown.copy()], [0.0]
    lowest = float(np.min(shown))
    size = max(1, min(n, _MARCH_BLOCK, _MARCH_BLOCK_VALUES // max(1, u.size)))
    block = np.empty((size,) + u.shape)
    for first in range(1, n + 1, size):
        U = block[: min(size, n + 1 - first)]
        for i in range(len(U)):
            t = (first + i) * dt
            rhs = u if source is None else u - dt * source(t)
            if pinned is not None:
                rows, values = pinned(t)
                rhs = rhs.copy()
                rhs[rows] = values
            u = U[i] = step_to(rhs)
        finite = np.isfinite(U.reshape(len(U), -1)).all(axis=1)
        n_ok = len(U) if finite.all() else int(np.argmin(finite))
        if on_block is not None:
            on_block(first, U[:n_ok])
        if n_ok < len(U):
            raise LinearSolveFailure("non-finite values after an implicit step")
        shown = U if view is None else np.array([view(v, (first + i) * dt) for i, v in enumerate(U)])
        for m in shown.reshape(len(U), -1).min(axis=1).tolist():  # in step order, as min() keeps ties
            lowest = min(lowest, m)
        for i in range(len(U)):
            if first + i in keep:
                slices.append(shown[i].copy())
                times.append((first + i) * dt)
    return dt, np.array(times), np.array(slices), lowest


def _slice_index(times: np.ndarray, dt: float, t: float) -> int:
    """Index of the stored slice at ``t`` (within half a step)."""
    j = int(np.argmin(np.abs(times - t)))
    if abs(float(times[j]) - t) > 0.5 * dt + 1e-12:
        raise KeyError(f"no stored slice near t={t}; ask for it via store_times")
    return j


def mu_inner(grid: Grid1D, u: np.ndarray, v: np.ndarray) -> float:
    """The discrete dμ inner product (Dirichlet cells carry zero mass)."""
    return float(np.sum(grid.cell_mass * u * v))


@dataclass(frozen=True)
class SolveResult:
    """Stored time slices of a 1D solve and the march's minimum value."""

    grid: Grid1D
    dt: float
    times: np.ndarray  # (n_slices,)
    values: np.ndarray  # (n_slices, n_nodes)
    min_value: float

    def at(self, t: float) -> np.ndarray:
        return self.values[_slice_index(self.times, self.dt, t)]

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]


def solve_backward(
    L: KimuraOperator,
    f,
    T: float,
    dt: float,
    *,
    M: int = 400,
    grid: Grid1D | None = None,
    store_times: Sequence[float] | None = None,
    max_slices: int = 400,
) -> SolveResult:
    """March ``u_t = L u`` from ``u(0) = f`` with absorbing ends pinned to 0.

    ``f`` may be a callable of x or a node array.
    """
    grid = grid if grid is not None else Grid1D.for_operator(L, M)
    u = np.asarray(f(grid.nodes) if callable(f) else f, dtype=float).copy()
    if u.shape != grid.nodes.shape:
        raise ValueError(f"initial data shape {u.shape} != grid {grid.nodes.shape}")
    u[grid.dirichlet_mask()] = 0.0
    return SolveResult(grid, *_march(partial(_spd_step, grid), u, T, dt, store_times, max_slices))


# --------------------------------------------------------------------------
# forward kernel and caloric density
# --------------------------------------------------------------------------


def _one_sided_slope(d1: float, d2: float, v1: float, v2: float) -> float:
    """Derivative at 0 of the parabola through (0,0), (d1,v1), (d2,v2)."""
    return (v1 * d2 * d2 - v2 * d1 * d1) / (d1 * d2 * (d2 - d1))


def _face_flux(grid: Grid1D, k: np.ndarray, left: bool) -> np.ndarray:
    """The flux through one end of each density in ``k`` (nodes on the last
    axis)."""
    x = grid.nodes
    if left:
        d1, d2 = x[1] - x[0], x[2] - x[0]
        return _one_sided_slope(d1, d2, k[..., 1], k[..., 2])
    d1, d2 = x[-1] - x[-2], x[-1] - x[-3]
    return _one_sided_slope(d1, d2, k[..., -2], k[..., -3])


@dataclass(frozen=True)
class KernelSolution:
    """Forward evolution of a dμ-normalized point mass.

    ``k`` holds decimated density slices (against dμ); ``survival`` and the
    per-face ``flux`` traces are recorded at every step.
    """

    grid: Grid1D
    p0: float
    dt: float
    times: np.ndarray  # (n_slices,)
    k: np.ndarray  # (n_slices, n_nodes)
    step_times: np.ndarray  # (n_steps+1,)
    survival: np.ndarray  # (n_steps+1,)
    flux: dict  # face id -> (n_steps+1,)
    min_density: float

    def at(self, t: float) -> np.ndarray:
        return self.k[_slice_index(self.times, self.dt, t)]

    def survival_at(self, t: float) -> float:
        j = int(round(t / self.dt))
        if not 0 <= j < self.survival.size:
            raise KeyError(f"t={t} outside the solved horizon")
        return float(self.survival[j])


def dirichlet_kernel(
    L: KimuraOperator,
    p0: float,
    T: float,
    dt: float,
    *,
    M: int = 400,
    grid: Grid1D | None = None,
    max_slices: int = 200,
) -> KernelSolution:
    """Evolve the absorbed-at-the-boundary transition density from ``p0``.

    The initial datum is a unit dμ mass in the cell containing ``p0``; the
    march is the exact dμ-transpose of the backward implicit Euler scheme,
    so the backward/forward duality identity holds to solver round-off.
    """
    grid = grid if grid is not None else Grid1D.for_operator(L, M)
    j0 = grid.nearest_interior(p0)
    k = np.zeros(grid.n_nodes)
    k[j0] = 1.0 / grid.cell_mass[j0]
    faces = []
    if grid.dirichlet_left and grid.face_left is not None:
        faces.append((grid.face_left, True))
    if grid.dirichlet_right and grid.face_right is not None:
        faces.append((grid.face_right, False))

    survival = [float(np.sum(grid.cell_mass * k))]
    flux = {fid: [0.0] for fid, _ in faces}

    def account(first: int, K: np.ndarray) -> None:
        s = np.sum(grid.cell_mass * K, axis=1)
        before = np.concatenate(([survival[-1]], s[:-1]))
        up = np.flatnonzero(s > before + 1e-12)
        if up.size:
            j = int(up[0])
            raise KimuraError(
                f"forward mass increased at step {first + j}: {float(before[j])} -> {float(s[j])}"
            )
        survival.extend(s.tolist())
        for fid, left in faces:
            flux[fid].extend(_face_flux(grid, K, left).tolist())

    # The forward matrix D⁻¹BᵀD, Dirichlet rows cleared (mass that flows into
    # an absorbing cell is the hitting flux), is B on the live block, else 0.
    dt, times, slices, lowest = _march(
        partial(_spd_step, grid), k, T, dt, None, max_slices, on_block=account
    )
    if lowest < -_CLIP_TOL:
        raise KimuraError(f"kernel density fell below −{_CLIP_TOL}: {lowest}")
    return KernelSolution(
        grid,
        float(grid.nodes[j0]),
        dt,
        times,
        np.clip(slices, 0.0, None),
        dt * np.arange(len(survival)),
        np.array(survival),
        {fid: np.array(v) for fid, v in flux.items()},
        lowest,
    )


@dataclass(frozen=True)
class CaloricDensity:
    """Hitting-time density at one absorbing face (flux of the kernel)."""

    face: int
    times: np.ndarray
    values: np.ndarray

    def cumulative(self, t: float) -> float:
        """∫₀^t h(s) ds as the backward-rectangle sum ``Σ dt·h(tᵢ)`` over the
        steps ending by ``t``.

        The implicit-Euler kernel march loses ``dt·h(tᵢ)`` through the face
        in step ``i``, so this sum is the absorbed mass of the scheme itself:
        survival plus the totals of all faces is 1 up to solver round-off
        and the grid error of the one-sided flux stencil.  The trapezoid
        rule would miss it by ``dt/2·(h(t) − h(0))``, which no grid
        refinement closes.
        """
        j = int(np.searchsorted(self.times, t + 1e-12))
        return float(np.dot(np.diff(self.times[:j]), self.values[1:j]))

    @property
    def total(self) -> float:
        return self.cumulative(float(self.times[-1]) + 1.0)


def caloric_density(ks: KernelSolution, face: int) -> CaloricDensity:
    """Extract the absorbed-flux trace at ``face`` from a kernel solve.

    The flux is the one-sided quadratic normal derivative of the density at
    the face; its time integral balances the survival loss attributed to
    that face.
    """
    if face not in ks.flux:
        raise FaceNotTangent(f"face {face} is not an absorbing end of this solve")
    grid, x = ks.grid, ks.grid.nodes
    left = grid.face_left == face and grid.dirichlet_left
    if left:
        width = x[1] - x[0]
        inside = int(np.sum(x[1:] - x[0] <= 10.0 * width))
    else:
        width = x[-1] - x[-2]
        inside = int(np.sum(x[-1] - x[:-1] <= 10.0 * width))
    if inside < 3:
        raise GridTooCoarse(
            f"only {inside} interior nodes within 10 first-cell widths of the "
            "face; refine the grid for a usable one-sided stencil"
        )
    vals = ks.flux[face]
    if float(np.min(vals)) < -_CLIP_TOL:
        raise KimuraError(f"negative hitting flux beyond clip: {np.min(vals)}")
    return CaloricDensity(face, ks.step_times, np.clip(vals, 0.0, None))


# --------------------------------------------------------------------------
# nonhomogeneous boundary data
# --------------------------------------------------------------------------


def _boundary_data_setup(L, zeta, face, M, grid) -> tuple[Grid1D, int]:
    """The grid of a boundary-data solve and the node carrying ζ (default:
    the left absorbing end)."""
    if abs(zeta(0.0)) > 1e-14:
        raise IncompatibleData(f"boundary data must vanish at t=0, got {zeta(0.0)}")
    grid = grid if grid is not None else Grid1D.for_operator(L, M)
    if face is None:
        face = grid.face_left if grid.dirichlet_left else grid.face_right
    if face == grid.face_left and grid.dirichlet_left:
        return grid, 0
    if face == grid.face_right and grid.dirichlet_right:
        return grid, grid.n_nodes - 1
    raise FaceNotTangent(f"face {face!r} is not an absorbing end of this grid")


def solve_nonhomogeneous(
    L: KimuraOperator,
    zeta: Callable[[float], float],
    T: float,
    dt: float,
    *,
    face: int | None = None,
    M: int = 400,
    grid: Grid1D | None = None,
    store_times: Sequence[float] | None = None,
    max_slices: int = 400,
) -> SolveResult:
    """Direct march of ``u_t = Lu``, ``u(0)=0``, ``u = ζ(t)`` at one face.

    The Dirichlet row is pinned to ζ(t_{n+1}) each implicit step; the other
    absorbing end (if any) stays homogeneous, as the step copies its zero.
    """
    grid, j_data = _boundary_data_setup(L, zeta, face, M, grid)
    u, pinned = np.zeros(grid.n_nodes), lambda t: (j_data, zeta(t))
    march = _march(partial(_spd_step, grid), u, T, dt, store_times, max_slices, pinned=pinned)
    return SolveResult(grid, *march)


def duhamel_solve(
    L: KimuraOperator,
    zeta: Callable[[float], float],
    T: float,
    dt: float,
    *,
    face: int | None = None,
    M: int = 400,
    grid: Grid1D | None = None,
    store_times: Sequence[float] | None = None,
    max_slices: int = 400,
) -> SolveResult:
    """Boundary-data solve via the superposition formula.

    Lift ζ to ζ̃(t,x) = ζ(t)·φ(x) (φ ≡ 1 at the data face, 0 at the other
    end), subtract, and march the homogeneous-boundary remainder with the
    source −(∂_t − L)ζ̃; the one-pass implicit march *is* the rectangle-rule
    evaluation of the superposition integral with the discrete semigroup.
    Agrees with :func:`solve_nonhomogeneous` to discretization order.
    """
    grid, j_data = _boundary_data_setup(L, zeta, face, M, grid)

    x = grid.nodes
    phi = ((grid.edge - x) / grid.edge) ** 2 if j_data == 0 else (x / grid.edge) ** 2
    Bphi = generator_matrix(grid) @ phi
    delta = 1e-7 * max(1.0, T)

    def dzeta(t: float) -> float:
        lo = max(t - delta, 0.0)
        return (zeta(t + delta) - zeta(lo)) / (t + delta - lo)

    march = _march(
        partial(_spd_step, grid),
        np.zeros(grid.n_nodes),
        T,
        dt,
        store_times,
        max_slices,
        pinned=lambda t: (j_data, 0.0),  # φ and Bφ vanish at the other end
        source=lambda t: dzeta(t) * phi - zeta(t) * Bphi,
        view=lambda v, t: v + zeta(t) * phi,
    )
    return SolveResult(grid, *march)


@dataclass(frozen=True)
class RepCheck:
    """PDE-vs-paths comparison of a boundary-data expectation."""

    pde_value: float
    mc_value: float
    mc_stderr: float

    @property
    def discrepancy(self) -> float:
        return abs(self.pde_value - self.mc_value)


def stochastic_rep_check(
    L: KimuraOperator,
    zeta: Callable[[float], float],
    p0,
    t: float,
    n_paths: int,
    *,
    face: int | None = None,
    dt_pde: float = 1e-3,
    dt_mc: float = 1e-3,
    M: int = 400,
    seed: int = 0,
    workers: int = 1,
) -> RepCheck:
    """Compare the boundary-data solve with its path-expectation form.

    The path functional is ζ(t − τ) for trajectories absorbed at the data
    face by time t (and zero otherwise, since ζ(0) = 0).
    """
    from .geometry import Point
    from .sde import SimConfig, simulate_ensemble

    grid, j_data = _boundary_data_setup(L, zeta, face, M, None)
    face_id = grid.face_left if j_data == 0 else grid.face_right
    sol = solve_nonhomogeneous(L, zeta, t, dt_pde, face=face_id, grid=grid, store_times=(t,))
    j0 = grid.nearest_interior(float(np.atleast_1d(p0)[0]))
    pde_value = float(sol.at(t)[j0])

    x0 = np.atleast_1d(np.asarray(p0, float))
    cfg = SimConfig(dt=dt_mc, T=t, seed=seed, stop_at_first_tangent_hit=True)
    ens = simulate_ensemble(L, Point(x0), cfg, n_paths, workers=workers)
    hit = (ens.first_hit_face == face_id) & (ens.first_hit_time <= t)
    samples = np.zeros(n_paths)
    rem = t - ens.first_hit_time[hit]
    samples[hit] = np.array([zeta(float(s)) for s in rem])
    mc = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return RepCheck(pde_value, mc, stderr)


# --------------------------------------------------------------------------
# two-dimensional tensor solves
# --------------------------------------------------------------------------


def _axis_callables_2d(L: KimuraOperator, axis: int):
    """Per-axis (A, b) callables, verifying coordinate separability."""
    if L.n != 2 or L.m != 0:
        raise KimuraError(f"need a 2D corner operator, got n={L.n}, m={L.m}")
    if not isinstance(L.dom, CornerBox):
        raise KimuraError("the 2D solver runs on box charts")
    edge = L.dom.radius
    probe = edge * np.array([0.145, 0.5, 0.855])
    other = 1 - axis

    def at(t: np.ndarray, o: float) -> np.ndarray:
        z = np.empty((t.size, 2))
        z[:, axis] = t
        z[:, other] = o
        return z

    t = edge * np.array([0.21, 0.63])
    y0 = np.zeros((t.size, 0))
    drift = [L.drift_batch(at(t, o), y0)[:, axis] for o in probe]
    diff = [L.diffusion_matrix_batch(at(t, o), y0) for o in probe]
    scale = max(1.0, max(float(np.max(np.abs(d))) for d in diff))
    if max(float(np.max(np.abs(drift[i] - drift[0]))) for i in range(3)) > 1e-10 * scale:
        raise KimuraError("2D solver needs coefficients separable per coordinate")
    if max(float(np.max(np.abs(d[:, 0, 1]))) for d in diff) > 1e-10 * scale:
        raise KimuraError("2D solver needs a vanishing mixed second-order term")
    if (
        max(float(np.max(np.abs(diff[i][:, axis, axis] - diff[0][:, axis, axis]))) for i in range(3))
        > 1e-10 * scale
    ):
        raise KimuraError("2D solver needs coefficients separable per coordinate")
    mid = float(probe[1])

    def a_fn(s: np.ndarray) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, float))
        return L.diffusion_matrix_batch(at(s, mid), np.zeros((s.size, 0)))[:, axis, axis]

    def b_fn(s: np.ndarray) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, float))
        return L.drift_batch(at(s, mid), np.zeros((s.size, 0)))[:, axis]

    return a_fn, b_fn, edge


def _axis_grids_2d(
    L: KimuraOperator, M: int, dirichlet_left: tuple[bool, bool], dirichlet_right: bool
) -> tuple[Grid1D, Grid1D]:
    """The two axis grids of a separable 2D box operator, with one
    ``dirichlet_left`` flag per axis and one ``dirichlet_right`` for both."""
    return tuple(
        Grid1D.from_coefficients(
            *_axis_callables_2d(L, axis), M, dirichlet_left[axis], dirichlet_right, face_left=axis + 1
        )
        for axis in (0, 1)
    )


@dataclass(frozen=True)
class _AxisBasis:
    """One axis's generator on its non-Dirichlet nodes, diagonalised in dμ.

    Its symmetrised block (:func:`_live_block`) is ``Q Λ Qᵀ``, so
    ``D⁻¹K = from_eig · Λ · to_eig`` with ``to_eig = Qᵀ D^{1/2}`` and
    ``from_eig = D^{-1/2} Q`` its inverse.  A decoupled node (``1/S = 0`` on
    both sides) is a block of its own, with eigenvalue exactly zero.
    """

    live: slice  # the non-Dirichlet nodes
    lam: np.ndarray
    to_eig: np.ndarray
    from_eig: np.ndarray

    @classmethod
    def of(cls, grid: Grid1D) -> "_AxisBasis":
        live, root, diag, off = _live_block(grid)
        lam, q = eigh_tridiagonal(diag, off)
        return cls(live, lam, q.T * root, q / root[:, None])


class _TensorBasis:
    """The Kronecker-sum generator of two axes in the product of their
    :class:`_AxisBasis`: ``B = Bx ⊕ By`` is diagonal there, with eigenvalues
    ``λx_i + λy_j``, on the block of nodes Dirichlet on neither axis.
    """

    def __init__(self, grid_x: Grid1D, grid_y: Grid1D):
        self.x, self.y = _AxisBasis.of(grid_x), _AxisBasis.of(grid_y)
        self.live = (self.x.live, self.y.live)
        self.lam = self.x.lam[:, None] + self.y.lam[None, :]
        self.shape = (grid_x.n_nodes, grid_y.n_nodes)

    def to_eig(self, u: np.ndarray) -> np.ndarray:
        return self.x.to_eig @ u[self.live] @ self.y.to_eig.T

    def from_eig(self, w: np.ndarray) -> np.ndarray:
        """Node values (zero on the Dirichlet set) of eigen-coefficients."""
        u = np.zeros(self.shape)
        u[self.live] = self.x.from_eig @ w @ self.y.from_eig.T
        return u

    def stepper(self, dt: float) -> Callable[[np.ndarray], np.ndarray]:
        """The implicit-Euler step ``(I − Δt B) u⁺ = rhs`` with the Dirichlet
        set held at zero: a diagonal scaling in the eigenbasis."""
        gain = 1.0 / (1.0 - dt * self.lam)
        return lambda rhs: self.from_eig(gain * self.to_eig(rhs))


@dataclass(frozen=True)
class SolveResult2D:
    """Stored slices of a tensor-grid solve."""

    grid_x: Grid1D
    grid_y: Grid1D
    dt: float
    times: np.ndarray  # (n_slices,)
    values: np.ndarray  # (n_slices, nx, ny)
    min_value: float

    def at(self, t: float) -> np.ndarray:
        return self.values[_slice_index(self.times, self.dt, t)]


def solve_backward_2d(
    L: KimuraOperator,
    f,
    T: float,
    dt: float,
    *,
    M: int = 128,
    store_times: Sequence[float] | None = None,
    max_slices: int = 60,
) -> SolveResult2D:
    """Tensor-grid march of ``u_t = Lu`` for a separable 2D box operator.

    Same contracts as the 1D solver: Dirichlet rows at absorbing faces,
    natural ends everywhere else, implicit Euler steps.  Each step
    ``(I − Δt B) u⁺ = u`` is solved exactly in the per-axis dμ eigenbasis
    (:class:`_TensorBasis`): one transform, a division by
    ``1 − Δt(λx_i + λy_j)`` and one transform back.
    """
    fc = L.classify_faces()
    tangent = tuple(face in fc.tangent for face in (1, 2))
    gx, gy = _axis_grids_2d(L, M, dirichlet_left=tangent, dirichlet_right=False)
    basis = _TensorBasis(gx, gy)

    if callable(f):
        X, Y = np.meshgrid(gx.nodes, gy.nodes, indexing="ij")
        u = np.asarray(f(X, Y), dtype=float)
    else:
        u = np.asarray(f, dtype=float)
    if u.shape != basis.shape:
        raise ValueError(f"initial data shape {u.shape} != grid {basis.shape}")
    held = np.zeros(basis.shape)  # zero on the Dirichlet set
    held[basis.live] = u[basis.live]
    dt, times, slices, lowest = _march(basis.stepper, held, T, dt, store_times, max_slices)
    return SolveResult2D(gx, gy, dt, times, slices, lowest)


def solve_elliptic_2d(grid_x: Grid1D, grid_y: Grid1D, boundary: np.ndarray) -> np.ndarray:
    """Steady state ``B u = 0`` of the tensor-grid march with pinned Dirichlet data.

    ``boundary`` supplies node values on the Dirichlet set (shape (nx, ny);
    other entries are ignored).  The data's pull on the other nodes moves
    to the right-hand side, which is solved exactly in the per-axis dμ
    eigenbasis (:class:`_TensorBasis`): one transform, a division by
    ``λx_i + λy_j`` and one transform back.  A mode with ``λx_i + λy_j = 0``
    (a node decoupled on both axes) keeps the value zero.
    """
    basis = _TensorBasis(grid_x, grid_y)
    if boundary.shape != basis.shape:
        raise ValueError(f"boundary shape {boundary.shape} != grid {basis.shape}")
    data = np.array(boundary, dtype=float)
    data[basis.live] = 0.0
    pull = generator_matrix(grid_x) @ data + (generator_matrix(grid_y) @ data.T).T
    w = basis.to_eig(-pull)
    w = np.divide(w, basis.lam, out=np.zeros_like(w), where=basis.lam != 0.0)
    u = basis.from_eig(w) + data
    if not np.all(np.isfinite(u)):
        raise LinearSolveFailure("non-finite values in the steady state")
    return u
