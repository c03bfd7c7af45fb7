"""Degenerate diffusion operators on corner domains.

This module implements second-order operators of the form

    L u = Σ_i ( ℓ_i(z) x_i u_{x_i x_i} + b_i(z) u_{x_i} )
        + Σ_{i,j} x_i x_j a_ij(z) u_{x_i x_j}
        + Σ_{l,k} d_lk(z) u_{y_l y_k}
        + Σ_{i,l} x_i c_il(z) u_{x_i y_l}
        + Σ_l e_l(z) u_{y_l}

on a :class:`~kimura.geometry.CornerBox` or :class:`~kimura.geometry.Simplex`,
with ``z = (x, y)``.  The corner coordinates ``x_i ≥ 0`` carry a diffusion that
degenerates linearly at the faces ``{x_i = 0}``; the ``y`` coordinates diffuse
non-degenerately.  The diagonal leading factors ``ℓ_i`` default to 1 (the
normalized presentation); presets stated with an overall time scale (e.g. the
multi-allele genetic-drift operator, whose second-order part is
``½ Σ (δ_ij x_i − x_i x_j) ∂_i ∂_j``) use a non-unit ``ℓ_i``.

Structural quantities computed here:

* the **weight** of a face, ``B_i = b_i / ℓ_i`` evaluated on ``{x_i = 0}`` —
  the coordinate-invariant drift-to-diffusion ratio that decides whether the
  face absorbs;
* **cleanness**: each face must be either *tangent* (``B_i ≡ 0``; paths stick
  and the dynamics restricts to the face) or uniformly *transverse*
  (``B_i ≥ β₀ > 0``; paths touch but do not stick);
* **restriction** of the operator to a tangent face, which is again an
  operator of the same class in one fewer corner coordinate;
* the **simplex slack face** ``{Σx = 1}``, which the chart ``s = 1 − Σx``
  turns into an ordinary coordinate face: its weight and restriction follow
  from the coefficients when ``ℓ_i ≡ c`` and ``a_ij ≡ −c`` (the genetic-drift
  block up to time scale), with no per-preset rule;
* the **zoom rescaling** ``x = λ x′, y = √λ y′`` under which the class is
  invariant and first-order corner terms are *not* lower order;
* SDE coefficients for path simulation: the drift vector, the second-order
  matrix ``M`` (covariance ``2·M``) and one Euler step (``_EulerUpdate``),
  whose noise factor ``G`` with ``G Gᵀ = 2M`` takes a closed form chosen
  from the coefficients where one exists.

Coefficients are :class:`CoefficientField` objects: constants, explicit
polynomial tables (exact restriction/rescaling algebra), or user closures.
Operators are immutable; all evaluation paths are re-entrant and vectorized
over batches of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    FaceNotTangent,
    KimuraError,
    NotClean,
)
from .geometry import (
    CornerBox,
    DomainSpec,
    Point,
    Simplex,
    embed_rows,
    restrict_domain,
    restrict_rows,
)

__all__ = [
    "CoefficientField",
    "ConstField",
    "PolyField",
    "FuncField",
    "as_field",
    "AssumptionViolation",
    "AssumptionReport",
    "FaceClassification",
    "KimuraOperator",
    "sample_domain",
    "sample_face",
    "model1d",
    "wright_fisher",
    "product_operator",
    "remark_counterexample",
    "make_preset",
    "PRESET_NAMES",
]

# Smallest sampled weight that classifies a face as uniformly transverse.
_BETA0_MIN = 1e-8

# Largest sampled |weight| of a tangent face, and the face samples behind
# ``classify_faces`` and the tangency check of ``restrict`` (seed 0).
_TANGENT_TOL = 1e-10
_CLASSIFY_SAMPLES = 512
_RESTRICT_SAMPLES = 256

# --------------------------------------------------------------------------
# coefficient fields
# --------------------------------------------------------------------------


class CoefficientField:
    """A scalar coefficient on a corner domain.

    Concrete subclasses provide ``eval(x, y)`` on batches (``x`` of shape
    ``(k, n)``, ``y`` of shape ``(k, m)``, returning shape ``(k,)``).
    """

    def eval(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, p: Point) -> float:
        return float(self.eval(p.x[None, :], p.y[None, :])[0])

    @property
    def const(self) -> float | None:
        """The field's value if it is a known constant, else None."""
        return None

    @property
    def is_zero(self) -> bool:
        return self.const == 0.0

    def __repr__(self) -> str:
        c = self.const
        return f"{type(self).__name__}({c})" if c is not None else super().__repr__()


@dataclass(frozen=True, repr=False)
class ConstField(CoefficientField):
    """A constant coefficient."""

    value: float

    def eval(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.full(x.shape[0] if x.ndim == 2 else y.shape[0], self.value)

    @property
    def const(self) -> float | None:
        return self.value


@dataclass(frozen=True, repr=False)
class PolyField(CoefficientField):
    """A polynomial coefficient stored as an explicit term table.

    ``terms`` is a sequence of ``(coeff, xpow, ypow)`` with integer exponent
    sequences of lengths ``n`` and ``m``, stored as tuples.  Supports exact
    restriction to a face (substituting ``x_i = 0``), zoom rescaling and
    differentiation, so a table also serves as the exact test function of
    :meth:`KimuraOperator.apply`.
    """

    terms: tuple[tuple[float, tuple[int, ...], tuple[int, ...]], ...]
    n: int
    m: int = 0

    def __post_init__(self):
        terms = tuple((float(c), tuple(xp), tuple(yp)) for c, xp, yp in self.terms)
        object.__setattr__(self, "terms", terms)
        for coeff, xp, yp in terms:
            if len(xp) != self.n or len(yp) != self.m:
                raise ValueError(
                    f"term exponents {(xp, yp)} do not match dims (n={self.n}, m={self.m})"
                )
        # each term's coefficient (None for 1) and its non-zero factors
        # ``(block, column, power)``, x block 0 before y block 1
        factors = tuple(
            (None if c == 1.0 else c,
             tuple((z, i, p) for z, pows in enumerate((xp, yp)) for i, p in enumerate(pows) if p))
            for c, xp, yp in terms
        )
        object.__setattr__(self, "_factors", factors)

    def eval(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Each term is ``coeff·x^xp·y^yp`` multiplied left to right from its
        first factor, and the terms are summed from +0.0 in table order."""
        k = x.shape[0] if x.ndim == 2 else y.shape[0]
        xy = (x, y)
        out = None
        for t, factors in self._factors:
            for z, i, p in factors:
                f = xy[z][:, i] if p == 1 else xy[z][:, i] ** p
                t = f if t is None else t * f
            t = 1.0 if t is None else t
            if out is None:
                out = np.full(k, t + 0.0) if np.ndim(t) == 0 else t + 0.0
            else:
                out += t
        return np.zeros(k) if out is None else out

    @property
    def const(self) -> float | None:
        if all(sum(xp) + sum(yp) == 0 for _, xp, yp in self.terms):
            return float(sum(c for c, _, _ in self.terms))
        return None

    def drop_x(self, index: int) -> "PolyField":
        """Substitute ``x_index = 0`` and delete that variable (exact)."""
        new = [
            (c, xp[:index] + xp[index + 1 :], yp)
            for c, xp, yp in self.terms
            if xp[index] == 0
        ]
        return PolyField(tuple(new), self.n - 1, self.m)

    def on_slack(self) -> "PolyField":
        """Substitute ``x_n = 1 − Σ_{j<n} x_j`` and delete ``x_n``: the field
        on the simplex slack face, in the face's chart (exact; like terms are
        merged and zero terms dropped)."""
        out: dict = {}
        for c, xp, yp in self.terms:
            part = {xp[:-1]: c}
            for _ in range(xp[-1]):  # times (1 − Σ_{j<n} x_j)
                nxt = dict(part)
                for e, v in part.items():
                    for j in range(self.n - 1):
                        ej = e[:j] + (e[j] + 1,) + e[j + 1 :]
                        nxt[ej] = nxt.get(ej, 0.0) - v
                part = nxt
            for e, v in part.items():
                out[e, yp] = out.get((e, yp), 0.0) + v
        new = [(v, e, yp) for (e, yp), v in out.items() if v != 0.0]
        return PolyField(tuple(new), self.n - 1, self.m)

    def rescaled(self, lam: float, outer: float) -> "PolyField":
        """Exact table for ``outer · f(λ x′, √λ y′)``."""
        new = [
            (c * outer * lam ** (sum(xp) + 0.5 * sum(yp)), xp, yp)
            for c, xp, yp in self.terms
        ]
        return PolyField(tuple(new), self.n, self.m)

    def diff(self, slot: int) -> "PolyField":
        """The exact partial derivative in coordinate ``slot`` (the ``x``
        slots first, then the ``y`` slots)."""
        new = []
        for c, xp, yp in self.terms:
            pows = xp + yp
            if pows[slot]:
                e = pows[:slot] + (pows[slot] - 1,) + pows[slot + 1 :]
                new.append((c * pows[slot], e[: self.n], e[self.n :]))
        return PolyField(tuple(new), self.n, self.m)


@dataclass(frozen=True, repr=False)
class FuncField(CoefficientField):
    """A coefficient given by a user callable.

    ``fn`` either takes a :class:`Point` (``vectorized=False``, the default) or
    batch arrays ``(x, y) -> (k,)`` (``vectorized=True``).  Callables must be
    pure and re-entrant (no hidden mutable state).
    """

    fn: Callable
    vectorized: bool = False

    def eval(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.vectorized:
            return np.asarray(self.fn(x, y), dtype=float)
        k = x.shape[0] if x.ndim == 2 else y.shape[0]
        return np.array([float(self.fn(Point(x[r], y[r]))) for r in range(k)])


@dataclass(frozen=True, repr=False)
class _XformField(CoefficientField):
    """``outer · base(xscale·x, yscale·y)`` — used by zoom rescaling."""

    base: CoefficientField
    outer: float
    xscale: float
    yscale: float

    def eval(self, x, y):
        return self.outer * self.base.eval(self.xscale * x, self.yscale * y)

    @property
    def const(self):
        c = self.base.const
        return None if c is None else self.outer * c


@dataclass(frozen=True, repr=False)
class _EmbedField(CoefficientField):
    """Restriction of a parent-domain field to one of its faces: evaluates
    the parent field at the face points re-embedded by
    :func:`~kimura.geometry.embed_rows`."""

    base: CoefficientField
    face: int
    parent: DomainSpec

    def eval(self, x, y):
        return self.base.eval(embed_rows(x, self.face, self.parent), y)

    @property
    def const(self):
        return self.base.const


@dataclass(frozen=True, repr=False)
class _SliceField(CoefficientField):
    """A factor-operator field lifted to a product domain (reads its block)."""

    base: CoefficientField
    x0: int
    x1: int
    y0: int
    y1: int

    def eval(self, x, y):
        return self.base.eval(x[:, self.x0 : self.x1], y[:, self.y0 : self.y1])

    @property
    def const(self):
        return self.base.const


@dataclass(frozen=True, repr=False)
class _RatioField(CoefficientField):
    """Pointwise ratio of two fields (a face weight ``b / ℓ``)."""

    num: CoefficientField
    den: CoefficientField

    def eval(self, x, y):
        return self.num.eval(x, y) / self.den.eval(x, y)


@dataclass(frozen=True, repr=False)
class _NegSumField(CoefficientField):
    """``−Σ parts``: the drift of the simplex slack coordinate ``1 − Σx``."""

    parts: tuple

    def eval(self, x, y):
        return -sum(f.eval(x, y) for f in self.parts)


def as_field(obj) -> CoefficientField:
    """Coerce a number, callable, or field into a :class:`CoefficientField`."""
    if isinstance(obj, CoefficientField):
        return obj
    if isinstance(obj, (int, float, np.floating, np.integer)):
        return ConstField(float(obj))
    if callable(obj):
        return FuncField(obj)
    raise TypeError(f"cannot interpret {obj!r} as a coefficient field")


# --------------------------------------------------------------------------
# reports and metadata
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AssumptionViolation:
    """One witnessed failure of a structural condition."""

    condition: str  # "nonneg" | "ellipticity"
    point: Point
    value: float
    detail: str


@dataclass(frozen=True)
class AssumptionReport:
    """Result of sample-based structural checks on an operator.

    ``nonneg_ok`` — the corner drifts are non-negative where they guard their
    own face (each ``b_i`` sampled on ``{x_i = 0}``, and the slack-face inward
    drift on simplex domains).  ``lambda_estimate`` — the minimum observed
    Rayleigh quotient of the reduced second-order form (see
    :meth:`KimuraOperator._reduced_form_batch`) over sampled points (exact
    minimum over directions at each sample).  A value near 0 marks a
    presentation only marginally non-degenerate in this chart, as
    Wright–Fisher's near the slack face, where the ``x``-chart is not adapted.
    """

    nonneg_ok: bool
    lambda_estimate: float
    violations: tuple[AssumptionViolation, ...]

    @property
    def elliptic_ok(self) -> bool:
        return self.lambda_estimate > 0.0


@dataclass(frozen=True)
class FaceClassification:
    """Tangent/transverse split of the boundary faces.

    ``weights`` maps each face index to its weight function on the face;
    ``beta0`` is the smallest weight value observed on transverse faces
    (``inf`` when there are none).
    """

    tangent: frozenset
    transverse: frozenset
    weights: Mapping[int, CoefficientField]
    beta0: float


# --------------------------------------------------------------------------
# quasi-random sampling
# --------------------------------------------------------------------------


def _sobol(dim: int, k: int, seed) -> np.ndarray:
    from scipy.stats import qmc

    eng = qmc.Sobol(d=dim, scramble=True, seed=seed)
    pow2 = max(1, math.ceil(math.log2(max(2, k))))
    return eng.random_base2(pow2)[:k]


def sample_domain(dom: DomainSpec, k: int, seed=0) -> tuple[np.ndarray, np.ndarray]:
    """Low-discrepancy sample of ``k`` points: arrays ``(k, n)`` and ``(k, m)``."""
    if isinstance(dom, Simplex):
        u = _sobol(dom.N + 1, k, seed)
        e = -np.log1p(-np.clip(u, 0.0, 1.0 - 1e-12))
        x = e[:, : dom.N] / np.sum(e, axis=1, keepdims=True)
        return x, np.empty((k, 0))
    u = _sobol(dom.n + dom.m, k, seed)
    x = dom.radius * u[:, : dom.n]
    y = dom.y_radius * (2.0 * u[:, dom.n :] - 1.0)
    return x, y


def _extreme_points(dom: DomainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Vertices of the closed domain (capped at 256 for high dimensions)."""
    import itertools

    if isinstance(dom, Simplex):
        x = np.vstack([np.zeros(dom.N), np.eye(dom.N)])
        return x, np.empty((dom.N + 1, 0))
    xlevels = [(0.0, dom.radius)] * dom.n
    ylevels = [(-dom.y_radius, dom.y_radius)] * dom.m
    rows = list(itertools.islice(itertools.product(*(xlevels + ylevels)), 256))
    pts = np.array(rows, dtype=float).reshape(len(rows), dom.n + dom.m)
    return pts[:, : dom.n], pts[:, dom.n :]


def sample_face(
    dom: DomainSpec, face: int, k: int, seed=0
) -> tuple[np.ndarray, np.ndarray]:
    """Sample ``k`` points on a face, in parent-domain coordinates."""
    if dom.n + dom.m == 1:  # the face is a point
        xs, ys = np.empty((k, 0)), np.empty((k, 0))
    else:
        sub, _ = restrict_domain(dom, face)
        xs, ys = sample_domain(sub, k, seed)
    return embed_rows(xs, face, dom), ys


# --------------------------------------------------------------------------
# the operator
# --------------------------------------------------------------------------


def _coerce_vec(vals, length, default) -> tuple[CoefficientField, ...]:
    if vals is None:
        return tuple(ConstField(default) for _ in range(length))
    if len(vals) != length:
        raise ValueError(f"expected {length} fields, got {len(vals)}")
    return tuple(as_field(v) for v in vals)


def _coerce_mat(vals, rows, cols) -> tuple[tuple[CoefficientField, ...], ...]:
    if vals is None:
        return tuple(tuple(ConstField(0.0) for _ in range(cols)) for _ in range(rows))
    if len(vals) != rows or any(len(r) != cols for r in vals):
        raise ValueError(f"expected a {rows}×{cols} field matrix")
    return tuple(tuple(as_field(v) for v in r) for r in vals)


@dataclass(frozen=True)
class KimuraOperator:
    """An immutable corner-degenerate diffusion operator.

    Parameters may be numbers, callables, or :class:`CoefficientField`
    objects; missing blocks default to zero (``a``, ``c``, ``d``, ``e``) or
    one (``lead``).  ``a`` and ``d`` must be symmetric.
    """

    dom: DomainSpec
    b: tuple = ()
    a: tuple | None = None
    c: tuple | None = None
    d: tuple | None = None
    e: tuple | None = None
    lead: tuple | None = None

    def __post_init__(self):
        n, m = self.dom.n, self.dom.m
        object.__setattr__(self, "b", _coerce_vec(self.b or None, n, 0.0))
        object.__setattr__(self, "a", _coerce_mat(self.a, n, n))
        object.__setattr__(self, "c", _coerce_mat(self.c, n, m))
        object.__setattr__(self, "d", _coerce_mat(self.d, m, m))
        object.__setattr__(self, "e", _coerce_vec(self.e, m, 0.0))
        object.__setattr__(self, "lead", _coerce_vec(self.lead, n, 1.0))
        for mat, label in ((self.a, "a"), (self.d, "d")):
            for i in range(len(mat)):
                for j in range(i):
                    ci, cj = mat[i][j].const, mat[j][i].const
                    if ci is not None and cj is not None and ci != cj:
                        raise ValueError(
                            f"{label}[{i}][{j}]={ci} != {label}[{j}][{i}]={cj}: "
                            "second-order blocks must be symmetric"
                        )

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return self.dom.n

    @property
    def m(self) -> int:
        return self.dom.m

    @property
    def dim(self) -> int:
        return self.n + self.m

    @cached_property
    def _a_zero(self) -> bool:
        return all(f.is_zero for row in self.a for f in row)

    @cached_property
    def _c_zero(self) -> bool:
        return all(f.is_zero for row in self.c for f in row)

    @cached_property
    def _e_zero(self) -> bool:
        return all(f.is_zero for f in self.e)

    @cached_property
    def _lead_const(self) -> np.ndarray | None:
        vals = [f.const for f in self.lead]
        return None if any(v is None for v in vals) else np.array(vals)

    @cached_property
    def _b_const(self) -> np.ndarray | None:
        vals = [f.const for f in self.b]
        return None if any(v is None for v in vals) else np.array(vals)

    @cached_property
    def _d_const(self) -> np.ndarray | None:
        vals = [[f.const for f in row] for row in self.d]
        if any(v is None for row in vals for v in row):
            return None
        return np.array(vals).reshape(self.m, self.m)

    @cached_property
    def _d_diag_const(self) -> np.ndarray | None:
        D = self._d_const
        if D is None or self.m == 0:
            return D if self.m == 0 else None
        return np.diag(D) if np.all(D == np.diag(np.diag(D))) else None

    @cached_property
    def _yy_chol_const(self) -> np.ndarray | None:
        D = self._d_const
        if D is None or self.m == 0:
            return None
        try:
            return np.linalg.cholesky(2.0 * D)
        except np.linalg.LinAlgError:
            return None

    # -- pointwise application ---------------------------------------------

    def apply(self, u: PolyField, p: Point) -> float:
        """Evaluate ``L u = Σ_ij M_ij ∂_i∂_j u + drift·∇u`` at ``p`` from the
        exact derivatives of the polynomial ``u``, with ``M`` and the drift of
        :meth:`diffusion_matrix_batch` and :meth:`drift_batch`.

        The formula is polynomial in ``x``, so boundary points are fine.
        """
        x, y = p.x[None, :], p.y[None, :]
        du = [u.diff(i) for i in range(self.dim)]
        g = np.array([f(p) for f in du])
        H = np.array([[f.diff(j)(p) for j in range(self.dim)] for f in du])
        M = self.diffusion_matrix_batch(x, y)[0]
        return float(np.sum(M * H) + self.drift_batch(x, y)[0] @ g)

    # -- structural checks ---------------------------------------------------

    def check_assumptions(self, samples: int = 4096, seed=0) -> AssumptionReport:
        """Sample-check drift non-negativity and reduced strict ellipticity.

        The drift condition is evaluated where it constrains the dynamics: each
        ``b_i`` on its own face ``{x_i = 0}`` (at interior points the operator
        is classically elliptic and the sign of ``b_i`` is unconstrained), plus
        the inward drift ``−Σ b_i`` on the slack face of a simplex.  The
        ellipticity estimate is the exact directional minimum of the reduced
        form at each sampled point; see :class:`AssumptionReport`.
        """
        if samples < 1:
            raise ValueError("samples must be ≥ 1")
        violations: list[AssumptionViolation] = []
        tol = 1e-12

        face_k = min(samples, 512)
        nonneg_ok = True
        for face in self.dom.face_ids:
            slack = face > self.n
            fx, fy = sample_face(self.dom, face, face_k, seed)
            vals = (self._slack_drift if slack else self.b[face - 1]).eval(fx, fy)
            bad = np.flatnonzero(vals < -tol)
            if bad.size:
                nonneg_ok = False
                r = int(bad[np.argmin(vals[bad])])
                violations.append(
                    AssumptionViolation(
                        "nonneg",
                        Point(fx[r], fy[r]),
                        float(vals[r]),
                        "inward drift −Σ b_i < 0 on the slack face"
                        if slack
                        else f"b_{face} < 0 on its face",
                    )
                )

        x, y = sample_domain(self.dom, samples, seed)
        Q = self._reduced_form_batch(x, y)
        mineig = np.linalg.eigvalsh(Q)[:, 0]
        lam = float(np.min(mineig))
        bad = np.flatnonzero(mineig < -1e-12)
        if bad.size:
            r = int(bad[np.argmin(mineig[bad])])
            violations.append(
                AssumptionViolation(
                    "ellipticity",
                    Point(x[r], y[r]),
                    float(mineig[r]),
                    "reduced second-order form is indefinite",
                )
            )
        return AssumptionReport(nonneg_ok, lam, tuple(violations))

    def _reduced_form_batch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The reduced form ``Q(z)`` at each sample, shape (k,dim,dim): the
        second-order part in the variables ``√x_i ∂_i`` and ``∂_y``,
        ``Q = [[ℓ_i δ_ij + √(x_i x_j) a_ij, ½√x_i c_il], [·, d_lk]]``, so that
        ``D Q D = diffusion_matrix_batch`` with ``D = diag(√x, 1)``."""
        return self._second_order(x, y, np.sqrt(x), None)

    def _second_order(self, x, y, r, diag) -> np.ndarray:
        """The symmetric matrices ``[[ℓ_i δ_ij·diag_i + r_i r_j a_ij,
        ½ r_i c_il], [·, d_lk]]`` at a batch of states (``diag`` None reads
        as 1), shape ``(k, dim, dim)``: the generator's second-order part
        with ``r = diag = x``, its reduced form with ``r = √x``."""
        k, n, m = x.shape[0], self.n, self.m
        M = np.zeros((k, self.dim, self.dim))
        for i in range(n):
            lead = self.lead[i].eval(x, y)
            M[:, i, i] = lead if diag is None else lead * diag[:, i]
            for j in range(n):
                aij = self.a[i][j]
                if not aij.is_zero:
                    M[:, i, j] += r[:, i] * r[:, j] * aij.eval(x, y)
            for l in range(m):
                cil = self.c[i][l]
                if not cil.is_zero:
                    half = 0.5 * r[:, i] * cil.eval(x, y)
                    M[:, i, n + l] += half
                    M[:, n + l, i] += half
        for l in range(m):
            for kk in range(m):
                dlk = self.d[l][kk]
                if not dlk.is_zero:
                    M[:, n + l, n + kk] += dlk.eval(x, y)
        return 0.5 * (M + np.swapaxes(M, 1, 2))

    # -- weights, cleanness, restriction -------------------------------------

    def weight(self, face: int) -> CoefficientField:
        """The weight ``B_face = b_face / ℓ_face`` as a function on the face.

        The simplex slack face ``{Σx = 1}`` is the coordinate face ``{s = 0}``
        of the chart ``s = 1 − Σx``, and its weight follows from the
        coefficients when the second-order block is the genetic-drift form up
        to time scale, ``ℓ_i ≡ c`` and ``a_ij ≡ −c`` (the one constant block
        that keeps Kimura form at that face): ``B_s = −Σ_i b_i / c`` on the
        face.  Any other simplex operator raises :class:`KimuraError` there.
        """
        self._check_face(face)
        if face > self.n:  # the simplex slack face
            c = self._slack_lead
            if c is None:
                raise KimuraError(
                    f"slack face {face} keeps Kimura form only when every ℓ_i is "
                    "one constant c > 0 and every a_ij is −c"
                )
            bf, lf = self._slack_drift, ConstField(c)
        else:
            bf, lf = self.b[face - 1], self.lead[face - 1]
        if self._face_is_point(face):
            p = self._face_point(face)
            return ConstField(bf(p) / lf(p))
        num, den = self._restrict_field(bf, face), self._restrict_field(lf, face)
        if num.const is not None and den.const is not None:
            return ConstField(num.const / den.const)
        if den.const == 1.0:
            return num
        return _RatioField(num, den)

    @cached_property
    def _slack_lead(self) -> float | None:
        """``c`` when ``ℓ_i ≡ c > 0`` and ``a_ij ≡ −c`` on a simplex, else None.

        Then ``M = c·(diag(x) − x xᵀ)``, whose slack row in the chart
        ``s = 1 − Σx`` is ``M_ss = c·s − c·s²`` and ``M_sj = −c·s·x_j``.
        """
        c = self.lead[0].const if isinstance(self.dom, Simplex) else None
        ok = (
            c is not None
            and c > 0
            and all(f.const == c for f in self.lead)
            and all(f.const == -c for row in self.a for f in row)
        )
        return c if ok else None

    @cached_property
    def _slack_drift(self) -> CoefficientField:
        """The drift ``−Σ b_i`` of the slack coordinate ``s = 1 − Σx``."""
        if all(isinstance(f, (ConstField, PolyField)) for f in self.b):
            zero = (0,) * self.n
            tables = [
                ((f.value, zero, ()),) if isinstance(f, ConstField) else f.terms
                for f in self.b
            ]
            terms = tuple((-c, xp, yp) for t in tables for c, xp, yp in t)
            return PolyField(terms, self.n)
        return _NegSumField(self.b)

    def classify_faces(self) -> FaceClassification:
        """Split faces into tangent (weight ≡ 0) and transverse (weight ≥ β₀).

        Raises :class:`NotClean` when some face's weight is neither uniformly
        zero nor uniformly bounded below, with witness points.
        """
        tangent, transverse = set(), set()
        weights: dict[int, CoefficientField] = {}
        beta0 = math.inf
        for face in self.dom.face_ids:
            W = weights[face] = self.weight(face)
            pts, vals = self._weight_samples(W, face, _CLASSIFY_SAMPLES)
            sup, inf = float(np.max(np.abs(vals))), float(np.min(vals))
            if sup <= _TANGENT_TOL:
                tangent.add(face)
            elif inf >= _BETA0_MIN:
                transverse.add(face)
                beta0 = min(beta0, inf)
            else:
                near = int(np.argmin(np.abs(vals)))
                far = int(np.argmax(vals))
                raise NotClean(
                    f"face {face} is neither tangent nor uniformly transverse: "
                    f"B ranges over [{inf:.3g}, {float(np.max(vals)):.3g}]",
                    face=face,
                    witnesses=[(pts[near], float(vals[near])), (pts[far], float(vals[far]))],
                )
        return FaceClassification(
            frozenset(tangent), frozenset(transverse), weights, beta0
        )

    def _weight_samples(self, W, face, samples):
        if self._face_is_point(face):
            p = self._face_point(face)
            return [p], np.array([W(p) if W.const is None else W.const])
        sub, _ = restrict_domain(self.dom, face)
        ex, ey = _extreme_points(sub)  # closed-face corners: cleanness holds on the *closed* face
        if W.const is not None:  # one value, witnessed at the first corner
            return [Point(ex[0], ey[0])], np.array([W.const])
        xs, ys = sample_domain(sub, samples, 0)
        xs = np.vstack([xs, ex])
        ys = np.vstack([ys, ey])
        vals = W.eval(xs, ys)
        pts = [Point(xs[r], ys[r]) for r in range(xs.shape[0])]
        return pts, vals

    def _face_is_point(self, face: int) -> bool:
        return self.dom.n + self.dom.m == 1

    def _face_point(self, face: int) -> Point:
        """The point a face is when the domain is one-dimensional."""
        return Point(embed_rows(np.empty(0), face, self.dom))

    def restrict(self, face: int) -> "KimuraOperator":
        """The induced operator on a tangent face (one fewer corner variable).

        Coefficients are evaluated on the face and the coordinate that
        :func:`~kimura.geometry.restrict_rows` deletes is dropped, so that
        ``L_face u = (L U)|_face`` for extensions ``U`` constant across the
        face.  On the simplex slack face the remaining coefficients are
        evaluated at ``x_N = 1 − Σ_{j<N} x_j``; this needs the slack-face rule
        of :meth:`weight`.  The genetic-drift operator restricts to the
        genetic-drift operator with the face's rate folded into a neighbour's.
        Raises :class:`FaceNotTangent` when the face weight is not identically
        zero.
        """
        self._check_face(face)
        W = self.weight(face)
        _, vals = self._weight_samples(W, face, _RESTRICT_SAMPLES)
        sup = float(np.max(np.abs(vals)))
        if sup > _TANGENT_TOL:
            raise FaceNotTangent(
                f"face {face} has weight up to {sup:.3g} > tol={_TANGENT_TOL}: not tangent"
            )
        sub, _ = restrict_domain(self.dom, face)
        keep = restrict_rows(np.arange(self.n), face, self.dom)
        R = lambda f: self._restrict_field(f, face)  # noqa: E731
        return KimuraOperator(
            dom=sub,
            b=tuple(R(self.b[i]) for i in keep),
            a=tuple(tuple(R(self.a[i][j]) for j in keep) for i in keep),
            c=tuple(tuple(R(self.c[i][l]) for l in range(self.m)) for i in keep),
            d=tuple(tuple(R(f) for f in row) for row in self.d),
            e=tuple(R(f) for f in self.e),
            lead=tuple(R(self.lead[i]) for i in keep),
        )

    def _restrict_field(self, f: CoefficientField, face: int) -> CoefficientField:
        if isinstance(f, ConstField):
            return f
        if isinstance(f, PolyField):
            return f.on_slack() if face > self.n else f.drop_x(face - 1)
        return _EmbedField(f, face, self.dom)

    def _check_face(self, face: int) -> None:
        if face not in self.dom.face_ids:
            raise ValueError(f"face {face} not a face of {self.dom}")

    # -- rescaling -------------------------------------------------------------

    def rescale(self, lam: float) -> "KimuraOperator":
        """Zoom by ``x = λ x′, y = √λ y′``: the operator seen at scale λ.

        Satisfies ``λ·(L u)(λx′, √λ y′) = (L′ v)(x′, y′)`` with
        ``v(z′) = u(λx′, √λ y′)``.  Operators with constant coefficients and
        no ``a``/``c``/``e`` terms are scale-invariant and returned unchanged.
        """
        if not 0.0 < lam <= 1.0:
            raise ValueError(f"λ must lie in (0, 1], got {lam}")
        if lam == 1.0:
            return self
        if (
            self._a_zero
            and self._c_zero
            and self._e_zero
            and self._b_const is not None
            and self._lead_const is not None
            and self._d_const is not None
        ):
            return self
        if not isinstance(self.dom, CornerBox):
            raise KimuraError(
                "rescaling with λ < 1 is defined on box charts; "
                "simplex domains are not scale-invariant"
            )
        root = math.sqrt(lam)
        dom = CornerBox(self.n, self.m, self.dom.radius / lam, self.dom.y_radius / root)

        def xf(f: CoefficientField, outer: float) -> CoefficientField:
            if isinstance(f, ConstField):
                return ConstField(outer * f.value)
            if isinstance(f, PolyField):
                return f.rescaled(lam, outer)
            return _XformField(f, outer, lam, root)

        return KimuraOperator(
            dom=dom,
            b=tuple(xf(f, 1.0) for f in self.b),
            a=tuple(tuple(xf(f, lam) for f in row) for row in self.a),
            c=tuple(tuple(xf(f, root) for f in row) for row in self.c),
            d=tuple(tuple(xf(f, 1.0) for f in row) for row in self.d),
            e=tuple(xf(f, root) for f in self.e),
            lead=tuple(xf(f, 1.0) for f in self.lead),
        )

    # -- SDE coefficients --------------------------------------------------------

    def drift_batch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Drift vectors ``(b_1..b_n, e_1..e_m)`` at a batch of states."""
        out = np.empty((x.shape[0], self.dim))
        for i, f in enumerate((*self.b, *self.e)):
            out[:, i] = f.eval(x, y)
        return out

    def diffusion_matrix_batch(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The generator's second-order coefficient matrices ``M(z)``, shape
        ``(k, dim, dim)`` (symmetric positive semidefinite for operators
        passing the structural checks).  The SDE covariance is ``2·M``."""
        return self._second_order(x, y, x, x)

    @cached_property
    def _noise_strategy(self) -> str:
        # ℓ ≡ ½ and a ≡ −½ on a simplex make 2M = diag(x) − x xᵀ, the
        # genetic-drift covariance with an explicit triangular factor.
        if self._slack_lead == 0.5:
            return "wf"
        if self._a_zero and self._c_zero:
            if self.m == 0:
                return "diag"
            if self._d_diag_const is not None:
                return "diag"
            if self._yy_chol_const is not None:
                return "diag+chol"
        return "generic"


def _wf_noise(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Closed-form triangular factor of ``diag(x) − x xᵀ`` applied to ξ.

    ``L_jj = √(x_j q_j / q_{j−1})`` and ``L_ij = −x_i √(x_j / (q_{j−1} q_j))``
    for ``i > j``, with ``q_j = 1 − x_1 − … − x_j``; degenerate pivots give
    zero columns (the clamped states on faces).  ``x⁺`` is formed once, and
    at ``j = 0`` the division by ``q_{−1} = 1`` and the product with it are
    left out; neither changes a bit.
    """
    k, N = x.shape
    tiny = 1e-300
    out = np.zeros((k, N))
    xp = np.maximum(x, 0.0)
    q_prev = 1.0
    for j in range(N):
        xj = xp[:, j]
        qj = np.maximum(q_prev - xj, 0.0)
        num = xj * qj
        pivot = np.sqrt(num if j == 0 else num / np.maximum(q_prev, tiny))
        out[:, j] += pivot * xi[:, j]
        if j + 1 < N:
            f = np.sqrt(xj / np.maximum(qj if j == 0 else q_prev * qj, tiny))
            f[qj <= 0.0] = 0.0
            out[:, j + 1 :] -= xp[:, j + 1 :] * (f * xi[:, j])[:, None]
        q_prev = qj
    return out


def _drop_zero_terms(f: CoefficientField) -> CoefficientField:
    """``f`` without its zero polynomial terms, which add ±0 to every value
    at a finite state (so neutral Wright–Fisher's drift becomes constant 0)."""
    if isinstance(f, PolyField):
        return PolyField(tuple(t for t in f.terms if t[0] != 0.0), f.n, f.m)
    return f


class _EulerUpdate:
    """One operator's Euler–Maruyama update ``z′ = z + drift(x⁺)·dt + G(x⁺)·η``
    at one ``dt``, ``η`` being the normals scaled by ``√dt``.  The level hands
    it ``x⁺ = max(x, 0)`` beside the rows: ``x`` itself where the level's
    clamp leaves ``x ≥ 0``, and a copy under a corner stop, whose rows keep
    ``x`` below 0 and take the increment (full truncation).  ``drift`` is
    chosen from the coefficients after their zero polynomial terms are
    dropped: ``zero`` (skipped), ``constant`` (``b·dt`` precomputed) or
    ``varying`` (each field evaluated at ``x⁺``, whether a table or a
    closure).

    ``noise`` is the operator's strategy for the package's one noise factor
    ``G``, with ``G Gᵀ = 2M``: ``wf``, the closed-form triangular factor of
    the genetic-drift covariance (``√(x(1−x))·η`` in one coordinate);
    ``diag`` and ``diag+chol``, ``√(2ℓx)`` on the corner block beside the
    constant ``y`` factor (``√(2d)``, or the Cholesky factor of ``2d``), with
    ``2ℓ`` and the ``y`` factor precomputed where constant; ``generic``, a
    per-state ``eigh`` of ``2·diffusion_matrix_batch`` with its negative
    eigenvalues clipped to 0.  The update equals
    ``z + drift_batch(x⁺)·dt + G(x⁺)·η`` bit for bit at every finite state
    with no ``−0.0`` coordinate; ``tests/test_step_plan.py`` holds that
    reference, with each strategy's first form.
    """

    def __init__(self, op: KimuraOperator, dt: float):
        self.n, self.m, self.dt = op.n, op.m, dt
        self._fields = [_drop_zero_terms(f) for f in (*op.b, *op.e)]
        consts = [f.const for f in self._fields]
        if all(c is not None for c in consts):
            self.drift = "constant" if any(consts) else "zero"
            self._bdt = np.array(consts) * dt
        else:
            self.drift = "varying"
        self.noise = op._noise_strategy
        self._op = op
        noise: tuple = ()  # what the noise reads besides the state
        if self.noise in ("diag", "diag+chol"):
            lead = op._lead_const
            self._two_lead = None if lead is None else 2.0 * lead
            noise = (op.lead if lead is None else self._two_lead.tobytes(),)
            if op.m:
                self._y_factor = (
                    np.sqrt(2.0 * op._d_diag_const) if self.noise == "diag" else op._yy_chol_const.T
                )
                noise += (self._y_factor.tobytes(),)
        elif self.noise == "generic":
            noise = (op.lead, op.a, op.c, op.d)
        drift = tuple(self._fields) if self.drift == "varying" else self._bdt.tobytes()
        #: equal keys give equal updates, bit for bit, on the same rows:
        #: fields compare as frozen dataclasses (a closure by identity) and
        #: precomputed arrays by their bits
        self.key = (self.n, dt, self.drift, drift, self.noise, noise)

    def __call__(self, z: np.ndarray, xp: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """``z′`` for rows ``z = (x | y)``, their ``x⁺`` and scaled normals
        ``η``; ``z`` is left as it is."""
        g = self._noise(xp, z, eta)
        if self.drift == "zero":
            return np.add(z, g, out=g)
        if self.drift == "constant":
            zn = _by_columns(np.add, z, self._bdt, np.empty(z.shape))
        else:
            zn = z + self._drift_dt(xp, z[:, self.n :])
        zn += g
        return zn

    def _drift_dt(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = np.empty((x.shape[0], len(self._fields)))
        for i, f in enumerate(self._fields):
            np.multiply(f.eval(x, y), self.dt, out=out[:, i])
        return out

    def _noise(self, x: np.ndarray, z: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """``G·η`` at ``x ≥ 0``, the corner block of the rows ``z``, as one
        fresh array of ``z``'s shape."""
        n, op = self.n, self._op
        if self.noise == "wf":  # a simplex: x is all of z
            if n > 1:
                return _wf_noise(x, eta)
            g = x * (1.0 - x)  # the factor's one pivot, with q₀ = 1
            np.maximum(g, 0.0, out=g)
            np.sqrt(g, out=g)
            g *= eta
            return g
        if self.noise == "generic":  # per state, negative curvature clipped
            w, V = np.linalg.eigh(2.0 * op.diffusion_matrix_batch(x, z[:, n:]))
            G = V * np.sqrt(np.clip(w, 0.0, None))[:, None, :]
            return np.einsum("kij,kj->ki", G, eta)
        g = np.empty(z.shape)
        gx = g[:, :n] if self.m else g
        if self._two_lead is not None:
            _by_columns(np.multiply, x, self._two_lead, gx)
        else:
            np.multiply(x, 2.0 * np.column_stack([f.eval(x, z[:, n:]) for f in op.lead]), out=gx)
        np.sqrt(gx, out=gx)
        gx *= eta[:, :n]
        if self.m:
            if self.noise == "diag":
                np.multiply(eta[:, n:], self._y_factor, out=g[:, n:])
            else:
                g[:, n:] = eta[:, n:] @ self._y_factor
        return g


def _by_columns(ufunc, a: np.ndarray, row: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``ufunc(a, row)`` into ``out`` for rows ``a`` and one short ``row``,
    one column at a time: numpy broadcasts a short row as an inner loop of
    its length, several times slower than one call per column."""
    for j in range(a.shape[1]):
        ufunc(a[:, j], row[j], out=out[:, j])
    return out


# --------------------------------------------------------------------------
# presets
# --------------------------------------------------------------------------


def model1d(b: float, radius: float = 1.0) -> KimuraOperator:
    """The 1D model operator ``x u″ + b u′`` on ``[0, radius]``."""
    return KimuraOperator(
        dom=CornerBox(1, 0, radius),
        b=(float(b),),
    )


def wright_fisher(N: int, b: Sequence[float]) -> KimuraOperator:
    """The N-allele genetic-drift operator on the simplex.

    ``L u = ½ Σ_ij (δ_ij x_i − x_i x_j) u_{x_i x_j}
    + Σ_i (b_i − x_i Σ_{j≤N+1} b_j) u_{x_i}`` with non-negative rates
    ``b_1..b_{N+1}`` (the last belongs to the slack species).  In the corner
    presentation this has ``ℓ_i ≡ ½`` and ``a_ij ≡ −½``; every face weight is
    the constant ``2 b_i``.
    """
    b = tuple(float(v) for v in b)
    if len(b) != N + 1:
        raise ValueError(f"need N+1 = {N + 1} rates, got {len(b)}")
    S = sum(b)
    drift = tuple(
        PolyField(
            (
                (b[i], (0,) * N, ()),
                (-S, tuple(1 if j == i else 0 for j in range(N)), ()),
            ),
            N,
        )
        for i in range(N)
    )
    half = ConstField(0.5)
    mhalf = ConstField(-0.5)
    return KimuraOperator(
        dom=Simplex(N),
        b=drift,
        a=tuple(tuple(mhalf for _ in range(N)) for _ in range(N)),
        lead=tuple(half for _ in range(N)),
    )


def product_operator(*factors: KimuraOperator) -> KimuraOperator:
    """Independent product of box-chart operators (block-diagonal structure)."""
    if len(factors) < 1:
        raise ValueError("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    if not all(isinstance(f.dom, CornerBox) for f in factors):
        raise ValueError("product factors must live on box charts")
    radii = {(f.dom.radius, f.dom.y_radius) for f in factors}
    if len(radii) != 1:
        raise ValueError(f"product factors must share the box radius, got {radii}")
    n = sum(f.n for f in factors)
    m = sum(f.m for f in factors)
    radius, y_radius = next(iter(radii))
    dom = CornerBox(n, m, radius, y_radius)
    zero = ConstField(0.0)
    b: list = [zero] * n
    e: list = [zero] * m
    lead: list = [ConstField(1.0)] * n
    a = [[zero] * n for _ in range(n)]
    c = [[zero] * m for _ in range(n)]
    d = [[zero] * m for _ in range(m)]
    x0 = y0 = 0
    for fac in factors:
        def lift(f: CoefficientField, x0=x0, y0=y0, fac=fac) -> CoefficientField:
            if isinstance(f, ConstField):
                return f
            return _SliceField(f, x0, x0 + fac.n, y0, y0 + fac.m)

        for i in range(fac.n):
            b[x0 + i] = lift(fac.b[i])
            lead[x0 + i] = lift(fac.lead[i])
            for j in range(fac.n):
                a[x0 + i][x0 + j] = lift(fac.a[i][j])
            for l in range(fac.m):
                c[x0 + i][y0 + l] = lift(fac.c[i][l])
        for l in range(fac.m):
            e[y0 + l] = lift(fac.e[l])
            for kk in range(fac.m):
                d[y0 + l][y0 + kk] = lift(fac.d[l][kk])
        x0 += fac.n
        y0 += fac.m
    return KimuraOperator(
        dom=dom,
        b=tuple(b),
        a=tuple(tuple(r) for r in a),
        c=tuple(tuple(r) for r in c),
        d=tuple(tuple(r) for r in d),
        e=tuple(e),
        lead=tuple(lead),
    )


def remark_counterexample(radius: float = 32.0) -> KimuraOperator:
    """Two corner coordinates whose drifts cross-feed: ``b₁ = x₂, b₂ = x₁``.

    Each face individually has a weight that vanishes only at the corner
    (neither tangent nor uniformly transverse — the classification rejects
    it), and the sum ``X₁ + X₂`` reaches the corner with positive
    probability.
    """
    b1 = PolyField(((1.0, (0, 1), ()),), 2)
    b2 = PolyField(((1.0, (1, 0), ()),), 2)
    return KimuraOperator(
        dom=CornerBox(2, 0, radius),
        b=(b1, b2),
    )


PRESET_NAMES = (
    "model1d",
    "wright-fisher",
    "product",
    "remark-counterexample",
    "appendix-A",
)


def make_preset(name: str, **params) -> KimuraOperator:
    """Build a registry operator by config-addressable name."""
    if name == "model1d":
        return model1d(**params)
    if name == "wright-fisher":
        return wright_fisher(**params)
    if name == "product":
        return product_operator(*params["factors"])
    if name == "remark-counterexample":
        return remark_counterexample(**params)
    if name == "appendix-A":
        from .verify import AppendixOperator

        return AppendixOperator(**params)
    raise ValueError(f"unknown preset {name!r}; known: {PRESET_NAMES}")
