"""Corner-domain geometry: points, strata, restriction maps, weighted measure.

The model space is ``S_{n,m} = [0,∞)^n × R^m`` with coordinates ``z = (x, y)``.
Two concrete charts are supported:

* ``CornerBox(n, m, radius=R)`` — the box neighborhood ``{0 ≤ x_i < R, |y_l| < R}``
  of the corner of ``S_{n,m}``.  Its boundary faces are the coordinate
  hyperplanes ``H_i = {x_i = 0}``, ``i = 1..n``.  The outer box edges
  ``x_i = R`` / ``|y_l| = R`` are chart artifacts, not faces.
* ``Simplex(N)`` — ``Σ_N = {x_i ≥ 0, Σ x_i ≤ 1}`` in the first-N coordinates.
  Faces are ``H_i = {x_i = 0}`` for ``i = 1..N`` plus the slack face
  ``H_{N+1} = {Σ x_i = 1}``, which the affine chart swap ``s = 1 − Σ x_i``
  turns into an ordinary coordinate face.

A *stratum* is labeled by the sorted set of face indices that vanish there;
the interior is the empty set.  Restriction removes one coordinate and
returns the induced domain together with a map from the induced domain's face
indices back to the parent's, so hierarchical simulations can report strata
in original-domain labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .errors import BoundaryEvaluation, NotOnFace, PointOutsideDomain

DEFAULT_TOL = 1e-10

__all__ = [
    "DEFAULT_TOL",
    "Point",
    "CornerBox",
    "Simplex",
    "DomainSpec",
    "StratumId",
    "classify_point",
    "restrict_point",
    "restrict_domain",
    "embed_point",
    "restrict_rows",
    "embed_rows",
    "face_column",
    "face_distance_rows",
    "column_distance_rows",
    "row_sums",
    "weighted_density",
]


@dataclass(frozen=True)
class Point:
    """A point ``z = (x, y)`` of a corner domain.

    ``x`` holds the n corner coordinates (non-negative), ``y`` the m free
    tangential coordinates.  Arrays are copied and frozen on construction.
    """

    x: np.ndarray
    y: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float)).copy()
        y = np.atleast_1d(np.asarray(self.y, dtype=float)).copy()
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def m(self) -> int:
        return self.y.size

    def __repr__(self) -> str:  # compact, for witnesses in error messages
        if self.m:
            return f"Point(x={self.x.tolist()}, y={self.y.tolist()})"
        return f"Point(x={self.x.tolist()})"


@dataclass(frozen=True)
class CornerBox:
    """Box chart ``{0 ≤ x_i < radius, |y_l| < y_radius}`` around a corner.

    ``y_radius`` defaults to ``radius``; rescaling (which stretches x and y
    by different powers of the zoom factor) produces boxes where they differ.
    """

    n: int
    m: int = 0
    radius: float = 1.0
    y_radius: float | None = None

    def __post_init__(self):
        if self.n < 0 or self.m < 0 or self.n + self.m < 1:
            raise ValueError(f"need n ≥ 0, m ≥ 0, n+m ≥ 1; got n={self.n}, m={self.m}")
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.y_radius is None:
            object.__setattr__(self, "y_radius", float(self.radius))
        elif not self.y_radius > 0:
            raise ValueError(f"y_radius must be positive, got {self.y_radius}")

    @property
    def face_ids(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))


@dataclass(frozen=True)
class Simplex:
    """The N-simplex ``{x_i ≥ 0, Σ x_i ≤ 1}``; faces 1..N are coordinate
    faces, face N+1 is the slack face ``{Σ x_i = 1}``."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"simplex dimension must be ≥ 1, got {self.N}")

    @property
    def n(self) -> int:
        return self.N

    @property
    def m(self) -> int:
        return 0

    @property
    def face_ids(self) -> tuple[int, ...]:
        return tuple(range(1, self.N + 2))


DomainSpec = Union[CornerBox, Simplex]

#: A stratum label: the sorted set of vanished face indices (empty = interior).
StratumId = frozenset


def _check_inside(p: Point, dom: DomainSpec, tol: float) -> None:
    if np.any(p.x < -tol):
        raise PointOutsideDomain(f"negative corner coordinate beyond tol={tol}: {p}")
    if isinstance(dom, Simplex):
        if p.n != dom.N or p.m != 0:
            raise PointOutsideDomain(
                f"point has (n={p.n}, m={p.m}), domain expects (n={dom.N}, m=0)"
            )
        if float(np.sum(p.x)) > 1.0 + tol:
            raise PointOutsideDomain(f"simplex constraint Σx ≤ 1 violated: {p}")
    else:
        if p.n != dom.n or p.m != dom.m:
            raise PointOutsideDomain(
                f"point has (n={p.n}, m={p.m}), domain expects (n={dom.n}, m={dom.m})"
            )
        if np.any(p.x > dom.radius + tol) or (
            p.m and np.any(np.abs(p.y) > dom.y_radius + tol)
        ):
            raise PointOutsideDomain(f"point outside box of radius {dom.radius}: {p}")


def classify_point(p: Point, dom: DomainSpec, tol: float = DEFAULT_TOL) -> StratumId:
    """Label the boundary stratum containing ``p``.

    Returns the set of face indices ``i`` with ``x_i ≤ tol`` (plus the slack
    face for simplex domains when ``1 − Σx ≤ tol``); the empty set marks the
    interior.

    Raises
    ------
    PointOutsideDomain
        If a coordinate is below ``−tol`` or the simplex sum exceeds
        ``1 + tol`` (or the point leaves the box chart).
    """
    if tol < 0:
        raise ValueError("tol must be non-negative")
    _check_inside(p, dom, tol)
    return frozenset(f for f in dom.face_ids if face_distance_rows(p.x, f, dom) <= tol)


def restrict_domain(dom: DomainSpec, face: int) -> tuple[DomainSpec, dict[int, int]]:
    """Induced domain of a face, plus the map {induced face id → parent face id}.

    For a coordinate face the coordinate is deleted.  For the simplex slack
    face the last coordinate is dropped (it is determined by the others on
    the face); the induced slack face then corresponds to the parent's last
    coordinate face, since ``{Σ_{i<N} x = 1}`` meets ``{Σ_{i≤N} x = 1}``
    exactly where ``x_N = 0``.
    """
    if isinstance(dom, CornerBox):
        if face not in dom.face_ids:
            raise NotOnFace(f"face {face} not a face of {dom}")
        if dom.n + dom.m == 1:
            raise NotOnFace("faces of a 1-dimensional box are points; no induced domain")
        sub = CornerBox(dom.n - 1, dom.m, dom.radius, dom.y_radius)
        fmap = {new: (new if new < face else new + 1) for new in range(1, dom.n)}
        return sub, fmap
    if face not in dom.face_ids:
        raise NotOnFace(f"face {face} not a face of {dom}")
    if dom.N == 1:
        raise NotOnFace("faces of Simplex(1) are points; no induced domain")
    sub = Simplex(dom.N - 1)
    if face <= dom.N:
        fmap = {new: (new if new < face else new + 1) for new in range(1, dom.N)}
        fmap[dom.N] = dom.N + 1  # induced slack face is the parent slack face
    else:  # slack face: drop last coordinate
        fmap = {new: new for new in range(1, dom.N)}
        fmap[dom.N] = dom.N  # induced slack face is the parent's last coord face
    return sub, fmap


def _is_slack(dom: DomainSpec, face: int) -> bool:
    return isinstance(dom, Simplex) and face == dom.N + 1


def restrict_rows(x: np.ndarray, face: int, dom: DomainSpec) -> np.ndarray:
    """Batched :func:`restrict_point` on the last axis, without the on-face
    check: a coordinate face deletes column ``face − 1``; the simplex slack
    face drops the last column, which the others determine there."""
    if _is_slack(dom, face):
        return x[..., :-1]
    i = face - 1
    out = np.empty(x.shape[:-1] + (x.shape[-1] - 1,), dtype=x.dtype)
    out[..., :i] = x[..., :i]
    out[..., i:] = x[..., i + 1:]
    return out


def embed_rows(x: np.ndarray, face: int, parent: DomainSpec) -> np.ndarray:
    """Batched :func:`embed_point` on the last axis: a coordinate face
    inserts ``x_face = 0``; the simplex slack face appends
    ``max(1 − Σx, 0)``."""
    if _is_slack(parent, face):
        last = np.maximum(1.0 - row_sums(x), 0.0)
        return np.concatenate([x, last[..., None]], axis=-1)
    i = face - 1
    out = np.empty(x.shape[:-1] + (x.shape[-1] + 1,), dtype=x.dtype)
    out[..., :i] = x[..., :i]
    out[..., i] = 0.0
    out[..., i + 1:] = x[..., i:]
    return out


def face_column(face: int, dom: DomainSpec) -> int | None:
    """The column of corner coordinates that is the distance to a coordinate
    face, or None for the simplex slack face, whose distance ``1 − Σx`` is
    no one column."""
    return None if _is_slack(dom, face) else face - 1


def face_distance_rows(x: np.ndarray, face: int, dom: DomainSpec) -> np.ndarray:
    """Chart distance of rows of corner coordinates to a face, on the last
    axis: ``x_face`` for a coordinate face, ``1 − Σx`` for the simplex slack
    face (the coordinate the chart swap gives it)."""
    return column_distance_rows(x, face_column(face, dom))


def column_distance_rows(x: np.ndarray, col: int | None) -> np.ndarray:
    """:func:`face_distance_rows` for the face whose :func:`face_column` is
    ``col``: that column, or ``1 − Σx`` when ``col`` is None."""
    if col is None:
        return 1.0 - row_sums(x)
    return x[..., col]


def row_sums(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)``, bit for bit, added column by column.

    numpy adds a row of one to seven entries left to right from ``+0.0``,
    and over a batch of short rows one column add costs a small fraction of
    the reduction.  It adds eight or more entries pairwise, so wider rows,
    and empty ones, take ``x.sum(axis=-1)`` itself.
    """
    w = x.shape[-1]
    if not 1 <= w <= 7:
        return x.sum(axis=-1)
    s = x[..., 0] + 0.0
    for j in range(1, w):
        s += x[..., j]
    return s


def restrict_point(
    p: Point, face: int, dom: DomainSpec, tol: float = DEFAULT_TOL
) -> tuple[Point, DomainSpec]:
    """Drop the coordinate of ``face`` from a point lying on that face.

    Raises
    ------
    NotOnFace
        If ``face`` is not a face of ``dom`` or the point's
        :func:`face_distance_rows` to it exceeds ``tol``.
    """
    _check_inside(p, dom, tol)
    if face not in dom.face_ids:
        raise NotOnFace(f"face {face} not a face of {dom}")
    dist = float(face_distance_rows(p.x, face, dom))
    if dist > tol:
        raise NotOnFace(f"{p} is at distance {dist} > tol = {tol} from face {face}")
    sub, _ = restrict_domain(dom, face)
    return Point(restrict_rows(p.x, face, dom), p.y), sub


def embed_point(p: Point, face: int, parent: DomainSpec) -> Point:
    """Inverse of :func:`restrict_point`: re-embed a face point in the parent.

    Coordinate faces insert ``x_face = 0``; the simplex slack face appends the
    determined last coordinate ``x_N = 1 − Σ x``.
    """
    return Point(embed_rows(p.x, face, parent), p.y)


def weighted_density(
    p: Point, weights: Sequence[Union[float, Callable[[Point], float]]]
) -> float:
    """Density ``Π x_i^{B_i(p)−1}`` of the weighted measure dμ at ``p``.

    ``weights`` gives one weight per corner coordinate, each a constant or a
    callable of the point.

    Raises
    ------
    BoundaryEvaluation
        If some ``x_i = 0`` while ``B_i(p) < 1`` (the density diverges).
    """
    if len(weights) != p.n:
        raise ValueError(f"need {p.n} weights, got {len(weights)}")
    out = 1.0
    for i, w in enumerate(weights):
        b = float(w(p)) if callable(w) else float(w)
        xi = float(p.x[i])
        if xi == 0.0:
            if b < 1.0:
                raise BoundaryEvaluation(
                    f"x_{i + 1}=0 with weight B={b} < 1: density diverges at {p}"
                )
            out *= 1.0 if b == 1.0 else 0.0
        else:
            out *= xi ** (b - 1.0)
    return out
