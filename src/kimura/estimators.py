"""Monte Carlo estimators for the distributional objects of the theory.

Each estimator consumes ensembles from :mod:`kimura.sde` and reduces them to
the quantities the structural theorems speak about:

* the **transition decomposition** — terminal mass per absorption stratum
  plus location histograms (interior kernel, face kernels, corner atoms);
* the **hitting histogram** — the joint (first-hit time, hit location) law on
  a tangent face, the Monte Carlo side of the caloric measure;
* the **corner-hit probability** — how often the first absorption lands
  within ``ε`` of the intersection of two faces (zero for clean operators);
* the **transverse occupation curve** — mean time spent within ``ε`` of a
  transverse face, which must vanish as ``ε → 0``;
* the **doubling ratio** — caloric mass of the parabolic window
  ``(t−4r², t+4r²) × B_2r(q)`` over that of ``(t−r², t+r²) × B_r(q)``.

All estimators are deterministic functions of ``(seed, n_paths)`` and
independent of worker count, because the path engine is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyBin, FaceNotTangent, KimuraError
from .geometry import Point, Simplex, StratumId, face_column, face_distance_rows, restrict_rows
from .operator import KimuraOperator
from . import sde

__all__ = [
    "TransitionDecomposition",
    "HittingHistogram",
    "OccupationCurve",
    "decompose",
    "hitting_histogram",
    "aligned_hitting_edges",
    "corner_hit_probability",
    "transverse_occupation",
    "doubling_ratio",
]


def _domain_extent(dom) -> list[tuple[float, float]]:
    """Per-coordinate (lo, hi) ranges for histogram bins, x then y."""
    if isinstance(dom, Simplex):
        return [(0.0, 1.0)] * dom.N
    return [(0.0, dom.radius)] * dom.n + [(-dom.y_radius, dom.y_radius)] * dom.m


def _binomial_stderr(count: int, n: int) -> float:
    m = count / n
    return math.sqrt(m * (1.0 - m) / n)


# ---------------------------------------------------------------------------
# transition decomposition
# ---------------------------------------------------------------------------


@dataclass
class TransitionDecomposition:
    """Terminal-state decomposition of an ensemble at one time.

    ``masses`` maps each observed stratum (frozenset of original face ids;
    empty = interior) to ``(estimate, stderr)``; counts partition the sample,
    so the estimates sum to one exactly.  ``location_hists`` bins each
    stratum's terminal points over its free coordinates (``edges`` is one
    array per free coordinate, in original coordinate order).
    """

    t: float
    p0: Point
    n_paths: int
    masses: dict[StratumId, tuple[float, float]]
    counts: dict[StratumId, int]
    interior_edges: tuple[np.ndarray, ...]
    interior_hist: np.ndarray
    location_hists: dict[StratumId, tuple[tuple[np.ndarray, ...], np.ndarray]]

    def mass(self, stratum: StratumId | frozenset | set) -> tuple[float, float]:
        """(estimate, stderr) of a stratum, 0 ± 0 if never observed."""
        return self.masses.get(frozenset(stratum), (0.0, 0.0))


def _free_columns(L: KimuraOperator, stratum: StratumId) -> list[int]:
    """Original-coordinate columns not pinned by the stratum's faces.  The
    simplex slack face pins no single column (:func:`face_column` is None);
    its constraint shows up in the surviving coordinates' values."""
    pinned = {face_column(f, L.dom) for f in stratum}
    return [c for c in range(L.dim) if c not in pinned]


def decompose(
    L: KimuraOperator,
    p0: Point,
    t: float,
    n_paths: int,
    cfg: sde.SimConfig | None = None,
    bins: int = 20,
    workers: int = 1,
) -> TransitionDecomposition:
    """Estimate the transition decomposition at time ``t`` from ``n_paths``.

    Runs the hierarchical simulation to the horizon, groups paths by the set
    of faces they were absorbed on, and bins terminal locations.  Standard
    errors are binomial.
    """
    cfg_t = replace(cfg or sde.SimConfig(), T=t, stop_at_first_tangent_hit=False)
    ens = sde.simulate_ensemble(L, p0, cfg_t, n_paths, workers=workers)
    return decompose_ensemble(L, p0, t, ens, bins=bins)


def decompose_ensemble(
    L: KimuraOperator, p0: Point, t: float, ens: sde.EnsembleResult, bins: int = 20
) -> TransitionDecomposition:
    """Reduce an existing ensemble to a :class:`TransitionDecomposition`."""
    n = ens.n_paths
    extent = _domain_extent(L.dom)
    counts: dict[StratumId, int] = {}
    masses: dict[StratumId, tuple[float, float]] = {}
    loc_hists: dict[StratumId, tuple[tuple[np.ndarray, ...], np.ndarray]] = {}
    uniq, inv = np.unique(ens.strata_bits, return_inverse=True)
    interior_edges: tuple[np.ndarray, ...] = tuple(
        np.linspace(lo, hi, bins + 1) for lo, hi in extent
    )
    interior_hist = np.zeros([bins] * len(extent))
    for u_idx, bits in enumerate(uniq):
        stratum = sde._bits_to_stratum(int(bits))
        rows = np.flatnonzero(inv == u_idx)
        counts[stratum] = rows.size
        masses[stratum] = (rows.size / n, _binomial_stderr(rows.size, n))
        cols = _free_columns(L, stratum)
        if not cols:
            loc_hists[stratum] = ((), np.array(rows.size))
            continue
        edges = tuple(np.linspace(*extent[c], bins + 1) for c in cols)
        pts = ens.terminal_xy[np.ix_(rows, cols)]
        hist, _ = np.histogramdd(pts, bins=edges)
        loc_hists[stratum] = (edges, hist)
        if not stratum:
            interior_edges = edges
            interior_hist = hist
    return TransitionDecomposition(
        t=t,
        p0=p0,
        n_paths=n,
        masses=masses,
        counts=counts,
        interior_edges=interior_edges,
        interior_hist=interior_hist,
        location_hists=loc_hists,
    )


# ---------------------------------------------------------------------------
# hitting histogram (Monte Carlo caloric measure)
# ---------------------------------------------------------------------------


@dataclass
class HittingHistogram:
    """Joint histogram of (first-hit time, hit location) on one tangent face.

    ``counts`` has shape ``(len(time_edges)-1, *loc shape)``; paths that never
    hit, hit another face, or land outside the edges are not counted, so the
    total is at most ``n_paths``.  ``loc_edges`` holds one edge array per free
    coordinate of the face (empty for a zero-dimensional face).
    """

    face: int
    time_edges: np.ndarray
    loc_edges: tuple[np.ndarray, ...]
    counts: np.ndarray
    n_paths: int

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def time_marginal(self) -> np.ndarray:
        c = self.counts
        return c.reshape(c.shape[0], -1).sum(axis=1)

    def cumulative_mass(self, t: float) -> float:
        """Fraction of paths with first hit on this face at time ≤ t."""
        marg = self.time_marginal()
        full = self.time_edges[1:] <= t + 1e-15
        return float(marg[full].sum()) / self.n_paths


def _as_edges(spec, lo: float, hi: float) -> np.ndarray:
    edges = (
        np.linspace(lo, hi, int(spec) + 1)
        if np.isscalar(spec)
        else np.asarray(spec, dtype=float)
    )
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("bin edges must be strictly increasing, ≥ 2 values")
    return edges


def hitting_histogram(
    L: KimuraOperator,
    p0: Point,
    face: int,
    n_paths: int,
    time_bins=40,
    loc_bins=20,
    cfg: sde.SimConfig | None = None,
    workers: int = 1,
    ens: sde.EnsembleResult | None = None,
) -> HittingHistogram:
    """Bin the first absorptions landing on ``face``.

    ``time_bins`` / ``loc_bins`` are bin counts or explicit edge arrays
    (``loc_bins`` may be a tuple with one entry per free coordinate).  Passing
    a precomputed ``ens`` reuses its sample — estimates made from the same
    ensemble satisfy exact counting identities against each other — and bins
    time over its horizon ``[0, ens.T]``; a ``cfg`` given with it must agree.
    """
    if ens is not None and cfg is not None and cfg.T != ens.T:
        raise ValueError(f"cfg.T={cfg.T} disagrees with the ensemble's horizon T={ens.T}")
    cfg = cfg or sde.SimConfig(T=1.0)
    fc = L.classify_faces()
    if face not in fc.tangent:
        raise FaceNotTangent(f"face {face} is not tangent; no hitting law on it")
    if ens is None:
        run_cfg = replace(cfg, occupation_eps=(), stop_at_first_tangent_hit=True)
        ens = sde.simulate_ensemble(L, p0, run_cfg, n_paths, workers=workers)
    else:
        n_paths = ens.n_paths
    time_edges = _as_edges(time_bins, 0.0, ens.T)
    extent = _domain_extent(L.dom)
    free_cols = restrict_rows(np.arange(L.dim), face, L.dom).tolist()
    if np.isscalar(loc_bins) or isinstance(loc_bins, np.ndarray):
        loc_edges = tuple(_as_edges(loc_bins, *extent[c]) for c in free_cols)
    else:
        loc_edges = tuple(
            _as_edges(spec, *extent[c]) for spec, c in zip(loc_bins, free_cols)
        )
    sel = ens.first_hit_face == face
    t_hit = ens.first_hit_time[sel]
    sample = [t_hit] + [ens.first_hit_xy[sel, c] for c in free_cols]
    counts, _ = np.histogramdd(
        np.column_stack(sample), bins=(time_edges, *loc_edges)
    )
    return HittingHistogram(
        face=face,
        time_edges=time_edges,
        loc_edges=loc_edges,
        counts=counts,
        n_paths=n_paths,
    )


def aligned_hitting_edges(
    t: float,
    q: float,
    r_max: float,
    levels: int,
    T: float,
    loc_range: tuple[float, float] = (0.0, 1.0),
) -> tuple[np.ndarray, np.ndarray]:
    """(time_edges, loc_edges) aligned with parabolic windows around (t, q).

    Bin widths are ``(r_max/2^(levels-1))²`` in time and ``r_max/2^(levels-1)``
    in space, so all windows for ``r ∈ {r_max, r_max/2, …}`` and their doubles
    land exactly on bin edges.  Edges are anchored at ``(t, q)`` and extended
    to cover ``[0, T]`` × ``loc_range`` (up to partial cells at the ends).
    """
    if not (0 < r_max and levels >= 1):
        raise ValueError("need r_max > 0 and levels ≥ 1")
    if not (4 * r_max * r_max <= t <= T - 4 * r_max * r_max):
        raise ValueError("t must keep the doubled window inside (0, T)")
    w_t = (r_max / 2 ** (levels - 1)) ** 2
    w_x = r_max / 2 ** (levels - 1)
    k_lo = math.ceil(-t / w_t - 1e-12)
    k_hi = math.floor((T - t) / w_t + 1e-12)
    time_edges = t + np.arange(k_lo, k_hi + 1) * w_t
    lo, hi = loc_range
    j_lo = math.ceil((lo - q) / w_x - 1e-12)
    j_hi = math.floor((hi - q) / w_x + 1e-12)
    loc_edges = q + np.arange(j_lo, j_hi + 1) * w_x
    if time_edges.size < 2 or loc_edges.size < 2:
        raise ValueError("window parameters leave no bins in range")
    return time_edges, loc_edges


# ---------------------------------------------------------------------------
# corner-hit probability
# ---------------------------------------------------------------------------


def corner_hit_probability(
    L: KimuraOperator,
    p0: Point,
    faces: tuple[int, int],
    n_paths: int,
    cfg: sde.SimConfig | None = None,
    eps_corner=1e-3,
    workers: int = 1,
):
    """Fraction of paths whose first absorption lands within ``eps_corner``
    of the intersection of the two faces, with a 95% confidence interval.

    ``eps_corner`` may be a sequence — the same ensemble is then reduced once
    per value and a list of ``(eps, estimate, (lo, hi))`` is returned.  A zero
    count yields the rule-of-three interval ``(0, 3/n)``.

    An operator on a two-dimensional box with no ``y`` whose faces do not
    classify (:class:`NotClean`), such as the cross-fed-drift system
    ``b = (x₂, x₁)``, is run as it is given under a corner stop: a hit is
    ``x₁⁺ + x₂⁺ ≤ eps`` (:func:`sde._corner_run`).  One run serves the
    whole sequence: each path runs until it passes below the smallest
    ``eps`` and records its first passage below every value on the way.  A
    path is frozen as escaped at ``S ≥ 16``; the escape bound ``e^{−s}``
    behind that is proved for the cross-fed sum only, so for any other such
    operator the estimate is of a hit before escape at 16.  The box edge
    reflects, so a box with ``2·radius ≤ 16`` freezes no path.  Any other
    :class:`NotClean` is raised.  Either way the paths are split over
    ``workers`` processes without changing the result.

    Raises :class:`ValueError` unless ``faces`` are two distinct faces of
    ``L.dom``.
    """
    i, j = _corner_faces(L.dom, faces)
    cfg = cfg or sde.SimConfig(T=1.0)
    eps_list = (
        [float(eps_corner)] if np.isscalar(eps_corner) else [float(e) for e in eps_corner]
    )
    fc = sde._faces_or_corner_stop(L)
    if fc is None:
        parts = sde._run_chunked(sde._corner_run, n_paths, workers, L=L, p0=p0, cfg=cfg, eps_abs=eps_list)
        hit = np.concatenate([h for h, _, _ in parts])
        out = [(eps, *_prob_ci(int(h.sum()), n_paths)) for eps, h in zip(eps_list, hit.T)]
        return out if not np.isscalar(eps_corner) else out[0][1:]
    if i not in fc.tangent:
        raise FaceNotTangent(f"face {i} is not tangent")
    run_cfg = replace(cfg, occupation_eps=(), stop_at_first_tangent_hit=True)
    ens = sde.simulate_ensemble(L, p0, run_cfg, n_paths, workers=workers)
    hit_rows = ens.first_hit_face > 0
    d_i = face_distance_rows(ens.first_hit_xy[:, : L.n], i, L.dom)
    d_j = face_distance_rows(ens.first_hit_xy[:, : L.n], j, L.dom)
    out = []
    for eps in eps_list:
        near = hit_rows & (d_i < eps) & (d_j < eps)
        out.append((eps, *_prob_ci(int(near.sum()), n_paths)))
    return out if not np.isscalar(eps_corner) else out[0][1:]


def _corner_faces(dom, faces) -> tuple[int, int]:
    """``faces`` as a pair of ints; :class:`ValueError` unless they are two
    distinct faces of ``dom``."""
    faces = tuple(faces)
    if len(faces) != 2 or faces[0] == faces[1] or not set(faces) <= set(dom.face_ids):
        raise ValueError(f"faces {list(faces)} are not two distinct faces of {dom}")
    return faces


def _prob_ci(count: int, n: int) -> tuple[float, tuple[float, float]]:
    m = count / n
    if count == 0:
        return 0.0, (0.0, 3.0 / n)
    if count == n:
        return 1.0, (1.0 - 3.0 / n, 1.0)
    half = 1.96 * _binomial_stderr(count, n)
    return m, (max(0.0, m - half), min(1.0, m + half))


# ---------------------------------------------------------------------------
# transverse occupation
# ---------------------------------------------------------------------------


@dataclass
class OccupationCurve:
    """Mean time within ``eps`` of each tracked transverse face."""

    eps: np.ndarray
    faces: tuple[int, ...]
    mean: np.ndarray    # (n_faces, n_eps)
    stderr: np.ndarray  # (n_faces, n_eps)
    T: float
    n_paths: int

    def for_face(self, face: int) -> tuple[np.ndarray, np.ndarray]:
        row = self.faces.index(face)
        return self.mean[row], self.stderr[row]

    def loglog_slope(self, face: int) -> float | None:
        """Least-squares slope of log(mean occupation) against log(eps), or
        None where it is undefined: with fewer than two ``eps`` or a zero
        mean at some ``eps``."""
        m, _ = self.for_face(face)
        if self.eps.size < 2 or np.any(m <= 0):
            return None
        A = np.column_stack([np.log(self.eps), np.ones_like(self.eps)])
        coef, *_ = np.linalg.lstsq(A, np.log(m), rcond=None)
        return float(coef[0])

    def intercept_estimate(self, face: int) -> tuple[float, float] | None:
        """Extrapolated occupation at ``eps → 0`` and its standard error, or
        None with fewer than three ``eps``, one per fitted parameter.

        Fits ``occ(eps) = c·eps^s + floor`` (the occupation of a transverse
        collar follows a power law, so the additive floor is the ``eps → 0``
        limit); consistency with zero occupation means
        ``|floor| ≲ 3·stderr``.
        """
        from scipy.optimize import curve_fit

        if self.eps.size < 3:
            return None
        m, se = self.for_face(face)
        model = lambda e, c, s, d: c * e**s + d
        c0 = m[-1] / self.eps[-1] ** 0.5
        popt, pcov = curve_fit(
            model, self.eps, m,
            p0=(c0, 0.5, 0.0),
            sigma=np.maximum(se, 1e-12),
            absolute_sigma=True,
            bounds=([0.0, 0.05, -np.inf], [np.inf, 2.0, np.inf]),
            maxfev=10000,
        )
        return float(popt[2]), float(math.sqrt(max(pcov[2, 2], 0.0)))


def transverse_occupation(
    L: KimuraOperator,
    p0: Point,
    T: float,
    n_paths: int,
    eps_grid,
    cfg: sde.SimConfig | None = None,
    workers: int = 1,
) -> OccupationCurve:
    """Mean occupation time of ``eps``-collars of the transverse faces."""
    eps = np.asarray(sorted(float(e) for e in eps_grid))
    if eps.size == 0 or eps[0] <= 0:
        raise ValueError("eps_grid must be positive")
    run_cfg = replace(
        cfg or sde.SimConfig(), T=T, occupation_eps=tuple(eps),
        stop_at_first_tangent_hit=False,
    )
    ens = sde.simulate_ensemble(L, p0, run_cfg, n_paths, workers=workers)
    if ens.occupation is None or not ens.tracked_faces:
        raise KimuraError("operator has no transverse faces to track")
    mean = ens.occupation.mean(axis=0)
    stderr = ens.occupation.std(axis=0, ddof=1) / math.sqrt(n_paths)
    return OccupationCurve(
        eps=eps,
        faces=ens.tracked_faces,
        mean=mean,
        stderr=stderr,
        T=T,
        n_paths=n_paths,
    )


# ---------------------------------------------------------------------------
# doubling ratios on the caloric histogram
# ---------------------------------------------------------------------------


def doubling_ratio(
    hist: HittingHistogram,
    q,
    r_grid,
    t: float,
) -> list[tuple[float, float, float]]:
    """Caloric-mass ratios of doubled parabolic windows around ``(t, q)``.

    For each ``r`` the window is ``(t−r², t+r²) × Π(q_d−r, q_d+r)``; the
    ratio is ``mass(window at 2r) / mass(window at r)`` with a delta-method
    stderr that accounts for the windows being nested.  Window edges must lie
    on histogram bin edges (build the histogram with
    :func:`aligned_hitting_edges`).  Raises :class:`EmptyBin` when the inner
    window has no mass.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    if q.size != len(hist.loc_edges):
        raise ValueError(
            f"q has {q.size} coordinates, face has {len(hist.loc_edges)}"
        )
    n = hist.n_paths
    out = []
    for r in sorted((float(r) for r in r_grid), reverse=True):
        n2 = _window_count(hist, q, t, 2.0 * r)
        n1 = _window_count(hist, q, t, r)
        if n1 == 0:
            raise EmptyBin(f"no hits in the r={r:g} window around (t={t:g}, q={q})")
        m1, m2 = n1 / n, n2 / n
        ratio = m2 / m1
        v1 = m1 * (1 - m1) / n
        v2 = m2 * (1 - m2) / n
        cov = m1 * (1 - m2) / n
        var = v2 / m1**2 + (m2**2 / m1**4) * v1 - 2 * (m2 / m1**3) * cov
        out.append((r, ratio, math.sqrt(max(var, 0.0))))
    return sorted(out)


def _window_count(hist: HittingHistogram, q: np.ndarray, t: float, r: float) -> int:
    sl = [_edge_slice(hist.time_edges, t - r * r, t + r * r)]
    for d, edges in enumerate(hist.loc_edges):
        sl.append(_edge_slice(edges, q[d] - r, q[d] + r))
    return int(hist.counts[tuple(sl)].sum())


def _edge_slice(edges: np.ndarray, lo: float, hi: float) -> slice:
    """Bin-index slice for the window [lo, hi], clipped to the edge range;
    interior window boundaries must coincide with bin edges."""
    lo_c, hi_c = max(lo, edges[0]), min(hi, edges[-1])
    if hi_c <= lo_c:
        return slice(0, 0)
    scale = max(1.0, float(np.max(np.abs(edges))))
    i0 = int(np.argmin(np.abs(edges - lo_c)))
    i1 = int(np.argmin(np.abs(edges - hi_c)))
    if abs(edges[i0] - lo_c) > 1e-9 * scale or abs(edges[i1] - hi_c) > 1e-9 * scale:
        raise ValueError(
            f"window [{lo:g}, {hi:g}] is not aligned with the histogram bins; "
            "use aligned_hitting_edges to build the histogram"
        )
    return slice(i0, i1)
