"""Path simulation of corner-degenerate diffusions with face absorption.

The Euler–Maruyama scheme steps ``z′ = z + drift·dt + G·√dt·ξ`` with the
noise factor ``G Gᵀ = 2M`` from the operator, then enforces the domain:
corner coordinates clamp to 0, and on a simplex the slack constraint
``Σx ≤ 1`` is restored through the affine chart swap (the slack face behaves
exactly like a coordinate face).  What happens at a face depends on its
weight:

* **tangent face** (weight ≡ 0): the exact process reaches the face with
  positive probability and is absorbed; a clamp that lands a tangent
  coordinate on 0 is the discrete witness.  The path records a hit event,
  the operator restricts to the face, and the simulation continues inside
  the face — recursively, down to dimension-0 corners, which are frozen.
* **transverse face** (weight ≥ β₀ > 0): the exact process touches the face
  but spends zero time there and does not stick; clamping without absorption
  is the consistent discrete analogue.

Noise is counter-based: every normal variate is a pure function of
``(seed, path_index, step, slot)`` where slots are the *original* domain's
coordinates.  A restricted path keeps drawing from the slots of its surviving
coordinates at its own step counter, so each path's trajectory is identical
no matter how the ensemble is chunked across workers.

The outer edges of a box chart (``x_i = radius``, ``|y_l| = y_radius``) are
chart artifacts, not faces; paths reflect there.  Acceptance-scale runs are
parameterized so paths essentially never reach them.

The cross-fed-drift system (:func:`counterexample_ensemble`) is stepped by
full truncation instead (Lord, Koekkoek & van Dijk 2010): the raw state is
kept unclamped and its positive part ``x⁺`` enters only the drift and the
diffusion coefficient.  Neither of that system's faces absorbs, so a
per-coordinate clamp would add mass to ``S = X₁ + X₂`` at every touch and
push paths away from the corner.  The corner hit is tested on
``X₁⁺ + X₂⁺``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import _rng
from .errors import KimuraError, MaxStepsExceeded, NonFinite, NotClean
from .geometry import (
    CornerBox,
    DomainSpec,
    Point,
    Simplex,
    StratumId,
    embed_rows,
    restrict_domain,
    restrict_rows,
)
from .operator import FaceClassification, KimuraOperator, PolyField

__all__ = [
    "SimConfig",
    "HitEvent",
    "PathRecord",
    "EnsembleResult",
    "simulate",
    "simulate_ensemble",
    "counterexample_ensemble",
    "sum_process_ensemble",
]

_SLACK_TOL = 1e-12

# Guard on steps per path: T and dt come from outside input, and a run far
# past this would not finish.
_MAX_STEPS = 2_000_000_000


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulation run.

    ``dt`` — Euler step; ``T`` — horizon; ``seed`` — 64-bit stream seed;
    ``occupation_eps`` — thresholds for near-face occupation accounting
    (empty disables it);
    ``stop_at_first_tangent_hit`` — terminate paths at their first absorption
    (first-hit statistics) instead of continuing inside the face;
    ``allow_nonclean`` — simulate operators whose faces are not cleanly
    tangent/transverse (non-tangent faces then clamp without absorbing).
    """

    dt: float = 1e-4
    T: float = 1.0
    seed: int = 0
    occupation_eps: tuple[float, ...] = ()
    stop_at_first_tangent_hit: bool = False
    allow_nonclean: bool = False

    def __post_init__(self):
        if not (self.dt > 0 and self.T > 0 and self.dt <= self.T):
            raise ValueError(f"need 0 < dt ≤ T, got dt={self.dt}, T={self.T}")
        eps = tuple(float(e) for e in self.occupation_eps)
        if any(e <= 0 for e in eps) or list(eps) != sorted(eps):
            raise ValueError("occupation_eps must be positive and ascending")
        object.__setattr__(self, "occupation_eps", eps)

    @property
    def n_steps(self) -> int:
        return max(1, int(math.ceil(self.T / self.dt - 1e-9)))


@dataclass(frozen=True)
class HitEvent:
    """One tangent-face absorption.

    ``face`` and ``location`` are expressed in the domain the path lived in
    just before the hit (the original domain for the first event, the face
    for the second, and so on); ``depth`` counts the codimension reached.
    """

    time: float
    face: int
    location: Point
    depth: int


@dataclass(frozen=True)
class PathRecord:
    """Full record of one path.

    ``terminal = (time, point, stratum)`` gives the state at the horizon in
    *original-domain* coordinates; the stratum is the set of original faces
    the path was absorbed on (empty = still interior).  ``occupation`` maps
    each tracked transverse face to the time spent within each
    ``occupation_eps`` threshold of it.
    """

    events: tuple[HitEvent, ...]
    terminal: tuple[float, Point, StratumId]
    occupation: dict[int, np.ndarray]


@dataclass
class EnsembleResult:
    """Vectorized records of ``n_paths`` independent paths.

    ``terminal_xy`` rows are original-domain coordinates; ``strata_bits``
    encodes each path's absorption stratum as a bitmask (bit ``i-1`` = face
    ``i``).  ``first_hit_face`` is 0 for paths that never hit a tangent face;
    locations/times refer to the first absorption.  ``occupation`` has shape
    ``(n_paths, n_tracked_faces, n_eps)``.
    """

    n_paths: int
    dt: float
    T: float
    seed: int
    terminal_time: np.ndarray
    terminal_xy: np.ndarray
    strata_bits: np.ndarray
    first_hit_time: np.ndarray
    first_hit_face: np.ndarray
    first_hit_xy: np.ndarray
    occupation: np.ndarray | None
    tracked_faces: tuple[int, ...]
    occupation_eps: tuple[float, ...]
    classification: FaceClassification | None
    events: list | None = None

    def strata(self) -> list[StratumId]:
        return [_bits_to_stratum(int(b)) for b in self.strata_bits]


def _bits_to_stratum(bits: int) -> StratumId:
    out = []
    i = 1
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return frozenset(out)


def _simplex_clamp(x: np.ndarray) -> np.ndarray:
    """Restore ``Σx ≤ 1`` by sequential chart-swap clamps (in place).

    Returns the pre-clamp slack overshoot ``max(Σx − 1, 0)`` per row.
    """
    over = np.maximum(x.sum(axis=1) - 1.0, 0.0)
    for j in range(x.shape[1] - 1, -1, -1):
        s = x.sum(axis=1) - 1.0
        bad = s > 0
        if not bad.any():
            break
        adj = np.minimum(x[:, j], np.where(bad, s, 0.0))
        x[:, j] -= np.maximum(adj, 0.0)
    fired = over > 0
    if fired.any():  # land exactly on the slack face
        rest = x[fired, :-1].sum(axis=1)
        x[fired, -1] = np.maximum(1.0 - rest, 0.0)
    return over


# ---------------------------------------------------------------------------
# level bookkeeping for hierarchical absorption
# ---------------------------------------------------------------------------


@dataclass
class _Level:
    op: KimuraOperator
    stratum_bits: int
    x_slots: np.ndarray          # original noise slot per current x coord
    y_slots: np.ndarray
    face_orig: dict[int, int]    # current face id -> original face id
    tangent_coords: np.ndarray   # 0-based current coord columns that absorb
    slack_tangent: bool
    tracked: tuple[tuple[int, int], ...]  # (coord column | -1 for slack, occ row)
    parent: "_Level | None" = None
    via_face: int | None = None
    children: dict[int, "_Level"] = dc_field(default_factory=dict)

    @property
    def dom(self) -> DomainSpec:
        return self.op.dom

    @property
    def slots(self) -> np.ndarray:
        return np.concatenate([self.x_slots, self.y_slots])


def _classify_or_fallback(op: KimuraOperator, allow_nonclean: bool):
    """(tangent set, transverse set, classification?) for a level's operator."""
    try:
        fc = op.classify_faces()
        return set(fc.tangent), set(fc.transverse), fc
    except NotClean:
        if not allow_nonclean:
            raise
        tangent = set()
        for f in op.dom.face_ids:
            W = op.weight(f)
            _, vals = op._weight_samples(W, f, 256, 0)
            if float(np.max(np.abs(vals))) <= 1e-10:
                tangent.add(f)
        return tangent, set(), None


def _absorbing(op: KimuraOperator, tangent: set[int]) -> dict:
    """The ``tangent_coords`` and ``slack_tangent`` fields of a level of ``op``."""
    return dict(
        tangent_coords=np.array(sorted(f - 1 for f in tangent if f <= op.n), dtype=int),
        slack_tangent=isinstance(op.dom, Simplex) and (op.dom.N + 1) in tangent,
    )


def _build_root(
    L: KimuraOperator, cfg: SimConfig
) -> tuple[_Level, FaceClassification | None, set[int]]:
    tangent, transverse, fc = _classify_or_fallback(L, cfg.allow_nonclean)
    n = L.n
    lvl = _Level(
        op=L,
        stratum_bits=0,
        x_slots=np.arange(n, dtype=np.uint64),
        y_slots=np.arange(n, n + L.m, dtype=np.uint64),
        face_orig={f: f for f in L.dom.face_ids},
        tracked=(),
        **_absorbing(L, tangent),
    )
    return lvl, fc, transverse


def _child_level(level: _Level, face: int, cfg: SimConfig, tracked_rows: dict[int, int]) -> _Level:
    if face in level.children:
        return level.children[face]
    sub_op = level.op.restrict(face)
    _, fmap = restrict_domain(level.dom, face)
    face_orig = {new: level.face_orig[old] for new, old in fmap.items()}
    tangent, transverse, _ = _classify_or_fallback(sub_op, cfg.allow_nonclean)
    n_sub = sub_op.n
    tracked = tuple(
        ((f - 1 if f <= n_sub else -1), tracked_rows[face_orig[f]])
        for f in sorted(face_orig)
        if face_orig[f] in tracked_rows and f in transverse
    )
    child = _Level(
        op=sub_op,
        stratum_bits=level.stratum_bits | (1 << (level.face_orig[face] - 1)),
        x_slots=restrict_rows(level.x_slots, face, level.dom),
        y_slots=level.y_slots,
        face_orig=face_orig,
        tracked=tracked,
        parent=level,
        via_face=face,
        **_absorbing(sub_op, tangent),
    )
    level.children[face] = child
    return child


def _embed_to_root(level: _Level, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows of current-level coordinates → original-domain (x, y) rows."""
    lvl = level
    while lvl.parent is not None:
        x = embed_rows(x, lvl.via_face, lvl.parent.dom)
        lvl = lvl.parent
    return np.concatenate([x, y], axis=1)


# ---------------------------------------------------------------------------
# the cohort engine
# ---------------------------------------------------------------------------


class _Collector:
    def __init__(self, k: int, dim: int, cfg: SimConfig, tracked_ids: tuple[int, ...], collect_events: bool):
        self.term_time = np.full(k, np.nan)
        self.term_xy = np.full((k, dim), np.nan)
        self.term_bits = np.zeros(k, dtype=np.uint32)
        self.first_time = np.full(k, np.nan)
        self.first_face = np.zeros(k, dtype=np.int32)
        self.first_xy = np.full((k, dim), np.nan)
        n_eps = len(cfg.occupation_eps)
        self.tracked_rows = {f: i for i, f in enumerate(tracked_ids)}
        self.occ = (
            np.zeros((k, len(tracked_ids), n_eps)) if n_eps and tracked_ids else None
        )
        self.events: list[list[HitEvent]] | None = (
            [[] for _ in range(k)] if collect_events else None
        )


def _simulate_cohort(
    L: KimuraOperator,
    p0: Point,
    cfg: SimConfig,
    path_ids: np.ndarray,
    collect_events: bool,
) -> tuple[_Collector, tuple[int, ...], FaceClassification | None]:
    if cfg.n_steps > _MAX_STEPS:
        raise MaxStepsExceeded(f"T/dt = {cfg.n_steps} steps exceeds {_MAX_STEPS}")
    k = len(path_ids)
    dim = L.dim
    root, fc, transverse = _build_root(L, cfg)
    tracked_ids = tuple(sorted(transverse)) if cfg.occupation_eps else ()
    res = _Collector(k, dim, cfg, tracked_ids, collect_events=collect_events)
    root.tracked = tuple(
        ((f - 1 if f <= L.n else -1), res.tracked_rows[f]) for f in tracked_ids
    )
    x0 = np.tile(np.asarray(p0.x, dtype=float), (k, 1))
    y0 = np.tile(np.asarray(p0.y, dtype=float), (k, 1))
    queue: list[tuple[_Level, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = [
        (root, x0, y0, np.zeros(k, dtype=np.int64), np.arange(k))
    ]
    while queue:
        level, x, y, steps, rows = queue.pop()
        _advance(level, x, y, steps, rows, path_ids, res, cfg, dim, queue)
    if np.any(np.isnan(res.term_time)):
        raise KimuraError("internal: some paths finished without a terminal record")
    return res, tracked_ids, fc


def _advance(level, x, y, steps, rows, path_ids, res, cfg, stride, queue):
    dt, T = cfg.dt, cfg.T
    sqdt = math.sqrt(dt)
    n_total = cfg.n_steps
    nx = level.op.n
    is_simplex = isinstance(level.dom, Simplex)
    dombox = level.dom if isinstance(level.dom, CornerBox) else None
    slots = level.slots
    eps = np.asarray(cfg.occupation_eps)
    ov = np.zeros_like(x)
    sov = np.zeros(x.shape[0])
    check_ctr = 0
    child_buf: dict[int, list] = {}
    while x.shape[0]:
        # --- absorption detection on the current states -------------------
        hit_face = _detect_hits(level, x, ov, sov)
        hits = np.flatnonzero(hit_face)
        if hits.size:
            _route_hits(
                level, x, y, steps, rows, hit_face, hits, res, cfg, child_buf
            )
            keep = hit_face == 0
            x, y, steps, rows, ov, sov = (
                x[keep], y[keep], steps[keep], rows[keep], ov[keep], sov[keep]
            )
            if not x.shape[0]:
                break
        # --- horizon ------------------------------------------------------
        done = steps >= n_total
        if done.any():
            idx = np.flatnonzero(done)
            res.term_time[rows[idx]] = T
            res.term_xy[rows[idx]] = _embed_to_root(level, x[idx], y[idx])
            res.term_bits[rows[idx]] = level.stratum_bits
            keep = ~done
            x, y, steps, rows, ov, sov = (
                x[keep], y[keep], steps[keep], rows[keep], ov[keep], sov[keep]
            )
            if not x.shape[0]:
                break
        # --- one Euler step for everyone -----------------------------------
        xi = _rng.step_normals(cfg.seed, path_ids[rows], steps, slots, stride)
        drift = level.op.drift_batch(x, y)
        inc = level.op.noise_increment(x, y, xi)
        xn = x + drift[:, :nx] * dt + inc[:, :nx] * sqdt
        if y.shape[1]:
            y = y + drift[:, nx:] * dt + inc[:, nx:] * sqdt
        ov = np.maximum(-xn, 0.0)
        np.maximum(xn, 0.0, out=xn)
        if is_simplex:
            sov = _simplex_clamp(xn)
        elif dombox is not None:
            if nx:
                np.minimum(xn, np.maximum(2.0 * dombox.radius - xn, 0.0), out=xn)
            if y.shape[1]:
                ry = dombox.y_radius
                y = np.clip(np.where(y > ry, 2 * ry - y, np.where(y < -ry, -2 * ry - y, y)), -ry, ry)
        x = xn
        steps = steps + 1
        # --- occupation accounting -----------------------------------------
        if res.occ is not None and level.tracked:
            for col, row in level.tracked:
                v = (1.0 - x.sum(axis=1)) if col == -1 else x[:, col]
                for j, e in enumerate(eps):
                    close = v < e
                    if close.any():
                        res.occ[rows[close], row, j] += dt
        check_ctr += 1
        if check_ctr % 64 == 0 and not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            finite = np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
            bad = path_ids[rows[~finite]]
            raise NonFinite(f"non-finite state in paths {bad[:5].tolist()}...")
    for face, buf in child_buf.items():
        if not buf:
            continue
        child = buf[0][0]
        xs = np.vstack([b[1] for b in buf])
        ys = np.vstack([b[2] for b in buf])
        st = np.concatenate([b[3] for b in buf])
        rs = np.concatenate([b[4] for b in buf])
        queue.append((child, xs, ys, st, rs))


def _detect_hits(level, x, ov, sov) -> np.ndarray:
    """Per-path hit face id (0 = none): deepest-overshoot tangent face at 0."""
    k = x.shape[0]
    face = np.zeros(k, dtype=np.int64)
    if not level.tangent_coords.size and not level.slack_tangent:
        return face
    best = np.full(k, -np.inf)
    for ci in level.tangent_coords:
        on = x[:, ci] == 0.0
        if not on.any():
            continue
        sc = np.where(on, ov[:, ci], -np.inf)
        upd = sc > best
        face[upd] = ci + 1
        best[upd] = sc[upd]
    if level.slack_tangent:
        s = 1.0 - x.sum(axis=1)
        on = s <= _SLACK_TOL
        if on.any():
            sc = np.where(on, sov, -np.inf)
            upd = sc > best
            face[upd] = level.dom.N + 1
            best[upd] = sc[upd]
    return face


def _route_hits(level, x, y, steps, rows, hit_face, hits, res, cfg, child_buf):
    T, dt = cfg.T, cfg.dt
    collect = res.events is not None
    first = level.stratum_bits == 0
    for f in np.unique(hit_face[hits]):
        idx = hits[hit_face[hits] == f]
        f = int(f)
        xc = restrict_rows(x[idx], f, level.dom)
        xh = embed_rows(xc, f, level.dom)  # the hit point, exactly on the face
        yh = y[idx]
        t_hit = np.minimum(steps[idx] * dt, T)
        orig = level.face_orig[f]
        bits = level.stratum_bits | (1 << (orig - 1))
        if first:
            res.first_time[rows[idx]] = t_hit
            res.first_face[rows[idx]] = orig
            res.first_xy[rows[idx]] = _embed_to_root(level, xh, yh)
        if collect:
            depth = bin(level.stratum_bits).count("1") + 1
            for r, (row_i, t_i) in enumerate(zip(rows[idx], t_hit)):
                loc = Point(xh[r], yh[r])
                res.events[row_i].append(HitEvent(float(t_i), f, loc, depth))
        terminal_here = cfg.stop_at_first_tangent_hit or level.op._face_is_point(f)
        if terminal_here:
            emb = _embed_to_root(level, xh, yh)
            res.term_time[rows[idx]] = t_hit if cfg.stop_at_first_tangent_hit else T
            res.term_xy[rows[idx]] = emb
            res.term_bits[rows[idx]] = bits
            continue
        child = _child_level(level, f, cfg, res.tracked_rows)
        child_buf.setdefault(f, []).append((child, xc, yh, steps[idx].copy(), rows[idx].copy()))


# ---------------------------------------------------------------------------
# public drivers
# ---------------------------------------------------------------------------


def simulate(
    L: KimuraOperator, p0: Point, cfg: SimConfig, path_index: int = 0
) -> PathRecord:
    """Simulate one path and return its full record.

    The path is identified by ``(cfg.seed, path_index)``; running it alone or
    inside any ensemble yields the identical trajectory.
    """
    ens = simulate_ensemble(
        L, p0, cfg, n_paths=1, path_offset=path_index, collect_events=True
    )
    events = tuple(ens.events[0]) if ens.events else ()
    dimn = L.n
    term_pt = Point(ens.terminal_xy[0, :dimn], ens.terminal_xy[0, dimn:])
    terminal = (
        float(ens.terminal_time[0]),
        term_pt,
        _bits_to_stratum(int(ens.strata_bits[0])),
    )
    occupation: dict[int, np.ndarray] = {}
    if ens.occupation is not None:
        for row, fid in enumerate(ens.tracked_faces):
            occupation[fid] = ens.occupation[0, row].copy()
    return PathRecord(events=events, terminal=terminal, occupation=occupation)


def simulate_ensemble(
    L: KimuraOperator,
    p0: Point,
    cfg: SimConfig,
    n_paths: int,
    workers: int = 1,
    path_offset: int = 0,
    collect_events: bool = False,
) -> EnsembleResult:
    """Simulate ``n_paths`` independent paths (path indices
    ``path_offset .. path_offset+n_paths-1``) and collect vectorized records.

    With ``workers > 1`` the ensemble is split into contiguous path-index
    chunks on separate processes; results are bitwise identical to a
    single-worker run because the noise is counter-based.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be ≥ 1")
    parts = _run_chunked(
        _ensemble_chunk, n_paths, workers, path_offset,
        L=L, p0=p0, cfg=cfg, collect_events=collect_events,
    )
    return parts[0] if len(parts) == 1 else _merge_ensembles(parts)


def _run_chunked(fn, n_paths: int, workers: int, path_offset: int = 0, **kwargs) -> list:
    """``fn(n_paths=…, path_offset=…, **kwargs)`` over contiguous path-index
    chunks, one per worker process when ``workers > 1`` and every worker gets
    at least four paths, else one chunk in this process.  The noise is
    counter-based, so the results, taken in order, do not depend on the split.
    """
    if workers > 1 and n_paths >= 4 * workers:
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, n_paths, workers + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(fn, n_paths=int(b - a), path_offset=path_offset + int(a), **kwargs)
                for a, b in zip(bounds[:-1], bounds[1:])
                if b > a
            ]
            return [f.result() for f in futures]
    return [fn(n_paths=n_paths, path_offset=path_offset, **kwargs)]


def _ensemble_chunk(L, p0, cfg, n_paths, path_offset, collect_events) -> EnsembleResult:
    path_ids = np.arange(path_offset, path_offset + n_paths, dtype=np.uint64)
    res, tracked_ids, fc = _simulate_cohort(L, p0, cfg, path_ids, collect_events)
    return EnsembleResult(
        n_paths=n_paths,
        dt=cfg.dt,
        T=cfg.T,
        seed=cfg.seed,
        terminal_time=res.term_time,
        terminal_xy=res.term_xy,
        strata_bits=res.term_bits,
        first_hit_time=res.first_time,
        first_hit_face=res.first_face,
        first_hit_xy=res.first_xy,
        occupation=res.occ,
        tracked_faces=tracked_ids,
        occupation_eps=cfg.occupation_eps,
        classification=fc,
        events=res.events,
    )


def _merge_ensembles(parts: list[EnsembleResult]) -> EnsembleResult:
    first = parts[0]
    cat = np.concatenate
    events = None
    if first.events is not None:
        events = [ev for p in parts for ev in p.events]
    occ = None
    if first.occupation is not None:
        occ = cat([p.occupation for p in parts])
    return EnsembleResult(
        n_paths=sum(p.n_paths for p in parts),
        dt=first.dt,
        T=first.T,
        seed=first.seed,
        terminal_time=cat([p.terminal_time for p in parts]),
        terminal_xy=cat([p.terminal_xy for p in parts]),
        strata_bits=cat([p.strata_bits for p in parts]),
        first_hit_time=cat([p.first_hit_time for p in parts]),
        first_hit_face=cat([p.first_hit_face for p in parts]),
        first_hit_xy=cat([p.first_hit_xy for p in parts]),
        occupation=occ,
        tracked_faces=first.tracked_faces,
        occupation_eps=first.occupation_eps,
        classification=first.classification,
        events=events,
    )


# ---------------------------------------------------------------------------
# the cross-fed-drift counterexample
# ---------------------------------------------------------------------------


# Normals drawn per call by the cross-fed loop: a fixed cap on the noise
# buffer (2¹⁴ doubles, 128 KB).  A full ensemble still draws one step per
# call; the long tail of a few paths draws many, so the fixed cost of a call
# (tens of µs) no longer dominates its steps.
_BLOCK_NORMALS = 2**14

# The drift ``(x₂, x₁)`` of the cross-fed system, as a polynomial table.
_CROSS_FED_DRIFT = (((1.0, (0, 1), ()),), ((1.0, (1, 0), ()),))


def _is_cross_fed(L: KimuraOperator) -> bool:
    """Is ``L`` the system :func:`counterexample_ensemble` integrates?

    That is ``x₁∂₁² + x₂∂₂² + x₂∂₁ + x₁∂₂`` on a two-dimensional box: unit
    leading coefficients, the drift table ``(x₂, x₁)`` and no ``a``, ``c``,
    ``d`` or ``e`` terms.  The box radius does not enter the integrator.
    """
    return (
        isinstance(L.dom, CornerBox)
        and (L.n, L.m) == (2, 0)
        and all(isinstance(f, PolyField) for f in L.b)
        and tuple(f.terms for f in L.b) == _CROSS_FED_DRIFT
        and all(f.const == 1.0 for f in L.lead)
        and L._a_zero
    )


def counterexample_ensemble(
    p0: Point,
    cfg: SimConfig,
    n_paths: int,
    eps_abs: "float | Sequence[float]" = 1e-6,
    s_freeze: float = 16.0,
    path_offset: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate ``dX₁ = X₂ dt + √(2X₁) dW₁, dX₂ = X₁ dt + √(2X₂) dW₂``.

    Returns ``(hit, hit_time)``; a path counts as a corner hit for ``ε`` when
    ``S = X₁⁺ + X₂⁺`` drops to ``ε`` or below before the horizon, and
    ``hit_time`` is the end of the first step at which it does (NaN if it
    never does).  A scalar ``eps_abs`` gives arrays of shape ``(n_paths,)``.
    A sequence gives ``(n_paths, n_eps)`` arrays, one column per ε in the
    order given, from one ensemble: a path runs until ``S ≤ min(ε)`` or
    ``S ≥ s_freeze``, and its first passage below each ε is recorded on the
    way.  Up to that passage a path's trajectory does not depend on which ε
    are asked for, so every column equals the scalar run for its ε
    bit-for-bit.  A column with ``ε ≥ S₀`` is hit at time 0.

    The step is full truncation: ``z ← z + z⁺[::-1]·dt + √(2z⁺)·√dt·ξ`` with
    ``z`` left unclamped.  Neither face of this system absorbs, so clamping
    each coordinate to 0 would inflate ``S`` at every touch and bias the hit
    frequency down (by ≈0.011 at ``dt = 1e-4`` from ``(0.05, 0.05)``, against
    the exact ``e^{−0.1}``); with the positive part used only inside the
    coefficients a negative coordinate is pulled back by the other's drift
    and carries no noise.

    Once ``S ≥ s_freeze`` the path is frozen as escaped: for the sum process
    the probability of returning to 0 from level ``s`` is ``e^{−s}``
    (≈ 1.1e−7 at the default 16), far below the estimator tolerances, and the
    exponential outward drift makes further simulation pure cost.

    The noise is ``_rng.step_normals(seed, path, step, 2, 2)``, drawn a block
    of steps per call (:func:`_rng.block_normals`, at most ``2¹⁴`` normals);
    a path that stops inside a block leaves the rest of its rows unused.
    """
    if np.any(np.asarray(p0.x) < 0) or p0.n != 2:
        raise ValueError("p0 must have two non-negative corner coordinates")
    eps = np.atleast_1d(np.asarray(eps_abs, dtype=float))
    if eps.ndim != 1 or not eps.size or not np.all(eps > 0):
        raise ValueError("eps_abs must be a positive number or a non-empty sequence of them")
    dt, sqdt, n_total = cfg.dt, math.sqrt(cfg.dt), cfg.n_steps
    ids = np.arange(path_offset, path_offset + n_paths, dtype=np.uint64)
    hit = np.zeros((n_paths, eps.size), dtype=bool)
    hit_time = np.full((n_paths, eps.size), np.nan)
    at_start = eps >= float(np.sum(p0.x))
    hit[:, at_start] = True
    hit_time[:, at_start] = 0.0
    cols = np.flatnonzero(~at_start)
    if cols.size:
        e_min, e_max = eps[cols].min(), eps[cols].max()
        z = np.tile(np.asarray(p0.x, dtype=float), (n_paths, 1))
        alive = np.arange(n_paths)
        step_ctr = 0
        while alive.size and step_ctr < n_total:
            n_blk = max(1, min(n_total - step_ctr, _BLOCK_NORMALS // (2 * alive.size)))
            xi_blk = _rng.block_normals(cfg.seed, ids[alive], step_ctr, n_blk, 2, 2)
            pos = np.arange(alive.size)  # row in xi_blk of each live path
            for xi in xi_blk:
                if pos.size < len(xi):
                    xi = xi[pos]
                zp = np.maximum(z, 0.0)
                z = z + zp[:, ::-1] * dt + np.sqrt(2.0 * zp) * (sqdt * xi)
                step_ctr += 1
                if step_ctr % 64 == 0 and not np.all(np.isfinite(z)):
                    bad = ids[alive[~np.isfinite(z).all(axis=1)]]
                    raise NonFinite(f"non-finite cross-fed state in paths {bad[:5].tolist()}...")
                S = np.maximum(z, 0.0).sum(axis=1)
                low = np.flatnonzero(S <= e_max)
                if low.size:
                    t = min(step_ctr * dt, cfg.T)
                    for j in cols:
                        new = alive[low[S[low] <= eps[j]]]
                        new = new[~hit[new, j]]
                        hit[new, j] = True
                        hit_time[new, j] = t
                gone = (S <= e_min) | (S >= s_freeze)
                if gone.any():
                    keep = ~gone
                    z, alive, pos = z[keep], alive[keep], pos[keep]
                    if not alive.size:
                        break
    if np.ndim(eps_abs) == 0:
        return hit[:, 0], hit_time[:, 0]
    return hit, hit_time


def sum_process_ensemble(
    s0: float,
    cfg: SimConfig,
    n_paths: int,
    eps_abs: float = 1e-6,
    s_freeze: float = 16.0,
    path_offset: int = 0,
    seed_tag: int = 0x5DE1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Direct simulation of the sum process ``dS = S dt + √(2S) dW``.

    Returns ``(hit, hit_time, S_T)`` with the same absorption/freeze rules as
    :func:`counterexample_ensemble` (frozen paths report their frozen value in
    ``S_T``).  Used as a one-dimensional oracle for the two-dimensional
    system.
    """
    dt, sqdt, n_total = cfg.dt, math.sqrt(cfg.dt), cfg.n_steps
    ids = np.arange(path_offset, path_offset + n_paths, dtype=np.uint64)
    S = np.full(n_paths, float(s0))
    hit = np.zeros(n_paths, dtype=bool)
    hit_time = np.full(n_paths, np.nan)
    final = np.full(n_paths, np.nan)
    alive = np.arange(n_paths)
    step_ctr = 0
    seed = cfg.seed ^ seed_tag
    while alive.size and step_ctr < n_total:
        xi = _rng.step_normals(seed, ids[alive], step_ctr, 1, 1)[:, 0]
        S = np.maximum(S + S * dt + np.sqrt(2.0 * S) * (sqdt * xi), 0.0)
        step_ctr += 1
        hits = S <= eps_abs
        if hits.any():
            hit[alive[hits]] = True
            hit_time[alive[hits]] = min(step_ctr * dt, cfg.T)
            final[alive[hits]] = 0.0
        frozen = S >= s_freeze
        if frozen.any():
            final[alive[frozen]] = S[frozen]
        gone = hits | frozen
        if gone.any():
            keep = ~gone
            S, alive = S[keep], alive[keep]
    final[alive] = S
    return hit, hit_time, final
