"""Path simulation of corner-degenerate diffusions with face absorption.

One Euler–Maruyama loop, :func:`_advance`, steps every path:
``z′ = z + drift(x⁺)·dt + G(x⁺)·(√dt·ξ)`` with the noise factor
``G Gᵀ = 2M`` from the operator, then enforces the domain: corner
coordinates clamp to 0, and on a simplex the slack constraint ``Σx ≤ 1`` is
restored through the affine chart swap (the slack face behaves exactly like
a coordinate face).  What happens at a face depends on its weight:

* **tangent face** (weight ≡ 0): the exact process reaches the face with
  positive probability and is absorbed; a clamp that lands a tangent
  coordinate on 0 is the discrete witness.  The path records a hit event,
  the operator restricts to the face, and the simulation continues inside
  the face — recursively, down to dimension-0 corners, which are frozen.
* **transverse face** (weight ≥ β₀ > 0): the exact process touches the face
  but spends zero time there and does not stick; clamping without absorption
  is the discrete analogue used here.

Noise is counter-based: every normal variate is a pure function of
``(seed, path_index, step, slot)`` where slots are the *original* domain's
coordinates.  A restricted path keeps drawing from the slots of its surviving
coordinates at its own step counter, so each path's trajectory is identical
no matter how the ensemble is chunked across workers.

Each call of the engine keys its paths' streams once
(:func:`~kimura._rng.stream_keys`: one ``(live paths, n_slots)`` array at
each path's step count), kept row-aligned with the state.  It draws the
noise a block of steps per call from it (:func:`~kimura._rng.next_normals`,
at most ``_BLOCK_NORMALS`` variates) and scales the block by ``√dt`` once:
``K = max(1, min(steps left, _BLOCK_NORMALS // (n_slots·live paths)))``
steps, after which the keys stand ``K`` steps further on.  A path that stops
inside a block (hit, horizon, freeze) leaves its remaining rows unused; the
live paths' rows are found through an index aligned with the state.
Paths restricted to a face are keyed afresh in their child level's call, so
no path joins a block midway.

A path's state is one row ``z = (x | y)`` from the Euler step to the
record, the layout of ``EnsembleResult.terminal_xy`` and of the noise slots:
the queue, the step, the hit buffers and the terminal and first-hit records
all carry that one array.  The ``x`` and ``y`` blocks are views of it, taken
only where the drift, the noise or the box reflection reads them, and a
level's rows reach original-domain rows through
:func:`~kimura.geometry.embed_rows` on the last axis, which leaves the ``y``
columns as they are.  :func:`_simulate_cohort` fills the
:class:`EnsembleResult` it returns, with occupation held in steps until the
run ends.

No path's output depends on its row, so the engine reorders rows freely:
it compacts by tail-fill (``_tail_fill``), counts occupation in steps
(``_count_seconds``) and routes hits once per level (``_route_hits``).
Each stratum a path runs in is one level (``_Level``): its operator, its
faces and noise slots in original terms, and its Euler step, built once,
when the level is queued.  One cohort runs per distinct step: the queued
levels whose keys are equal (sibling faces alike in coefficients and shape,
such as the edges of neutral Wright–Fisher) step together, each row keeping
its own level for its noise slots, its terminal record and its hits.  The
queue alone holds a queued cohort's arrays, and they are released once the
cohort's loop has joined them.  Every recorded state is checked for
non-finite values before a run returns, however short the run.

The outer edges of a box chart (``x_i = radius``, ``|y_l| = y_radius``) are
chart artifacts, not faces; paths reflect there, and a step with no row past
them skips the reflection.  Acceptance-scale runs are
parameterized so paths essentially never reach them.

:func:`simulate_ensemble` raises ``NotClean`` for an operator whose faces
do not classify cleanly; there is no opt-in.  Hits and occupation read each
face's distance from its column
(:func:`~kimura.geometry.column_distance_rows`), found once per level: the
column itself, or ``1 − Σx`` for the slack face, summed by columns
(:func:`~kimura.geometry.row_sums`).

An operator on a two-dimensional box with no ``y`` whose faces do not
classify runs through the same loop under a corner stop (``_CornerStop``) on
``S = X₁⁺ + X₂⁺``, with no face classified, absorbing or tracked, such as
the cross-fed-drift system of :func:`counterexample_ensemble`, whose corner
is reached although neither face absorbs.  :func:`_corner_run` is the one
door to it, for the ``corner`` estimate, the ``counterexample`` task, that
system and its one-dimensional oracle :func:`sum_process_ensemble`: it
splits the paths over workers and joins their parts in path order.  The
stop rides on its root level, which skips the coordinate clamp: the state is
stepped by full truncation (Lord, Koekkoek & van Dijk 2010), with only
``x⁺`` entering the drift and the noise, and recorded as ``x⁺``.  The box
edge reflects, so a box with ``2·radius ≤ s_freeze`` freezes no path.  The
stop records each path's first step below each threshold.  The escape bound
``e^{−s}`` behind ``s_freeze`` is proved for the cross-fed sum only; for any
other operator run this way, a hit means a hit before escape at ``s_freeze``.
"""

from __future__ import annotations

import math
import pickle
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import _rng
from .errors import KimuraError, MaxStepsExceeded, NonFinite, NotClean
from .geometry import (
    CornerBox,
    Point,
    Simplex,
    StratumId,
    classify_point,
    column_distance_rows,
    embed_rows,
    face_column,
    restrict_domain,
    restrict_rows,
    row_sums,
)
from .operator import FaceClassification, KimuraOperator, PolyField, _EulerUpdate, remark_counterexample

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

# The slack clamp lands ``Σx`` on 1 only up to rounding, so a point counts as
# on the slack face within this distance; a coordinate clamp lands exactly on 0.
_SLACK_TOL = 1e-12

# Guard on steps per path: T and dt come from outside input, and a run far
# past this would not finish.
_MAX_STEPS = 2_000_000_000

# The corner stop's defaults: its ε, and the sum ``S`` at which a path is
# frozen as escaped.
_EPS_ABS = 1e-6
_S_FREEZE = 16.0

# Seed offset of the one-dimensional oracle ``sum_process_ensemble``: its
# stream is ``cfg.seed ^ _SUM_SEED_TAG``, apart from the two-dimensional run's.
_SUM_SEED_TAG = 0x5DE1

# Normals drawn per call by the engine: a fixed cap on the noise buffer (2¹⁴
# doubles, 128 KB).  A full ensemble still draws one step per call; the long
# tail of a few paths draws many, so the fixed cost of a call (tens of µs) no
# longer dominates its steps.
_BLOCK_NORMALS = 2**14

# Occupation step counts are turned into seconds through a table of running
# sums built this many counts at a time.
_OCC_CHUNK = 2**16


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulation run.

    ``dt`` — Euler step; ``T`` — horizon; ``seed`` — 64-bit stream seed;
    ``occupation_eps`` — thresholds for near-face occupation accounting
    (empty disables it);
    ``stop_at_first_tangent_hit`` — terminate paths at their first absorption
    (first-hit statistics) instead of continuing inside the face.
    """

    dt: float = 1e-4
    T: float = 1.0
    seed: int = 0
    occupation_eps: tuple[float, ...] = ()
    stop_at_first_tangent_hit: bool = False

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
    classification: FaceClassification
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
    """Restore ``Σx ≤ 1`` by sequential chart-swap clamps (in place), on the
    rows past the slack face only.

    Returns the pre-clamp slack overshoot ``max(Σx − 1, 0)`` per row.
    """
    over = np.maximum(row_sums(x) - 1.0, 0.0)
    fired = (over > 0).nonzero()[0]
    if not fired.size:
        return over
    xf = x[fired]
    for j in range(x.shape[1] - 1, -1, -1):
        s = row_sums(xf) - 1.0
        bad = s > 0
        if not bad.any():
            break
        adj = np.minimum(xf[:, j], np.where(bad, s, 0.0))
        xf[:, j] -= np.maximum(adj, 0.0)
    xf[:, -1] = np.maximum(1.0 - row_sums(xf[:, :-1]), 0.0)  # land exactly on the slack face
    x[fired] = xf
    return over


# ---------------------------------------------------------------------------
# absorption levels
# ---------------------------------------------------------------------------


class _Level:
    """One absorption level: the stratum its paths run in, and its Euler
    step at one ``dt``, built once, when the level is queued.

    The constructor builds the root level of ``op``, each face its own
    original face; :meth:`child` builds the level inside a tangent face.
    ``face_orig`` maps the level's faces to the original faces, ``slots``
    gives each coordinate's original noise slot (x first) and
    ``stratum_bits`` the original faces its paths were absorbed on.  The
    tangent faces absorb, held as ``(id, column, tol)``: a path lies on one
    when its distance from that column
    (:func:`~kimura.geometry.column_distance_rows`) is at most ``tol``.  The
    transverse faces whose original face has a row in ``tracked_rows`` are
    tracked, held as ``(id, column, occupation row)``; every child keeps its
    parent's ``tracked_rows``.

    ``update`` is the operator's :class:`~kimura.operator._EulerUpdate`
    (drift and noise at ``x⁺``, which :meth:`step` hands it).  :meth:`step`
    adds the domain step: the clamp of every coordinate to 0, then box
    reflection, or the simplex chart-swap clamp, which on ``Simplex(1)``
    is ``min(x, 1)`` because the swap lands exactly on 1.  The overshoots
    that break ties between faces a path lies on at once are kept only where
    two tangent faces meet, so not on ``Simplex(1)``.  A root level under a
    corner ``stop`` (:class:`_CornerStop`) has no face classified and skips
    the clamp: its rows keep ``x`` below 0, and ``x⁺`` is formed for the
    update (full truncation).

    ``key`` holds all that the step, the hit test and the occupation count
    read: the update's key, the domain, the tangent faces, ``ties``, the
    tracked faces and the stop.  Levels with equal keys step the same rows
    to the same bits, so they run as one cohort.
    """

    def __init__(self, op: KimuraOperator, fc: FaceClassification, dt: float, tracked_rows: dict[int, int],
                 stop: "_CornerStop | None" = None, parent: "_Level | None" = None, via_face: int | None = None):
        dom = self.dom = op.dom
        self.op, self.parent, self.via_face = op, parent, via_face
        self.n, self.m, self.tracked_rows = op.n, op.m, tracked_rows
        if parent is None:
            self.face_orig = {f: f for f in dom.face_ids}
            self.stratum_bits, self.slots = 0, np.arange(op.dim, dtype=np.uint64)
        else:  # parent's child through via_face
            _, fmap = restrict_domain(parent.dom, via_face)
            self.face_orig = {new: parent.face_orig[old] for new, old in fmap.items()}
            self.stratum_bits = parent.stratum_bits | (1 << (parent.face_orig[via_face] - 1))
            self.slots = restrict_rows(parent.slots, via_face, parent.dom)  # a simplex has no y slots
        self.update, self.stop = _EulerUpdate(op, dt), stop
        self.n_faces = len(dom.face_ids)
        self.tangent = tuple(
            (f, face_column(f, dom), _SLACK_TOL if f > op.n else 0.0) for f in sorted(fc.tangent)
        )
        self.tracked = tuple(
            (f, face_column(f, dom), tracked_rows[self.face_orig[f]])
            for f in sorted(fc.transverse)
            if self.face_orig[f] in tracked_rows
        )
        self.ties = len(self.tangent) > 1 and op.dim > 1
        self.key = (self.update.key, dom, self.tangent, self.ties, self.tracked, stop)

    def child(self, face: int) -> "_Level":
        """The level inside the tangent face ``face``, at this level's
        ``dt`` and tracked rows."""
        op = self.op.restrict(face)
        return _Level(op, op.classify_faces(), self.update.dt, self.tracked_rows, parent=self, via_face=face)

    def to_root(self, z: np.ndarray) -> np.ndarray:
        """Rows ``(x | y)`` of this level's coordinates → original-domain
        rows (``z`` itself at the root)."""
        lvl = self
        while lvl.parent is not None:
            z = embed_rows(z, lvl.via_face, lvl.parent.dom)
            lvl = lvl.parent
        return z

    def step(self, z, eta):
        """``(z′, ov)`` one step on from rows ``z = (x | y)`` with the scaled
        normals ``η``: ``ov`` row ``f − 1`` is each path's overshoot past face
        ``f``, or None when no tie needs it.  A box reflects only when some
        row is past its outer edge: for ``x ≤ r``, ``2r − x ≥ r ≥ x``."""
        dom, nx = self.dom, self.n
        x = z[:, :nx] if self.m else z
        z = self.update(z, x if self.stop is None else np.maximum(x, 0.0), eta)
        x = z[:, :nx] if self.m else z  # a view: the domain step writes z
        ov = None
        if self.ties:
            ov = np.empty((self.n_faces, z.shape[0]))
            np.maximum(-x.T, 0.0, out=ov[:nx])
        if self.stop is None:
            np.maximum(x, 0.0, out=x)
        if isinstance(dom, Simplex):  # the slack face N+1 takes the last row
            if nx == 1:
                np.minimum(x, 1.0, out=x)
            else:
                over = _simplex_clamp(x)
                if ov is not None:
                    ov[nx] = over
        else:
            r, ry = dom.radius, dom.y_radius
            if self.m and z.max() <= min(r, ry) and z.min() >= -ry:
                return z, ov  # every row inside, x and y in one check
            if nx and r != math.inf and not x.max() <= r:
                np.minimum(x, np.maximum(2.0 * r - x, 0.0), out=x)
            if self.m and ry != math.inf:
                y = z[:, nx:]
                if not (y.max() <= ry and y.min() >= -ry):
                    y[...] = np.clip(np.where(y > ry, 2 * ry - y, np.where(y < -ry, -2 * ry - y, y)), -ry, ry)
        return z, ov

    def hits(self, z, ov) -> np.ndarray | None:
        """Per-path hit face id (0 = none), or None when no path lies on a
        tangent face: of the tangent faces a path lies on, the one it
        overshot deepest (``ov`` None counts as no overshoot), the first in
        face order on a tie."""
        face = best = None
        for f, col, tol in self.tangent:
            on = (column_distance_rows(z, col) <= tol).nonzero()[0]
            if not on.size:
                continue
            if face is None:
                face = np.zeros(z.shape[0], dtype=np.int64)
            if not self.ties:  # no path lies on two tangent faces
                face[on] = f
                continue
            if best is None:
                best = np.full(z.shape[0], -np.inf)
            sc = np.zeros(on.size) if ov is None else ov[f - 1, on]
            deeper = sc > best[on]
            face[on[deeper]] = f
            best[on[deeper]] = sc[deeper]
        return face


# ---------------------------------------------------------------------------
# the cohort engine
# ---------------------------------------------------------------------------


def _simulate_cohort(
    L: KimuraOperator,
    p0: Point,
    cfg: SimConfig,
    path_ids: np.ndarray,
    collect_events: bool,
    stop: "_CornerStop | None" = None,
) -> EnsembleResult:
    """Run the paths ``path_ids`` from ``p0``; under a corner ``stop`` no
    face is classified, absorbs or is tracked.  A ``p0`` of the wrong
    dimension or outside the domain raises :class:`PointOutsideDomain`."""
    classify_point(p0, L.dom)
    if cfg.n_steps > _MAX_STEPS:
        raise MaxStepsExceeded(f"T/dt = {cfg.n_steps} steps exceeds {_MAX_STEPS}")
    k, dim, n_eps = len(path_ids), L.dim, len(cfg.occupation_eps)
    fc = L.classify_faces() if stop is None else FaceClassification(frozenset(), frozenset(), {}, math.inf)
    tracked_ids = tuple(sorted(fc.transverse)) if n_eps else ()
    res = EnsembleResult(
        n_paths=k,
        dt=cfg.dt,
        T=cfg.T,
        seed=cfg.seed,
        terminal_time=np.full(k, np.nan),
        terminal_xy=np.full((k, dim), np.nan),
        strata_bits=np.zeros(k, dtype=np.uint32),
        first_hit_time=np.full(k, np.nan),
        first_hit_face=np.zeros(k, dtype=np.int32),
        first_hit_xy=np.full((k, dim), np.nan),
        # in steps, over all of a path's levels, until the run ends
        occupation=np.zeros((k, len(tracked_ids), n_eps), dtype=np.int64) if tracked_ids else None,
        tracked_faces=tracked_ids,
        occupation_eps=cfg.occupation_eps,
        classification=fc,
        events=[[] for _ in range(k)] if collect_events else None,
    )
    root = _Level(L, fc, cfg.dt, {f: i for i, f in enumerate(tracked_ids)}, stop)
    # a clamping root starts from x⁺: classify_point admits x a hair below 0
    z0 = np.concatenate([p0.x if stop is not None else np.maximum(p0.x, 0.0), p0.y])
    # the queue alone holds each cohort's arrays, so _advance can release them
    queue: list[tuple[_Level, np.ndarray, np.ndarray, np.ndarray]] = [
        (root, np.tile(z0, (k, 1)), np.zeros(k, dtype=np.int64), np.arange(k))
    ]
    while queue:  # the last entry, with every queued entry whose level steps alike
        key = queue[-1][0].key
        group = [e for e in queue if e[0].key == key]
        queue[:] = [e for e in queue if e[0].key != key]
        _advance(group, path_ids, res, cfg, dim, queue)
    if np.any(np.isnan(res.terminal_time)):
        raise KimuraError("internal: some paths finished without a terminal record")
    hit = res.first_hit_face[:, None] > 0
    _check_finite(np.concatenate([res.terminal_xy, np.where(hit, res.first_hit_xy, 0.0)], axis=1), path_ids)
    if res.occupation is not None:
        res.occupation = _count_seconds(res.occupation, cfg.dt)
    return res


def _count_seconds(counts: np.ndarray, dt: float) -> np.ndarray:
    """Each count ``k`` as ``k`` sequential additions ``s += dt`` from 0.0,
    the float an accumulator of ``dt`` per step would hold.

    ``np.cumsum`` adds in order.  The table is built ``_OCC_CHUNK`` counts at
    a time, each chunk starting from the last one's running sum, so its memory
    does not grow with the step count.
    """
    out = np.empty(counts.shape)
    carry = 0.0
    for lo in range(0, int(counts.max(initial=0)) + 1, _OCC_CHUNK):
        run = np.full(_OCC_CHUNK + 1, dt)
        run[0] = carry
        run = np.cumsum(run)  # run[j]: lo + j additions
        here = (counts >= lo) & (counts < lo + _OCC_CHUNK)
        out[here] = run[counts[here] - lo]
        carry = run[-1]
    return out


def _advance(group, path_ids, res, cfg, stride, queue):
    """Step the queue entries ``group``, each ``(level, z, steps, rows)``
    with levels of one key, as one cohort, until each path hits a tangent
    face, meets the level's corner stop or reaches the horizon.  ``steps`` holds
    each path's step count on entry; every live path takes the same steps
    here, so the count is that plus ``ran``.  The entries' arrays are joined
    and ``group`` is emptied, so the cohort's state is held once; the joined
    arrays are compacted in place.

    Each row keeps its level: ``lv`` holds each row's index in ``group``.
    Noise keys are built per level, and terminal records and hits are made
    per level."""
    dt, T = cfg.dt, cfg.T
    n_total = cfg.n_steps
    levels = [e[0] for e in group]
    level = levels[0]  # every level of the group steps alike
    keys = np.concatenate(
        [_rng.stream_keys(cfg.seed, path_ids[r], s, lvl.slots, stride) for lvl, _, s, r in group]
    )
    z, steps, rows = (np.concatenate(parts) for parts in zip(*(e[1:] for e in group)))
    lv = np.repeat(np.arange(len(group)), [e[3].size for e in group])
    group.clear()
    eps = np.asarray(cfg.occupation_eps)[:, None]
    occ_rows = np.array([row for *_, row in level.tracked], dtype=np.intp)
    # steps each live path ended within each threshold of each tracked face
    cnt = np.zeros((occ_rows.size, eps.size, z.shape[0]), dtype=np.int32)
    ov = None  # each path's overshoot past each face in the last step
    eta_blk, k_blk = (), 0  # the scaled noise block and the next step's row in it
    pos = np.arange(z.shape[0])  # row in eta_blk of each live path
    ran = 0
    s_max = int(steps.max(initial=0))  # at least the live paths' largest entry count
    # copies of (z, steps, rows, face, lv) of the paths that hit, in hit
    # order: each path hits at most once per level
    hits = (np.empty_like(z), np.empty_like(steps), np.empty_like(rows),
            np.empty(z.shape[0], dtype=np.int64), np.empty_like(lv))
    n_hit = 0
    while z.shape[0]:
        # --- absorption detection on the current states -------------------
        hit_face = level.hits(z, ov)
        gone = None  # the rows that leave the level at this state
        if hit_face is not None:
            gone = hit_face != 0
            h = gone.nonzero()[0]
            recs = (z[h], steps[h] + ran, rows[h], hit_face[h], lv[h])
            for buf, rec in zip(hits, recs):
                buf[n_hit : n_hit + h.size] = rec
            n_hit += h.size
        if level.stop is not None:  # its level has no tangent face, so no hit
            left = level.stop.passed(z, steps, ran, rows)
            if np.count_nonzero(left):
                for lvl, i in _per_level(levels, lv, left.nonzero()[0]):
                    _set_terminal(res, lvl, np.minimum((steps[i] + ran) * dt, T), z, rows, i)
                gone = left
        # --- horizon ------------------------------------------------------
        horizon = s_max + ran >= n_total
        if horizon:
            done = steps + ran >= n_total
            if gone is not None:
                done &= ~gone
            if np.count_nonzero(done):
                for lvl, i in _per_level(levels, lv, done.nonzero()[0]):
                    _set_terminal(res, lvl, T, z, rows, i)
                gone = done if gone is None else gone | done
        if gone is not None:
            out = gone.nonzero()[0]
            if cnt.size:
                res.occupation[rows[out, None], occ_rows] += cnt[..., out].transpose(2, 0, 1)
            cnt, z, steps, rows, pos, keys, lv = _tail_fill(out, cnt, z, steps, rows, pos, keys, lv)
            if not z.shape[0]:
                break
        if horizon:
            s_max = int(steps.max())
        # --- one Euler step for everyone -----------------------------------
        if k_blk == len(eta_blk):
            n_blk = max(
                1,
                min(n_total - int(steps.min()) - ran, _BLOCK_NORMALS // (level.slots.size * z.shape[0])),
            )
            eta_blk = _rng.next_normals(keys, n_blk, stride)
            eta_blk *= math.sqrt(dt)
            k_blk, pos = 0, np.arange(z.shape[0])
        eta = eta_blk[k_blk]
        k_blk += 1
        if pos.size < eta.shape[0]:
            eta = eta.take(pos, 0)
        z, ov = level.step(z, eta)
        ran += 1
        # --- occupation: count the steps ending near each tracked face -----
        for i, (_, col, _) in enumerate(level.tracked):  # a copied column compares faster
            cnt[i] += np.ascontiguousarray(column_distance_rows(z, col)) < eps
    if n_hit:
        bufs = [buf[:n_hit] for buf in hits]
        for lvl, i in _per_level(levels, bufs[4], np.arange(n_hit)):
            _route_hits(lvl, *(buf[i] for buf in bufs[:4]), res, cfg, queue)


def _per_level(levels, lv, idx):
    """The rows ``idx`` of a group split by level: ``(level, the rows of idx
    on it)`` for each level among them, ``lv`` holding each row's level."""
    g = lv[idx]
    parts = ((level, idx[g == k]) for k, level in enumerate(levels))
    return [(level, i) for level, i in parts if i.size]


def _set_terminal(res, level, t, z, rows, i) -> None:
    """Paths ``rows[i]`` end at time ``t`` on ``level`` in the rows
    ``z[i]``, kept as ``(x⁺ | y)``; ``z`` is left as it is."""
    z = z[i]  # a copy, so x is clamped in place
    np.maximum(z[:, : level.n], 0.0, out=z[:, : level.n])
    r = rows[i]
    res.terminal_time[r] = t
    res.terminal_xy[r] = level.to_root(z)
    res.strata_bits[r] = level.stratum_bits


def _check_finite(rows: np.ndarray, ids: np.ndarray) -> None:
    """Raise :class:`NonFinite` naming the paths ``ids`` of any non-finite
    row of recorded states, before a result is returned."""
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise NonFinite(f"non-finite state in paths {ids[bad][:5].tolist()}...")


def _tail_fill(out: np.ndarray, cnt: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
    """Drop the rows ``out`` (ascending) of ``cnt``, whose rows lie on its last
    axis, and of each array, in place: the last rows that stay move into the
    holes below ``m = rows − len(out)``, and each array is cut to its first
    ``m`` rows.  This moves O(len(out)) rows, where a ``take`` copies every
    row; the rows change order, which no path's result depends on."""
    n = cnt.shape[-1]
    m = n - out.size
    j = int(np.searchsorted(out, m))
    if j:  # holes below m, filled from the rows at or above m that stay
        stay = np.ones(n - m, dtype=bool)
        stay[out[j:] - m] = False
        holes, fill = out[:j], stay.nonzero()[0] + m
        for a in arrays:
            a[holes] = a[fill]
        if cnt.size:
            cnt[..., holes] = cnt[..., fill]
    return [cnt[..., :m], *(a[:m] for a in arrays)]


def _route_hits(level, z, steps, rows, face, res, cfg, queue):
    """Record the hits of one level's cohort, once its loop has ended: rows
    ``z`` where each path lay when it hit ``face``, at its step count
    ``steps``.  Paths that go on inside a face join that face's child cohort
    on ``queue``."""
    T, dt = cfg.T, cfg.dt
    collect = res.events is not None
    first = level.stratum_bits == 0
    for f in np.unique(face):
        idx = (face == f).nonzero()[0]
        f = int(f)
        zc = restrict_rows(z[idx], f, level.dom)
        zh = embed_rows(zc, f, level.dom)  # the hit point, exactly on the face
        t_hit = np.minimum(steps[idx] * dt, T)
        orig = level.face_orig[f]
        bits = level.stratum_bits | (1 << (orig - 1))
        terminal_here = cfg.stop_at_first_tangent_hit or level.op._face_is_point(f)
        if first or terminal_here:
            emb = level.to_root(zh)
        if first:
            res.first_hit_time[rows[idx]] = t_hit
            res.first_hit_face[rows[idx]] = orig
            res.first_hit_xy[rows[idx]] = emb
        if collect:
            depth, n = bin(level.stratum_bits).count("1") + 1, level.n
            for r, (row_i, t_i) in enumerate(zip(rows[idx], t_hit)):
                loc = Point(zh[r, :n], zh[r, n:])
                res.events[row_i].append(HitEvent(float(t_i), f, loc, depth))
        if terminal_here:
            res.terminal_time[rows[idx]] = t_hit if cfg.stop_at_first_tangent_hit else T
            res.terminal_xy[rows[idx]] = emb
            res.strata_bits[rows[idx]] = bits
            continue
        queue.append((level.child(f), zc, steps[idx], rows[idx]))


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
    ens = simulate_ensemble(L, p0, cfg, n_paths=1, path_offset=path_index, collect_events=True)
    xy = ens.terminal_xy[0]
    stratum = _bits_to_stratum(int(ens.strata_bits[0]))
    terminal = (float(ens.terminal_time[0]), Point(xy[: L.n], xy[L.n :]), stratum)
    occupation = {fid: ens.occupation[0, row].copy() for row, fid in enumerate(ens.tracked_faces)}
    return PathRecord(events=tuple(ens.events[0]), terminal=terminal, occupation=occupation)


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
        _simulate_cohort, n_paths, workers, path_offset,
        L=L, p0=p0, cfg=cfg, collect_events=collect_events,
    )
    return parts[0] if len(parts) == 1 else _merge_ensembles(parts)


def _run_chunked(fn, n_paths: int, workers: int, path_offset: int = 0, **kwargs) -> list:
    """``fn(path_ids=…, **kwargs)`` over contiguous chunks of the path indices
    ``path_offset .. path_offset+n_paths-1``, one per worker process when
    ``workers > 1`` and every worker gets at least four paths, else one chunk
    in this process.  The noise is counter-based, so the results, taken in
    order, do not depend on the split.
    """
    ids = np.arange(path_offset, path_offset + n_paths, dtype=np.uint64)
    if workers > 1 and n_paths >= 4 * workers:
        from concurrent.futures import ProcessPoolExecutor

        try:  # fail before any process starts
            pickle.dumps((fn, kwargs))
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            msg = "build coefficients from module-level functions, or use workers=1"
            raise KimuraError(f"cannot send the run to worker processes ({exc}); {msg}") from exc
        bounds = np.linspace(0, n_paths, workers + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = (ids[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a)
            futures = [pool.submit(fn, path_ids=chunk, **kwargs) for chunk in chunks]
            return [f.result() for f in futures]
    return [fn(path_ids=ids, **kwargs)]


def _merge_ensembles(parts: list[EnsembleResult]) -> EnsembleResult:
    """Chunk results joined in path order; the run's settings are the first
    chunk's."""
    first = parts[0]
    per_path = (
        "terminal_time", "terminal_xy", "strata_bits", "first_hit_time", "first_hit_face", "first_hit_xy"
    )
    if first.occupation is not None:
        per_path += ("occupation",)
    return replace(
        first,
        n_paths=sum(p.n_paths for p in parts),
        events=None if first.events is None else [ev for p in parts for ev in p.events],
        **{f: np.concatenate([getattr(p, f) for p in parts]) for f in per_path},
    )


# ---------------------------------------------------------------------------
# the corner stop: operators whose faces do not classify
# ---------------------------------------------------------------------------


def _faces_or_corner_stop(L: KimuraOperator) -> FaceClassification | None:
    """``L.classify_faces()``, or None when ``L`` runs under the corner stop:
    an operator on a two-dimensional ``CornerBox`` with no ``y`` whose faces
    do not classify.  Any other :class:`NotClean` is raised."""
    try:
        return L.classify_faces()
    except NotClean:
        if isinstance(L.dom, CornerBox) and (L.n, L.m) == (2, 0):
            return None
        raise


class _CornerStop:
    """A stop on the corner sum ``S = Σx⁺`` of ``k`` paths: ``below`` holds
    each path's first step at or below each of ``eps``, or −1, and a path
    leaves at ``S ≤ min eps`` or ``S ≥ s_freeze``."""

    def __init__(self, eps: np.ndarray, s_freeze: float, k: int):
        self.eps, self.s_freeze = eps, s_freeze
        self.lo, self.hi = eps.min(), eps.max()
        self.below = np.full((k, eps.size), -1, dtype=np.int64)

    def passed(self, z, steps, ran, rows) -> np.ndarray:
        """Record the first passages of the rows ``z`` of paths ``rows`` (at
        step ``steps + ran``) in ``below``; return the rows that leave.  The
        rows are all ``x``: a corner stop runs on a domain with ``m = 0``."""
        S = row_sums(np.maximum(z, 0.0))
        low = (S <= self.hi).nonzero()[0]
        if low.size:
            for j, e in enumerate(self.eps):
                new = low[S[low] <= e]
                new = new[self.below[rows[new], j] < 0]
                self.below[rows[new], j] = steps[new] + ran
        return (S <= self.lo) | (S >= self.s_freeze)


def counterexample_ensemble(
    p0: Point,
    cfg: SimConfig,
    n_paths: int,
    eps_abs: "float | Sequence[float]" = _EPS_ABS,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate ``dX₁ = X₂ dt + √(2X₁) dW₁, dX₂ = X₁ dt + √(2X₂) dW₂``.

    Returns ``(hit, hit_time)``; a path counts as a corner hit for ``ε`` when
    ``S = X₁⁺ + X₂⁺`` is at ``ε`` or below at the start or at the end of a
    step before the horizon, and ``hit_time`` is the first such time (NaN if
    there is none).  A scalar ``eps_abs`` gives arrays of shape
    ``(n_paths,)``; a sequence gives ``(n_paths, n_eps)``, one column per ε,
    from one ensemble whose paths run until ``S ≤ min(ε)`` or ``S ≥ 16``.
    Each column equals the scalar run for its ε bit-for-bit, and a column
    with ``ε ≥ S₀`` is hit at time 0.

    The run is :func:`_corner_run` on ``remark_counterexample`` over an
    unbounded box, so no path meets a box edge.  Both coordinates are stepped
    by full truncation, ``z ← z + z⁺[::-1]·dt + √(2z⁺)·(√dt·ξ)`` with ``z``
    left raw; a per-coordinate clamp would bias the hit frequency down (by
    ≈0.011 at ``dt = 1e-4`` from ``(0.05, 0.05)``).

    A path with ``S ≥ 16`` is frozen as escaped (at once, if it starts
    there): the sum process returns to 0 from level ``s`` with probability
    ``e^{−s}`` (≈ 1.1e−7 at 16), far below the estimator tolerances.
    """
    if np.any(np.asarray(p0.x) < 0) or p0.n != 2:
        raise ValueError("p0 must have two non-negative corner coordinates")
    L = remark_counterexample(math.inf)
    hit, hit_time, _ = _corner_run(L, p0, cfg, n_paths, eps_abs)
    if np.ndim(eps_abs) == 0:
        return hit[:, 0], hit_time[:, 0]
    return hit, hit_time


def sum_process_ensemble(
    s0: float,
    cfg: SimConfig,
    n_paths: int,
    eps_abs: float = _EPS_ABS,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Direct simulation of the sum process ``dS = S dt + √(2S) dW``.

    Returns ``(hit, hit_time, S_T)`` by the rules and the engine of
    :func:`counterexample_ensemble`, run on ``x∂² + x∂`` over an unbounded
    box with the seed ``cfg.seed ^ 0x5DE1``: ``S_T`` is ``S⁺`` where the path
    stopped or at the horizon, and 0 on hit paths.  Used as a
    one-dimensional oracle for the two-dimensional system.
    """
    L = KimuraOperator(dom=CornerBox(1, 0, math.inf), b=(PolyField(((1.0, (1,), ()),), 1),))
    cfg = replace(cfg, seed=cfg.seed ^ _SUM_SEED_TAG)
    hit, hit_time, s_end = _corner_run(L, Point([s0]), cfg, n_paths, eps_abs)
    hit, hit_time = hit[:, 0], hit_time[:, 0]
    s_end[hit] = 0.0
    return hit, hit_time, s_end


def _corner_run(L, p0, cfg, n_paths, eps_abs=_EPS_ABS, s_freeze=_S_FREEZE, workers=1):
    """The engine on ``L`` under a corner stop, the one door to it:
    ``(hit, hit_time)`` of shape ``(n_paths, n_eps)``, and ``S⁺`` where each
    path stopped, by the rules of :func:`counterexample_ensemble`, with the
    paths split over ``workers`` processes and joined in path order.  ``L``
    has no ``y`` coordinates and no face is classified; the edge of a bounded
    box reflects, so on a box with ``2·radius ≤ s_freeze`` no path is frozen.
    The escape bound ``e^{−s}`` holds for the cross-fed sum alone: for any
    other operator a hit means a hit before escape at ``s_freeze``."""
    assert L.m == 0, "a corner stop sums every column of the state"
    eps = np.atleast_1d(np.asarray(eps_abs, dtype=float))
    if eps.ndim != 1 or not eps.size or not np.all(eps > 0):
        raise ValueError("eps_abs must be a positive number or a non-empty sequence of them")
    parts = _run_chunked(_corner_chunk, n_paths, workers, L=L, p0=p0, cfg=cfg, eps=eps, s_freeze=s_freeze)
    return tuple(np.concatenate(a) for a in zip(*parts))


def _corner_chunk(L, p0, cfg, path_ids, eps, s_freeze):
    stop = _CornerStop(eps, float(s_freeze), path_ids.size)
    res = _simulate_cohort(L, p0, cfg, path_ids, False, stop)
    hit = stop.below >= 0
    hit_time = np.where(hit, np.minimum(stop.below * cfg.dt, cfg.T), np.nan)
    return hit, hit_time, res.terminal_xy.sum(axis=1)
