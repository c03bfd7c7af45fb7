"""Counter-based noise streams for reproducible path simulation.

Every normal variate consumed by the simulation engine is a pure function of
``(seed, path_index, step, slot)``.  This gives the strongest reproducibility
contract available: the trajectory of path ``i`` under seed ``s`` is identical
no matter how many paths run alongside it, how they are chunked across
workers, or in which order chunks execute.

The generator is a splitmix-style 64-bit finalizer chain (three rounds of the
Stafford mix13 finalizer over the combined key), mapped to uniforms in (0,1)
and then to normals through the inverse normal CDF.  The mix13 finalizer has
full avalanche, which is what a counter-based Monte Carlo stream needs; this
is the same construction philosophy as Philox/Threefry-style generators.
Statistical sanity (moments, tail, cross-stream correlation) is enforced by
tests rather than assumed.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SH30 = np.uint64(30)
_SH27 = np.uint64(27)
_SH31 = np.uint64(31)
_SH11 = np.uint64(11)

# Uniforms live in the open interval: (h >> 11) spans [0, 2^53), scaled and
# shifted by 2^-54 so ndtri never sees 0 or 1.
_U_SCALE = 2.0**-53
_U_SHIFT = 2.0**-54


def _mix(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The mix13 finalizer, in place on ``z``; ``t`` is scratch of its shape."""
    np.right_shift(z, _SH30, out=t)
    z ^= t
    z *= _MIX1
    np.right_shift(z, _SH27, out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, _SH31, out=t)
    z ^= t
    return z


def counter_uniforms(seed: int, path: np.ndarray, ctr: np.ndarray) -> np.ndarray:
    """Uniform(0,1) variates indexed by (seed, path, counter).

    ``path`` and ``ctr`` broadcast against each other; uint64 arithmetic wraps
    (mod 2^64) by design.  The hash runs in place on one buffer of the result's
    shape, and the uniforms are written into a second one.
    """
    path = np.asarray(path, dtype=np.uint64)
    ctr = np.asarray(ctr, dtype=np.uint64)
    with np.errstate(over="ignore"):
        key = (path + _GOLD) * _GOLD + np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        key = _mix(key, np.empty_like(key))
        z = key + ctr * _GOLD
        t = np.empty_like(z)
        _mix(z, t)
        z += _GOLD
        _mix(z, t)
    z >>= _SH11
    u = t.view(np.float64)
    np.multiply(z, _U_SCALE, out=u)
    u += _U_SHIFT
    return u


def counter_normals(seed: int, path: np.ndarray, ctr: np.ndarray) -> np.ndarray:
    """Standard normal variates indexed by (seed, path, counter)."""
    u = counter_uniforms(seed, path, ctr)
    return ndtri(u, out=u)


def _slot_index(slots: "int | np.ndarray") -> np.ndarray:
    """An int ``d`` means slots ``0..d-1``; an array names the slots."""
    if np.ndim(slots) == 0:
        return np.arange(int(slots), dtype=np.uint64)
    return np.asarray(slots, dtype=np.uint64)


def step_normals(
    seed: int,
    path: np.ndarray,
    step: "int | np.ndarray",
    slots: "int | np.ndarray",
    slot_stride: int,
) -> np.ndarray:
    """Noise block for one Euler step: shape ``(len(path), n_slots)``.

    ``slot_stride`` is the noise-slot stride per step (the dimension of the
    *original* domain), fixed for the whole run.  ``slots`` names the slots to
    draw — an int ``d`` means slots ``0..d-1``; an index array selects the
    slots of the surviving original coordinates, so a path restricted to a
    face keeps consuming exactly its own stream.  ``step`` may be a per-path
    array (paths at different absolute step counts draw independently).

    This is the one-step definition of the stream; the engines draw it a
    block of steps at a time through :func:`block_normals`.
    """
    path = np.asarray(path, dtype=np.uint64)
    slots = _slot_index(slots)
    step = np.asarray(step, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = step * np.uint64(slot_stride)
        ctr = base.reshape(-1, 1) + slots[None, :] if base.ndim else base + slots[None, :]
    return counter_normals(seed, path[:, None], ctr)


def block_normals(
    seed: int,
    path: np.ndarray,
    step: "int | np.ndarray",
    n_steps: int,
    slots: "int | np.ndarray",
    slot_stride: int,
) -> np.ndarray:
    """Noise for ``n_steps`` consecutive steps of every path in one call:
    shape ``(n_steps, len(path), n_slots)``.

    ``step`` is the first step, one for all paths or a per-path array, and
    ``slots`` is an int ``d`` (slots ``0..d-1``) or an index array, as in
    :func:`step_normals`.  Row ``[k, i]`` is bit-identical to
    ``step_normals(seed, path[i], step_i + k, slots, slot_stride)``: the
    counters are the same ``(step_i + k)·stride + slot``.  So a loop may draw
    a block of steps ahead, with its paths at different step counts, and
    drop the rows of paths that stop inside it without changing any other
    path's stream.
    """
    path = np.asarray(path, dtype=np.uint64)
    slots = _slot_index(slots)
    n, s = path.size, slots.size
    stride = np.uint64(slot_stride)
    with np.errstate(over="ignore"):
        # the counters laid out flat per step, path-major; step k adds k·stride
        first = np.broadcast_to(np.asarray(step, dtype=np.uint64) * stride, (n,))
        ctr0 = (first[:, None] + slots[None, :]).reshape(1, n * s)
        ctr = ctr0 + (np.arange(n_steps, dtype=np.uint64) * stride)[:, None]
    return counter_normals(seed, np.repeat(path, s)[None, :], ctr).reshape(n_steps, n, s)
