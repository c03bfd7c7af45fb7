"""Counter-based noise streams for reproducible path simulation.

Every normal variate consumed by the simulation engine is a pure function of
``(seed, path_index, step, slot)``.  This gives the strongest reproducibility
contract available: the trajectory of path ``i`` under seed ``s`` is identical
no matter how many paths run alongside it, how they are chunked across
workers, or in which order chunks execute.

The generator is counter-based in the sense of Salmon et al. 2011 (*Parallel
random numbers: as easy as 1, 2, 3*): a per-stream key plus a counter, put
through a bijective hash.  Here the key of a path is one round of the
Stafford mix13 finalizer over ``(seed, path)``; the counter of a variate is
``step·stride + slot``, where ``stride`` is the slot count of the original
domain.  The hash adds ``counter·GOLD`` (the 64-bit golden ratio) to the key,
runs two more mix13 rounds, maps the top 53 bits to a uniform in (0,1) and
then to a normal through the inverse normal CDF.  The mix13 finalizer has
full avalanche, which is what a counter-based Monte Carlo stream needs.
Statistical sanity (moments, tail, cross-stream correlation) is enforced by
tests rather than assumed.

The key and the counter split cleanly because uint64 arithmetic wraps mod
2⁶⁴: ``key + (c + k·stride)·GOLD = (key + c·GOLD) + k·stride·GOLD``.  So the
engine keys each path's stream once (:func:`stream_keys`, an array of
``key + (step·stride + slot)·GOLD`` per path and slot), compacts that array
with its state, and draws the next steps from it (:func:`next_normals`),
which adds ``k·stride·GOLD`` per step ahead and advances the array past the
steps it drew.  :func:`_key` and :func:`_uniforms` are the one copy of the
mix chain.  The tests address the same stream by explicit counters, through
those two, as the oracle of the engine's draws.
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
    """The mix13 finalizer, in place on ``z``; ``t`` is scratch of its shape.
    Use the result: a numpy scalar ``z`` cannot change in place."""
    np.right_shift(z, _SH30, out=t)
    z ^= t
    z *= _MIX1
    np.right_shift(z, _SH27, out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, _SH31, out=t)
    z ^= t
    return z


def _key(seed: int, path: np.ndarray) -> np.ndarray:
    """The stream key of each path: the first mix round over (seed, path)."""
    path = np.asarray(path, dtype=np.uint64)
    with np.errstate(over="ignore"):
        key = (path + _GOLD) * _GOLD + np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        return _mix(key, np.empty_like(key))


def _uniforms(z: np.ndarray) -> np.ndarray:
    """Uniform(0,1) variates of keyed counters ``key + counter·GOLD``: the
    last two mix rounds, in place on ``z``, and the uniform map into a second
    buffer of its shape."""
    t = np.empty_like(z)
    z = _mix(z, t)
    z += _GOLD
    z = _mix(z, t)
    z >>= _SH11
    u = t.view(np.float64)
    np.multiply(z, _U_SCALE, out=u)
    u += _U_SHIFT
    return u


def _slot_index(slots: "int | np.ndarray") -> np.ndarray:
    """An int ``d`` means slots ``0..d-1``; an array names the slots."""
    if np.ndim(slots) == 0:
        return np.arange(int(slots), dtype=np.uint64)
    return np.asarray(slots, dtype=np.uint64)


def stream_keys(
    seed: int,
    path: np.ndarray,
    step: "int | np.ndarray",
    slots: "int | np.ndarray",
    slot_stride: int,
) -> np.ndarray:
    """Each path's keyed counters at ``step``: shape ``(len(path), n_slots)``,
    entry ``[i, j]`` is ``key(path_i) + (step_i·slot_stride + slot_j)·GOLD``.

    ``slot_stride`` is the noise-slot stride per step (the dimension of the
    *original* domain), fixed for the whole run.  ``slots`` names the slots to
    draw — an int ``d`` means slots ``0..d-1``; an index array selects the
    slots of the surviving original coordinates, so a path restricted to a
    face keeps consuming exactly its own stream.  ``step`` is one step for all
    paths or a per-path array.  The rows may be taken, in any order, with the
    state they belong to; :func:`next_normals` draws from them.
    """
    key = _key(seed, path)
    with np.errstate(over="ignore"):
        ctr = np.asarray(step, dtype=np.uint64).reshape(-1, 1) * np.uint64(slot_stride)
        return key[:, None] + (ctr + _slot_index(slots)) * _GOLD


def next_normals(keys: np.ndarray, n_steps: int, slot_stride: int) -> np.ndarray:
    """Noise for the next ``n_steps`` steps of the streams in ``keys`` (from
    :func:`stream_keys`): shape ``(n_steps, *keys.shape)``.  Advances
    ``keys`` in place past those steps.

    Row ``[k, i]`` is the normals of row ``i`` at its ``step + k``, so a loop
    may draw a block of steps ahead, with its paths at different step counts,
    and drop the rows of paths that stop inside it without changing any other
    path's stream.  The counters are laid out flat per step: adding the step
    offset over a short inner slot axis would cost several times more.
    """
    with np.errstate(over="ignore"):
        per_step = np.uint64(slot_stride) * _GOLD
        z = keys.reshape(1, -1) + (np.arange(n_steps, dtype=np.uint64) * per_step)[:, None]
        keys += np.uint64(n_steps) * per_step
    u = _uniforms(z)
    return ndtri(u, out=u).reshape((n_steps,) + keys.shape)

