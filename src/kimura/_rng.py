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


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _SH30)) * _MIX1
    z = (z ^ (z >> _SH27)) * _MIX2
    return z ^ (z >> _SH31)


def counter_uniforms(seed: int, path: np.ndarray, ctr: np.ndarray) -> np.ndarray:
    """Uniform(0,1) variates indexed by (seed, path, counter).

    ``path`` and ``ctr`` broadcast against each other; uint64 arithmetic wraps
    (mod 2^64) by design.
    """
    path = np.asarray(path, dtype=np.uint64)
    ctr = np.asarray(ctr, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = _mix((path + _GOLD) * _GOLD + np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
        z = _mix(z + ctr * _GOLD)
        z = _mix(z + _GOLD)
    return (z >> _SH11).astype(np.float64) * _U_SCALE + _U_SHIFT


def counter_normals(seed: int, path: np.ndarray, ctr: np.ndarray) -> np.ndarray:
    """Standard normal variates indexed by (seed, path, counter)."""
    return ndtri(counter_uniforms(seed, path, ctr))


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
    """
    path = np.asarray(path, dtype=np.uint64)
    if np.isscalar(slots) or np.ndim(slots) == 0:
        slots = np.arange(int(slots), dtype=np.uint64)
    else:
        slots = np.asarray(slots, dtype=np.uint64)
    step = np.asarray(step, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = step * np.uint64(slot_stride)
        ctr = base.reshape(-1, 1) + slots[None, :] if base.ndim else base + slots[None, :]
    return counter_normals(seed, path[:, None], ctr)


def block_normals(
    seed: int, path: np.ndarray, step: int, n_steps: int, n_slots: int, slot_stride: int
) -> np.ndarray:
    """Noise for steps ``step … step+n_steps−1`` in one call:
    shape ``(n_steps, len(path), n_slots)``.

    Entry ``[k]`` is bit-identical to ``step_normals(seed, path, step + k,
    n_slots, slot_stride)``: the counters are the same ``step·stride + slot``,
    so a loop may draw a block of steps ahead and drop the rows of paths that
    stop inside it without changing any other path's stream.
    """
    path = np.asarray(path, dtype=np.uint64)
    steps = np.arange(step, step + n_steps, dtype=np.uint64)
    slots = np.arange(n_slots, dtype=np.uint64)
    with np.errstate(over="ignore"):
        ctr = steps[:, None, None] * np.uint64(slot_stride) + slots[None, None, :]
    return counter_normals(seed, path[None, :, None], ctr)
