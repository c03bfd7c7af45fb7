"""Counter-based noise streams: determinism, independence, distribution.

The stream addressed by explicit counters (``counter_uniforms``,
``counter_normals``, ``step_normals`` below) is the oracle that the engine's
keyed block draws are held to.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri

from kimura._rng import _GOLD, _key, _uniforms, next_normals, stream_keys


def counter_uniforms(seed, path, ctr):
    """Uniform(0,1) variates indexed by (seed, path, counter); ``path`` and
    ``ctr`` broadcast against each other, and uint64 arithmetic wraps
    (mod 2^64) by design."""
    ctr = np.asarray(ctr, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _uniforms(_key(seed, path) + ctr * _GOLD)


def counter_normals(seed, path, ctr):
    """Standard normal variates indexed by (seed, path, counter)."""
    u = counter_uniforms(seed, path, ctr)
    return ndtri(u, out=u)


def step_normals(seed, path, step, slots, slot_stride):
    """Noise block for one Euler step: shape ``(len(path), n_slots)``, the
    normals of counters ``step·slot_stride + slot`` (arguments as in
    ``stream_keys``)."""
    return ndtri(_uniforms(stream_keys(seed, path, step, slots, slot_stride)))


def test_uniforms_deterministic_and_in_range():
    paths = np.arange(1000, dtype=np.uint64)
    ctr = np.zeros(1000, dtype=np.uint64)
    u1 = counter_uniforms(7, paths, ctr)
    u2 = counter_uniforms(7, paths, ctr)
    assert np.array_equal(u1, u2)
    assert np.all((u1 > 0.0) & (u1 < 1.0))


def test_scalar_arguments_address_the_same_variate():
    """A scalar path and counter give the variate of the one-element arrays."""
    one = counter_uniforms(7, np.array([5], dtype=np.uint64), np.array([3], dtype=np.uint64))
    assert counter_uniforms(7, 5, 3) == one[0]
    assert counter_normals(7, np.uint64(5), 3) == counter_normals(7, [5], [3])[0]


def test_different_seed_changes_stream():
    paths = np.arange(100, dtype=np.uint64)
    ctr = np.zeros(100, dtype=np.uint64)
    assert not np.array_equal(
        counter_uniforms(1, paths, ctr), counter_uniforms(2, paths, ctr)
    )


def test_normals_moments():
    paths = np.arange(200_000, dtype=np.uint64)
    z = counter_normals(3, paths, np.zeros_like(paths))
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_step_normals_slot_layout_matches_flat_counters():
    """The per-step block must be the (path, step*stride + slot) stream."""
    paths = np.array([5, 9], dtype=np.uint64)
    blk = step_normals(11, paths, 4, 3, slot_stride=8)
    assert blk.shape == (2, 3)
    for j in range(3):
        flat = counter_normals(
            11, paths, np.full(2, 4 * 8 + j, dtype=np.uint64)
        )
        assert np.array_equal(blk[:, j], flat)


def test_block_normals_match_step_normals_step_by_step():
    """A block of steps is the per-step stream, also for the rows that are
    left after some paths drop out in the middle of the block."""
    paths = np.array([5, 9, 2, 700_001], dtype=np.uint64)
    keys = stream_keys(11, paths, 4, 2, slot_stride=3)
    blk = next_normals(keys, 6, slot_stride=3)
    assert blk.shape == (6, 4, 2)
    for k in range(6):
        assert np.array_equal(blk[k], step_normals(11, paths, 4 + k, 2, 3))
    pos = np.array([0, 2, 3])  # path 9 stops after the block's second step
    for k in range(2, 6):
        assert np.array_equal(blk[k][pos], step_normals(11, paths[pos], 4 + k, 2, 3))
    # the draw left the keys at the block's end
    assert np.array_equal(keys, stream_keys(11, paths, 10, 2, 3))


def test_block_normals_per_path_steps_and_slot_index():
    """Paths at different step counts on a restricted level's slots: each row
    is that path's one-step stream, also after rows drop mid-block, and the
    keys taken with the live rows go on drawing each path's own stream."""
    paths = np.array([5, 9, 2, 700_001, 41], dtype=np.uint64)
    steps = np.array([0, 17, 3, 2**31, 17])
    slots = np.array([0, 2], dtype=np.uint64)
    keys = stream_keys(11, paths, steps, slots, slot_stride=3)
    assert keys.shape == (5, 2) and keys.dtype == np.uint64
    blk = next_normals(keys, 7, slot_stride=3)
    assert blk.shape == (7, 5, 2)
    for k in range(7):
        assert np.array_equal(blk[k], step_normals(11, paths, steps + k, slots, 3))
    pos = np.array([1, 3])  # paths 5, 2 and 41 stop after the block's third step
    for k in range(3, 7):
        ref = step_normals(11, paths[pos], steps[pos] + k, slots, 3)
        assert np.array_equal(blk[k].take(pos, 0), ref)
    keys = keys.take(pos, 0)  # compacted with the state, the next block follows on
    blk = next_normals(keys, 4, slot_stride=3)
    for k in range(4):
        ref = step_normals(11, paths[pos], steps[pos] + 7 + k, slots, 3)
        assert np.array_equal(blk[k], ref)
    one = next_normals(keys, 1, slot_stride=3)
    assert np.array_equal(one[0], step_normals(11, paths[pos], steps[pos] + 11, slots, 3))


@given(
    seed=st.integers(0, 2**31 - 1),
    pa=st.integers(0, 2**20),
    pb=st.integers(0, 2**20),
)
@settings(max_examples=50, deadline=None)
def test_distinct_paths_give_distinct_draws(seed, pa, pb):
    if pa == pb:
        pb += 1
    paths = np.array([pa, pb], dtype=np.uint64)
    u = counter_uniforms(seed, paths, np.zeros(2, dtype=np.uint64))
    assert u[0] != u[1]
