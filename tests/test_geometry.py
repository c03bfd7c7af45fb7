"""Corner-domain geometry: strata, restriction/embedding, weighted density."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kimura.errors import BoundaryEvaluation, NotOnFace, PointOutsideDomain
from kimura.geometry import (
    CornerBox,
    Point,
    Simplex,
    classify_point,
    embed_point,
    embed_rows,
    face_distance_rows,
    restrict_domain,
    restrict_point,
    restrict_rows,
    row_sums,
    weighted_density,
)


# ---------------------------------------------------------------------------
# Point
# ---------------------------------------------------------------------------


def test_point_is_frozen_and_copies():
    x = np.array([0.1, 0.2])
    p = Point(x)
    x[0] = 9.0
    assert p.x[0] == 0.1
    with pytest.raises(ValueError):
        p.x[0] = 5.0


def test_point_scalar_promotes_and_y_defaults_empty():
    p = Point(0.5)
    assert p.x.shape == (1,)
    assert p.y.shape == (0,)
    assert p.n == 1 and p.m == 0


# ---------------------------------------------------------------------------
# domains and strata
# ---------------------------------------------------------------------------


def test_cornerbox_validation():
    with pytest.raises(ValueError):
        CornerBox(0, 0)
    with pytest.raises(ValueError):
        CornerBox(1, 0, radius=-1.0)
    box = CornerBox(2, 1, radius=2.0)
    assert box.face_ids == (1, 2)
    assert box.y_radius == 2.0


def test_simplex_faces_include_slack():
    s = Simplex(2)
    assert s.face_ids == (1, 2, 3)
    assert s.n == 2 and s.m == 0


def test_classify_point_interior_and_faces():
    box = CornerBox(2, 0)
    assert classify_point(Point([0.3, 0.4]), box) == frozenset()
    assert classify_point(Point([0.0, 0.4]), box) == frozenset({1})
    assert classify_point(Point([0.0, 0.0]), box) == frozenset({1, 2})


def test_classify_point_simplex_slack_face():
    s = Simplex(1)
    assert classify_point(Point([1.0]), s) == frozenset({2})
    assert classify_point(Point([0.0]), s) == frozenset({1})
    assert classify_point(Point([0.4]), s) == frozenset()


def test_classify_point_outside_raises():
    with pytest.raises(PointOutsideDomain):
        classify_point(Point([-0.5]), CornerBox(1, 0))
    with pytest.raises(PointOutsideDomain):
        classify_point(Point([0.7, 0.7]), Simplex(2))


# ---------------------------------------------------------------------------
# restriction and embedding
# ---------------------------------------------------------------------------


def test_restrict_point_round_trip():
    box = CornerBox(3, 1)
    p = Point([0.2, 0.0, 0.5], [0.1])
    q, sub = restrict_point(p, 2, box)
    assert q.x.tolist() == [0.2, 0.5]
    assert sub.n == 2 and sub.m == 1
    back = embed_point(q, 2, box)
    assert np.array_equal(back.x, p.x) and np.array_equal(back.y, p.y)


def test_restrict_point_not_on_face():
    with pytest.raises(NotOnFace):
        restrict_point(Point([0.2, 0.3]), 1, CornerBox(2, 0))


def test_restrict_domain_simplex_slack():
    sub, relabel = restrict_domain(Simplex(2), 3)
    assert isinstance(sub, Simplex) and sub.N == 1
    assert set(relabel.values()) <= set(Simplex(2).face_ids)


def test_restrict_point_slack_face():
    p = Point([0.25, 0.75])
    q, sub = restrict_point(p, 3, Simplex(2))
    assert q.n == 1
    assert embed_point(q, 3, Simplex(2)).x.tolist() == [0.25, 0.75]


@pytest.mark.parametrize("dom, face", [(Simplex(3), 2), (Simplex(3), 4), (CornerBox(3, 0), 3)])
def test_row_restriction_matches_the_point_maps(dom, face):
    """``restrict_rows``/``embed_rows`` are the batched point maps: on face
    points they agree with ``restrict_point``/``embed_point`` row by row and
    ``embed_rows`` inverts ``restrict_rows``.  On a uint64 noise-slot array
    (as a restricted level's slots) it keeps the dtype and names the columns
    that survive."""
    rng = np.random.default_rng(face)
    x = rng.dirichlet(np.ones(4), size=50)[:, :3]
    if face <= 3:
        x[:, face - 1] = 0.0
    else:
        x[:, -1] = 1.0 - x[:, :-1].sum(axis=1)
    xr = restrict_rows(x, face, dom)
    assert np.array_equal(embed_rows(xr, face, dom), x)
    for row, rrow in zip(x, xr):
        q, _ = restrict_point(Point(row), face, dom)
        assert np.array_equal(q.x, rrow)
        assert np.array_equal(embed_point(q, face, dom).x, row)
    slots = restrict_rows(np.arange(3, dtype=np.uint64), face, dom)
    assert slots.dtype == np.uint64 and slots.shape == (2,)
    assert np.array_equal(x[:, slots.astype(np.intp)], xr)


@pytest.mark.parametrize("dom", [Simplex(2), Simplex(3), CornerBox(2, 1)])
def test_face_distance_rows_agrees_with_classify_point(dom):
    """A point lies on a face, by ``classify_point``, exactly when its
    ``face_distance_rows`` entry is within the tolerance."""
    rng = np.random.default_rng(dom.n)
    x = rng.dirichlet(np.ones(dom.n + 1), size=40)[:, : dom.n]
    x[:10, 0] = 0.0                                       # on face 1
    x[10:20, -1] = 0.0                                    # on face n
    x[20:30, -1] = 1.0 - x[20:30, :-1].sum(axis=1)        # on the slack face
    tol = 1e-10
    for face in dom.face_ids:
        d = face_distance_rows(x, face, dom)
        assert d.shape == (len(x),)
        for row, dist in zip(x, d):
            p = Point(row, np.zeros(dom.m))
            assert (face in classify_point(p, dom, tol)) == (dist <= tol)


@pytest.mark.parametrize("width", range(1, 9))
def test_row_sums_equal_numpy_sums_bit_for_bit(width):
    """Column adds give ``x.sum(axis=-1)``'s bits on rows that cancel, hold
    signed zeros (all ``−0.0`` rows too) or subnormals, or mix magnitudes
    from 1e-300 to 1e300; on one row, on a batch and on a stack of batches,
    and on a column slice that is not contiguous."""
    rng = np.random.default_rng(width)
    k = 4000
    x = rng.standard_normal((k, width)) * 10.0 ** rng.integers(-300, 300, (k, width))
    x[:500] = rng.choice([0.0, -0.0], size=(500, width))
    x[500:600] = -0.0
    x[600:1000] = rng.choice([5e-324, -5e-324, 2.2e-308, -1e-310, 0.0, -0.0], size=(400, width))
    x[1000:1500] = rng.choice([1.0, -1.0, 2.0**-53, -(2.0**-53), 1e16, -1e16], size=(500, width))
    x[1500:2000] = rng.random((500, width))  # simplex-like rows, the engine's case

    def bits(a):
        return np.ascontiguousarray(a, dtype=float).view(np.uint64)

    for a in (x, x.reshape(2, k // 2, width), x[7], np.hstack([x, x])[:, ::2]):
        got, want = row_sums(a), a.sum(axis=-1)
        assert np.shape(got) == want.shape
        assert np.array_equal(bits(got), bits(want))
    assert not np.signbit(row_sums(x[500:600])).any()  # from +0.0, like numpy


# ---------------------------------------------------------------------------
# weighted density
# ---------------------------------------------------------------------------


def test_weighted_density_power_law():
    p = Point([0.25, 0.5])
    val = weighted_density(p, [0.5, 2.0])
    assert val == pytest.approx(0.25 ** (-0.5) * 0.5 ** 1.0)


def test_weighted_density_boundary_divergence():
    with pytest.raises(BoundaryEvaluation):
        weighted_density(Point([0.0]), [0.5])
    # weight ≥ 1 is integrable: the density is finite (0 or 1) on the face
    assert weighted_density(Point([0.0]), [1.0]) == 1.0
    assert weighted_density(Point([0.0]), [2.0]) == 0.0


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@given(
    x=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4),
    face=st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_embed_then_classify_lands_on_face(x, face):
    n = len(x) + 1
    face = min(face, n)
    box = CornerBox(n, 0)
    q = Point(x)
    p = embed_point(q, face, box)
    assert face in classify_point(p, box)


@given(
    x=st.lists(st.floats(1e-6, 0.99), min_size=2, max_size=5),
    face=st.integers(1, 5),
)
@settings(max_examples=60, deadline=None)
def test_restrict_embed_is_identity_on_faces(x, face):
    n = len(x)
    face = min(face, n)
    xs = list(x)
    xs[face - 1] = 0.0
    box = CornerBox(n, 0)
    p = Point(xs)
    q, _ = restrict_point(p, face, box)
    assert np.array_equal(embed_point(q, face, box).x, p.x)
