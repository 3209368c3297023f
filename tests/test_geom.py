"""Rigid-motion algebra, Euler conventions, voxel grid, and exact NN search."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lidarreg.geom import (
    EulerAngles,
    GimbalLockError,
    RigidMotion,
    SpatialIndex,
    apply,
    compose,
    from_euler,
    inverse,
    rotation_is_valid,
    to_euler,
    _squared_norms,
    voxel_downsample,
)
# other test modules import these two from here
from lidarreg.synth import random_motion, random_rotation


# ---------------------------------------------------------------------------
# rigid motions
# ---------------------------------------------------------------------------

def test_identity_fixed_point():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(100, 3))
    out = apply(RigidMotion.identity(), pts)
    assert np.array_equal(out, pts)


def test_compose_then_apply_matches_sequential_apply():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = random_motion(rng), random_motion(rng)
        pts = rng.normal(size=(20, 3)) * 5.0
        lhs = apply(compose(a, b), pts)
        rhs = apply(a, apply(b, pts))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_inverse_composes_to_identity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = random_motion(rng)
        eye = compose(inverse(t), t)
        assert np.abs(eye.rotation - np.eye(3)).max() < 1e-12
        assert np.abs(eye.translation).max() < 1e-9


def test_rotation_validity_checks():
    rng = np.random.default_rng(3)
    for _ in range(20):
        assert rotation_is_valid(random_rotation(rng), tol=1e-12)
    reflect = np.diag([1.0, 1.0, -1.0])
    assert not rotation_is_valid(reflect)
    assert not rotation_is_valid(np.eye(3) * 1.001)


def test_motion_preserves_pairwise_distances():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(30, 3)) * 20.0
    t = random_motion(rng)
    moved = apply(t, pts)
    d0 = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    d1 = np.linalg.norm(moved[:, None, :] - moved[None, :, :], axis=2)
    assert np.allclose(d0, d1, atol=1e-9)


# ---------------------------------------------------------------------------
# Euler angles
# ---------------------------------------------------------------------------

def test_euler_round_trip_within_ranges():
    rng = np.random.default_rng(6)
    for _ in range(200):
        e = EulerAngles(roll=rng.uniform(-179.9, 180.0),
                        pitch=rng.uniform(-89.9, 89.9),
                        yaw=rng.uniform(-179.9, 180.0))
        back = to_euler(from_euler(e))
        assert abs(back.roll - e.roll) < 1e-9
        assert abs(back.pitch - e.pitch) < 1e-9
        assert abs(back.yaw - e.yaw) < 1e-9


def test_euler_zero_is_identity():
    r = from_euler(EulerAngles(0.0, 0.0, 0.0))
    assert np.allclose(r, np.eye(3), atol=1e-15)


def test_pure_yaw_matrix():
    r = from_euler(EulerAngles(roll=0.0, pitch=0.0, yaw=90.0))
    expect = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(r, expect, atol=1e-15)


def test_intrinsic_order_is_yaw_pitch_roll():
    # composing the three elementary rotations in Z, Y, X order must match
    e = EulerAngles(roll=10.0, pitch=20.0, yaw=30.0)
    rz = from_euler(EulerAngles(0.0, 0.0, 30.0))
    ry = from_euler(EulerAngles(0.0, 20.0, 0.0))
    rx = from_euler(EulerAngles(10.0, 0.0, 0.0))
    assert np.allclose(from_euler(e), rz @ ry @ rx, atol=1e-14)


def test_gimbal_lock_reported():
    with pytest.raises(GimbalLockError):
        to_euler(from_euler(EulerAngles(roll=0.0, pitch=90.0, yaw=0.0)))
    with pytest.raises(GimbalLockError):
        to_euler(from_euler(EulerAngles(roll=25.0, pitch=-90.0, yaw=40.0)))


def test_euler_output_ranges():
    rng = np.random.default_rng(7)
    for _ in range(100):
        e = to_euler(random_rotation(rng))
        assert -180.0 < e.yaw <= 180.0
        assert -90.0 <= e.pitch <= 90.0
        assert -180.0 < e.roll <= 180.0


# ---------------------------------------------------------------------------
# voxel downsampling
# ---------------------------------------------------------------------------

def _voxel_oracle(points: np.ndarray, size: float) -> dict[tuple, np.ndarray]:
    cells: dict[tuple, list] = {}
    for p in points:
        key = tuple(int(np.floor(c / size)) for c in p)
        cells.setdefault(key, []).append(p)
    return {k: np.mean(v, axis=0) for k, v in cells.items()}


def test_voxel_centroids_match_hash_oracle():
    rng = np.random.default_rng(8)
    pts = rng.uniform(-5.0, 5.0, size=(500, 3))
    out = voxel_downsample(pts, 0.9)
    oracle = _voxel_oracle(pts, 0.9)
    assert len(out) == len(oracle)
    got = {tuple(int(np.floor(c / 0.9)) for c in p): p for p in out}
    for key, centroid in oracle.items():
        assert key in got
        assert np.allclose(got[key], centroid, atol=1e-12)


def test_voxel_idempotent():
    rng = np.random.default_rng(9)
    pts = rng.uniform(-10.0, 10.0, size=(800, 3))
    once = voxel_downsample(pts, 0.3)
    twice = voxel_downsample(once, 0.3)
    assert once.shape == twice.shape
    assert np.allclose(np.sort(once, axis=0), np.sort(twice, axis=0), atol=1e-12)


def test_voxel_single_point_unchanged():
    p = np.array([[0.12, -3.4, 7.7]])
    out = voxel_downsample(p, 0.3)
    assert np.allclose(out, p)


def test_voxel_all_points_in_one_cell():
    pts = np.array([[0.01, 0.01, 0.01], [0.02, 0.02, 0.02], [0.05, 0.04, 0.03]])
    out = voxel_downsample(pts, 1.0)
    assert out.shape == (1, 3)
    assert np.allclose(out[0], pts.mean(axis=0))


def _voxel_by_unique(points: np.ndarray, size: float) -> np.ndarray:
    # grouping by np.unique over key rows, summed in input order
    keys = np.floor(points / size).astype(np.int64)
    uniq, inv = np.unique(keys, axis=0, return_inverse=True)
    sums = np.zeros((len(uniq), 3))
    np.add.at(sums, inv.ravel(), points)
    return sums / np.bincount(inv.ravel(), minlength=len(uniq))[:, None]


@pytest.mark.parametrize("seed", range(6))
def test_voxel_equals_unique_row_grouping_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(int(rng.integers(1, 2000)), 3)) * rng.uniform(0.1, 1e4)
    if seed % 2:
        pts = np.round(pts)                 # points on voxel boundaries
        pts[: len(pts) // 3] = pts[0]       # one crowded voxel
    size = float(rng.uniform(0.05, 5.0))
    out = voxel_downsample(pts, size)
    want = _voxel_by_unique(pts, size)
    assert out.shape == want.shape
    assert out.tobytes() == want.tobytes()


def test_voxel_rejects_bad_size():
    with pytest.raises(ValueError):
        voxel_downsample(np.zeros((4, 3)), 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_voxel_refuses_keys_past_int64_instead_of_merging_points():
    # at 1e-20 the keys of 1,000 points in +-20 m overflow int64; they once
    # came back as 14 centroids with only a cast warning
    pts = np.random.default_rng(31).uniform(-20.0, 20.0, size=(1000, 3))
    assert len(voxel_downsample(pts, 1e-15)) == 1000
    for size in (1e-20, math.nan):
        with pytest.raises(ValueError, match=rf"voxel_size {size} gives voxel keys"):
            voxel_downsample(pts, size)
    for bad in (math.inf, math.nan):
        pts[7, 1] = bad
        with pytest.raises(ValueError, match="not finite"):
            voxel_downsample(pts, 0.5)
    # an empty cloud takes the general path
    out = voxel_downsample(np.empty((0, 3)), 1e-20)
    assert out.shape == (0, 3) and out.dtype == np.float64


@pytest.mark.parametrize("shape", [(150, 2), (100, 4), (300,), (3,), (2, 3, 3)])
def test_voxel_refuses_points_of_the_wrong_shape(shape):
    # a (150, 2) array once re-cut into 100 points
    with pytest.raises(ValueError, match=rf"got \({shape[0]},"):
        voxel_downsample(np.zeros(shape), 0.5)


_MAGNITUDES = st.floats(1e-150, 1e150) | st.floats(-1e150, -1e-150)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    arrays(np.float64, st.tuples(st.integers(1, 40), st.sampled_from([3, 6])),
           elements=_MAGNITUDES),
    arrays(np.float64, st.tuples(st.integers(1, 10), st.integers(1, 5), st.just(3)),
           elements=_MAGNITUDES)))
def test_squared_norms_equal_numpy_sum_bit_for_bit(d):
    # the helper stands in for np.sum(d ** 2, axis=-1) wherever a result
    # must not change; a numpy that sums in another order fails here
    want = np.sum(d ** 2, axis=-1)
    assert _squared_norms(d).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# spatial index vs. brute force
# ---------------------------------------------------------------------------

def test_radius_query_matches_brute_force():
    rng = np.random.default_rng(11)
    pts = rng.uniform(-2.0, 2.0, size=(200, 3))
    index = SpatialIndex(pts)
    for _ in range(20):
        q = rng.uniform(-2.0, 2.0, size=3)
        r = rng.uniform(0.2, 1.5)
        got = index.within(q, r)
        want = np.nonzero(np.sqrt(np.sum((pts - q) ** 2, axis=1)) <= r)[0]
        assert got.tolist() == [want.size > 0]


def _brute_within(points: np.ndarray, queries: np.ndarray, r: float) -> list[bool]:
    # one linear scan per query row, with the scan's own arithmetic
    return [bool(np.any(np.sqrt(np.sum((points - q) ** 2, axis=1)) <= r))
            for q in queries]


def _integer_grid(n: int) -> np.ndarray:
    axis = np.arange(n, dtype=np.float64)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"),
                    axis=-1).reshape(-1, 3)


def test_within_counts_points_at_exactly_r_on_an_integer_grid():
    pts = _integer_grid(4)
    # grid points, edge midpoints and points one unit outside the grid:
    # nearest distances of exactly 0, 0.5, 1 and sqrt(2)
    queries = np.concatenate([pts, pts + [0.5, 0.0, 0.0],
                              pts + [4.0, 0.0, 0.0], pts + [4.0, 1.0, 0.0]])
    index = SpatialIndex(pts)
    for r in (0.0, 0.5, 1.0, np.nextafter(1.0, 0.0), np.sqrt(2.0),
              np.nextafter(np.sqrt(2.0), 0.0)):
        assert index.within(queries, r).tolist() == _brute_within(pts, queries, r)
    assert index.within(pts + [4.0, 0.0, 0.0], 1.0).sum() == 16
    assert index.within(pts + [4.0, 0.0, 0.0], np.nextafter(1.0, 0.0)).sum() == 0


@pytest.mark.parametrize("scale", [1.0, 0.1, 1e3])
def test_within_counts_3_4_5_offsets_at_exactly_r(scale):
    rng = np.random.default_rng(12)
    queries = rng.integers(-50, 50, (40, 3)).astype(np.float64) * scale
    offsets = np.array([[3.0, 4.0, 0.0], [0.0, -3.0, 4.0], [-4.0, 0.0, -3.0]])
    pts = queries + offsets[np.arange(40) % 3] * scale
    index = SpatialIndex(pts)
    r = 5.0 * scale
    for rr in (r, np.nextafter(r, 0.0), np.nextafter(r, np.inf)):
        assert index.within(queries, rr).tolist() == _brute_within(pts, queries, rr)
    if scale == 1.0:
        assert index.within(queries, 5.0).all()
        assert not index.within(queries, np.nextafter(5.0, 0.0)).any()


def test_within_at_distances_an_ulp_either_side_of_r():
    # points placed at r along random directions land a few ulps off r;
    # the answer must follow the scan's arithmetic, not the placement
    rng = np.random.default_rng(13)
    queries = rng.uniform(-100.0, 100.0, (300, 3))
    u = rng.normal(size=(300, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = 0.7
    pts = queries + r * u
    d = np.sqrt(np.sum((pts - queries) ** 2, axis=1))
    assert (d > r).any() and (d < r).any()
    index = SpatialIndex(pts)
    for rr in (r, np.nextafter(r, 0.0), np.nextafter(r, 1.0), r * (1 + 1e-12)):
        assert index.within(queries, rr).tolist() == _brute_within(pts, queries, rr)


class _SkewedTree:
    """A k-d tree stand-in whose distances are off by up to 1e-12 relative,
    so its nearest point and its inside/outside calls can disagree with the
    scan's arithmetic."""

    def __init__(self, points: np.ndarray, rng: np.random.Generator):
        self.points = points
        self.skew = 1.0 + rng.uniform(-1e-12, 1e-12, len(points))

    def _d(self, q):
        return np.sqrt(np.sum((self.points - q) ** 2, axis=1)) * self.skew

    def query(self, queries, k, distance_upper_bound):
        assert k == 1
        d = np.stack([self._d(q) for q in queries])
        i = d.argmin(axis=1)
        best = d[np.arange(len(d)), i]
        i[best >= distance_upper_bound] = len(self.points)
        return np.where(best < distance_upper_bound, best, np.inf), i

    def query_ball_point(self, q, r):
        return np.flatnonzero(self._d(q) <= r).tolist()


def test_within_when_tree_and_scan_distances_straddle_r():
    rng = np.random.default_rng(14)
    r = 2.5
    # queries 10 apart, each with four points a few hundred ulps from r,
    # far inside the tree's skew
    queries = _integer_grid(8)[:400] * 10.0 + rng.uniform(-1.0, 1.0, (400, 3))
    u = rng.normal(size=(400, 4, 3))
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    scale = r * (1.0 + rng.integers(-300, 300, (400, 4, 1)) * 2.0 ** -52)
    pts = (queries[:, None, :] + scale * u).reshape(-1, 3)
    index = SpatialIndex(pts)
    tree = index._tree = _SkewedTree(pts, rng)
    got = index.within(queries, r)
    assert got.tolist() == _brute_within(pts, queries, r)
    best, first = tree.query(queries, 1, np.inf)
    d_first = np.sqrt(np.sum((pts[first] - queries) ** 2, axis=1))
    # the tree's nearest re-measures above r, yet another point is within r
    assert (got & (d_first > r)).sum() > 10
    # the tree puts its nearest within r, but the scan puts every point out
    assert (~got & (best <= r)).sum() > 0


def test_within_on_a_single_point_and_empty_queries():
    index = SpatialIndex(np.array([[1.0, 2.0, 3.0]]))
    assert index.within(np.array([1.0, 2.0, 8.0]), 5.0).tolist() == [True]
    assert index.within(np.zeros((0, 3)), 1.0).shape == (0,)


def _brute_nearest(points: np.ndarray, queries: np.ndarray, r: float):
    # per row the scan's nearest point (lowest index among ties) if it lies
    # within r, else inf and -1
    d = np.sqrt(np.sum((points[None, :, :] - queries[:, None, :]) ** 2, axis=2))
    i = d.argmin(axis=1)
    best = d[np.arange(len(queries)), i]
    return np.where(best <= r, best, np.inf), np.where(best <= r, i, -1)


def test_nearest_within_r_matches_brute_force_random():
    rng = np.random.default_rng(15)
    pts = rng.uniform(-4.0, 4.0, size=(300, 3))
    queries = rng.uniform(-6.0, 6.0, size=(400, 3))
    index = SpatialIndex(pts)
    for r in (0.0, 0.3, 0.8, 2.0, np.inf):
        d, i = index.nearest(queries, r)
        bd, bi = _brute_nearest(pts, queries, r)
        assert np.array_equal(d, bd) and np.array_equal(i, bi), r
    # both kinds of rows occur
    assert 0 < (index.nearest(queries, 0.8)[1] == -1).sum() < len(queries)


def test_nearest_within_r_at_exactly_r_on_an_integer_grid():
    pts = _integer_grid(4)
    # nearest distances of exactly 0, 0.5, 1 and sqrt(2), with exact ties
    queries = np.concatenate([pts, pts + [0.5, 0.0, 0.0],
                              pts + [4.0, 0.0, 0.0], pts + [4.0, 1.0, 0.0]])
    index = SpatialIndex(pts)
    for r in (0.0, 0.5, np.nextafter(0.5, 0.0), 1.0, np.nextafter(1.0, 0.0),
              np.sqrt(2.0), np.nextafter(np.sqrt(2.0), 0.0)):
        d, i = index.nearest(queries, r)
        bd, bi = _brute_nearest(pts, queries, r)
        assert np.array_equal(d, bd) and np.array_equal(i, bi), r
    _, i = index.nearest(pts + [4.0, 0.0, 0.0], 1.0)
    assert (i >= 0).sum() == 16
    _, i = index.nearest(pts + [4.0, 0.0, 0.0], np.nextafter(1.0, 0.0))
    assert (i == -1).all()


def test_nearest_within_r_duplicate_points_lowest_index_wins():
    pts = np.array([[3.0, 0.0, 0.0]] * 2 + [[1.0, 1.0, 1.0]] * 5
                   + [[2.0, 2.0, 2.0]] * 3)
    index = SpatialIndex(pts)
    queries = np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.5], [1.5, 1.5, 1.5],
                        [9.0, 9.0, 9.0]])
    d, i = index.nearest(queries, 1.0)
    assert i.tolist() == [2, 7, 2, -1]
    assert d[0] == 0.0 and d[1] == 0.5 and d[3] == np.inf
    bd, bi = _brute_nearest(pts, queries, 1.0)
    assert np.array_equal(d, bd) and np.array_equal(i, bi)


def test_nearest_tie_break_by_lowest_index_on_grid():
    # integer grid makes distance ties exact
    g = np.arange(4)
    pts = np.array([[x, y, z] for x in g for y in g for z in g], dtype=float)
    index = SpatialIndex(pts)
    queries = pts[[0, 7, 21, 33, 63]] + 0.5  # centers between 8 grid points
    d, i = index.nearest(queries)
    bd, bi = _brute_nearest(pts, queries, np.inf)
    assert np.array_equal(i, bi) and np.array_equal(d, bd)


def test_nearest_on_a_one_point_index():
    index = SpatialIndex(np.array([[1.0, 0.0, 0.0]]))
    d, i = index.nearest(np.array([[0.2, 0.0, 0.0], [4.0, 0.0, 0.0]]), 1.0)
    assert i.tolist() == [0, -1]
    assert d[0] == 0.8 and d[1] == np.inf
    d, i = index.nearest(np.array([1.0, 0.0, 3.0]))
    assert i.tolist() == [0] and d.tolist() == [3.0]


def test_nearest_matches_brute_force_on_duplicates_grid_ties_and_ulp_gaps():
    rng = np.random.default_rng(16)
    grid = _integer_grid(4)
    # four points a few ulps either side of 0.7 from each of 50 queries 10
    # apart, so the tree's two nearest lie within rounding of each other
    queries = _integer_grid(4)[:50] * 10.0 + rng.uniform(-1.0, 1.0, (50, 3))
    u = rng.normal(size=(50, 4, 3))
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    near = (queries[:, None, :] + 0.7 * u).reshape(-1, 3)
    pts = np.concatenate([grid, grid[::-1], near, near[:20]])
    index = SpatialIndex(pts)
    # grid points (duplicated), cell centres equidistant from eight points,
    # edge midpoints equidistant from two, and the ulp-gap queries
    all_queries = np.concatenate([grid, grid[:27] + 0.5, grid + [0.5, 0.0, 0.0],
                                  queries])
    d = np.sqrt(np.sum((near.reshape(50, 4, 3) - queries[:, None, :]) ** 2, axis=2))
    assert (d.max(axis=1) - d.min(axis=1) > 0).sum() > 25
    for r in (np.inf, 0.5, np.nextafter(0.5, 0.0), 0.7, np.nextafter(0.7, 0.0),
              np.nextafter(0.7, 1.0), np.sqrt(0.75)):
        got_d, got_i = index.nearest(all_queries, r)
        bd, bi = _brute_nearest(pts, all_queries, r)
        assert np.array_equal(got_d, bd) and np.array_equal(got_i, bi), r


class _SkewedPairTree(_SkewedTree):
    """The skewed stand-in answering k=2 queries too, so its first and
    second points can come in the other order from the scan's."""

    def query(self, queries, k, distance_upper_bound):
        d = np.stack([self._d(q) for q in queries])
        i = np.argsort(d, axis=1, kind="stable")[:, :k]
        best = np.take_along_axis(d, i, axis=1)
        out = best >= distance_upper_bound
        i[out] = len(self.points)
        best[out] = np.inf
        return (best[:, 0], i[:, 0]) if k == 1 else (best, i)


def test_nearest_when_tree_and_scan_order_the_two_nearest_differently():
    rng = np.random.default_rng(17)
    r = 2.5
    queries = _integer_grid(8)[:400] * 10.0 + rng.uniform(-1.0, 1.0, (400, 3))
    u = rng.normal(size=(400, 4, 3))
    u /= np.linalg.norm(u, axis=2, keepdims=True)
    scale = r * (1.0 + rng.integers(-300, 300, (400, 4, 1)) * 2.0 ** -52)
    pts = (queries[:, None, :] + scale * u).reshape(-1, 3)
    index = SpatialIndex(pts)
    tree = index._tree = _SkewedPairTree(pts, rng)
    for rr in (np.inf, r, np.nextafter(r, 0.0)):
        d, i = index.nearest(queries, rr)
        bd, bi = _brute_nearest(pts, queries, rr)
        assert np.array_equal(d, bd) and np.array_equal(i, bi), rr
    # the tree's first point is not the scan's nearest on many rows
    _, first = tree.query(queries, 1, np.inf)
    assert (first != _brute_nearest(pts, queries, np.inf)[1]).sum() > 50


def test_spatial_index_refuses_arrays_that_are_not_n_by_3():
    with pytest.raises(ValueError, match=r"\(150, 2\)"):
        SpatialIndex(np.zeros((150, 2)))
    with pytest.raises(ValueError, match=r"\(300,\)"):
        SpatialIndex(np.zeros(300))
    index = SpatialIndex(_integer_grid(2))
    for bad in (np.zeros((4, 6)), np.zeros(6), np.zeros((2, 2, 3))):
        with pytest.raises(ValueError, match="shape"):
            index.nearest(bad)
        with pytest.raises(ValueError, match="shape"):
            index.within(bad, 1.0)
    # a single (3,) row is one query
    assert index.within(np.zeros(3), 0.0).tolist() == [True]
    assert index.nearest(np.zeros(3))[1].tolist() == [0]


def test_a_nan_radius_is_refused_and_a_negative_one_finds_nothing():
    index = SpatialIndex(_integer_grid(2))
    queries = _integer_grid(2)
    with pytest.raises(ValueError, match="NaN"):
        index.nearest(queries, float("nan"))
    with pytest.raises(ValueError, match="NaN"):
        index.within(queries, np.nan)
    d, i = index.nearest(queries, -1.0)
    assert np.isinf(d).all() and (i == -1).all()
    assert not index.within(queries, -1.0).any()
