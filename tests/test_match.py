"""Descriptor matching against a brute-force oracle."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lidarreg import match, synth
from lidarreg.match import Correspondences, match_features, mnn_filter


def _brute_match(src: np.ndarray, dst: np.ndarray):
    """Straight O(N*M) reimplementation of the matching contract."""
    n, m = len(src), len(dst)
    d = np.sqrt(np.sum((src[:, None, :] - dst[None, :, :]) ** 2, axis=2))
    nearest_dst = np.empty(n, dtype=np.int64)
    feat = np.empty(n)
    ratio = np.empty(n)
    for i in range(n):
        order = np.lexsort((np.arange(m), d[i]))
        nearest_dst[i] = order[0]
        feat[i] = d[i, order[0]]
        d2 = d[i, order[1]]
        if feat[i] == 0.0 and d2 == 0.0:
            ratio[i] = 1.0
        elif feat[i] == 0.0:
            ratio[i] = np.inf
        else:
            ratio[i] = d2 / feat[i]
    nearest_src = np.empty(m, dtype=np.int64)
    for j in range(m):
        order = np.lexsort((np.arange(n), d[:, j]))
        nearest_src[j] = order[0]
    is_mnn = nearest_src[nearest_dst] == np.arange(n)
    return nearest_dst, feat, ratio, is_mnn


def test_match_agrees_with_brute_force():
    rng = np.random.default_rng(0)
    src = rng.normal(size=(80, 8))
    dst = rng.normal(size=(120, 8))
    c = match_features(src, dst)
    bd, bf, br, bm = _brute_match(src, dst)
    assert np.array_equal(c.src, np.arange(80))
    assert np.array_equal(c.dst, bd)
    assert np.allclose(c.feat_dist, bf, rtol=0, atol=0)
    assert np.allclose(c.ratio, br, rtol=1e-15)
    assert np.array_equal(c.is_mnn, bm)


def test_identical_sets_match_identity():
    rng = np.random.default_rng(1)
    desc = rng.normal(size=(40, 6))
    c = match_features(desc, desc)
    assert np.array_equal(c.dst, np.arange(40))
    assert np.all(c.feat_dist == 0.0)
    assert np.all(c.is_mnn)


def test_zero_distance_pair_with_distinct_second_gives_unit_or_larger_ratio():
    dst = np.array([[0.0, 0.0], [3.0, 0.0], [5.0, 5.0]])
    src = np.array([[0.0, 0.0], [2.9, 0.0]])
    c = match_features(src, dst)
    assert c.dst[0] == 0 and c.feat_dist[0] == 0.0
    assert np.isinf(c.ratio[0])
    assert c.ratio[1] >= 1.0


def test_duplicate_rows_everywhere_ratio_one():
    # identical rows on both sides: zero first and second distances
    src = np.zeros((3, 4))
    dst = np.zeros((5, 4))
    c = match_features(src, dst)
    assert np.all(c.dst == 0)          # lowest target index wins the tie
    assert np.all(c.ratio == 1.0)


def test_ratio_at_least_one():
    rng = np.random.default_rng(2)
    src = rng.normal(size=(100, 16))
    dst = rng.normal(size=(90, 16))
    c = match_features(src, dst)
    assert np.all(c.ratio >= 1.0)


def test_scale_invariance_of_ratio_and_mnn():
    rng = np.random.default_rng(3)
    src = rng.normal(size=(60, 12))
    dst = rng.normal(size=(60, 12))
    a = match_features(src, dst)
    b = match_features(src * 7.5, dst * 7.5)
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.is_mnn, b.is_mnn)
    assert np.allclose(a.ratio, b.ratio, rtol=1e-12)


def test_tie_broken_by_lowest_target_index():
    # two equidistant targets around each source row
    src = np.array([[0.0, 0.0], [10.0, 0.0]])
    dst = np.array([[1.0, 0.0], [-1.0, 0.0], [10.0, 1.0], [10.0, -1.0]])
    c = match_features(src, dst)
    assert c.dst[0] == 0
    assert c.dst[1] == 2
    assert np.all(c.ratio == 1.0)


def test_mnn_flag_symmetric_construction():
    # a and b are mutual; c points at a's target but is farther away
    src = np.array([[0.0, 0.0], [5.0, 5.0], [0.4, 0.0]])
    dst = np.array([[0.1, 0.0], [5.0, 5.1]])
    c = match_features(src, dst)
    assert bool(c.is_mnn[0]) is True
    assert bool(c.is_mnn[1]) is True
    assert bool(c.is_mnn[2]) is False


def test_mnn_filter_keeps_only_flagged():
    rng = np.random.default_rng(4)
    src = rng.normal(size=(50, 5))
    dst = rng.normal(size=(50, 5))
    c = match_features(src, dst)
    kept = mnn_filter(c)
    assert np.all(kept.is_mnn)
    assert len(kept) == int(c.is_mnn.sum())
    assert np.array_equal(kept.src, c.src[c.is_mnn])


def test_take_preserves_alignment():
    rng = np.random.default_rng(5)
    src = rng.normal(size=(30, 4))
    dst = rng.normal(size=(30, 4))
    c = match_features(src, dst)
    sub = c.take([5, 2, 9])
    assert list(sub.src) == [5, 2, 9]
    assert np.array_equal(sub.ratio, c.ratio[[5, 2, 9]])


def test_match_rejects_dim_mismatch_and_tiny_sets():
    with pytest.raises(ValueError):
        match_features(np.zeros((4, 3)), np.zeros((4, 5)))
    with pytest.raises(ValueError):
        match_features(np.zeros((1, 3)), np.zeros((4, 3)))
    with pytest.raises(ValueError):
        match_features(np.zeros((4, 3)), np.zeros((1, 3)))


def test_match_refuses_zero_width_descriptors():
    # the re-measuring step once divided by the width
    with pytest.raises(ValueError, match="descriptors need at least one column"):
        match_features(np.zeros((5, 0)), np.zeros((4, 0)))


def test_output_order_is_source_order():
    rng = np.random.default_rng(6)
    src = rng.normal(size=(25, 7))
    dst = rng.normal(size=(40, 7))
    c = match_features(src, dst)
    assert np.array_equal(c.src, np.arange(25))


# ---------------------------------------------------------------------------
# bit-exact agreement with the brute-force oracle
# ---------------------------------------------------------------------------

def _assert_equals_oracle(src: np.ndarray, dst: np.ndarray) -> None:
    c = match_features(src, dst)
    bd, bf, br, bm = _brute_match(src, dst)
    assert np.array_equal(c.dst, bd)
    assert np.array_equal(c.feat_dist, bf)     # same bits, not just close
    assert np.array_equal(c.ratio, br)
    assert np.array_equal(c.is_mnn, bm)


@pytest.mark.parametrize("seed", [343, 350])
def test_near_ties_on_a_large_offset_follow_the_tie_contract(seed):
    # Rows on a 1e-3 grid around 1000 tie often.  A k=3 KD-tree query ranked
    # such near-ties by its own arithmetic, so the lowest-index nearest row
    # could fall outside its window: seed 343 gave dst[17] == 13 instead of 8,
    # seed 350 two wrong mutual flags.
    rng = np.random.default_rng(seed)
    src = rng.integers(-2, 3, (60, 12)) * 1e-3 + 1000.0
    dst = rng.integers(-2, 3, (60, 12)) * 1e-3 + 1000.0
    _assert_equals_oracle(src, dst)


def test_query_blocks_of_the_module_size_span_several_blocks(monkeypatch):
    # 2000 rows give 131 queries per forward block, so 300 queries run 3
    # blocks with a short last one; each step re-measures its entries in one
    # call, in several pieces and a short last one
    monkeypatch.setattr(match, "_PIECE_ENTRIES", 1 << 8)
    sizes = []
    distances = match._distances

    def spy(rows, queries, rj, qi):
        sizes.append(len(rj))
        return distances(rows, queries, rj, qi)

    monkeypatch.setattr(match, "_distances", spy)
    rng = np.random.default_rng(7)
    for dim in (4, 16):
        src = rng.integers(-3, 4, (300, dim)).astype(np.float64)
        dst = rng.integers(-3, 4, (2000, dim)).astype(np.float64)
        assert len(src) % (match._BLOCK_ENTRIES // len(dst)) != 0
        sizes.clear()
        _assert_equals_oracle(src, dst)
        piece = match._PIECE_ENTRIES // dim
        assert len(sizes) == 2
        assert all(size > 3 * piece and size % piece != 0 for size in sizes)


@pytest.mark.parametrize("block_entries", [1, 7, 100, 1000])
def test_small_blocks_give_the_oracle_answer(monkeypatch, block_entries):
    monkeypatch.setattr(match, "_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(block_entries)
    src = rng.integers(-2, 3, (101, 3)) * 0.5
    dst = rng.integers(-2, 3, (37, 3)) * 0.5
    _assert_equals_oracle(src, dst)
    _assert_equals_oracle(dst, src)


@pytest.mark.parametrize("offset", [1e6, 1e8])
def test_large_common_offset(offset):
    rng = np.random.default_rng(int(np.log10(offset)))
    src = rng.normal(size=(90, 8)) + offset
    dst = rng.normal(size=(70, 8)) + offset
    dst[:30] = src[:30] + 1e-6 * rng.normal(size=(30, 8))
    _assert_equals_oracle(src, dst)
    grid_src = rng.integers(-2, 3, (50, 6)) * 0.25 + offset
    grid_dst = rng.integers(-2, 3, (50, 6)) * 0.25 + offset
    _assert_equals_oracle(grid_src, grid_dst)


def test_duplicate_rows_and_integer_grids():
    rng = np.random.default_rng(11)
    base = rng.integers(-1, 2, (12, 5)).astype(np.float64)
    src = base[rng.integers(0, 12, 80)]
    dst = base[rng.integers(0, 12, 60)]
    _assert_equals_oracle(src, dst)
    grid = np.stack(np.meshgrid(*[np.arange(4.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    _assert_equals_oracle(grid, grid[::-1] + 0.5)


def test_one_dimensional_descriptors():
    rng = np.random.default_rng(12)
    _assert_equals_oracle(rng.integers(0, 9, (40, 1)) * 1.0,
                          rng.integers(0, 9, (25, 1)) * 1.0)
    _assert_equals_oracle(rng.normal(size=(40, 1)), rng.normal(size=(25, 1)))


def test_two_row_sets():
    _assert_equals_oracle(np.array([[0.0, 1.0], [1.0, 0.0]]),
                          np.array([[0.5, 0.5], [2.0, 2.0]]))
    _assert_equals_oracle(np.array([[1.0], [1.0]]), np.array([[0.0], [2.0]]))


def test_non_finite_descriptors_are_rejected():
    good = np.zeros((3, 2))
    for bad in (np.nan, np.inf):
        src = good.copy()
        src[1, 0] = bad
        with pytest.raises(ValueError):
            match_features(src, good)
        with pytest.raises(ValueError):
            match_features(good, src)


@pytest.mark.parametrize("scale", [1e100, 1e150, 1e153, 1e154, 1e155, 1e200])
def test_huge_descriptors_equal_the_oracle_or_raise_value_error(scale):
    # near 1e154 the squared distances overflow float64: the matcher used to
    # raise IndexError, or return rows other than the scan's without an error
    for seed in range(50):
        rng = np.random.default_rng(seed)
        src = rng.normal(size=(6, 3)) * scale
        dst = rng.normal(size=(6, 3)) * scale
        try:
            c = match_features(src, dst)
        except ValueError:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            bd, bf, br, bm = _brute_match(src, dst)
        assert c.dst.tobytes() == bd.tobytes(), seed
        assert c.feat_dist.tobytes() == bf.tobytes(), seed
        assert c.ratio.tobytes() == br.tobytes(), seed
        assert c.is_mnn.tobytes() == bm.tobytes(), seed


@st.composite
def _tie_heavy_pair(draw):
    dim = draw(st.integers(1, 4))
    levels = st.integers(-2, 2)
    src = draw(arrays(np.int64, (draw(st.integers(2, 12)), dim), elements=levels))
    dst = draw(arrays(np.int64, (draw(st.integers(2, 12)), dim), elements=levels))
    step = draw(st.sampled_from([1.0, 1e-3, 0.1]))
    offset = draw(st.sampled_from([0.0, 1000.0, -3.5, 1e8]))
    return src * step + offset, dst * step + offset


@settings(max_examples=300, deadline=None)
@given(_tie_heavy_pair())
def test_property_tie_heavy_arrays_equal_the_oracle(pair):
    _assert_equals_oracle(*pair)


def test_fine_structure_inside_far_apart_clusters():
    # the rows' mean lies between two clusters 2e4 apart, so the product
    # estimates err by far more than the 1e-5 grid step inside a cluster
    rng = np.random.default_rng(13)
    far = np.repeat([[1e4], [-1e4]], 40, axis=0)
    src = far + rng.integers(-2, 3, (80, 4)) * 1e-5
    dst = far + rng.integers(-2, 3, (80, 4)) * 1e-5
    _assert_equals_oracle(src, dst)


# ---------------------------------------------------------------------------
# float32 estimates and their float64 fallbacks
# ---------------------------------------------------------------------------

def _spy_dtypes(monkeypatch, name):
    seen = []
    scan = getattr(match, name)

    def spy(est, *args):
        seen.append(est.dtype)
        return scan(est, *args)

    monkeypatch.setattr(match, name, spy)
    return seen


@pytest.fixture
def estimate_dtypes(monkeypatch):
    """The dtype of every forward block of estimates the matcher scans, in order."""
    return _spy_dtypes(monkeypatch, "_candidates")


@pytest.fixture
def mutual_dtypes(monkeypatch):
    """The dtype of every tile of estimates the mutual step scans, in order."""
    return _spy_dtypes(monkeypatch, "_contenders")


@pytest.mark.parametrize("scale, dtype", [
    (1.0, np.float32),
    (1e18, np.float64), (1e25, np.float64), (1e40, np.float64),
    (1e-20, np.float64), (1e-38, np.float64), (1e-45, np.float64),
])
def test_estimates_are_float64_outside_float32_range(estimate_dtypes, scale, dtype):
    # squared norms past float32's range overflow; below it they underflow
    # to subnormals or zero, where its relative error bound fails
    rng = np.random.default_rng(14)
    _assert_equals_oracle(rng.normal(size=(50, 5)) * scale,
                          rng.normal(size=(40, 5)) * scale)
    _assert_equals_oracle(rng.integers(-2, 3, (50, 5)) * scale,
                          rng.integers(-2, 3, (40, 5)) * scale)
    assert set(estimate_dtypes) == {np.dtype(dtype)}


def test_blocks_over_the_candidate_budget_are_estimated_again_in_float64(
        monkeypatch, estimate_dtypes):
    monkeypatch.setattr(match, "_CANDIDATES_PER_ROW", 0)
    monkeypatch.setattr(match, "_BLOCK_ENTRIES", 600)
    rng = np.random.default_rng(15)
    src = rng.integers(-2, 3, (60, 12)) * 1e-3 + 1000.0
    dst = rng.integers(-2, 3, (50, 12)) * 1e-3 + 1000.0
    _assert_equals_oracle(src, dst)
    # 600 // 50 = 12 queries per block: 5 blocks, the first scanned twice
    # and the rest in float64 only
    assert estimate_dtypes == [np.dtype(np.float32)] + [np.dtype(np.float64)] * 5


def test_one_far_row_sends_the_search_to_float64(estimate_dtypes):
    # one far target widens every float32 window to the whole block
    rng = np.random.default_rng(17)
    src = rng.normal(size=(400, 8))
    dst = rng.normal(size=(700, 8))
    dst[3] *= 1e3
    _assert_equals_oracle(src, dst)
    assert estimate_dtypes[0] == np.float32
    assert set(estimate_dtypes[1:]) == {np.dtype(np.float64)}
    assert len(estimate_dtypes) == 1 + -(-400 // (match._BLOCK_ENTRIES // 700))


def test_duplicate_rows_keep_memory_within_a_block(monkeypatch):
    # every pair of the 600 duplicate rows on each side ties: 360k
    # candidates per direction, of which one block holds at most 4096
    monkeypatch.setattr(match, "_BLOCK_ENTRIES", 1 << 12)
    rng = np.random.default_rng(18)
    src, dst = rng.normal(size=(800, 16)), rng.normal(size=(800, 16))
    src[200:] = dst[200:] = src[0]
    tracemalloc.start()
    try:
        match_features(src, dst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    _assert_equals_oracle(src, dst)


def _late_nearest_scene():
    """2000 source rows over 300 targets whose nearest sources sit in late blocks.

    Target j has a planted source at the same dyadic offset norm in the first
    block (row j), the second (row 873 + j) and, for j < 254, the last (row
    1746 + j), each a different signed permutation of the offset.  Exact
    ties go to the first block's row, but their float32 estimates differ,
    so the running column minimum often falls late.  Every third last-block
    row is nearer by one part in 2**22, below float32 resolution, and every
    third is farther by as much.
    """
    rng = np.random.default_rng(16)
    dst = rng.permutation(np.stack(np.meshgrid(*[np.arange(-4.0, 4.0)] * 4,
                                               indexing="ij"), -1).reshape(-1, 4))[:300]
    src = rng.integers(-4, 4, (2000, 4)) + 0.5       # fillers off the grid
    offset = np.array([3.0, 2.0, 1.0, 0.0]) / 16.0
    for lo, count in ((0, 300), (873, 300), (1746, 254)):
        for j in range(count):
            step = rng.permutation(offset) * rng.choice([-1.0, 1.0], 4)
            if lo == 1746 and j % 3:
                k = np.flatnonzero(step)[0]
                step[k] *= 1.0 - 2.0 ** -22 if j % 3 == 1 else 1.0 + 2.0 ** -22
            src[lo + j] = dst[j] + step
    return src, dst


@pytest.mark.parametrize("per_row", [4, 0])
def test_nearest_source_in_the_last_block_after_near_ties(monkeypatch, per_row):
    monkeypatch.setattr(match, "_CANDIDATES_PER_ROW", per_row)
    src, dst = _late_nearest_scene()
    assert match._BLOCK_ENTRIES // len(dst) == 873     # blocks start at 0, 873, 1746
    d = np.sqrt(np.sum((src[:, None, :] - dst[None, :, :]) ** 2, axis=2))
    nearest_src = np.argmin(d, axis=0)                 # first index among ties
    assert np.sum(nearest_src >= 1746) > 50
    assert np.sum(nearest_src < 300) > 150
    _assert_equals_oracle(src, dst)
    _assert_equals_oracle(dst, src)


# ---------------------------------------------------------------------------
# re-measured entries and the mutual step
# ---------------------------------------------------------------------------

@pytest.fixture
def remeasured(monkeypatch):
    """The number of entries the matcher re-measures, summed over calls."""
    count = [0]
    distances = match._distances

    def spy(rows, queries, rj, qi):
        count[0] += len(rj)
        return distances(rows, queries, rj, qi)

    monkeypatch.setattr(match, "_distances", spy)
    return count


def test_random_sets_re_measure_about_two_entries_per_query_and_one_per_row(remeasured):
    # each query re-measures its two best entries, and each target row that
    # a query may take from its claim about one: 4794 here
    rng = np.random.default_rng(21)
    src, dst = rng.normal(size=(2000, 16)), rng.normal(size=(2000, 16))
    match_features(src, dst)
    assert remeasured[0] <= 2 * len(src) + len(dst) + 100


def test_near_tie_extras_take_the_per_row_path(monkeypatch):
    # on an integer grid many queries have a third-best entry within the
    # window of their second best; those rows add their further entries
    extras = []
    scan = match._candidates

    def spy(est, *args):
        found = scan(est, *args)
        extras.append(len(found[0]) - 2 * len(est))
        return found

    monkeypatch.setattr(match, "_candidates", spy)
    rng = np.random.default_rng(19)
    src = rng.integers(-2, 3, (500, 6)).astype(np.float64)
    dst = rng.integers(-2, 3, (400, 6)).astype(np.float64)
    _assert_equals_oracle(src, dst)
    assert len(extras) == 1 and extras[0] > 0


def test_one_far_query_sends_only_the_mutual_step_to_float64(
        monkeypatch, estimate_dtypes, mutual_dtypes, remeasured):
    # one far query widens every float32 mutual window but no forward one:
    # the forward blocks stay float32, and the mutual step's first tile
    # goes over budget and the step alone reruns in float64
    monkeypatch.setattr(match, "_BLOCK_ENTRIES", 3000)
    rng = np.random.default_rng(20)
    src, dst = rng.normal(size=(400, 8)), rng.normal(size=(300, 8))
    src[5] *= 1e3
    _assert_equals_oracle(src, dst)
    assert estimate_dtypes == [np.dtype(np.float32)] * -(-400 // (3000 // 300))
    assert mutual_dtypes[0] == np.float32
    assert len(mutual_dtypes) > 1 and set(mutual_dtypes[1:]) == {np.dtype(np.float64)}
    assert remeasured[0] < 4 * (len(src) + len(dst))


def test_a_float32_search_over_its_budget_reruns_whole_in_float64(
        monkeypatch, estimate_dtypes):
    # ten equal queries in the last block, each at distance 0 from 200
    # equal rows, keep more forward candidates than the budget; the search
    # then starts again in float64 from the first block and drops all it
    # found in float32, shown here by sending every float32 candidate to
    # row 0
    monkeypatch.setattr(match, "_BLOCK_ENTRIES", 3000)
    scan = match._candidates

    def misplaced(est, *args):
        found = scan(est, *args)
        if found is not None and est.dtype == np.float32:
            qi, rj = found
            found = qi, np.zeros_like(rj)
        return found

    monkeypatch.setattr(match, "_candidates", misplaced)
    rng = np.random.default_rng(20)
    src, dst = rng.normal(size=(400, 8)), rng.normal(size=(300, 8))
    src[-10:] = dst[100:] = src[-1]
    _assert_equals_oracle(src, dst)
    blocks = -(-400 // (3000 // 300))
    assert estimate_dtypes == [np.dtype(np.float32)] * blocks + [np.dtype(np.float64)] * blocks


def test_trajectory_descriptors_need_no_mutual_estimate(mutual_dtypes):
    # descriptors of one world point seen from two frames lie far closer
    # than any two points': no query's second-nearest distance reaches a
    # row's claim, so every claim stands without an estimate
    frames = synth.generate_trajectory(synth.TrajectorySpec(
        n_frames=2, profile="random", frame_spacing=5.0, sensor_range=15.0, seed=3))
    src, dst = synth.frame_descriptors(frames, seed=3)
    _assert_equals_oracle(src, dst)
    assert mutual_dtypes == []
    assert match_features(src, dst).is_mnn.mean() > 0.5


def test_an_exact_tie_from_a_lower_query_takes_the_row_from_its_claim():
    # query 1 holds row 0 at distance 1; query 0, nearest to row 1, lies at
    # exactly 1 from row 0 too, and the lower index wins the tie
    src = np.array([[0.0, 1.0], [1.0, 0.0]])
    dst = np.array([[0.0, 0.0], [0.0, 1.5]])
    _assert_equals_oracle(src, dst)
    c = match_features(src, dst)
    assert c.dst.tolist() == [1, 0] and c.feat_dist[1] == 1.0 and c.ratio[0] == 2.0
    assert c.is_mnn.tolist() == [True, False]


@settings(max_examples=300, deadline=None)
@given(_tie_heavy_pair(), st.sampled_from([1, 7, 100]), st.sampled_from([0, 4]))
def test_property_small_blocks_and_budgets_equal_the_oracle(pair, block_entries, per_row):
    # a budget of 0 sends every block and tile to float64 and 4 keeps most
    # in float32, so both steps run in both dtypes under their own limits;
    # 1 and 7 entries split a row's contenders into several pieces
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(match, "_BLOCK_ENTRIES", block_entries)
        mp.setattr(match, "_CANDIDATES_PER_ROW", per_row)
        _assert_equals_oracle(*pair)
