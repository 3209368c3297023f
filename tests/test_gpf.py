"""Grid-prioritized filtering: quota search, grid assignment, selection."""

from __future__ import annotations

import numpy as np
import pytest

from lidarreg.gpf import (
    GpfConfig,
    NoMnnPairsError,
    gpf,
    grid_assign,
    priority_order,
    quota_search,
    target_count,
)
from lidarreg.match import Correspondences


def make_corrs(n, rng=None, ratio=None, is_mnn=None, src=None):
    if rng is None:
        rng = np.random.default_rng(0)
    return Correspondences(
        src=np.arange(n, dtype=np.int64) if src is None else np.asarray(src, dtype=np.int64),
        dst=np.arange(n, dtype=np.int64),
        feat_dist=rng.uniform(0.1, 1.0, n),
        ratio=rng.uniform(1.0, 3.0, n) if ratio is None else np.asarray(ratio, dtype=float),
        is_mnn=rng.random(n) < 0.5 if is_mnn is None else np.asarray(is_mnn, dtype=bool),
    )


# ---------------------------------------------------------------------------
# quota search
# ---------------------------------------------------------------------------

def quota_oracle(counts, r):
    """Linear scan over every feasible quota, ties resolved upward."""
    counts = np.asarray(counts)
    best, best_err = None, None
    for level in range(1, int(counts.max()) + 1):
        err = abs(int(np.minimum(counts, level).sum()) - r)
        if best is None or err <= best_err:
            best, best_err = level, err
    return best


def test_quota_frozen_values():
    assert quota_search([5, 5, 5, 5], 8) == 2
    assert quota_search([10, 1, 1, 0], 6) == 4
    assert quota_search([3, 3, 3], 9) == 3
    assert quota_search([7], 4) == 4


def test_quota_matches_linear_scan_oracle():
    rng = np.random.default_rng(1)
    for _ in range(500):
        n_cells = rng.integers(1, 12)
        counts = rng.integers(0, 40, n_cells)
        if counts.max() == 0:
            counts[rng.integers(n_cells)] = rng.integers(1, 40)
        r = int(rng.integers(1, 120))
        assert quota_search(counts, r) == quota_oracle(counts, r), (list(counts), r)


def test_quota_budget_above_total_returns_max_count():
    assert quota_search([2, 3, 1], 100) == 3
    assert quota_search([4], 4) == 4


def test_quota_rejects_bad_input():
    with pytest.raises(ValueError):
        quota_search([3, 2], 0)
    with pytest.raises(ValueError):
        quota_search([0, 0], 5)
    with pytest.raises(ValueError):
        quota_search([], 5)


# ---------------------------------------------------------------------------
# budget
# ---------------------------------------------------------------------------

def test_target_count_scales_mnn_pairs():
    c = make_corrs(1000, is_mnn=np.arange(1000) < 800)
    assert target_count(c, GpfConfig(phi=2.0)) == 1600
    assert target_count(c, GpfConfig(phi=1.0)) == 800
    assert target_count(c, GpfConfig(phi=3.0)) == 2400


def test_target_count_floor_of_one():
    c = make_corrs(10, is_mnn=np.arange(10) == 0)
    assert target_count(c, GpfConfig(phi=0.2)) == 1


def test_target_count_that_overflows_keeps_every_match():
    c = make_corrs(1000, is_mnn=np.arange(1000) < 800)
    assert target_count(c, GpfConfig(phi=1e308)) == 1000
    assert len(gpf(np.zeros((1000, 3)), c, GpfConfig(phi=1e308))) == 1000
    # a finite product is still rounded, however far past len(corrs)
    assert target_count(c, GpfConfig(phi=1e300)) == int(np.floor(800e300 + 0.5))


def test_target_count_no_mnn_is_an_error():
    c = make_corrs(50, is_mnn=np.zeros(50, dtype=bool))
    with pytest.raises(NoMnnPairsError):
        target_count(c, GpfConfig(phi=2.0))


def test_config_validation():
    with pytest.raises(ValueError):
        GpfConfig(grid_m=0)
    with pytest.raises(ValueError):
        GpfConfig(phi=0.0)


@pytest.mark.parametrize("phi", [np.inf, np.nan])
def test_config_rejects_non_finite_phi(phi):
    with pytest.raises(ValueError, match="phi must be positive and finite"):
        GpfConfig(phi=phi)


# ---------------------------------------------------------------------------
# grid assignment
# ---------------------------------------------------------------------------

def test_grid_assign_matches_floor_division():
    rng = np.random.default_rng(2)
    pts = rng.uniform(-30.0, 30.0, size=(400, 3))
    c = make_corrs(400)
    m = 7
    cells = grid_assign(pts, c, m)
    xy = pts[:, :2]
    lo, hi = xy.min(axis=0), xy.max(axis=0)
    for axis_pt, cell in zip(xy, cells):
        ix = min(int(np.floor((axis_pt[0] - lo[0]) / ((hi[0] - lo[0]) / m))), m - 1)
        iy = min(int(np.floor((axis_pt[1] - lo[1]) / ((hi[1] - lo[1]) / m))), m - 1)
        assert cell == ix * m + iy


def test_grid_assign_maximal_edge_in_last_cell():
    pts = np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 0.0], [5.0, 5.0, 0.0]])
    c = make_corrs(3)
    cells = grid_assign(pts, c, 2)
    assert cells[0] == 0
    assert cells[1] == 3          # (1, 1) despite sitting on the max corner
    assert cells[2] == 3          # midpoint boundary goes up


def test_grid_assign_degenerate_bbox_single_cell():
    pts = np.tile(np.array([[2.0, -1.0, 0.5]]), (6, 1))
    c = make_corrs(6)
    assert np.all(grid_assign(pts, c, 5) == 0)


def test_grid_assign_one_cell_grid():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(20, 3))
    c = make_corrs(20)
    assert np.all(grid_assign(pts, c, 1) == 0)


def test_grid_assign_ignores_z():
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.0, 10.0, size=(50, 3))
    shifted = pts.copy()
    shifted[:, 2] += 100.0
    c = make_corrs(50)
    assert np.array_equal(grid_assign(pts, c, 4), grid_assign(shifted, c, 4))


# ---------------------------------------------------------------------------
# priority order
# ---------------------------------------------------------------------------

def test_priority_mnn_first_then_ratio_then_index():
    c = Correspondences(
        src=np.array([0, 1, 2, 3, 4]),
        dst=np.zeros(5, dtype=np.int64),
        feat_dist=np.zeros(5),
        ratio=np.array([1.5, 9.0, 2.0, 2.0, 9.0]),
        is_mnn=np.array([False, False, True, True, False]),
    )
    order = priority_order(c)
    # mnn pairs (2, 3) first, tied ratio broken by source index; then by ratio
    assert list(order) == [2, 3, 1, 4, 0]


def test_priority_handles_infinite_ratio():
    c = Correspondences(
        src=np.array([0, 1, 2]),
        dst=np.zeros(3, dtype=np.int64),
        feat_dist=np.zeros(3),
        ratio=np.array([2.0, np.inf, 3.0]),
        is_mnn=np.array([True, True, True]),
    )
    assert list(priority_order(c)) == [1, 2, 0]


# ---------------------------------------------------------------------------
# full selection
# ---------------------------------------------------------------------------

def gpf_oracle(src_points, corrs, cfg):
    """Brute-force per-cell top-quota selection."""
    r = target_count(corrs, cfg)
    cells = grid_assign(src_points, corrs, cfg.grid_m)
    occupied, counts = np.unique(cells, return_counts=True)
    level = quota_oracle(counts, r)
    rank = np.empty(len(corrs), dtype=np.int64)
    rank[priority_order(corrs)] = np.arange(len(corrs))
    out = []
    for cell_id in occupied:
        members = [i for i in range(len(corrs)) if cells[i] == cell_id]
        members.sort(key=lambda i: rank[i])
        out.extend(members[:level])
    return out


def test_gpf_matches_brute_force_oracle():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(10, 300))
        pts = rng.uniform(-20.0, 20.0, size=(n, 3))
        c = make_corrs(n, rng=np.random.default_rng(100 + trial))
        if not c.is_mnn.any():
            continue
        cfg = GpfConfig(grid_m=int(rng.integers(1, 8)), phi=float(rng.uniform(0.3, 3.0)))
        got = gpf(pts, c, cfg)
        want = c.take(gpf_oracle(pts, c, cfg))
        assert np.array_equal(got.src, want.src), trial
        assert np.array_equal(got.dst, want.dst)


def test_gpf_equal_counts_in_full_cells():
    rng = np.random.default_rng(6)
    # dense uniform scatter so every cell has plenty of candidates
    pts = rng.uniform(0.0, 40.0, size=(900, 3))
    c = make_corrs(900, rng=rng)
    cfg = GpfConfig(grid_m=3, phi=0.5)
    out = gpf(pts, c, cfg)
    cells_all = grid_assign(pts, c, cfg.grid_m)
    occupied, counts = np.unique(cells_all, return_counts=True)
    level = quota_search(counts, target_count(c, cfg))
    cells_out = cells_all[out.src]   # src is arange, so src doubles as position
    for cell_id, total in zip(occupied, counts):
        if total >= level:
            assert int((cells_out == cell_id).sum()) == level


def test_gpf_budget_above_total_returns_everything():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 10.0, size=(40, 3))
    c = make_corrs(40, rng=rng, is_mnn=np.ones(40, dtype=bool))
    out = gpf(pts, c, GpfConfig(grid_m=4, phi=3.0))
    assert sorted(out.src) == list(range(40))


def test_gpf_selected_count_monotone_in_phi():
    rng = np.random.default_rng(8)
    pts = rng.uniform(0.0, 25.0, size=(300, 3))
    c = make_corrs(300, rng=rng)
    sizes = [len(gpf(pts, c, GpfConfig(grid_m=5, phi=p)))
             for p in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)]
    assert sizes == sorted(sizes)


def test_gpf_empty_input_rejected():
    c = make_corrs(0, is_mnn=np.zeros(0, dtype=bool))
    with pytest.raises(ValueError):
        gpf(np.zeros((0, 3)), c, GpfConfig())
