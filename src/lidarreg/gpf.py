"""Grid-prioritized filtering of putative matches.

Mutual-nearest-neighbor filtering keeps high-precision matches but tends
to concentrate them wherever the descriptors are easy, starving whole
regions of the scene.  This filter spreads a match budget evenly over an
M x M grid in the x-y plane: every occupied cell contributes up to the
same per-cell quota, and within a cell the best-ranked matches win.

The budget R defaults to a multiple phi of the number of mutual pairs,
so the filter adapts to how well the descriptors worked on this pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .geom import Points
from .match import Correspondences


@dataclass(frozen=True)
class GpfConfig:
    """Knobs for grid-prioritized filtering.

    phi scales the mutual-pair count into the match budget.
    """

    grid_m: int = 10
    phi: float = 2.0

    def __post_init__(self):
        if self.grid_m < 1:
            raise ValueError(f"grid_m must be >= 1, got {self.grid_m}")
        if not 0.0 < self.phi < np.inf:
            raise ValueError(f"phi must be positive and finite, got {self.phi}")


class NoMnnPairsError(ValueError):
    """Budget is undefined: the correspondences hold no mutual pair."""


def priority_order(corrs: Correspondences) -> NDArray[np.int64]:
    """Positions of ``corrs`` sorted best-first.

    Mutual pairs come before non-mutual ones, higher ratio before lower,
    and the source index breaks remaining ties.  The robust estimator's
    progressive sampler consumes matches in exactly this order.
    """
    return np.lexsort((corrs.src, -corrs.ratio, ~corrs.is_mnn))


def target_count(corrs: Correspondences, cfg: GpfConfig) -> int:
    """Match budget R for this correspondence set (never below 1).

    A budget too large for a float is ``len(corrs)``, which keeps every
    match.
    """
    n_mnn = int(np.count_nonzero(corrs.is_mnn))
    if n_mnn == 0:
        raise NoMnnPairsError("no mutual pairs to scale the budget from")
    budget = cfg.phi * n_mnn
    if budget == np.inf:
        return len(corrs)
    # round half away from zero, then clamp to at least one match
    return max(1, int(np.floor(budget + 0.5)))


def grid_assign(src_points: Points, corrs: Correspondences, grid_m: int) -> NDArray[np.int64]:
    """Grid cell id for each correspondence, from its source point's x-y.

    The grid spans the axis-aligned bounding box of the referenced source
    points, split into grid_m x grid_m equal cells.  Cell membership is
    floor division on each axis; points on the maximal edge fall into the
    last cell.  A degenerate axis (zero extent) maps to index 0.
    """
    if grid_m < 1:
        raise ValueError(f"grid_m must be >= 1, got {grid_m}")
    xy = np.asarray(src_points, dtype=np.float64)[corrs.src][:, :2]
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    span = hi - lo
    cell = np.zeros((len(xy), 2), dtype=np.int64)
    for axis in range(2):
        if span[axis] > 0.0:
            width = span[axis] / grid_m
            idx = np.floor((xy[:, axis] - lo[axis]) / width).astype(np.int64)
            cell[:, axis] = np.clip(idx, 0, grid_m - 1)
    return cell[:, 0] * grid_m + cell[:, 1]


def quota_search(cell_counts, r: int) -> int:
    """Per-cell quota whose total selection lands closest to the budget.

    Finds the l in [1, max(counts)] minimizing |sum_i min(l, c_i) - r|.
    The total is strictly increasing in l over that range, so a binary
    search suffices; an exact straddle resolves toward the larger l.
    """
    counts = np.asarray(cell_counts, dtype=np.int64)
    if r < 1:
        raise ValueError(f"budget must be >= 1, got {r}")
    if counts.size == 0 or counts.max() < 1:
        raise ValueError("need at least one non-empty cell")

    def total(level: int) -> int:
        return int(np.minimum(counts, level).sum())

    lo, hi = 1, int(counts.max())
    if total(hi) <= r:
        return hi
    # smallest level whose total reaches the budget
    while lo < hi:
        mid = (lo + hi) // 2
        if total(mid) >= r:
            hi = mid
        else:
            lo = mid + 1
    if lo == 1:
        return 1
    above = total(lo) - r
    below = r - total(lo - 1)
    return lo if above <= below else lo - 1


def gpf(src_points: Points, corrs: Correspondences, cfg: GpfConfig) -> Correspondences:
    """Select a spatially spread, priority-ranked subset of matches.

    Every occupied grid cell contributes its top matches up to a common
    quota; the quota is chosen so the total lands as close as possible to
    the budget.  When the budget exceeds the number of matches the input
    comes back whole (cell-ordered).
    """
    if len(corrs) == 0:
        raise ValueError("no correspondences to filter")
    r = target_count(corrs, cfg)
    cells = grid_assign(src_points, corrs, cfg.grid_m)
    rank = np.empty(len(corrs), dtype=np.int64)
    rank[priority_order(corrs)] = np.arange(len(corrs))

    occupied, counts = np.unique(cells, return_counts=True)
    level = quota_search(counts, r)

    keep: list[np.ndarray] = []
    for cell_id in occupied:
        members = np.nonzero(cells == cell_id)[0]
        best = members[np.argsort(rank[members])][:level]
        keep.append(best)
    return corrs.take(np.concatenate(keep))
