"""Grid-prioritized filtering of putative matches.

Mutual-nearest-neighbor filtering keeps high-precision matches but tends
to concentrate them wherever the descriptors are easy, starving whole
regions of the scene.  This filter spreads a match budget evenly over an
M x M grid in the x-y plane: every occupied cell contributes up to the
same per-cell quota, and within a cell the best-ranked matches win.

The budget R defaults to a multiple phi of the number of mutual pairs,
so the filter adapts to how well the descriptors worked on this pair.
The quota is read off the sorted cell counts for every level at once,
and the selection is one stable sort of the priority order by cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .geom import Points, _cloud
from .match import Correspondences

__all__ = [
    "GpfConfig", "NoMnnPairsError", "gpf", "grid_assign", "priority_order",
    "quota_search",
]


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
    xy = _cloud(src_points, "src_points")[corrs.src, :2]
    lo = xy.min(axis=0)
    span = xy.max(axis=0) - lo
    # a zero-extent axis has every offset 0, so any width maps it to 0
    width = np.where(span > 0.0, span / grid_m, 1.0)
    cell = np.clip(np.floor((xy - lo) / width).astype(np.int64), 0, grid_m - 1)
    return cell[:, 0] * grid_m + cell[:, 1]


def quota_search(cell_counts, r: int) -> int:
    """Per-cell quota whose total selection lands closest to the budget.

    Finds the l in [1, max(counts)] minimizing |sum_i min(l, c_i) - r|,
    an exact straddle resolving toward the larger l.  Every level's total
    comes from the sorted counts at once: the cells below l in full, plus
    l for each of the rest.
    """
    counts = np.sort(np.asarray(cell_counts, dtype=np.int64))
    if r < 1:
        raise ValueError(f"budget must be >= 1, got {r}")
    if counts.size == 0 or counts[-1] < 1:
        raise ValueError("need at least one non-empty cell")
    # a budget past the total keeps the largest level; clamping keeps r in int64
    r = min(r, int(counts.sum()))
    levels = np.arange(1, counts[-1] + 1)
    below = np.searchsorted(counts, levels)
    below_sum = np.concatenate(([0], np.cumsum(counts)))[below]
    totals = below_sum + levels * (counts.size - below)
    miss = np.abs(totals - r)
    # levels[i] is i + 1; the last minimum is the larger level of a straddle
    return int(len(miss) - np.argmin(miss[::-1]))


def gpf(src_points: Points, corrs: Correspondences, cfg: GpfConfig) -> Correspondences:
    """Select a spatially spread, priority-ranked subset of matches.

    Every occupied grid cell contributes its top matches up to a common
    quota; the quota is chosen so the total lands as close as possible to
    the budget.  The output runs over the cells in ascending id, best
    match first within each.  When the budget exceeds the number of
    matches the input comes back whole (cell-ordered).
    """
    src_points = _cloud(src_points, "src_points")
    if len(corrs) == 0:
        raise ValueError("no correspondences to filter")
    r = target_count(corrs, cfg)
    cells = grid_assign(src_points, corrs, cfg.grid_m)
    # best-first, then stably by cell: each cell's matches in priority order
    order = priority_order(corrs)
    order = order[np.argsort(cells[order], kind="stable")]
    _, first, counts = np.unique(cells[order], return_index=True, return_counts=True)
    level = quota_search(counts, r)
    place = np.arange(len(order)) - np.repeat(first, counts)
    return corrs.take(order[place < level])
