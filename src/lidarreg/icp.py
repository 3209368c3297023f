"""Point-to-point ICP refinement of a coarse rigid motion.

Each iteration transforms the source cloud by the current motion, pairs
every source point with its nearest target point, drops pairs farther
than the gate threshold, and re-fits a rigid motion on what remains.
An update that would raise the gated RMSE is rejected and the loop stops,
so the recorded RMSE sequence is nonincreasing and the returned motion is
never worse than the initialization under the gate.

Only the first search, from the initial motion, asks about every source
point; it reaches 1.5 gates and leaves each point a lower bound on its
distance to the target cloud.  Each later search, at the gate, asks only
about the points whose bound, less how far the point has moved since,
can still reach the gate.  By the triangle inequality the others have no
target point within the gate, the answer a gated search of every point
gives them, so every result equals that of a full search each iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geom import (Points, RigidMotion, SpatialIndex, _cloud, _pad, _shrink, _squared_norms,
                   apply)
from .ransac import SAMPLE_SIZE, DegenerateSampleError, kabsch

__all__ = ["IcpConfig", "IcpResult", "icp_refine"]

_MAX_ITERATIONS = 30
_RMSE_DELTA_TOL = 1e-6
_TRANSFORM_DELTA_TOL = 1e-6
_REACH = 1.5      # the first search's radius, in gates


@dataclass(frozen=True)
class IcpConfig:
    threshold: float = 0.6            # pairing gate, meters

    def __post_init__(self):
        if not self.threshold > 0.0:
            raise ValueError("threshold must be positive")


@dataclass(frozen=True)
class IcpResult:
    """``no_overlap`` flags an initialization with zero gated pairs; the
    input motion is returned unchanged and rmse is infinite."""

    motion: RigidMotion
    rmse: float
    iterations: int
    converged: bool
    no_overlap: bool
    rmse_history: tuple


def _gated_rmse(d: np.ndarray, gate: np.ndarray) -> float:
    return float(np.sqrt(np.mean(d[gate] ** 2)))


def icp_refine(src_points: Points, dst_points: Points, init: RigidMotion,
               cfg: IcpConfig = IcpConfig()) -> IcpResult:
    """Refine ``init`` so the source cloud lines up with the target cloud.

    Stops on the iteration cap, on convergence (RMSE change below
    ``_RMSE_DELTA_TOL`` and Frobenius change of the update below
    ``_TRANSFORM_DELTA_TOL``), or as soon as an update stops helping.
    """
    src = _cloud(src_points, "src_points")
    dst = _cloud(dst_points, "dst_points")
    if len(src) == 0 or len(dst) == 0:
        raise ValueError("both clouds must be non-empty")
    index = SpatialIndex(dst)

    cur = init
    reach = _REACH * cfg.threshold
    first = apply(cur, src)
    d, nn = index.nearest(first, reach)
    # The skip rule.  The scan's float distances lie within a few ulps of
    # the true ones, far inside a pad.  So each row's true distance to every
    # target point is at least ``bound``: its nearest scan distance, or
    # reach when none lies within reach, shrunk.  A row whose float move
    # from ``first`` is ``move`` has moved at most _pad(move), so its true
    # distance to every target point is now at least bound - _pad(move);
    # and a scan distance within the gate needs a true one within
    # _pad(gate).  One pad covers both terms and the rounding of their sum:
    # a row with bound > _pad(move + gate) has no target point within the
    # gate, and the gated search would give it inf and -1.
    bound = _shrink(np.minimum(d, reach))
    gate = d <= cfg.threshold
    if not gate.any():
        return IcpResult(init, math.inf, 0, False, True, ())
    rmse = _gated_rmse(d, gate)
    history = [rmse]
    converged = False
    iterations = 0

    for _ in range(_MAX_ITERATIONS):
        if int(gate.sum()) < SAMPLE_SIZE:
            break
        iterations += 1
        try:
            new = kabsch(src[gate], dst[nn[gate]])
        except DegenerateSampleError:
            break
        moved = apply(new, src)
        move = np.sqrt(_squared_norms(moved - first))
        rows = np.flatnonzero(bound <= _pad(move + cfg.threshold))
        d = np.full(len(src), np.inf)
        nn = np.full(len(src), -1, dtype=np.int64)
        d[rows], nn[rows] = index.nearest(moved[rows], cfg.threshold)
        new_gate = d <= cfg.threshold
        if not new_gate.any():
            break
        new_rmse = _gated_rmse(d, new_gate)
        change = math.sqrt(np.sum((new.rotation - cur.rotation) ** 2)
                           + np.sum((new.translation - cur.translation) ** 2))
        within_tol = abs(new_rmse - rmse) < _RMSE_DELTA_TOL \
            and change < _TRANSFORM_DELTA_TOL
        if new_rmse > rmse:
            # an update that stops helping ends the loop; if it moved less
            # than the tolerances we were already at the fixed point
            converged = within_tol
            break
        cur, gate, history = new, new_gate, history + [new_rmse]
        rmse = new_rmse
        if within_tol:
            converged = True
            break

    return IcpResult(cur, rmse, iterations, converged, False, tuple(history))
