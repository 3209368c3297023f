"""Rigid motions, Euler angles, voxel downsampling, and exact nearest-neighbor search.

Conventions used throughout the package:

* A point cloud is a float64 array of shape (N, 3), one point per row.
  When a cloud has per-point descriptors, row i of the cloud corresponds
  to row i of the descriptor array.
* A rigid motion maps points as ``x -> R @ x + t`` with R a proper
  rotation (orthonormal, det +1).
* Euler angles are intrinsic Z-Y-X (yaw, then pitch, then roll), degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TypeAlias

import numpy as np
from numpy.typing import NDArray
from scipy.spatial import cKDTree

__all__ = [
    "RigidMotion", "EulerAngles", "GimbalLockError", "SpatialIndex", "apply",
    "compose", "inverse", "from_euler", "to_euler", "rotation_is_valid",
    "voxel_downsample",
]

F64: TypeAlias = np.float64
Points: TypeAlias = NDArray[F64]      # (N, 3)
Vec3: TypeAlias = NDArray[F64]        # (3,)
Mat3: TypeAlias = NDArray[F64]        # (3, 3)

ROTATION_TOL = 1e-9
GIMBAL_MARGIN_DEG = 1e-6


class GimbalLockError(ValueError):
    """Pitch is at +/-90 degrees; yaw and roll are not separable."""


def _as_f64(a) -> NDArray[F64]:
    return np.ascontiguousarray(a, dtype=np.float64)


def _cloud(a, what: str, row_ok: bool = False) -> Points:
    """``a`` as a float64 (N, 3) cloud; a ValueError naming the shape for
    any other shape.  With ``row_ok`` a single (3,) row reads as (1, 3)."""
    a = _as_f64(a)
    if row_ok and a.shape == (3,):
        return a[None]
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError(f"{what} must have shape (N, 3), got {a.shape}")
    return a


def _squared_norms(d: NDArray[F64]) -> NDArray[F64]:
    """Squared norms over the last axis of ``d``, x*x + y*y + z*z.

    The columns are added in order, one whole column at a time: the same
    float as ``np.sum(d ** 2, axis=-1)``, which numpy reduces slowly over
    a short axis.
    """
    out = np.square(d[..., 0])
    for k in range(1, d.shape[-1]):
        out += np.square(d[..., k])
    return out


# ---------------------------------------------------------------------------
# rigid motions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RigidMotion:
    """Proper rigid motion x -> rotation @ x + translation."""

    rotation: Mat3
    translation: Vec3

    @staticmethod
    def identity() -> "RigidMotion":
        return RigidMotion(np.eye(3), np.zeros(3))

    def matrix34(self) -> NDArray[F64]:
        """Row-major 3x4 [R | t] block."""
        return np.hstack([self.rotation, self.translation.reshape(3, 1)])


def rotation_is_valid(rotation: Mat3, tol: float = ROTATION_TOL) -> bool:
    """True iff ``rotation`` is orthonormal with det +1, both within tol."""
    rotation = _as_f64(rotation)
    if rotation.shape != (3, 3):
        return False
    ortho = np.abs(rotation @ rotation.T - np.eye(3)).max()
    return bool(ortho <= tol and abs(np.linalg.det(rotation) - 1.0) <= tol)


def compose(a: RigidMotion, b: RigidMotion) -> RigidMotion:
    """Motion equivalent to applying b first, then a."""
    return RigidMotion(a.rotation @ b.rotation,
                       a.rotation @ b.translation + a.translation)


def inverse(t: RigidMotion) -> RigidMotion:
    rt = t.rotation.T
    return RigidMotion(rt.copy(), -rt @ t.translation)


def apply(t: RigidMotion, points: Points) -> Points:
    """Apply a rigid motion to one point (3,) or a cloud (N, 3)."""
    points = _as_f64(points)
    return points @ t.rotation.T + t.translation


# ---------------------------------------------------------------------------
# Euler angles, intrinsic Z-Y-X
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EulerAngles:
    """Intrinsic Z-Y-X angles in degrees.

    Ranges: yaw and roll in (-180, 180], pitch in [-90, 90].
    """

    roll: float
    pitch: float
    yaw: float


def from_euler(e: EulerAngles) -> Mat3:
    """Rotation matrix Rz(yaw) @ Ry(pitch) @ Rx(roll)."""
    r, p, y = np.deg2rad([e.roll, e.pitch, e.yaw])
    cr, sr = np.cos(r), np.sin(r)
    cp, sp = np.cos(p), np.sin(p)
    cy, sy = np.cos(y), np.sin(y)
    rz = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cp, 0.0, sp], [0.0, 1.0, 0.0], [-sp, 0.0, cp]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cr, -sr], [0.0, sr, cr]])
    return rz @ ry @ rx


def _wrap_half_open(deg: float) -> float:
    # map into (-180, 180]
    if deg <= -180.0:
        deg += 360.0
    return deg


def to_euler(rotation: Mat3) -> EulerAngles:
    """Extract intrinsic Z-Y-X angles from a rotation matrix.

    Raises
    ------
    GimbalLockError
        When |pitch| is within 1e-6 degrees of 90; yaw and roll are then
        not independently determined and the caller must decide what to do.
    """
    rotation = _as_f64(rotation)
    sp = np.clip(-rotation[2, 0], -1.0, 1.0)
    pitch = np.rad2deg(np.arcsin(sp))
    if abs(pitch) >= 90.0 - GIMBAL_MARGIN_DEG:
        raise GimbalLockError(f"pitch {pitch:.6f} deg is inside the gimbal-lock margin")
    yaw = np.rad2deg(np.arctan2(rotation[1, 0], rotation[0, 0]))
    roll = np.rad2deg(np.arctan2(rotation[2, 1], rotation[2, 2]))
    return EulerAngles(roll=_wrap_half_open(float(roll)),
                       pitch=float(pitch),
                       yaw=_wrap_half_open(float(yaw)))


# ---------------------------------------------------------------------------
# voxel downsampling
# ---------------------------------------------------------------------------

def voxel_downsample(points: Points, voxel_size: float) -> Points:
    """Replace all points in each occupied voxel by their centroid.

    The grid is anchored at the origin: point p falls in voxel
    floor(p / voxel_size).  Output rows are ordered by voxel key, which
    makes the result deterministic and the operation idempotent (each
    centroid stays inside its own voxel).  A size that puts a key outside
    the int64 range, as a tiny one does, is refused rather than merging
    points.
    """
    if voxel_size <= 0.0:
        raise ValueError(f"voxel_size must be positive, got {voxel_size}")
    points = _cloud(points, "points")
    scaled = points / voxel_size
    # also false for a NaN size and for non-finite points
    if not np.abs(scaled).max(initial=0.0) < 2.0 ** 63:
        raise ValueError(f"voxel_size {voxel_size} gives voxel keys outside the "
                         f"int64 range (or the points are not finite)")
    keys = np.floor(scaled).astype(np.int64)
    # voxels in (x, y, z) key order, as np.unique(keys, axis=0) gives them
    order = np.lexsort(keys.T[::-1])
    sorted_keys = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    inv = np.empty(len(keys), dtype=np.intp)
    inv[order] = np.cumsum(starts) - 1
    n_voxels = int(np.count_nonzero(starts))
    sums = np.zeros((n_voxels, 3))
    np.add.at(sums, inv, points)
    counts = np.bincount(inv, minlength=n_voxels).astype(np.float64)
    return sums / counts[:, None]


# ---------------------------------------------------------------------------
# exact nearest-neighbor index
# ---------------------------------------------------------------------------

class SpatialIndex:
    """k-d tree wrapper whose answers match a brute-force linear scan exactly.

    Distance ties are broken by the smaller point index, so results are
    reproducible regardless of tree layout.
    """

    def __init__(self, points: Points):
        self._points = _cloud(points, "points")
        if len(self._points) == 0:
            raise ValueError("SpatialIndex needs at least one point")
        # no median splits and no node shrinking: about half the build time,
        # and the answers do not depend on the tree's layout
        self._tree = cKDTree(self._points, balanced_tree=False, compact_nodes=False)

    def _brute(self, idx, q: NDArray[F64]) -> NDArray[F64]:
        # the distances a brute-force linear scan would compute
        return np.sqrt(_squared_norms(self._points[idx] - q))

    def nearest(self, queries: Points, r: float = np.inf) -> tuple[NDArray[F64], NDArray[np.int64]]:
        """Distance and index of the single nearest point per query row.

        The search stops at r: a row with no point within distance r gets
        distance inf and index -1, and every other row the same answer as
        an unbounded search.
        """
        queries = _cloud(queries, "queries", row_ok=True)
        _check_radius(r)
        out_d = np.full(len(queries), np.inf)
        out_i = np.full(len(queries), -1, dtype=np.int64)
        # a one-point tree answers the runner-up with inf at index n
        dt, i = self._tree.query(queries, k=2, distance_upper_bound=_pad(r))
        # only rows whose padded search found a point are re-measured, with
        # the brute-force scan's arithmetic
        rows = np.flatnonzero(i[:, 0] < len(self._points))
        best_i = i[rows, 0]
        best_d = self._brute(best_i, queries[rows])
        # the tree's and the scan's distances lie within a pad of each
        # other either way, so a runner-up beyond _pad(_pad(dt0)) leaves
        # every other point farther than the first in the scan's
        # arithmetic too; closer than that, rounding may hide a tie or
        # swap the order: pull everything within the first point's padded
        # scan distance and rank by (distance, index)
        for k in np.flatnonzero(dt[rows, 1] <= _pad(_pad(dt[rows, 0]))):
            q = queries[rows[k]]
            cand = np.asarray(self._tree.query_ball_point(q, _pad(best_d[k])),
                              dtype=np.int64)
            cd = self._brute(cand, q)
            j = np.lexsort((cand, cd))[0]
            best_d[k], best_i[k] = cd[j], cand[j]
        far = best_d > r
        best_d[far], best_i[far] = np.inf, -1
        out_d[rows], out_i[rows] = best_d, best_i
        return out_d, out_i

    def within(self, queries: Points, r: float) -> NDArray[np.bool_]:
        """Per query row, whether some point lies within distance r.

        Equal to ``any(sqrt(sum((p - q)**2)) <= r)`` over the points p, as
        a brute-force scan computes it; a point at exactly r counts.
        """
        queries = _cloud(queries, "queries", row_ok=True)
        _check_radius(r)
        pad = _pad(r)
        d, i = self._tree.query(queries, k=1, distance_upper_bound=pad)
        # a tree distance this far inside r is within r however either side
        # rounds; the tree's nearest point between there and the pad is
        # re-measured, and no point of a scan within r is missing from the
        # padded search
        out = d <= _shrink(r)
        rows = np.flatnonzero(~out & (i < len(self._points)))
        near = self._brute(i[rows], queries[rows]) <= r
        out[rows[near]] = True
        # the tree's nearest re-measured above r: another point may still
        # lie within r, so scan all points inside the pad
        for row in rows[~near]:
            cand = self._tree.query_ball_point(queries[row], pad)
            out[row] = bool((self._brute(cand, queries[row]) <= r).any())
        return out


def _check_radius(r: float) -> None:
    if np.isnan(r):
        raise ValueError("search radius must not be NaN")


def _pad(r: float) -> float:
    # a search radius that keeps every point of distance <= r in even when
    # the tree's own arithmetic rounds it slightly above r
    return r * (1.0 + 1e-9) + 1e-12


def _shrink(r: float) -> float:
    # the mirror of _pad: a distance at most this is within r even when the
    # tree's own arithmetic rounds it slightly below the scan's
    return r * (1.0 - 1e-9) - 1e-12
