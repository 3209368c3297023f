"""Registration error metrics, success accounting, and distribution reports.

Rotation error is the geodesic angle between estimate and ground truth,
``arccos((trace(R_est^T R_gt) - 1) / 2)`` in degrees; translation error is
the Euclidean distance between translation vectors.  A registration
succeeds when RE < 5 degrees and TE < 0.6 meters (both strict).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .geom import GimbalLockError, RigidMotion, inverse, to_euler

__all__ = [
    "PairRecord", "DEFAULT_BIN_EDGES",
    "rotation_error", "translation_error", "is_success", "recall", "histogram",
    "failure_histogram", "set_distribution_report",
]

RE_MAX_DEG = 5.0
TE_MAX_M = 0.6

# histogram edges for the six pair parameters (see set_distribution_report)
DEFAULT_BIN_EDGES: dict[str, NDArray[np.float64]] = {
    "distance": np.arange(0.0, 60.0 + 1e-9, 5.0),
    "overlap": np.arange(0.2, 1.0 + 1e-9, 0.05),
    "yaw": np.arange(-180.0, 180.0 + 1e-9, 15.0),
    "pitch": np.arange(-10.0, 10.0 + 1e-9, 1.0),
    "roll": np.arange(-10.0, 10.0 + 1e-9, 1.0),
    "dt": np.arange(0.0, 60.0 + 1e-9, 5.0),
}


def rotation_error(est_rotation, gt_rotation) -> float:
    """Geodesic angle between two rotations, degrees.

    The trace argument is clamped to [-1, 1]; round-off can push it a few
    ulp outside and arccos would otherwise return NaN.
    """
    est = np.asarray(est_rotation, dtype=np.float64)
    gt = np.asarray(gt_rotation, dtype=np.float64)
    cos_angle = (np.trace(est.T @ gt) - 1.0) / 2.0
    return float(np.rad2deg(np.arccos(np.clip(cos_angle, -1.0, 1.0))))


def translation_error(est_translation, gt_translation) -> float:
    """Euclidean distance between translation vectors, meters."""
    est = np.asarray(est_translation, dtype=np.float64)
    gt = np.asarray(gt_translation, dtype=np.float64)
    return float(np.linalg.norm(est - gt))


def is_success(re_deg: float, te_m: float) -> bool:
    """Strict thresholds on both errors."""
    return bool(re_deg < RE_MAX_DEG and te_m < TE_MAX_M)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairRecord:
    """One row of a registration set.

    ``motion`` maps source-frame coordinates into the target frame (the
    quantity a registration algorithm estimates).  ``dt`` is the absolute
    timestamp gap in seconds.
    """

    sequence_id: str
    src: int
    tgt: int
    motion: RigidMotion
    overlap: float
    dt: float

    def parameters(self) -> dict[str, float]:
        """The pair's six parameters by name, in ``DEFAULT_BIN_EDGES`` order.

        ``distance`` is the sensor displacement between the two frames,
        meters.  Yaw, pitch and roll are the relative attitude of the
        target frame seen from the source, computed from the inverse of
        ``motion`` (the target pose expressed in source axes), which is the
        natural sign convention for asking "how did the vehicle turn
        between these frames".  At gimbal lock no angle is defined and the
        three are left out.
        """
        try:
            e = to_euler(inverse(self.motion).rotation)
            angles = {"yaw": e.yaw, "pitch": e.pitch, "roll": e.roll}
        except GimbalLockError:
            angles = {}
        return {"distance": float(np.linalg.norm(self.motion.translation)),
                "overlap": float(self.overlap), **angles, "dt": float(self.dt)}


def recall(success) -> float:
    """Fraction of true success flags; empty input is an error."""
    success = np.asarray(success, dtype=bool)
    if success.size == 0:
        raise ValueError("recall over zero records is undefined")
    return float(success.mean())


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

def histogram(values, edges) -> NDArray[np.int64]:
    """Per-bin counts over fixed edges; bin i covers [edges[i], edges[i+1])
    with the last bin closed on the right.  Values outside the range are
    clipped into the boundary bins so the counts sum to the input size."""
    values = np.asarray(values, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.float64)
    bins = np.searchsorted(edges, values, side="right") - 1
    counts = np.bincount(np.clip(bins, 0, len(edges) - 2), minlength=len(edges) - 1)
    return counts.astype(np.int64)


def failure_histogram(parameter: str, values, success) -> dict[str, NDArray]:
    """Bin one pair parameter's values over its ``DEFAULT_BIN_EDGES`` and
    split the counts by success: the columns ``successes``, ``failures``
    and ``failure_ratio``, failures / (successes + failures), in that
    order.  An empty bin reports a ratio of 0."""
    edges = DEFAULT_BIN_EDGES[parameter]
    values = np.asarray(values, dtype=np.float64)
    ok = np.asarray(success, dtype=bool)
    successes = histogram(values[ok], edges)
    failures = histogram(values[~ok], edges)
    total = successes + failures
    ratio = np.zeros(len(total))
    np.divide(failures, total, out=ratio, where=total > 0)
    return {"successes": successes, "failures": failures, "failure_ratio": ratio}


def set_distribution_report(pairs) -> dict[str, NDArray[np.int64]]:
    """Counts of each pair parameter over a registration set.

    Covers sensor displacement, overlap, relative yaw/pitch/roll, and the
    timestamp gap, using the default edges.  This is the summary used to
    compare how balanced different registration sets are.  A pair at
    gimbal lock raises ``GimbalLockError``, since its angles have no bin.
    """
    values = []
    for p in pairs:
        v = p.parameters()
        if len(v) < len(DEFAULT_BIN_EDGES):
            raise GimbalLockError(f"pair {p.sequence_id} {p.src}->{p.tgt} is at "
                                  "gimbal lock; its roll, pitch and yaw are undefined")
        values.append(v)
    return {name: histogram([v[name] for v in values], edges)
            for name, edges in DEFAULT_BIN_EDGES.items()}
