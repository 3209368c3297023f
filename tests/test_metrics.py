"""Error metrics against a quaternion oracle; success and histogram accounting."""

from __future__ import annotations

import numpy as np
import pytest

from lidarreg.geom import EulerAngles, RigidMotion, from_euler, inverse
from lidarreg.metrics import (
    DEFAULT_BIN_EDGES,
    PairRecord,
    failure_histogram,
    histogram,
    is_success,
    recall,
    rotation_error,
    set_distribution_report,
    translation_error,
)

from test_geom import random_motion, random_rotation


# ---------------------------------------------------------------------------
# rotation / translation errors
# ---------------------------------------------------------------------------

def matrix_to_quat(r):
    """Shepperd-style extraction, independent of the trace formula."""
    r = np.asarray(r)
    t = np.trace(r)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2
        return np.array([0.25 * s,
                         (r[2, 1] - r[1, 2]) / s,
                         (r[0, 2] - r[2, 0]) / s,
                         (r[1, 0] - r[0, 1]) / s])
    i = int(np.argmax(np.diag(r)))
    j, k = (i + 1) % 3, (i + 2) % 3
    s = np.sqrt(r[i, i] - r[j, j] - r[k, k] + 1.0) * 2
    q = np.empty(4)
    q[0] = (r[k, j] - r[j, k]) / s
    q[1 + i] = 0.25 * s
    q[1 + j] = (r[j, i] + r[i, j]) / s
    q[1 + k] = (r[k, i] + r[i, k]) / s
    return q


def quat_geodesic_deg(r1, r2) -> float:
    q1, q2 = matrix_to_quat(r1), matrix_to_quat(r2)
    dot = abs(float(np.dot(q1, q2)))
    return float(np.rad2deg(2.0 * np.arccos(min(dot, 1.0))))


def test_rotation_error_matches_quaternion_geodesic():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        r1, r2 = random_rotation(rng), random_rotation(rng)
        assert abs(rotation_error(r1, r2) - quat_geodesic_deg(r1, r2)) < 1e-6


def test_rotation_error_known_angles():
    for deg in (1.0, 15.0, 90.0, 179.0):
        r = from_euler(EulerAngles(0.0, 0.0, deg))
        assert abs(rotation_error(np.eye(3), r) - deg) < 1e-9


def test_rotation_error_clamp_no_nan_at_identity():
    rng = np.random.default_rng(1)
    r = random_rotation(rng)
    # a round trip through compose introduces ~1e-16 asymmetry
    wobbled = r @ (r.T @ r)
    re = rotation_error(wobbled, r)
    assert np.isfinite(re)
    assert re < 1e-5


def test_rotation_error_at_180_degrees():
    r = from_euler(EulerAngles(0.0, 0.0, 180.0))
    assert abs(rotation_error(np.eye(3), r) - 180.0) < 1e-9


def test_translation_error_plain_norm():
    assert translation_error(np.array([1.0, 2.0, 2.0]), np.zeros(3)) == 3.0
    assert translation_error(np.array([1.0, 1.0, 1.0]), np.array([1.0, 1.0, 1.0])) == 0.0


def test_translation_error_invariant_to_common_shift():
    rng = np.random.default_rng(2)
    a, b, shift = rng.normal(size=3), rng.normal(size=3), rng.normal(size=3)
    assert np.isclose(translation_error(a, b), translation_error(a + shift, b + shift))


# ---------------------------------------------------------------------------
# success and recall
# ---------------------------------------------------------------------------

def test_success_strict_thresholds():
    assert is_success(4.999, 0.599)
    assert not is_success(5.0, 0.3)      # boundary is a failure
    assert not is_success(2.0, 0.6)
    assert not is_success(7.0, 0.7)


def make_pair(seq="s", src=0, tgt=1, motion=None, overlap=0.5, dt=1.0):
    if motion is None:
        motion = RigidMotion.identity()
    return PairRecord(seq, src, tgt, motion, overlap, dt)


def test_recall_counts_successes():
    assert recall([True] * 3 + [False]) == 0.75


def test_recall_empty_is_error():
    with pytest.raises(ValueError):
        recall([])


# ---------------------------------------------------------------------------
# pair parameters
# ---------------------------------------------------------------------------

def test_pair_distance_is_translation_norm():
    m = RigidMotion(np.eye(3), np.array([3.0, 4.0, 0.0]))
    assert make_pair(motion=m).parameters()["distance"] == 5.0


def test_pair_euler_uses_inverse_convention():
    # vehicle yawed +30 degrees between frames: the alignment motion carries
    # the opposite rotation, the descriptor reports the vehicle's own turn
    yaw30 = from_euler(EulerAngles(0.0, 0.0, 30.0))
    pose_src = RigidMotion(np.eye(3), np.zeros(3))
    pose_tgt = RigidMotion(yaw30, np.array([10.0, 0.0, 0.0]))
    alignment = RigidMotion(yaw30.T, -yaw30.T @ np.array([10.0, 0.0, 0.0]))
    pair = make_pair(motion=alignment)
    assert abs(pair.parameters()["yaw"] - 30.0) < 1e-9
    assert abs(inverse(pair.motion).translation[0] - 10.0) < 1e-9


def test_pair_parameter_dispatch():
    pair = make_pair(overlap=0.42, dt=7.5)
    values = pair.parameters()
    assert list(values) == list(DEFAULT_BIN_EDGES)
    assert values["overlap"] == 0.42
    assert values["dt"] == 7.5
    with pytest.raises(KeyError):
        values["speed"]


def test_pair_parameters_leave_out_the_angles_at_gimbal_lock():
    locked = make_pair(motion=RigidMotion(from_euler(EulerAngles(0.0, 90.0, 0.0)),
                                          np.array([3.0, 4.0, 0.0])))
    assert locked.parameters() == {"distance": 5.0, "overlap": 0.5, "dt": 1.0}


# ---------------------------------------------------------------------------
# histograms
# ---------------------------------------------------------------------------

def test_histogram_partition_sums_to_input_size():
    rng = np.random.default_rng(4)
    values = rng.uniform(-50.0, 150.0, 500)   # deliberately out of range
    counts = histogram(values, DEFAULT_BIN_EDGES["distance"])
    assert counts.sum() == 500
    assert counts.dtype == np.int64


def test_histogram_bin_convention():
    edges = np.array([0.0, 1.0, 2.0])
    counts = histogram([0.0, 0.5, 1.0, 1.5, 2.0], edges)
    # [0,1): two values; [1,2]: three (right edge closed, clipped into last)
    assert list(counts) == [2, 3]


def test_failure_histogram_counts_and_ratio():
    fh = failure_histogram("overlap", [0.22, 0.22, 0.23, 0.97],
                           [True, False, False, True])
    assert list(fh) == ["successes", "failures", "failure_ratio"]
    assert fh["successes"].sum() + fh["failures"].sum() == 4
    assert fh["failures"][0] == 2 and fh["successes"][0] == 1
    assert np.isclose(fh["failure_ratio"][0], 2 / 3)
    assert fh["failure_ratio"][5] == 0.0        # empty bin reports zero
    assert fh["successes"][-1] == 1 and fh["failure_ratio"][-1] == 0.0


def test_failure_histogram_all_parameters_available():
    rng = np.random.default_rng(5)
    pairs = [make_pair(motion=random_motion(rng, translation_scale=20.0),
                       overlap=rng.uniform(0.2, 1.0), dt=rng.uniform(0.0, 60.0))
             for _ in range(30)]
    success = rng.uniform(size=30) < 0.5
    for name in DEFAULT_BIN_EDGES:
        fh = failure_histogram(name, [p.parameters()[name] for p in pairs],
                               success)
        assert fh["successes"].sum() == success.sum(), name
        assert fh["failures"].sum() == (~success).sum(), name


def test_failure_histogram_of_no_records_is_all_zero():
    fh = failure_histogram("dt", [], [])
    n_bins = len(DEFAULT_BIN_EDGES["dt"]) - 1
    assert fh["successes"].tolist() == [0] * n_bins
    assert fh["failures"].tolist() == [0] * n_bins
    assert fh["successes"].dtype == fh["failures"].dtype == np.int64


def test_set_distribution_report_covers_six_parameters():
    rng = np.random.default_rng(6)
    pairs = [make_pair(motion=random_motion(rng, translation_scale=20.0),
                       overlap=rng.uniform(0.2, 1.0), dt=rng.uniform(0.0, 50.0))
             for _ in range(40)]
    report = set_distribution_report(pairs)
    assert set(report) == {"distance", "overlap", "yaw", "pitch", "roll", "dt"}
    for name, counts in report.items():
        assert counts.sum() == 40, name
