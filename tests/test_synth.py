"""Tests for the scene and trajectory generators."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from lidarreg import synth
from lidarreg.benchgen import SelectorConfig, build_candidate_pool, motion_descriptor, overlap
from lidarreg.geom import RigidMotion, apply, compose, inverse
from lidarreg.match import match_features, mnn_filter
from lidarreg.ransac import _residuals, kabsch
from lidarreg.synth import (
    OUTLIER_MIN_OFFSET,
    Scene,
    SceneSpec,
    TrajectorySpec,
    frame_descriptors,
    generate_scene,
    generate_trajectory,
    random_motion,
)


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------

def test_scene_determinism_under_seed():
    a = generate_scene(SceneSpec(n_points=200, seed=7))
    b = generate_scene(SceneSpec(n_points=200, seed=7))
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    assert np.array_equal(a.src_desc, b.src_desc)
    assert np.array_equal(a.dst_desc, b.dst_desc)
    assert np.array_equal(a.inlier_labels, b.inlier_labels)
    assert np.array_equal(a.true_motion.rotation, b.true_motion.rotation)
    assert np.array_equal(a.corrs.ratio, b.corrs.ratio)


def test_scene_seed_changes_output():
    a = generate_scene(SceneSpec(n_points=200, seed=1))
    b = generate_scene(SceneSpec(n_points=200, seed=2))
    assert not np.array_equal(a.src, b.src)
    assert not np.array_equal(a.true_motion.rotation, b.true_motion.rotation)


def test_all_inlier_noiseless_scene_supports_exact_minimal_fits():
    scene = generate_scene(SceneSpec(
        n_points=60, inlier_fraction=1.0, noise_sigma=0.0, seed=3))
    rng = np.random.default_rng(0)
    for _ in range(20):
        pick = rng.permutation(60)[:3]
        est = kabsch(scene.src[pick], scene.dst[pick])
        assert np.linalg.norm(est.rotation - scene.true_motion.rotation) < 1e-9
        assert np.linalg.norm(est.translation - scene.true_motion.translation) < 1e-9


def test_planted_inlier_count_is_exact():
    scene = generate_scene(SceneSpec(n_points=1000, inlier_fraction=0.3, seed=5))
    assert int(scene.inlier_labels.sum()) == 300
    scene = generate_scene(SceneSpec(n_points=777, inlier_fraction=0.21, seed=5))
    assert int(scene.inlier_labels.sum()) == round(0.21 * 777)


def test_fixed_true_motion_is_respected():
    motion = random_motion(np.random.default_rng(11))
    scene = generate_scene(SceneSpec(n_points=50, true_motion=motion,
                                     inlier_fraction=1.0, seed=0))
    assert np.array_equal(scene.true_motion.rotation, motion.rotation)
    assert np.array_equal(scene.true_motion.translation, motion.translation)


def test_inlier_residuals_capped_and_outliers_floored():
    spec = SceneSpec(n_points=1500, inlier_fraction=0.4, noise_sigma=0.1, seed=9)
    scene = generate_scene(spec)
    res = np.linalg.norm(apply(scene.true_motion, scene.src) - scene.dst, axis=1)
    assert res[scene.inlier_labels].max() <= 3.0 * spec.noise_sigma + 1e-12
    assert res[~scene.inlier_labels].min() >= OUTLIER_MIN_OFFSET - 1e-9


def test_three_sigma_gate_recovers_planted_labels_exactly():
    spec = SceneSpec(n_points=2000, inlier_fraction=0.25, noise_sigma=0.05, seed=13)
    scene = generate_scene(spec)
    motion = scene.true_motion
    mask = _residuals(motion.rotation, motion.translation,
                      scene.src[scene.corrs.src], scene.dst[scene.corrs.dst]
                      ) <= 3.0 * spec.noise_sigma + 1e-9
    assert mask.sum() == spec.n_inliers
    assert np.array_equal(mask, scene.inlier_labels)


def test_perfect_quality_correlation_ranks_all_inliers_first():
    scene = generate_scene(SceneSpec(n_points=400, inlier_fraction=0.3,
                                     quality_correlation=1.0, seed=21))
    inlier_ratio = scene.corrs.ratio[scene.inlier_labels]
    outlier_ratio = scene.corrs.ratio[~scene.inlier_labels]
    assert np.all(np.isinf(inlier_ratio))
    assert np.all(np.isfinite(outlier_ratio))
    assert scene.corrs.is_mnn[scene.inlier_labels].all()


def test_planted_pair_signals_agree_with_a_dense_distance_matrix():
    scene = generate_scene(SceneSpec(n_points=300, inlier_fraction=0.3,
                                     quality_correlation=0.5, seed=17))
    d = np.sqrt(np.sum((scene.src_desc[:, None, :] - scene.dst_desc[None, :, :]) ** 2,
                       axis=2))
    idx = np.arange(300)
    two = np.sort(d, axis=1)[:, :2]
    assert np.array_equal(scene.corrs.src, idx)
    assert np.array_equal(scene.corrs.dst, idx)
    assert np.array_equal(scene.corrs.feat_dist, d[idx, idx])
    assert np.array_equal(scene.corrs.ratio, two[:, 1] / two[:, 0])
    assert np.array_equal(scene.corrs.is_mnn,
                          (d.argmin(axis=1) == idx) & (d.argmin(axis=0) == idx))


def test_large_scene_needs_no_dense_distance_matrix():
    # a dense 8000 x 8000 float64 distance matrix alone is 512 MB
    tracemalloc.start()
    try:
        scene = generate_scene(SceneSpec(n_points=8000, seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scene.corrs) == 8000
    assert peak < 64 * 2**20


def _ratio_auc(scene: Scene) -> float:
    # probability that a random inlier outranks a random outlier by ratio
    pos = scene.corrs.ratio[scene.inlier_labels]
    neg = scene.corrs.ratio[~scene.inlier_labels]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins) / (len(pos) * len(neg))


def test_zero_quality_correlation_gives_uninformative_ranks():
    scene = generate_scene(SceneSpec(n_points=2000, inlier_fraction=0.3,
                                     quality_correlation=0.0, seed=29))
    assert abs(_ratio_auc(scene) - 0.5) < 0.08


def test_quality_correlation_strengthens_rank_signal():
    weak = generate_scene(SceneSpec(n_points=1000, inlier_fraction=0.3,
                                    quality_correlation=0.3, seed=31))
    strong = generate_scene(SceneSpec(n_points=1000, inlier_fraction=0.3,
                                      quality_correlation=0.9, seed=31))
    assert _ratio_auc(strong) > _ratio_auc(weak)
    assert _ratio_auc(strong) > 0.9


@pytest.mark.parametrize("kw", [
    dict(n_points=2),
    dict(n_points=10, inlier_fraction=0.1),
    dict(inlier_fraction=1.5),
    dict(noise_sigma=-0.1),
    dict(noise_sigma=1.5),
    dict(extent=1.0),
    dict(quality_correlation=1.2),
    dict(descriptor_dim=0),
])
def test_scene_spec_validation(kw):
    with pytest.raises(ValueError):
        SceneSpec(**kw)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def test_stationary_trajectory_identity_motions_and_full_overlap():
    frames = generate_trajectory(TrajectorySpec.stationary(n_frames=4, seed=2))
    assert len(frames) == 4
    for f in frames[1:]:
        rel = compose(inverse(frames[0].pose), f.pose)
        assert np.array_equal(rel.rotation, np.eye(3))
        assert np.array_equal(rel.translation, np.zeros(3))
        assert np.array_equal(f.cloud, frames[0].cloud)
    ov = overlap(frames[0].cloud, frames[1].cloud, RigidMotion.identity(), tau=0.6)
    assert ov == 1.0


def _lens_fraction(d: float, radius: float) -> float:
    # intersection-over-source-disk area of two equal disks d apart
    if d >= 2.0 * radius:
        return 0.0
    area = (2.0 * radius * radius * math.acos(d / (2.0 * radius))
            - 0.5 * d * math.sqrt(4.0 * radius * radius - d * d))
    return area / (math.pi * radius * radius)


def test_straight_line_overlap_matches_disk_intersection():
    spec = TrajectorySpec.straight(n_frames=4, frame_spacing=10.0,
                                   sensor_range=50.0, seed=4)
    frames = generate_trajectory(spec)
    for a, b, dist in [(0, 1, 10.0), (0, 3, 30.0)]:
        gt = compose(inverse(frames[b].pose), frames[a].pose)
        ov = overlap(frames[a].cloud, frames[b].cloud, gt, tau=0.6)
        assert abs(ov - _lens_fraction(dist, 50.0)) <= 0.05


def test_shared_world_points_align_exactly_under_relative_pose():
    frames = generate_trajectory(TrajectorySpec.straight(n_frames=3, seed=6))
    a, b = frames[0], frames[1]
    world_a = apply(a.pose, a.cloud)
    world_b = apply(b.pose, b.cloud)
    # shared points have identical world coordinates by construction
    set_b = {tuple(np.round(p, 6)) for p in world_b}
    shared = np.array([tuple(np.round(p, 6)) in set_b for p in world_a])
    assert shared.sum() > 100
    gt = compose(inverse(b.pose), a.pose)
    moved = apply(gt, a.cloud[shared])
    d = np.linalg.norm(moved[:, None, :] - b.cloud[None, :, :], axis=2).min(axis=1)
    assert d.max() < 1e-9


def test_uturn_pool_contains_a_reversed_pair():
    frames = generate_trajectory(TrajectorySpec.uturn(n_frames=7, seed=8))
    pool = build_candidate_pool([frames], SelectorConfig(k=1, seed=0))
    yaws = [abs(motion_descriptor(c.src.pose, c.tgt.pose)[5]) for c in pool]
    assert max(yaws) > 170.0


def test_random_drive_bounds_yaw_rate(monkeypatch):
    monkeypatch.setattr(synth, "MAX_YAW_STEP_DEG", 12.0)
    spec = TrajectorySpec.random_drive(n_frames=30, seed=5)
    steps = np.asarray(spec.yaw_steps())
    assert len(steps) == 29
    assert np.all(np.abs(steps) <= 12.0)


def test_trajectory_determinism_and_frame_metadata():
    spec = TrajectorySpec.straight(n_frames=5, seed=10, sequence_id="drive3")
    a = generate_trajectory(spec)
    b = generate_trajectory(spec)
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.cloud, fb.cloud)
        assert np.array_equal(fa.pose.rotation, fb.pose.rotation)
    assert [f.frame_index for f in a] == [0, 1, 2, 3, 4]
    assert [f.timestamp for f in a] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert all(f.sequence_id == "drive3" for f in a)
    assert all(len(f.cloud) > 0 for f in a)


def test_frame_descriptors_support_feature_matching():
    frames = generate_trajectory(TrajectorySpec.straight(
        n_frames=2, frame_spacing=10.0, seed=12))
    descs = frame_descriptors(frames, dim=8, seed=1)
    corrs = mnn_filter(match_features(descs[0], descs[1]))
    gt = compose(inverse(frames[1].pose), frames[0].pose)
    moved = apply(gt, frames[0].cloud[corrs.src])
    residual = np.linalg.norm(moved - frames[1].cloud[corrs.dst], axis=1)
    # most mutual matches should be true shared-world-point pairs
    assert np.mean(residual < 1e-6) > 0.8
    assert len(corrs) > 200


@pytest.mark.parametrize("kw", [
    dict(n_frames=1),
    dict(n_frames=4, yaw_step_deg=(1.0, 2.0)),
    dict(n_frames=3, frame_spacing=-1.0),
    dict(n_frames=3, sensor_range=0.0),
    dict(n_frames=3, sensor_range=-1.0),
])
def test_trajectory_spec_validation(kw):
    with pytest.raises(ValueError):
        TrajectorySpec(**kw)
