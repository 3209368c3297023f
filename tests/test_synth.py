"""Tests for the scene and trajectory generators."""

from __future__ import annotations

import dataclasses
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from lidarreg import synth
from lidarreg.benchgen import SelectorConfig, build_candidate_pool, motion_descriptor, overlap
from lidarreg.cli import main
from lidarreg.gpf import GpfConfig
from lidarreg.geom import RigidMotion, apply, compose, inverse
from lidarreg.match import match_features, mnn_filter
from lidarreg.ransac import _squared_residuals, kabsch
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
    res = np.sqrt(_squared_residuals(motion.rotation, motion.translation,
                                     scene.src[scene.corrs.src].T,
                                     scene.dst[scene.corrs.dst].T))
    mask = res <= 3.0 * spec.noise_sigma + 1e-9
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


def _assert_same_pairs(a, b) -> None:
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        assert x.dtype == y.dtype
        assert x.tobytes() == y.tobytes()


def test_planted_pair_signals_agree_with_a_dense_distance_matrix():
    for n, fraction, qc, seed in [(300, 0.3, 0.5, 17), (57, 1.0, 0.7, 3),
                                  (411, 0.3, 0.0, 8), (128, 0.5, 1.0, 23),
                                  (40, 1.0, 1.0, 5)]:
        scene = generate_scene(SceneSpec(n_points=n, inlier_fraction=fraction,
                                         quality_correlation=qc, seed=seed))
        corrs = scene.corrs
        assert scene.corrs is corrs             # ranked once, on the first read
        _assert_same_pairs(corrs, synth._planted_pairs(scene.src_desc, scene.dst_desc))
        d = np.sqrt(np.sum((scene.src_desc[:, None, :] - scene.dst_desc[None, :, :]) ** 2,
                           axis=2))
        idx = np.arange(n)
        two = np.sort(d, axis=1)[:, :2]
        assert np.array_equal(corrs.src, idx)
        assert np.array_equal(corrs.dst, idx)
        assert np.array_equal(corrs.feat_dist, d[idx, idx])
        with np.errstate(divide="ignore"):      # identical rows give inf
            assert np.array_equal(corrs.ratio, two[:, 1] / two[:, 0])
        assert np.array_equal(corrs.is_mnn,
                              (d.argmin(axis=1) == idx) & (d.argmin(axis=0) == idx))


def test_scenes_are_generated_without_ranking_the_planted_pairs(tmp_path, monkeypatch):
    def refuse(*args):
        raise RuntimeError("match_features called")

    monkeypatch.setattr(synth, "match_features", refuse)
    scene = generate_scene(SceneSpec(n_points=500, seed=4))
    assert main(["synth", "scene", "--out-dir", str(tmp_path), "--n", "500"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "dst.fdsc", "dst.ply", "gt.txt", "src.fdsc", "src.ply"]
    with pytest.raises(RuntimeError, match="match_features called"):
        len(scene.corrs)


def test_pickled_scene_round_trips_before_and_after_ranking(monkeypatch):
    scene = generate_scene(SceneSpec(n_points=200, seed=6))
    before = pickle.loads(pickle.dumps(scene))
    corrs = scene.corrs
    after = pickle.loads(pickle.dumps(scene))
    for copy in (before, after):
        for field in dataclasses.fields(Scene):
            if field.name != "true_motion":
                assert np.array_equal(getattr(copy, field.name), getattr(scene, field.name))
        assert np.array_equal(copy.true_motion.matrix34(), scene.true_motion.matrix34())
    _assert_same_pairs(before.corrs, corrs)
    # the ranked pairs travel with the pickle: the copy does not rank again
    monkeypatch.setattr(synth, "match_features", None)
    _assert_same_pairs(after.corrs, corrs)


def test_large_scene_needs_no_dense_distance_matrix():
    # a dense 8000 x 8000 float64 distance matrix alone is 512 MB
    tracemalloc.start()
    try:
        corrs = generate_scene(SceneSpec(n_points=8000, seed=0)).corrs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(corrs) == 8000
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
    frames = generate_trajectory(TrajectorySpec(
        profile="stationary", n_frames=4, frame_spacing=0.0, seed=2))
    assert len(frames) == 4
    # a stationary drive stands still whatever its frame spacing
    for spacing in (10.0, 1e308):
        spaced = generate_trajectory(TrajectorySpec(
            profile="stationary", n_frames=4, frame_spacing=spacing, seed=2))
        for f, g in zip(frames, spaced):
            assert np.array_equal(f.pose.matrix34(), g.pose.matrix34())
            assert np.array_equal(f.cloud, g.cloud)
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
    spec = TrajectorySpec(profile="straight", n_frames=4, frame_spacing=10.0,
                          sensor_range=50.0, seed=4)
    frames = generate_trajectory(spec)
    for a, b, dist in [(0, 1, 10.0), (0, 3, 30.0)]:
        gt = compose(inverse(frames[b].pose), frames[a].pose)
        ov = overlap(frames[a].cloud, frames[b].cloud, gt, tau=0.6)
        assert abs(ov - _lens_fraction(dist, 50.0)) <= 0.05


def test_shared_world_points_align_exactly_under_relative_pose():
    frames = generate_trajectory(TrajectorySpec(
        profile="straight", n_frames=3, frame_spacing=10.0, seed=6))
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
    frames = generate_trajectory(TrajectorySpec(
        profile="uturn", n_frames=7, frame_spacing=3.0, seed=8))
    pool = build_candidate_pool([frames], SelectorConfig(k=1, seed=0))
    yaws = [abs(motion_descriptor(c.src.pose, c.tgt.pose)[5]) for c in pool]
    assert max(yaws) > 170.0


def test_random_drive_bounds_yaw_rate(monkeypatch):
    monkeypatch.setattr(synth, "MAX_YAW_STEP_DEG", 12.0)
    spec = TrajectorySpec(profile="random", n_frames=30, frame_spacing=5.0,
                          seed=5)
    steps = np.asarray(spec.yaw_steps())
    assert len(steps) == 29
    assert np.all(np.abs(steps) <= 12.0)


def test_trajectory_determinism_and_frame_metadata():
    spec = TrajectorySpec(profile="straight", n_frames=5, frame_spacing=10.0,
                          seed=10, sequence_id="drive3")
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
    frames = generate_trajectory(TrajectorySpec(
        profile="straight", n_frames=2, frame_spacing=10.0, seed=12))
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
    dict(n_frames=4, profile="zigzag"),
    dict(n_frames=3, frame_spacing=-1.0),
    dict(n_frames=3, sensor_range=0.0),
    dict(n_frames=3, sensor_range=-1.0),
    # 99 steps of 1e307 m: the drive's positions overflow float64
    dict(n_frames=100, frame_spacing=1e307),
    dict(n_frames=100, frame_spacing=1e307, profile="random"),
    dict(n_frames=10**400, frame_spacing=1.0),     # past float64 itself
])
def test_trajectory_spec_validation(kw):
    with pytest.raises(ValueError):
        TrajectorySpec(**kw)


@pytest.mark.parametrize("sequence_id", ["", ".", "..", "a/b", "a\\b"])
def test_sequence_id_must_be_one_plain_path_component(sequence_id):
    with pytest.raises(ValueError, match="^sequence_id must be one plain path component"):
        TrajectorySpec(sequence_id=sequence_id)


# ---------------------------------------------------------------------------
# trajectory frames read only their patch of the world grid
# ---------------------------------------------------------------------------

def _full_world_clouds(spec: TrajectorySpec, frames) -> list[np.ndarray]:
    """Each frame's cloud from a scan of the whole world grid."""
    positions = np.array([f.pose.translation for f in frames])
    world_rng = np.random.default_rng(spec.seed).spawn(1)[0]
    world = synth._world_points(world_rng, positions, spec)[0].reshape(-1, 3)
    out = []
    for frame, position in zip(frames, positions):
        planar = np.linalg.norm(world[:, :2] - position[:2], axis=1)
        out.append(apply(inverse(frame.pose), world[planar <= spec.sensor_range]))
    return out


def _assert_frames_match_full_world_scan(spec: TrajectorySpec) -> None:
    frames = generate_trajectory(spec)
    for frame, want in zip(frames, _full_world_clouds(spec, frames), strict=True):
        assert frame.cloud.shape == want.shape
        assert frame.cloud.tobytes() == want.tobytes()


@pytest.mark.parametrize("profile", synth.PROFILES)
@pytest.mark.parametrize("sensor_range", [0.7, 5.0, 13.3, 37.3])
def test_frames_equal_a_full_world_scan_bit_for_bit(profile, sensor_range):
    # 0.7 m is below the pitch; 13.3 and 37.3 m are not multiples of it
    _assert_frames_match_full_world_scan(TrajectorySpec(
        profile=profile, n_frames=12, frame_spacing=3.5,
        sensor_range=sensor_range, seed=3))


@pytest.mark.parametrize("profile", ["straight", "uturn", "random"])
def test_frames_clipped_by_the_grid_edge_equal_a_full_world_scan(monkeypatch, profile):
    # a grid two rows short on every side: the end frames' patches run off
    # the grid, so their rectangles are clipped at its first and last rows
    world_points = synth._world_points

    def trimmed(rng, positions, spec):
        world, xs, ys = world_points(rng, positions, spec)
        return world[2:-2, 2:-2], xs[2:-2], ys[2:-2]

    monkeypatch.setattr(synth, "_world_points", trimmed)
    spec = TrajectorySpec(profile=profile, n_frames=9, frame_spacing=4.0,
                          sensor_range=9.0, seed=11)
    frames = generate_trajectory(spec)
    assert min(len(f.cloud) for f in frames) > 0
    _assert_frames_match_full_world_scan(spec)


def test_frame_work_is_bounded_by_sensor_range_not_drive_length(monkeypatch):
    rows = []
    norm = np.linalg.norm

    def counting_norm(x, *args, **kwargs):
        rows.append(len(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counting_norm)
    spec = TrajectorySpec(profile="random", n_frames=200, frame_spacing=5.0,
                          sensor_range=30.0, seed=7)
    generate_trajectory(spec)
    g = synth.POINT_SPACING
    assert rows and max(rows) <= (2.0 * (spec.sensor_range + g) / g + 2.0) ** 2


@pytest.mark.parametrize("profile", ["straight", "uturn", "random"])
def test_world_grid_cap_counts_the_points_the_grid_would_hold(monkeypatch, profile):
    spec = TrajectorySpec(profile=profile, n_frames=9, frame_spacing=7.3,
                          sensor_range=11.1, seed=5)
    positions = np.array([f.pose.translation for f in generate_trajectory(spec)])
    world = synth._world_points(np.random.default_rng(0), positions, spec)[0]
    n_points = world.shape[0] * world.shape[1]
    monkeypatch.setattr(synth, "_MAX_WORLD_POINTS", n_points)
    generate_trajectory(spec)
    monkeypatch.setattr(synth, "_MAX_WORLD_POINTS", n_points - 1)
    with pytest.raises(ValueError, match="world grid would hold"):
        generate_trajectory(spec)


@pytest.mark.parametrize("config, field", [
    (SelectorConfig, "k"), (SelectorConfig, "target_count"), (GpfConfig, "grid_m"),
    (SceneSpec, "n_points"), (SceneSpec, "descriptor_dim"), (TrajectorySpec, "n_frames"),
])
def test_configs_refuse_a_count_that_is_not_an_integer(config, field):
    # a fractional count used to construct, and then gave float grid cells
    # or a TypeError deep in the generators
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got 2.5$"):
        config(**{field: 2.5})
    assert getattr(config(**{field: np.int64(40)}), field) == 40
