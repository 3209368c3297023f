"""Tests for overlap, pool building, and balanced selection."""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.stats import chisquare

import lidarreg.benchgen as benchgen_module
from lidarreg.benchgen import (
    CandidatePair,
    PosedFrame,
    SelectorConfig,
    alignment_motion,
    build_candidate_pool,
    motion_descriptor,
    normalize_motions,
    overlap,
    select_balanced,
)
from lidarreg.geom import EulerAngles, RigidMotion, SpatialIndex, apply, from_euler
from lidarreg.synth import TrajectorySpec, generate_trajectory, random_motion

from test_geom import _integer_grid, random_rotation


# ---------------------------------------------------------------------------
# overlap
# ---------------------------------------------------------------------------

def test_overlap_identical_clouds_is_one():
    pts = np.random.default_rng(0).uniform(-20, 20, (300, 3))
    assert overlap(pts, pts, RigidMotion.identity(), tau=0.6) == 1.0


def test_overlap_distant_clouds_is_zero():
    rng = np.random.default_rng(1)
    a = rng.uniform(-20, 20, (200, 3))
    b = rng.uniform(-20, 20, (200, 3)) + np.array([1000.0, 0.0, 0.0])
    assert overlap(a, b, RigidMotion.identity(), tau=0.6) == 0.0


def test_overlap_constructed_half():
    # 1000 grid points spaced 3 m; target keeps the first half co-located
    # and pushes the rest far away
    g = np.stack(np.meshgrid(np.arange(10), np.arange(10), np.arange(10),
                             indexing="ij"), axis=-1).reshape(-1, 3) * 3.0
    tgt = g.copy()
    tgt[500:] += np.array([0.0, 0.0, 500.0])
    assert overlap(g, tgt, RigidMotion.identity(), tau=0.6) == 0.5


def test_overlap_uses_the_alignment_motion():
    rng = np.random.default_rng(2)
    src = rng.uniform(-10, 10, (150, 3))
    gt = random_motion(rng)
    assert overlap(src, apply(gt, src), gt, tau=1e-9) == 1.0


def test_overlap_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.uniform(-5, 5, (rng.integers(5, 60), 3))
        b = rng.uniform(-5, 5, (rng.integers(5, 60), 3))
        tau = float(rng.uniform(0.5, 4.0))
        want = float(np.mean(cdist(a, b).min(axis=1) <= tau))
        assert overlap(a, b, RigidMotion.identity(), tau) == want


def _brute_overlap(src, tgt, gt: RigidMotion, tau: float) -> float:
    # one linear scan per source point, with the scan's own arithmetic
    moved = apply(gt, src)
    hits = [np.any(np.sqrt(np.sum((tgt - p) ** 2, axis=1)) <= tau) for p in moved]
    return float(np.mean(hits))


def test_overlap_counts_neighbors_at_exactly_tau():
    g = _integer_grid(5)
    shift = RigidMotion(np.eye(3), np.array([0.5, 0.0, 0.0]))
    cases = [
        # integer grid against itself moved one unit: distance exactly 1
        (g, g + [1.0, 0.0, 0.0], RigidMotion.identity(), 1.0),
        (g, g + [0.0, 1.0, 1.0], RigidMotion.identity(), np.sqrt(2.0)),
        (g, g, shift, 0.5),
        # 3-4-5 offsets: distance exactly 5
        (g * 7.0, g * 7.0 + [3.0, 4.0, 0.0], RigidMotion.identity(), 5.0),
        (g * 7.0, g * 7.0 + [0.0, -3.0, -4.0], RigidMotion.identity(), 5.0),
    ]
    for src, tgt, gt, tau in cases:
        for t in (tau, np.nextafter(tau, 0.0), np.nextafter(tau, np.inf)):
            want = _brute_overlap(src, tgt, gt, t)
            assert overlap(src, tgt, gt, t) == want
    assert overlap(g * 7.0, g * 7.0 + [3.0, 4.0, 0.0],
                   RigidMotion.identity(), 5.0) == 1.0
    assert overlap(g * 7.0, g * 7.0 + [3.0, 4.0, 0.0],
                   RigidMotion.identity(), np.nextafter(5.0, 0.0)) < 1.0


def test_overlap_straddling_tau_after_a_motion():
    # target points placed at tau from the moved source land a few ulps
    # either side of it; overlap must follow the scan's arithmetic
    rng = np.random.default_rng(4)
    for _ in range(10):
        src = rng.uniform(-30.0, 30.0, (200, 3))
        gt = random_motion(rng)
        u = rng.normal(size=(200, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        tau = float(rng.uniform(0.3, 2.0))
        tgt = apply(gt, src) + tau * u
        want = _brute_overlap(src, tgt, gt, tau)
        assert 0.0 < want < 1.0
        assert overlap(src, tgt, gt, tau) == want


def test_overlap_validation():
    pts = np.zeros((5, 3))
    with pytest.raises(ValueError):
        overlap(np.zeros((0, 3)), pts, RigidMotion.identity(), 0.6)
    with pytest.raises(ValueError):
        overlap(pts, np.zeros((0, 3)), RigidMotion.identity(), 0.6)
    with pytest.raises(ValueError):
        overlap(pts, pts, RigidMotion.identity(), 0.0)


# ---------------------------------------------------------------------------
# pair geometry
# ---------------------------------------------------------------------------

def test_motion_descriptor_reads_off_relative_pose():
    pose_tgt = RigidMotion(
        rotation=from_euler(EulerAngles(roll=2.0, pitch=-3.0, yaw=40.0)),
        translation=np.array([5.0, -1.0, 0.25]))
    d = motion_descriptor(RigidMotion.identity(), pose_tgt)
    assert d.shape == (6,) and d.dtype == np.float64
    assert np.allclose(d[:3], [5.0, -1.0, 0.25])
    assert np.allclose(d[3:], [2.0, -3.0, 40.0], atol=1e-12)


def test_alignment_motion_maps_shared_world_points():
    rng = np.random.default_rng(4)
    world = rng.uniform(-30, 30, (50, 3))
    pose_src = random_motion(rng)
    pose_tgt = random_motion(rng)
    src_cloud = apply(RigidMotion(pose_src.rotation.T,
                                  -pose_src.rotation.T @ pose_src.translation), world)
    tgt_cloud = apply(RigidMotion(pose_tgt.rotation.T,
                                  -pose_tgt.rotation.T @ pose_tgt.translation), world)
    moved = apply(alignment_motion(pose_src, pose_tgt), src_cloud)
    assert np.allclose(moved, tgt_cloud, atol=1e-9)


def test_descriptor_and_alignment_share_translation_norm():
    rng = np.random.default_rng(5)
    pose_src, pose_tgt = random_motion(rng), random_motion(rng)
    d = motion_descriptor(pose_src, pose_tgt)
    align = alignment_motion(pose_src, pose_tgt)
    assert np.isclose(np.hypot(np.hypot(d[0], d[1]), d[2]),
                      np.linalg.norm(align.translation))


# ---------------------------------------------------------------------------
# candidate pool
# ---------------------------------------------------------------------------

def _frame(seq: str, idx: int, cloud, pose=None, t=None) -> PosedFrame:
    return PosedFrame(sequence_id=seq, frame_index=idx,
                      timestamp=float(idx if t is None else t),
                      pose=pose or RigidMotion.identity(),
                      cloud=np.asarray(cloud, dtype=np.float64))


def test_single_frame_sequence_yields_empty_pool():
    pts = np.random.default_rng(0).uniform(-5, 5, (50, 3))
    pool = build_candidate_pool([[_frame("s", 0, pts)]], SelectorConfig(k=1))
    assert pool == []


def test_mutually_overlapping_frames_give_one_candidate_each():
    pts = np.random.default_rng(1).uniform(-5, 5, (80, 3))
    frames = [_frame("s", i, pts) for i in range(6)]
    pool = build_candidate_pool([frames], SelectorConfig(k=1, seed=0))
    assert len(pool) == 6
    assert sorted(c.src.frame_index for c in pool) == list(range(6))
    assert all(c.tgt.frame_index != c.src.frame_index for c in pool)
    assert all(c.overlap == 1.0 for c in pool)


def test_frame_stride_limits_sources():
    pts = np.random.default_rng(2).uniform(-5, 5, (60, 3))
    frames = [_frame("s", i, pts) for i in range(100)]
    pool = build_candidate_pool([frames], SelectorConfig(k=10, seed=0))
    assert len(pool) <= 10
    assert {c.src.frame_index for c in pool} <= set(range(0, 100, 10))


def test_pool_respects_min_overlap():
    # two clusters far apart: frames only overlap within their cluster
    rng = np.random.default_rng(3)
    near = rng.uniform(-5, 5, (60, 3))
    far = near + np.array([500.0, 0.0, 0.0])
    frames = [_frame("s", 0, near), _frame("s", 1, near),
              _frame("s", 2, far), _frame("s", 3, far)]
    pool = build_candidate_pool([frames], SelectorConfig(k=1, seed=0))
    for c in pool:
        assert c.overlap > 0.2
        assert abs(c.tgt.frame_index - c.src.frame_index) == 1


def test_pool_determinism_and_fields():
    frames = generate_trajectory(TrajectorySpec(
        profile="straight", n_frames=6, frame_spacing=10.0, seed=6))
    cfg = SelectorConfig(k=2, seed=9)
    a = build_candidate_pool([frames], cfg)
    b = build_candidate_pool([frames], cfg)
    assert [(c.src.frame_index, c.tgt.frame_index) for c in a] \
        == [(c.src.frame_index, c.tgt.frame_index) for c in b]
    records = select_balanced(a, replace(cfg, target_count=len(a), r=1.0)).records
    assert len(records) == len(a)
    for rec in records:
        src, tgt = frames[rec.src], frames[rec.tgt]
        assert rec.dt == abs(tgt.timestamp - src.timestamp)
        assert rec.parameters()["distance"] == pytest.approx(
            np.linalg.norm(motion_descriptor(src.pose, tgt.pose)[:3]))


def _reference_pool(frames, cfg: SelectorConfig) -> list[CandidatePair]:
    # the pool as built with a fresh index and a nearest-neighbor query
    # for every tested pair
    rng = np.random.default_rng([cfg.seed, 0])
    world = [apply(f.pose, f.cloud) for f in frames]
    centers = [w.mean(axis=0) for w in world]
    radii = [float(np.sqrt(np.max(np.sum((w - c) ** 2, axis=1))))
             for w, c in zip(world, centers)]
    pool = []
    for si in range(0, len(frames), cfg.k):
        src = frames[si]
        qualifying = []
        for ti, tgt in enumerate(frames):
            if ti == si or np.linalg.norm(centers[si] - centers[ti]) \
                    > radii[si] + radii[ti] + cfg.overlap_tau:
                continue
            gt = alignment_motion(src.pose, tgt.pose)
            d, _ = SpatialIndex(tgt.cloud).nearest(apply(gt, src.cloud))
            ov = float(np.mean(d <= cfg.overlap_tau))
            if ov > cfg.min_overlap:
                qualifying.append((tgt, ov))
        if not qualifying:
            continue
        tgt, ov = qualifying[int(rng.integers(len(qualifying)))]
        pool.append(CandidatePair(src=src, tgt=tgt, overlap=ov))
    return pool


@pytest.mark.parametrize("seed, k, tau", [(0, 1, 0.6), (1, 2, 1.0), (2, 3, 0.3)])
def test_pool_equals_a_nearest_neighbor_reference(seed, k, tau):
    frames = generate_trajectory(TrajectorySpec(
        profile="random", n_frames=24, frame_spacing=5.0, sensor_range=20.0,
        seed=seed))
    cfg = SelectorConfig(k=k, overlap_tau=tau, min_overlap=0.1, seed=seed)
    got = build_candidate_pool([frames], cfg)
    want = _reference_pool(frames, cfg)
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert a.src is b.src and a.tgt is b.tgt
        assert a.overlap == b.overlap


def test_pool_equals_a_nearest_neighbor_reference_above_the_skip_share(monkeypatch):
    # at min_overlap 0.6 some pairs are skipped without a query, because
    # too few of their points fall inside the target's widened sphere
    frames = generate_trajectory(TrajectorySpec(
        profile="random", n_frames=24, frame_spacing=5.0, sensor_range=20.0,
        seed=3))
    queried = {}
    within = SpatialIndex.within

    def spy(self, queries, r):
        # the rows queried against each target cloud
        queried.setdefault(self._points.tobytes(), set()).update(
            row.tobytes() for row in np.asarray(queries))
        return within(self, queries, r)

    monkeypatch.setattr(SpatialIndex, "within", spy)
    cfg = SelectorConfig(k=10, overlap_tau=0.6, min_overlap=0.6, seed=3)
    got = build_candidate_pool([frames], cfg)
    skipped = 0
    for si in range(0, len(frames), cfg.k):
        for ti, tgt in enumerate(frames):
            mapped = apply(alignment_motion(frames[si].pose, tgt.pose), frames[si].cloud)
            (inside,) = benchgen_module._inside([mapped], tgt.cloud, cfg.overlap_tau)
            if ti == si or not 0 < len(inside) / len(mapped) <= cfg.min_overlap:
                continue
            skipped += 1
            rows = queried.get(tgt.cloud.tobytes(), set())
            assert not any(p.tobytes() in rows for p in inside), (si, ti)
    assert skipped > 0
    want = _reference_pool(frames, cfg)
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert a.src is b.src and a.tgt is b.tgt
        assert a.overlap == b.overlap


@pytest.mark.parametrize("hits, min_overlap", [(1, 0.2), (2, 0.2), (2, 0.4), (3, 0.4)])
def test_pool_at_exactly_min_overlap(hits, min_overlap):
    # five source points, all inside the target's sphere, of which `hits`
    # have a target neighbor within tau: hits / 5 == min_overlap must not
    # qualify, one more hit must
    src = np.array([[0.0, 0, 0], [2, 0, 0], [4, 0, 0], [6, 0, 0], [8, 0, 0]])
    tgt = np.array([[4.0, 5, 0], [4, -5, 0]] + [[2.0 * i, 0, 0.3] for i in range(hits)])
    frames = [_frame("s", 0, src), _frame("s", 1, tgt)]
    cfg = SelectorConfig(k=1, min_overlap=min_overlap, overlap_tau=0.6, seed=0)
    got = build_candidate_pool([frames], cfg)
    want = _reference_pool(frames, cfg)
    assert [(c.src, c.tgt, c.overlap) for c in got] \
        == [(c.src, c.tgt, c.overlap) for c in want]
    assert (frames[0], hits / 5) in [(c.src, c.overlap) for c in got] \
        or hits / 5 <= min_overlap


def _drive():
    return generate_trajectory(TrajectorySpec(
        profile="random", n_frames=60, frame_spacing=5.0, sensor_range=30.0, seed=7))


def test_pool_queries_fewer_points_than_it_prefilters(monkeypatch):
    # a test settled by its first hits, or misses, reads no further points
    frames = _drive()
    cfg = SelectorConfig(k=1, seed=7)
    prefiltered = 0
    for si, src in enumerate(frames):
        for ti, tgt in enumerate(frames):
            mapped = apply(alignment_motion(src.pose, tgt.pose), src.cloud)
            (inside,) = benchgen_module._inside([mapped], tgt.cloud, cfg.overlap_tau)
            if ti != si and len(inside) / len(mapped) > cfg.min_overlap:
                prefiltered += len(inside)
    queried = []
    within = SpatialIndex.within

    def spy(self, queries, r):
        queried.append(len(queries))
        return within(self, queries, r)

    monkeypatch.setattr(SpatialIndex, "within", spy)
    assert len(build_candidate_pool([frames], cfg)) > 0
    assert sum(queried) < prefiltered


def test_pool_computes_one_exact_overlap_per_entry(monkeypatch):
    calls = []
    exact = benchgen_module.overlap

    def spy(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(benchgen_module, "overlap", spy)
    pool = build_candidate_pool([_drive()], SelectorConfig(k=1, seed=7))
    assert len(pool) == len(calls) > 0
    for c, (src, tgt, gt, tau) in zip(pool, calls):
        assert src is c.src.cloud and tgt is c.tgt.cloud


def test_pool_rejects_decreasing_timestamps():
    pts = np.zeros((5, 3))
    frames = [_frame("s", 0, pts, t=1.0), _frame("s", 1, pts, t=0.5)]
    with pytest.raises(ValueError):
        build_candidate_pool([frames], SelectorConfig())


def test_pool_refuses_an_empty_cloud_naming_its_frame():
    pts = np.random.default_rng(3).uniform(-5, 5, (40, 3))
    frames = [_frame("drive7", i, pts) for i in range(4)]
    frames[2] = _frame("drive7", 2, np.empty((0, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="^sequence drive7 frame 2 has an empty cloud$"):
            build_candidate_pool([frames], SelectorConfig(k=1))


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _pool_from_descriptors(rows, seq_ids=None) -> list[CandidatePair]:
    # candidates whose 6-axis motion equals the given rows exactly, built
    # from an identity source pose and a target pose assembled per row
    out = []
    dummy = np.zeros((1, 3))
    for i, row in enumerate(np.atleast_2d(np.asarray(rows, dtype=np.float64))):
        seq = "s0" if seq_ids is None else seq_ids[i]
        pose_tgt = RigidMotion(
            rotation=from_euler(EulerAngles(roll=row[3], pitch=row[4], yaw=row[5])),
            translation=row[:3].copy())
        src = PosedFrame(seq, 2 * i, float(i), RigidMotion.identity(), dummy)
        tgt = PosedFrame(seq, 2 * i + 1, float(i), pose_tgt, dummy)
        out.append(CandidatePair(src=src, tgt=tgt, overlap=0.5))
    return out


def test_normalize_maps_extremes_to_unit_interval():
    pool = _pool_from_descriptors([[0, 0, 0, 0, 0, 0],
                                   [10, 2, 1, 4, 5, 6]])
    coords, bounds = normalize_motions(pool)
    assert np.allclose(coords[0], 0.0, atol=1e-12)
    assert np.allclose(coords[1], 1.0, atol=1e-12)
    assert np.allclose(bounds[:, 0], [0, 0, 0, 0, 0, 0], atol=1e-12)


def test_normalize_constant_axis_maps_to_half():
    pool = _pool_from_descriptors([[1, 0, 0, 0, 0, 3],
                                   [2, 0, 0, 0, 0, 6]])
    coords, _ = normalize_motions(pool)
    assert np.allclose(coords[:, 1:5], 0.5)
    assert np.allclose(coords[:, 0], [0.0, 1.0], atol=1e-12)


def test_normalize_round_trip():
    rng = np.random.default_rng(7)
    rows = rng.uniform(-1, 1, (40, 6)) * np.array([20, 10, 2, 5, 5, 90])
    pool = _pool_from_descriptors(rows)
    coords, bounds = normalize_motions(pool)
    raw = np.stack([motion_descriptor(c.src.pose, c.tgt.pose) for c in pool])
    back = bounds[:, 0] + coords * (bounds[:, 1] - bounds[:, 0])
    assert np.allclose(back, raw, atol=1e-9)


def test_normalize_empty_pool_raises():
    with pytest.raises(ValueError):
        normalize_motions([])


# ---------------------------------------------------------------------------
# balanced selection
# ---------------------------------------------------------------------------

def _uniform_pool(rng, n, seqs=("a",)) -> list[CandidatePair]:
    rows = rng.uniform(0, 1, (n, 6)) * np.array([30, 30, 4, 8, 8, 300]) \
        - np.array([0, 15, 2, 4, 4, 150])
    ids = [seqs[i % len(seqs)] for i in range(n)]
    return _pool_from_descriptors(rows, seq_ids=ids)


def test_single_candidate_selected_with_covering_radius():
    pool = _pool_from_descriptors([[1, 2, 0, 0, 0, 30]])
    res = select_balanced(pool, SelectorConfig(target_count=1, r=1.0, seed=0))
    assert len(res.records) == 1
    assert not res.exhausted
    assert res.records[0].src == 0 and res.records[0].tgt == 1


def test_far_draws_are_discarded():
    pool = _uniform_pool(np.random.default_rng(8), 50)
    res = select_balanced(pool, SelectorConfig(target_count=20, r=0.3, seed=1))
    # with a tight radius many uniform draws land near no candidate
    assert len(res.records) == 20
    assert res.attempts > 20


def test_selected_pairs_are_unique_and_overlap_qualified():
    pool = _uniform_pool(np.random.default_rng(9), 400)
    res = select_balanced(pool, SelectorConfig(target_count=150, r=0.15, seed=2))
    keys = [(r.sequence_id, r.src, r.tgt) for r in res.records]
    assert len(set(keys)) == len(keys) == 150
    assert all(r.overlap > 0.2 for r in res.records)


def test_every_record_lies_within_radius_of_its_draw():
    pool = _uniform_pool(np.random.default_rng(10), 500)
    cfg = SelectorConfig(target_count=200, r=0.12, seed=3)
    res = select_balanced(pool, cfg)
    coords, _ = normalize_motions(pool)
    by_key = {(c.src.sequence_id, c.src.frame_index, c.tgt.frame_index): coords[i]
              for i, c in enumerate(pool)}
    for rec, draw in zip(res.records, res.draws):
        c = by_key[(rec.sequence_id, rec.src, rec.tgt)]
        assert np.linalg.norm(c - draw) <= cfg.r + 1e-12


def test_low_overlap_candidates_never_selected(monkeypatch):
    monkeypatch.setattr(benchgen_module, "_ATTEMPT_FACTOR", 50)
    pool = _uniform_pool(np.random.default_rng(11), 60)
    starved = [replace(c, overlap=0.1) for c in pool[:30]]
    res = select_balanced(starved + pool[30:],
                          SelectorConfig(target_count=30, r=0.5, seed=4))
    good = {(c.src.sequence_id, c.src.frame_index) for c in pool[30:]}
    assert all((r.sequence_id, r.src) in good for r in res.records)


def test_sequence_fairness_alternates_under_scarcity():
    # ten candidates from sequence a, two from b, all at the cube center:
    # the least-count rule must alternate a and b until b runs dry
    rows = np.tile([1.0, 0, 0, 0, 0, 0], (12, 1))
    ids = ["a"] * 10 + ["b"] * 2
    pool = _pool_from_descriptors(rows, seq_ids=ids)
    res = select_balanced(pool, SelectorConfig(target_count=4, r=1.0, seed=5))
    first_four = [r.sequence_id for r in res.records]
    assert sorted(first_four[:2]) == ["a", "b"]
    assert sorted(first_four[2:]) == ["a", "b"]


def test_identical_sequences_end_balanced():
    rng = np.random.default_rng(12)
    rows = rng.uniform(0, 1, (300, 6))
    pool = _pool_from_descriptors(np.vstack([rows, rows]),
                                  seq_ids=["a"] * 300 + ["b"] * 300)
    res = select_balanced(pool, SelectorConfig(target_count=250, r=0.3, seed=6))
    counts = {"a": 0, "b": 0}
    for r in res.records:
        counts[r.sequence_id] += 1
    assert abs(counts["a"] - counts["b"]) <= 1


def test_sequence_ties_break_in_sorted_id_order():
    # "b" comes first in the pool; the tie among equally counted sequences
    # is drawn over the ids in sorted order, so "a" is the first choice
    pool = _uniform_pool(np.random.default_rng(12), 12, seqs=("b", "a"))
    res = select_balanced(pool, SelectorConfig(target_count=8, r=1.0, seed=0))
    assert [(r.sequence_id, r.src, r.tgt) for r in res.records] == [
        ("a", 2, 3), ("b", 12, 13), ("b", 8, 9), ("a", 14, 15),
        ("a", 6, 7), ("b", 20, 21), ("b", 4, 5), ("a", 18, 19)]
    assert (res.attempts, res.exhausted) == (8, False)


def test_exhaustion_flags_without_a_warning(monkeypatch):
    monkeypatch.setattr(benchgen_module, "_ATTEMPT_FACTOR", 5)
    pool = _pool_from_descriptors(np.tile([1.0, 0, 0, 0, 0, 0], (3, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = select_balanced(pool, SelectorConfig(target_count=10, r=1.0, seed=7))
    assert res.exhausted
    assert len(res.records) == 3


def test_selection_determinism():
    pool = _uniform_pool(np.random.default_rng(13), 300)
    cfg = SelectorConfig(target_count=100, r=0.15, seed=8)
    a = select_balanced(pool, cfg)
    b = select_balanced(pool, cfg)
    assert [(r.src, r.tgt) for r in a.records] == [(r.src, r.tgt) for r in b.records]
    assert np.array_equal(a.draws, b.draws)
    c = select_balanced(pool, SelectorConfig(target_count=100, r=0.15, seed=9))
    assert [(r.src, r.tgt) for r in a.records] != [(r.src, r.tgt) for r in c.records]


def test_selection_marginals_are_roughly_uniform():
    pool = _uniform_pool(np.random.default_rng(14), 5000)
    res = select_balanced(pool, SelectorConfig(target_count=400, r=0.2, seed=10))
    coords, _ = normalize_motions(pool)
    by_key = {(c.src.sequence_id, c.src.frame_index, c.tgt.frame_index): coords[i]
              for i, c in enumerate(pool)}
    sel = np.stack([by_key[(r.sequence_id, r.src, r.tgt)] for r in res.records])
    for axis in range(6):
        counts = np.histogram(sel[:, axis], bins=4, range=(0.0, 1.0))[0]
        assert chisquare(counts).pvalue > 0.001


def test_selection_requires_nonempty_pool():
    with pytest.raises(ValueError):
        select_balanced([], SelectorConfig())
