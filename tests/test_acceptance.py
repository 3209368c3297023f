"""Acceptance suite: the release guarantees at full scale, one test each.

Run ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
guarantee.  Everything is seeded; the statistical checks use one-sided
sign tests at p < 0.01 so a pass is not a fluke of a friendly seed.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from scipy import stats

from lidarreg.benchgen import SelectorConfig, normalize_motions, select_balanced
from lidarreg.cli import main
from lidarreg.geom import RigidMotion, apply, compose
from lidarreg.gpf import GpfConfig, gpf, grid_assign, quota_search, target_count
from lidarreg.icp import IcpConfig, icp_refine
from lidarreg.io import (
    read_cloud_bin,
    read_cloud_ply,
    read_descriptors,
    read_jsonl,
    read_pair_list,
    read_poses,
    write_cloud_bin,
    write_cloud_ply,
    write_descriptors,
    write_jsonl,
    write_pair_list,
    write_poses,
)
from lidarreg.match import mnn_filter
from lidarreg.metrics import PairRecord, is_success, rotation_error, translation_error
from lidarreg.ransac import RansacConfig, elc_check, kabsch, ransac_register
from lidarreg.synth import SceneSpec, _planted_pairs, generate_scene, random_motion

from test_benchgen import _pool_from_descriptors
from test_geom import random_rotation
from test_gpf import gpf_oracle, make_corrs, quota_oracle
from test_metrics import quat_geodesic_deg
from test_ransac import frobenius_angle_deg


def _sign_test_p(wins: int, losses: int) -> float:
    """One-sided sign test: p-value of seeing this many wins under a fair
    coin, ties dropped."""
    n = wins + losses
    if n == 0:
        return 1.0
    return float(stats.binomtest(wins, n, alternative="greater").pvalue)


# ---------------------------------------------------------------------------
# 1. minimal solver exactness
# ---------------------------------------------------------------------------

def test_01_minimal_solver_is_exact_and_fast():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    for _ in range(1000):
        motion = random_motion(rng)
        src = rng.uniform(-10.0, 10.0, (3, 3))
        est = kabsch(src, apply(motion, src))
        assert frobenius_angle_deg(est.rotation, motion.rotation) < 1e-7
        assert float(np.linalg.norm(est.translation - motion.translation)) < 1e-9
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# 2. error metrics against independent oracles
# ---------------------------------------------------------------------------

def test_02_error_metrics_match_independent_oracles():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        r1, r2 = random_rotation(rng), random_rotation(rng)
        assert abs(rotation_error(r1, r2) - quat_geodesic_deg(r1, r2)) < 1e-6
        a, b = rng.uniform(-50, 50, 3), rng.uniform(-50, 50, 3)
        assert translation_error(a, b) == float(np.linalg.norm(a - b))


# ---------------------------------------------------------------------------
# 3. grid filter equals brute force
# ---------------------------------------------------------------------------

def test_03_grid_filter_matches_brute_force():
    rng = np.random.default_rng(2)
    for trial in range(500):
        n_cells = int(rng.integers(1, 14))
        counts = rng.integers(0, 50, n_cells)
        if counts.max() == 0:
            counts[int(rng.integers(n_cells))] = int(rng.integers(1, 50))
        r = int(rng.integers(1, counts.sum() + 2))
        assert quota_search(counts, r) == quota_oracle(counts, r), trial

        n = int(rng.integers(10, 300))
        pts = rng.uniform(-20.0, 20.0, (n, 3))
        corrs = make_corrs(n, rng=np.random.default_rng(5000 + trial))
        if not corrs.is_mnn.any():
            continue
        cfg = GpfConfig(grid_m=int(rng.integers(1, 10)),
                        phi=float(rng.uniform(0.3, 3.0)))
        got = gpf(pts, corrs, cfg)
        want = corrs.take(gpf_oracle(pts, corrs, cfg))
        assert np.array_equal(got.src, want.src), trial
        assert np.array_equal(got.dst, want.dst), trial


# ---------------------------------------------------------------------------
# 4. end-to-end robustness across contamination levels
# ---------------------------------------------------------------------------

def test_04_registration_recall_across_inlier_fractions():
    targets = {0.2: 0.95, 0.3: 0.99, 0.5: 1.00}
    times = []
    for frac, floor in targets.items():
        wins = 0
        for seed in range(200):
            scene = generate_scene(SceneSpec(
                n_points=1000, extent=50.0, inlier_fraction=frac,
                noise_sigma=0.05, seed=seed))
            res = ransac_register(scene.src, scene.dst, scene.corrs,
                                  RansacConfig(confidence=0.999,
                                               inlier_threshold=0.6,
                                               seed=seed))
            gt = scene.true_motion
            re = rotation_error(res.motion.rotation, gt.rotation)
            te = translation_error(res.motion.translation, gt.translation)
            wins += is_success(re, te)
            times.append(res.wall_time)
        assert wins / 200 >= floor, f"recall {wins / 200} at {frac}"
    assert float(np.mean(times)) < 0.5


# ---------------------------------------------------------------------------
# 5. sampling, rejection, and refinement each earn their keep
# ---------------------------------------------------------------------------

def _first_success_iteration(res, gt) -> int:
    for iteration, _count, motion in res.best_history:
        re = rotation_error(motion.rotation, gt.rotation)
        te = translation_error(motion.translation, gt.translation)
        if is_success(re, te):
            return iteration
    return res.iterations_run + 1


def test_05_component_ablations_point_the_right_way():
    # (a) quality-ordered sampling reaches a good model sooner than uniform
    pro, uni = [], []
    for seed in range(200):
        scene = generate_scene(SceneSpec(n_points=1000, inlier_fraction=0.3,
                                         quality_correlation=0.7, seed=seed))
        for use_prosac, out in ((True, pro), (False, uni)):
            res = ransac_register(
                scene.src, scene.dst, scene.corrs,
                RansacConfig(confidence=0.999, inlier_threshold=0.6,
                             use_prosac=use_prosac, seed=seed))
            out.append(_first_success_iteration(res, scene.true_motion))
    pro, uni = np.array(pro), np.array(uni)
    assert pro.mean() < uni.mean()
    wins = int((pro < uni).sum())
    losses = int((pro > uni).sum())
    assert _sign_test_p(wins, losses) < 0.01, (wins, losses)

    # (b) edge-length screening kills contaminated samples, never clean ones
    rate_wins = rate_losses = 0
    rejected = contaminated = 0
    clean_rejected = 0
    for seed in range(200):
        scene = generate_scene(SceneSpec(n_points=1000, inlier_fraction=0.3,
                                         noise_sigma=0.05,
                                         quality_correlation=0.7, seed=seed))
        rng = np.random.default_rng([seed, 13])
        sr = st = 0
        for _ in range(50):
            idx = rng.choice(1000, 3, replace=False)
            if scene.inlier_labels[idx].all():
                continue
            st += 1
            sr += not elc_check(scene.src[idx], scene.dst[idx], 0.6)
        rejected += sr
        contaminated += st
        if st:
            rate_wins += sr / st > 0.5
            rate_losses += sr / st < 0.5
        clean = generate_scene(SceneSpec(n_points=1000, inlier_fraction=1.0,
                                         noise_sigma=0.0, seed=seed))
        for _ in range(20):
            idx = rng.choice(1000, 3, replace=False)
            clean_rejected += not elc_check(clean.src[idx], clean.dst[idx], 0.6)
    assert rejected / contaminated >= 0.5
    assert _sign_test_p(rate_wins, rate_losses) < 0.01
    assert clean_rejected == 0

    # (c) the local-optimization pass never hurts the final consensus;
    # sigma 0.2 puts planted residuals at the threshold so refit quality
    # is actually visible in the counts
    on_counts, off_counts = [], []
    for seed in range(200):
        scene = generate_scene(SceneSpec(n_points=1000, inlier_fraction=0.3,
                                         noise_sigma=0.2,
                                         quality_correlation=0.7, seed=seed))
        by_lo = {}
        for use_lo in (True, False):
            res = ransac_register(
                scene.src, scene.dst, scene.corrs,
                RansacConfig(confidence=0.999, inlier_threshold=0.6,
                             use_lo=use_lo, seed=seed))
            by_lo[use_lo] = res.inlier_count
        on_counts.append(by_lo[True])
        off_counts.append(by_lo[False])
    on_counts, off_counts = np.array(on_counts), np.array(off_counts)
    assert on_counts.mean() >= off_counts.mean()
    wins = int((on_counts > off_counts).sum())
    losses = int((on_counts < off_counts).sum())
    assert _sign_test_p(wins, losses) < 0.01, (wins, losses)


# ---------------------------------------------------------------------------
# 6. spatial spread beats mutual-only filtering under clustered false matches
# ---------------------------------------------------------------------------

def _clustered_false_match_scene(seed: int, n: int = 1000, n_in: int = 80,
                                 n_false: int = 220, sigma: float = 0.05):
    """A low-overlap pair whose outliers are not independent: one spatial
    cluster of correspondences agrees on a second, wrong motion and carries
    descriptors as coherent as the true matches (think repeated structure).
    Mutual filtering keeps the whole cluster; the grid quota cannot.
    """
    rng = np.random.default_rng([seed, 77])
    src = rng.uniform(-25.0, 25.0, (n, 3))
    false_rows = slice(n_in, n_in + n_false)
    src[false_rows, 0] = rng.uniform(-25.0, -13.0, n_false)
    src[false_rows, 1] = rng.uniform(-25.0, -13.0, n_false)
    t_true = random_motion(rng)
    t_false = random_motion(rng)
    dst = np.empty_like(src)
    dst[:n_in] = apply(t_true, src[:n_in]) + rng.normal(0, sigma, (n_in, 3))
    dst[false_rows] = apply(t_false, src[false_rows]) \
        + rng.normal(0, sigma, (n_false, 3))
    n_rand = n - n_in - n_false
    scatter = rng.uniform(3.0, 30.0, (n_rand, 3)) * rng.choice([-1.0, 1.0],
                                                               (n_rand, 3))
    dst[n_in + n_false:] = apply(t_true, src[n_in + n_false:] + scatter)

    src_desc = rng.standard_normal((n, 16))
    dst_desc = rng.standard_normal((n, 16))
    coherent = slice(0, n_in + n_false)
    dst_desc[coherent] = src_desc[coherent] \
        + 0.1 * np.sqrt(2.0) * rng.standard_normal((n_in + n_false, 16))
    return src, dst, _planted_pairs(src_desc, dst_desc), t_true


def test_06_grid_quota_spreads_and_outperforms_mutual_only():
    cfg_gpf = GpfConfig(phi=2.0)
    wins = {"gpf": 0, "mnn": 0}
    for seed in range(200):
        src, dst, corrs, gt = _clustered_false_match_scene(seed)

        if seed < 20:   # every crowded cell holds exactly the quota
            kept = gpf(src, corrs, cfg_gpf)
            cells = grid_assign(src, corrs, cfg_gpf.grid_m)
            occupied, counts = np.unique(cells, return_counts=True)
            level = quota_search(counts, target_count(corrs, cfg_gpf))
            # cell ids under the full-set grid; src doubles as row index
            kept_cells = cells[kept.src]
            for cell_id, total in zip(occupied, counts):
                if total >= level:
                    assert int((kept_cells == cell_id).sum()) == level

        for name, subset in (("gpf", gpf(src, corrs, cfg_gpf)),
                             ("mnn", mnn_filter(corrs))):
            res = ransac_register(
                src, dst, subset,
                RansacConfig(confidence=0.999, inlier_threshold=0.6,
                             max_iterations=1000, seed=seed))
            re = rotation_error(res.motion.rotation, gt.rotation)
            te = translation_error(res.motion.translation, gt.translation)
            wins[name] += is_success(re, te)
    assert wins["gpf"] / 200 >= wins["mnn"] / 200, wins
    assert wins["gpf"] / 200 >= 0.95, wins


# ---------------------------------------------------------------------------
# 7. balanced selection is uniform, qualified, and fair
# ---------------------------------------------------------------------------

def test_07_balanced_selection_uniformity_and_fairness():
    from dataclasses import replace

    rng = np.random.default_rng(3)
    scale = np.array([40, 40, 6, 10, 10, 340], dtype=np.float64)
    offset = np.array([-20, -20, -3, -5, -5, -170], dtype=np.float64)
    rows = rng.uniform(0, 1, (60000, 6)) * scale + offset
    pool = _pool_from_descriptors(rows,
                                  seq_ids=[f"s{i % 40}" for i in range(60000)])
    low_rows = rng.uniform(0, 1, (2000, 6)) * scale + offset
    low = [replace(c, overlap=0.1)
           for c in _pool_from_descriptors(low_rows,
                                           seq_ids=["low"] * 2000)]
    cfg = SelectorConfig(target_count=1000, r=0.15, seed=0)
    res = select_balanced(pool + low, cfg)
    assert len(res.records) == 1000 and not res.exhausted

    assert all(r.overlap > cfg.min_overlap for r in res.records)
    assert all(r.sequence_id != "low" for r in res.records)

    # normalized the way the selector does: over the qualified pool only
    coords, _ = normalize_motions(pool)
    where = {(c.src.sequence_id, c.src.frame_index, c.tgt.frame_index): i
             for i, c in enumerate(pool)}
    sel = np.array([coords[where[(r.sequence_id, r.src, r.tgt)]]
                    for r in res.records])
    assert np.all(np.linalg.norm(sel - res.draws, axis=1) <= cfg.r + 1e-12)

    for axis in range(6):
        counts, _ = np.histogram(sel[:, axis], bins=4, range=(0.0, 1.0))
        assert stats.chisquare(counts).pvalue > 0.01, (axis, counts)

    # two sequences offering identical candidates end up even
    dup_rows = rng.uniform(0, 1, (3000, 6)) * scale + offset
    twin = (_pool_from_descriptors(dup_rows, seq_ids=["a"] * 3000)
            + _pool_from_descriptors(dup_rows, seq_ids=["b"] * 3000))
    fair = select_balanced(twin, SelectorConfig(target_count=1000, r=0.5,
                                                seed=0))
    assert len(fair.records) == 1000
    n_a = sum(r.sequence_id == "a" for r in fair.records)
    assert abs(n_a - (1000 - n_a)) <= 1


# ---------------------------------------------------------------------------
# 8. refinement: monotone objective, basin of attraction
# ---------------------------------------------------------------------------

def _perturbed(motion: RigidMotion, rng, t_norm: float = 0.3,
               angle_deg: float = 3.0) -> RigidMotion:
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    a = np.deg2rad(angle_deg)
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    rot = np.eye(3) + np.sin(a) * k + (1.0 - np.cos(a)) * (k @ k)
    dt = rng.standard_normal(3)
    dt *= t_norm / np.linalg.norm(dt)
    return compose(RigidMotion(rotation=rot, translation=dt), motion)


def test_08_refinement_is_monotone_and_recovers_perturbations():
    recovered = 0
    for seed in range(100):
        rng = np.random.default_rng([seed, 5])
        src = rng.uniform(-10.0, 10.0, (2000, 3))
        gt = random_motion(rng, translation_scale=5.0)
        dst = apply(gt, src)
        res = icp_refine(src, dst, _perturbed(gt, rng),
                         IcpConfig(threshold=0.6))
        assert np.all(np.diff(res.rmse_history) <= 1e-12), seed
        re = rotation_error(res.motion.rotation, gt.rotation)
        te = translation_error(res.motion.translation, gt.translation)
        recovered += te < 0.02 and re < 0.2
    assert recovered >= 99, recovered


# ---------------------------------------------------------------------------
# 9. determinism end to end, exact round trips
# ---------------------------------------------------------------------------

def test_09_cli_determinism_and_exact_round_trips(tmp_path, capsys):
    scene = tmp_path / "scene"
    assert main(["synth", "scene", "--out-dir", str(scene), "--seed", "4",
                 "--n", "400", "--inlier-fraction", "0.3"]) == 0
    outs = []
    for name in ("one", "two"):
        out = tmp_path / f"{name}.jsonl"
        assert main(["register",
                     "--src", str(scene / "src.ply"),
                     "--dst", str(scene / "dst.ply"),
                     "--src-desc", str(scene / "src.fdsc"),
                     "--dst-desc", str(scene / "dst.fdsc"),
                     "--gt-pose", str(scene / "gt.txt"),
                     "--seed", "11", "--threads", "1", "--timing", "off",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    traj = tmp_path / "traj"
    assert main(["synth", "trajectory", "--out-dir", str(traj),
                 "--profile", "random", "--frames", "6", "--spacing", "6",
                 "--range", "30", "--seed", "8"]) == 0
    pair_files = []
    for name in ("p1.csv", "p2.csv"):
        assert main(["benchgen", "--cloud-dir", str(traj),
                     "--pose-dir", str(traj),
                     "--out-pairs", str(tmp_path / name),
                     "--k", "1", "--min-overlap", "0.3",
                     "--target-count", "4", "--r", "0.5", "--seed", "6"]) == 0
        pair_files.append((tmp_path / name).read_bytes())
    assert pair_files[0] == pair_files[1]

    assert main(["eval", "--records", str(tmp_path / "one.jsonl")]) == 0
    first = capsys.readouterr().out
    assert main(["eval", "--records", str(tmp_path / "one.jsonl")]) == 0
    assert capsys.readouterr().out == first

    rng = np.random.default_rng(9)
    cloud = rng.uniform(-80, 80, (300, 3)).astype(np.float32).astype(np.float64)
    write_cloud_ply(tmp_path / "c.ply", cloud)
    assert np.array_equal(read_cloud_ply(tmp_path / "c.ply"), cloud)
    write_cloud_bin(tmp_path / "c.bin", cloud)
    assert np.array_equal(read_cloud_bin(tmp_path / "c.bin"), cloud)
    desc = rng.standard_normal((300, 16)).astype(np.float32)
    write_descriptors(tmp_path / "d.fdsc", desc)
    assert np.array_equal(read_descriptors(tmp_path / "d.fdsc"),
                          desc.astype(np.float64))
    motions = [random_motion(rng) for _ in range(20)]
    write_poses(tmp_path / "m.txt", motions)
    for got, want in zip(read_poses(tmp_path / "m.txt"), motions):
        assert np.array_equal(got.rotation, want.rotation)
        assert np.array_equal(got.translation, want.translation)
    records = [PairRecord("seq", 2 * i, 2 * i + 1, motions[i],
                          overlap=float(rng.uniform(0.2, 1.0)),
                          dt=float(i)) for i in range(20)]
    write_pair_list(tmp_path / "p.csv", records)
    back = read_pair_list(tmp_path / "p.csv")
    assert [(r.sequence_id, r.src, r.tgt, r.overlap, r.dt) for r in back] \
        == [(r.sequence_id, r.src, r.tgt, r.overlap, r.dt) for r in records]
    rows = [{"k": i, "v": float(rng.random())} for i in range(10)]
    write_jsonl(tmp_path / "r.jsonl", rows)
    assert read_jsonl(tmp_path / "r.jsonl") == rows
