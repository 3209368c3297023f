"""End-to-end pipeline tests on planted scenes."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from lidarreg.gpf import GpfConfig
from lidarreg.icp import IcpConfig
from lidarreg.match import match_features, mnn_filter
from lidarreg.metrics import rotation_error, translation_error
from lidarreg.pipeline import PipelineConfig, register_pair
from lidarreg.ransac import RansacConfig
from lidarreg.synth import SceneSpec, generate_scene

_FAST_RANSAC = RansacConfig(seed=0)


def _scene(seed: int = 0, **kw):
    defaults = dict(n_points=400, inlier_fraction=0.4, seed=seed)
    defaults.update(kw)
    return generate_scene(SceneSpec(**defaults))


def _register(scene, cfg):
    return register_pair(scene.src, scene.dst, scene.src_desc,
                         scene.dst_desc, cfg)


def test_register_pair_recovers_planted_motion():
    scene = _scene(seed=11)
    cfg = PipelineConfig(ransac=_FAST_RANSAC)
    result = _register(scene, cfg)
    gt = scene.true_motion
    assert rotation_error(result.final.rotation, gt.rotation) < 0.5
    assert translation_error(result.final.translation, gt.translation) < 0.1


def test_refine_none_leaves_refined_fields_empty():
    scene = _scene(seed=1)
    cfg = PipelineConfig(refine="none", ransac=_FAST_RANSAC)
    result = _register(scene, cfg)
    assert result.icp is None
    assert result.refined_time is None
    assert result.final is result.ransac.motion


def test_final_prefers_refined_when_present():
    scene = _scene(seed=2)
    cfg = PipelineConfig(ransac=_FAST_RANSAC)
    result = _register(scene, cfg)
    assert result.icp is not None
    assert result.final is result.icp.motion
    assert result.refined_time is not None and result.refined_time > 0.0


def test_filter_none_keeps_every_correspondence():
    scene = _scene(seed=3)
    cfg = PipelineConfig(correspondence_filter="none", refine="none",
                         ransac=_FAST_RANSAC)
    result = _register(scene, cfg)
    assert result.corrs_total == len(scene.src)
    assert result.corrs_kept == result.corrs_total


def test_filter_mnn_keeps_exactly_the_mutual_matches():
    scene = _scene(seed=4)
    cfg = PipelineConfig(correspondence_filter="mnn", refine="none",
                         ransac=_FAST_RANSAC)
    result = _register(scene, cfg)
    corrs = match_features(scene.src_desc, scene.dst_desc)
    assert result.corrs_kept == len(mnn_filter(corrs).src)
    assert result.corrs_kept < result.corrs_total


def test_gpf_filter_trims_the_set():
    scene = _scene(seed=5)
    cfg = PipelineConfig(correspondence_filter="gpf", refine="none",
                         gpf=GpfConfig(phi=0.5), ransac=_FAST_RANSAC)
    result = _register(scene, cfg)
    assert 0 < result.corrs_kept < result.corrs_total


def _mixed_scales(rng):
    a = rng.normal(size=(60, 4))
    a[::3] *= 1e30
    a[1::3] *= 1e-30
    return a


def _grid_near_1000(rng):
    g = 1000.0 + 1e-3 * np.stack(np.meshgrid(*[np.arange(5)] * 3), -1).reshape(-1, 3)
    return g[rng.permutation(len(g))]


@pytest.mark.parametrize("make", [
    lambda rng: rng.normal(size=(80, 8)),
    lambda rng: np.zeros((40, 6)),
    _grid_near_1000,
    lambda rng: np.repeat(rng.normal(size=(3, 5)), [7, 11, 5], axis=0),
    _mixed_scales,
], ids=["random", "all-zero", "grid-near-1000", "repeated-rows", "mixed-scales"])
def test_matching_always_gives_a_mutual_pair(make):
    # the least distance's lowest (source, target) row pair is mutual, so
    # the GPF budget, which scales the mutual count, is always defined
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a, b = make(rng), make(rng)
        assert match_features(a, b).is_mnn.any()
        assert match_features(a, a[rng.permutation(len(a))]).is_mnn.any()


def test_gpf_on_all_zero_descriptors_runs_without_warnings():
    scene = _scene(seed=6, n_points=200)
    zeros = np.zeros_like(scene.src_desc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = register_pair(scene.src, scene.dst, zeros, zeros,
                               PipelineConfig(refine="none", ransac=RansacConfig(
                                   max_iterations=1000, seed=0)))
    assert 0 < result.corrs_kept < result.corrs_total


def test_register_pair_matches_descriptors_itself():
    scene = _scene(seed=7, quality_correlation=0.9)
    cfg = PipelineConfig(ransac=_FAST_RANSAC)
    result = register_pair(scene.src, scene.dst, scene.src_desc,
                           scene.dst_desc, cfg)
    assert result.corrs_total == len(scene.src)
    gt = scene.true_motion
    assert rotation_error(result.final.rotation, gt.rotation) < 0.5
    assert translation_error(result.final.translation, gt.translation) < 0.1


@pytest.mark.parametrize("side", ["src", "dst"])
@pytest.mark.parametrize("cut", ["points", "desc"])
def test_register_pair_rejects_descriptor_and_cloud_row_mismatch(side, cut):
    # a short cloud would index past its end, short descriptors would
    # silently pair the wrong rows
    scene = _scene(seed=3, n_points=300)
    arrays = dict(src_points=scene.src, dst_points=scene.dst,
                  src_desc=scene.src_desc, dst_desc=scene.dst_desc)
    arrays[f"{side}_{cut}"] = arrays[f"{side}_{cut}"][:-20]
    with pytest.raises(ValueError, match=f"^{side}_desc has"):
        register_pair(**arrays, cfg=PipelineConfig(ransac=_FAST_RANSAC))


def test_pipeline_is_deterministic_for_a_fixed_seed():
    scene = _scene(seed=8)
    cfg = PipelineConfig(ransac=RansacConfig(seed=21))
    a, b = _register(scene, cfg), _register(scene, cfg)
    assert np.array_equal(a.final.rotation, b.final.rotation)
    assert np.array_equal(a.final.translation, b.final.translation)
    assert a.ransac.iterations_run == b.ransac.iterations_run


def test_icp_stage_tightens_the_coarse_estimate():
    worse = 0
    for seed in range(10):
        scene = _scene(seed=100 + seed)
        cfg = PipelineConfig(ransac=_FAST_RANSAC,
                             icp=IcpConfig(threshold=0.6))
        result = _register(scene, cfg)
        gt = scene.true_motion
        te_coarse = translation_error(result.ransac.motion.translation, gt.translation)
        te_refined = translation_error(result.icp.motion.translation, gt.translation)
        if te_refined > te_coarse + 1e-9:
            worse += 1
    assert worse <= 2


def test_bad_choices_are_rejected():
    with pytest.raises(ValueError):
        PipelineConfig(correspondence_filter="fancy")
    with pytest.raises(ValueError):
        PipelineConfig(refine="bundle")
