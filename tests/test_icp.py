"""ICP refinement: convergence, monotone gated RMSE, no-overlap signaling."""

from __future__ import annotations

import math

import numpy as np
import pytest

import lidarreg.icp as icp_module
from lidarreg.geom import RigidMotion, SpatialIndex, apply, compose
from lidarreg.icp import IcpConfig, IcpResult, icp_refine
from lidarreg.metrics import rotation_error, translation_error
from lidarreg.ransac import SAMPLE_SIZE, DegenerateSampleError, kabsch

from test_geom import random_motion
from test_ransac import random_rotation_small


def dense_cloud(rng, n=5000, extent=20.0):
    return rng.uniform(-extent, extent, size=(n, 3))


def perturbed(truth, trans=0.2, deg=2.0):
    return RigidMotion(truth.rotation @ random_rotation_small(deg),
                       truth.translation + np.array([trans, 0.0, 0.0]))


def test_identity_on_identical_clouds_converges_immediately():
    rng = np.random.default_rng(0)
    cloud = dense_cloud(rng, n=500)
    res = icp_refine(cloud, cloud, RigidMotion.identity())
    assert res.converged
    assert res.rmse < 1e-12
    assert not res.no_overlap
    assert rotation_error(res.motion.rotation, np.eye(3)) < 1e-6


def test_recovers_from_small_perturbation():
    rng = np.random.default_rng(1)
    cloud = dense_cloud(rng)
    truth = random_motion(rng, translation_scale=5.0)
    moved = apply(truth, cloud)
    res = icp_refine(cloud, moved, perturbed(truth, trans=0.2, deg=2.0))
    assert translation_error(res.motion.translation, truth.translation) < 0.01
    assert rotation_error(res.motion.rotation, truth.rotation) < 0.1


def test_gated_rmse_nonincreasing():
    rng = np.random.default_rng(2)
    cloud = dense_cloud(rng, n=2000)
    truth = random_motion(rng, translation_scale=3.0)
    moved = apply(truth, cloud) + rng.normal(scale=0.03, size=cloud.shape)
    res = icp_refine(cloud, moved, perturbed(truth, trans=0.3, deg=2.5))
    hist = list(res.rmse_history)
    assert len(hist) >= 2
    assert all(a >= b for a, b in zip(hist, hist[1:]))


def test_final_rmse_never_above_initial():
    rng = np.random.default_rng(3)
    for seed in range(10):
        local = np.random.default_rng(seed)
        cloud = dense_cloud(local, n=1500)
        truth = random_motion(local, translation_scale=4.0)
        moved = apply(truth, cloud) + local.normal(scale=0.05, size=cloud.shape)
        res = icp_refine(cloud, moved, perturbed(truth, trans=0.25, deg=2.0))
        assert res.rmse <= res.rmse_history[0] + 1e-15


def test_disjoint_clouds_report_no_overlap():
    rng = np.random.default_rng(4)
    a = dense_cloud(rng, n=200, extent=5.0)
    b = a + np.array([1000.0, 0.0, 0.0])
    init = random_motion(rng, translation_scale=1.0)
    res = icp_refine(a, b, init)
    assert res.no_overlap
    assert math.isinf(res.rmse)
    assert np.array_equal(res.motion.rotation, init.rotation)
    assert np.array_equal(res.motion.translation, init.translation)
    assert res.iterations == 0


def test_respects_iteration_cap(monkeypatch):
    monkeypatch.setattr(icp_module, "_MAX_ITERATIONS", 2)
    rng = np.random.default_rng(5)
    cloud = dense_cloud(rng, n=800)
    truth = random_motion(rng, translation_scale=2.0)
    moved = apply(truth, cloud) + rng.normal(scale=0.1, size=cloud.shape)
    res = icp_refine(cloud, moved, perturbed(truth, trans=0.3, deg=3.0))
    assert res.iterations <= 2


def test_noisy_pair_converges_within_default_budget():
    rng = np.random.default_rng(6)
    cloud = dense_cloud(rng, n=3000)
    truth = random_motion(rng, translation_scale=5.0)
    moved = apply(truth, cloud) + rng.normal(scale=0.02, size=cloud.shape)
    res = icp_refine(cloud, moved, perturbed(truth, trans=0.2, deg=1.5))
    assert res.converged
    assert res.iterations <= 30
    assert translation_error(res.motion.translation, truth.translation) < 0.05


def test_config_validation():
    with pytest.raises(ValueError):
        IcpConfig(threshold=0.0)
    with pytest.raises(ValueError):
        icp_refine(np.zeros((0, 3)), np.zeros((5, 3)), RigidMotion.identity())


def test_config_rejects_nan_threshold():
    with pytest.raises(ValueError, match="threshold"):
        IcpConfig(threshold=float("nan"))


def test_gated_search_gives_the_unbounded_result(monkeypatch):
    # two partly overlapping clouds: most source points have no target
    # point within the gate, which the gated search answers with inf; the
    # first search reaches past the gate, every later one stops at it; the
    # result must equal a loop that searches every row unbounded
    rng = np.random.default_rng(9)
    cloud = dense_cloud(rng, n=3000)
    truth = random_motion(rng, translation_scale=3.0)
    dst = apply(truth, cloud[cloud[:, 0] > 5.0])
    init = perturbed(truth, trans=0.3, deg=3.0)
    want = reference_icp(cloud, dst, init, 0.5)
    radii = []
    search = SpatialIndex.nearest

    def spy(self, queries, r=math.inf):
        radii.append(r)
        return search(self, queries, r)

    monkeypatch.setattr(SpatialIndex, "nearest", spy)
    got = icp_refine(cloud, dst, init, IcpConfig(threshold=0.5))
    assert min(radii) == 0.5 and got.iterations > 1
    assert_same_result(got, want)


def reference_icp(src, dst, init, threshold):
    """The ICP loop with an unbounded search of every source row each
    iteration, gated afterwards."""
    index = SpatialIndex(dst)

    def pairs(motion):
        d, nn = index.nearest(apply(motion, src))
        return d, nn, d <= threshold

    def rmse_of(d, gate):
        return float(np.sqrt(np.mean(d[gate] ** 2)))

    cur = init
    d, nn, gate = pairs(cur)
    if not gate.any():
        return IcpResult(init, math.inf, 0, False, True, ())
    rmse = rmse_of(d, gate)
    history, iterations, converged = [rmse], 0, False
    for _ in range(icp_module._MAX_ITERATIONS):
        if int(gate.sum()) < SAMPLE_SIZE:
            break
        iterations += 1
        try:
            new = kabsch(src[gate], dst[nn[gate]])
        except DegenerateSampleError:
            break
        d, nn, new_gate = pairs(new)
        if not new_gate.any():
            break
        new_rmse = rmse_of(d, new_gate)
        change = math.sqrt(np.sum((new.rotation - cur.rotation) ** 2)
                           + np.sum((new.translation - cur.translation) ** 2))
        within_tol = abs(new_rmse - rmse) < icp_module._RMSE_DELTA_TOL \
            and change < icp_module._TRANSFORM_DELTA_TOL
        if new_rmse > rmse:
            converged = within_tol
            break
        cur, gate, rmse = new, new_gate, new_rmse
        history.append(rmse)
        if within_tol:
            converged = True
            break
    return IcpResult(cur, rmse, iterations, converged, False, tuple(history))


def assert_same_result(got: IcpResult, want: IcpResult):
    assert got.motion.rotation.tobytes() == want.motion.rotation.tobytes()
    assert got.motion.translation.tobytes() == want.motion.translation.tobytes()
    assert (got.rmse, got.iterations, got.converged, got.no_overlap,
            got.rmse_history) == (want.rmse, want.iterations, want.converged,
                                  want.no_overlap, want.rmse_history)


def icp_case(seed: int, kind: str):
    """A seeded pair of clouds, an initial motion and a gate."""
    rng = np.random.default_rng(seed)
    cloud = dense_cloud(rng, n=int(rng.integers(300, 900)), extent=8.0)
    truth = random_motion(rng, translation_scale=2.0)
    if kind == "partial":
        dst = apply(truth, cloud[cloud[:, 0] > rng.uniform(-4.0, 4.0)])
        dst = dst + rng.normal(scale=0.02, size=dst.shape)
    elif kind == "grid":
        # rounded coordinates on both sides: many exact distance ties
        cloud = np.round(cloud * 2.0) / 2.0
        dst = np.round(apply(truth, cloud) * 4.0) / 4.0
    else:
        dst = apply(truth, cloud)
    init = perturbed(truth, trans=rng.uniform(0.05, 0.6), deg=rng.uniform(0.5, 4.0))
    return cloud, dst, init, float(rng.uniform(0.2, 3.0))


@pytest.mark.parametrize("kind", ["partial", "grid", "noiseless"])
@pytest.mark.parametrize("seed", range(8))
def test_equals_a_full_unbounded_search_every_iteration(seed, kind):
    src, dst, init, threshold = icp_case(100 + seed, kind)
    got = icp_refine(src, dst, init, IcpConfig(threshold=threshold))
    assert_same_result(got, reference_icp(src, dst, init, threshold))


def test_later_iterations_search_only_rows_that_can_reach_the_gate(monkeypatch):
    rng = np.random.default_rng(9)
    cloud = dense_cloud(rng, n=3000)
    truth = random_motion(rng, translation_scale=3.0)
    dst = apply(truth, cloud[cloud[:, 0] > 5.0])
    init = perturbed(truth, trans=0.3, deg=3.0)
    rows = []
    search = SpatialIndex.nearest

    def spy(self, queries, r=math.inf):
        rows.append(len(queries))
        return search(self, queries, r)

    monkeypatch.setattr(SpatialIndex, "nearest", spy)
    got = icp_refine(cloud, dst, init, IcpConfig(threshold=0.5))
    assert got.iterations > 1 and rows[0] == len(cloud)
    assert sum(rows) < (got.iterations + 1) * len(cloud)


def test_refuses_clouds_that_are_not_n_by_3():
    rng = np.random.default_rng(10)
    flat = rng.uniform(-5.0, 5.0, (150, 2))
    with pytest.raises(ValueError, match=r"\(150, 2\)"):
        icp_refine(flat, flat, RigidMotion.identity())
    cloud = dense_cloud(rng, n=150)
    with pytest.raises(ValueError, match=r"\(450,\)"):
        icp_refine(cloud.ravel(), cloud, RigidMotion.identity())
