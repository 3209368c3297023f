"""Robust estimator: rigid fit, stopping rule, rejection tests, sampler, engine."""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import pytest
from scipy.stats import chisquare

from lidarreg import ransac as ransac_module
from lidarreg.geom import RigidMotion, apply
from lidarreg.gpf import priority_order
from lidarreg.match import Correspondences
from lidarreg.metrics import rotation_error, translation_error
from lidarreg.ransac import (
    _BLOCK,
    _LO_ANNEAL,
    _LO_MIN_SAMPLE,
    _MAX_BLOCK,
    REJECTIONS,
    SAMPLE_SIZE,
    DegenerateSampleError,
    Hypothesis,
    RansacConfig,
    RegistrationResult,
    _distinct_rows,
    _elc_live,
    _fit_rigid,
    _lo_step,
    _prosac_growth,
    _sample_block,
    _squared_gate,
    _squared_residuals,
    elc_check,
    kabsch,
    ransac_register,
    required_iterations,
)

from test_geom import random_motion, random_rotation


# ---------------------------------------------------------------------------
# kabsch vs an independent quaternion-based fit
# ---------------------------------------------------------------------------

def quat_to_matrix(q):
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def horn_fit(p, q):
    """Closed-form absolute orientation via the 4x4 quaternion eigenproblem."""
    cp, cq = p.mean(axis=0), q.mean(axis=0)
    s = (p - cp).T @ (q - cq)
    sxx, sxy, sxz = s[0]
    syx, syy, syz = s[1]
    szx, szy, szz = s[2]
    n = np.array([
        [sxx + syy + szz, syz - szy, szx - sxz, sxy - syx],
        [syz - szy, sxx - syy - szz, sxy + syx, szx + sxz],
        [szx - sxz, sxy + syx, -sxx + syy - szz, syz + szy],
        [sxy - syx, szx + sxz, syz + szy, -sxx - syy + szz],
    ])
    _, vecs = np.linalg.eigh(n)
    r = quat_to_matrix(vecs[:, -1])
    return r, cq - r @ cp


def frobenius_angle_deg(r1, r2) -> float:
    """Geodesic angle via ||R1 - R2||_F = 2*sqrt(2)*sin(theta/2).

    Mathematically identical to the trace formula but conditioned well
    near zero, where arccos((trace-1)/2) cannot resolve below ~1e-6 deg.
    """
    fro = np.linalg.norm(np.asarray(r1) - np.asarray(r2))
    return math.degrees(2.0 * math.asin(min(fro / (2.0 * math.sqrt(2.0)), 1.0)))


def test_horn_oracle_sanity():
    rng = np.random.default_rng(0)
    t = random_motion(rng)
    p = rng.normal(size=(10, 3)) * 5.0
    r, tt = horn_fit(p, apply(t, p))
    assert np.allclose(r, t.rotation, atol=1e-10)
    assert np.allclose(tt, t.translation, atol=1e-9)


def test_kabsch_recovers_exact_motion_minimal_sample():
    rng = np.random.default_rng(1)
    for _ in range(100):
        t = random_motion(rng, translation_scale=20.0)
        p = rng.uniform(-30.0, 30.0, size=(3, 3))
        got = kabsch(p, apply(t, p))
        assert frobenius_angle_deg(got.rotation, t.rotation) < 1e-7
        assert translation_error(got.translation, t.translation) < 1e-9


def test_kabsch_agrees_with_quaternion_method_noisy():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t = random_motion(rng)
        p = rng.uniform(-10.0, 10.0, size=(40, 3))
        q = apply(t, p) + rng.normal(scale=0.05, size=(40, 3))
        got = kabsch(p, q)
        r_o, t_o = horn_fit(p, q)
        assert frobenius_angle_deg(got.rotation, r_o) < 1e-7
        assert np.allclose(got.translation, t_o, atol=1e-8)


def test_kabsch_output_is_proper_rotation():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p = rng.normal(size=(6, 3))
        q = rng.normal(size=(6, 3))   # unrelated clouds still give a rotation
        got = kabsch(p, q)
        assert np.allclose(got.rotation @ got.rotation.T, np.eye(3), atol=1e-12)
        assert abs(np.linalg.det(got.rotation) - 1.0) < 1e-12


def test_kabsch_rejects_collinear_and_coincident():
    line = np.outer(np.arange(3, dtype=float), np.array([1.0, 2.0, 0.5]))
    with pytest.raises(DegenerateSampleError):
        kabsch(line, line + 1.0)
    same = np.tile([[1.0, 2.0, 3.0]], (3, 1))
    with pytest.raises(DegenerateSampleError):
        kabsch(same, same)


def test_kabsch_input_validation():
    with pytest.raises(ValueError):
        kabsch(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        kabsch(np.zeros((3, 3)), np.zeros((4, 3)))


def random_triangle_pairs(rng, count):
    """Triangle pairs (count, 3, 3): rigidly moved, reflected, unrelated,
    collinear and coincident, in shuffled order."""
    p = rng.uniform(-20.0, 20.0, size=(count, 3, 3))
    q = np.empty_like(p)
    kind = rng.permutation(np.arange(count) % 5)
    for i in range(count):
        if kind[i] == 2:
            q[i] = rng.uniform(-20.0, 20.0, size=(3, 3))
            continue
        if kind[i] == 3:
            p[i] = p[i, 0] + np.outer([0.0, 1.0, rng.uniform(-3.0, 3.0)],
                                      rng.normal(size=3))
        elif kind[i] == 4:
            p[i] = p[i, 0]
        q[i] = apply(random_motion(rng), p[i])
        if kind[i] == 1:
            q[i, :, 2] *= -1.0          # mirror image: needs the reflection fix
    return p, q


def kabsch_2d(p, q):
    """Unstacked Kabsch on one point set; None when the fit is degenerate."""
    cp, cq = p.mean(axis=0), q.mean(axis=0)
    u, s, vt = np.linalg.svd((p - cp).T @ (q - cq) / len(p))
    if s[1] <= 1e-9 * max(s[0], 1e-300):
        return None
    r = vt.T @ u.T
    if np.linalg.det(r) < 0.0:
        vt[-1, :] *= -1.0
        r = vt.T @ u.T
    return r, cq - r @ cp


def test_stacked_fit_equals_kabsch_per_sample():
    rng = np.random.default_rng(40)
    p, q = random_triangle_pairs(rng, 400)
    rot, trans, ok = _fit_rigid(p, q)
    assert 0 < ok.sum() < len(ok)
    for i in range(len(p)):
        ref = kabsch_2d(p[i], q[i])
        try:
            one = kabsch(p[i], q[i])
        except DegenerateSampleError:
            assert not ok[i] and ref is None, i
            continue
        assert ok[i] and ref is not None, i
        for r, t in ((one.rotation, one.translation), ref):
            assert np.abs(rot[i] - r).max() <= 1e-12, i
            assert np.abs(trans[i] - t).max() <= 1e-12, i
        assert abs(np.linalg.det(rot[i]) - 1.0) < 1e-12, i


@pytest.mark.parametrize("seed", range(6))
def test_stacked_fit_rows_do_not_depend_on_the_stack(seed):
    # the engine fits a block's survivors in pieces as scoring reaches
    # them; every row must come out as it does from the whole stack
    rng = np.random.default_rng([seed, 50])
    s = int(rng.integers(1, 4097))
    p, q = random_triangle_pairs(rng, s)
    whole = _fit_rigid(p, q)
    cuts = np.unique(np.concatenate([[0, s], rng.integers(0, s + 1, 5), [1]]))
    pieces = [_fit_rigid(p[i:j], q[i:j]) for i, j in zip(cuts[:-1], cuts[1:])]
    for w, got in zip(whole, zip(*pieces)):
        assert np.concatenate(got).tobytes() == w.tobytes()


def test_stacked_elc_equals_elc_check_per_row():
    rng = np.random.default_rng(41)
    p, q = random_triangle_pairs(rng, 400)
    q[::3] += rng.normal(scale=0.3, size=q[::3].shape)   # near the tolerance
    # triangle i is rows 3i .. 3i+2 of the stacked points, and row i of idx
    # names its corners in a shuffled order
    a, b = p.reshape(-1, 3), q.reshape(-1, 3)
    idx = 3 * np.arange(len(p))[:, None] + rng.permuted(np.tile([0, 1, 2], (len(p), 1)),
                                                        axis=1)

    def length(x, i, j):
        dx, dy, dz = (x[i] - x[j]).tolist()
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    for tol in (0.1, 0.6, 2.0):
        want = [r for r, (i, j, k) in enumerate(idx.tolist())
                if all(abs(length(a, u, v) - length(b, u, v)) <= tol
                       for u, v in ((i, j), (i, k), (j, k)))]
        live = _elc_live(a, b, idx, tol)
        assert 0 < len(want) < len(idx)
        assert live.tolist() == want
        assert [r for r in range(len(idx)) if elc_check(a[idx[r]], b[idx[r]], tol)] == want


# ---------------------------------------------------------------------------
# inlier counting and adaptive stopping
# ---------------------------------------------------------------------------

def make_planted(rng, n=400, frac=0.5, extent=25.0, sigma=0.0, offset=2.0):
    """Index-aligned correspondence set with exactly round(frac*n) inliers."""
    src = rng.uniform(-extent, extent, size=(n, 3))
    truth = random_motion(rng, translation_scale=8.0)
    dst = apply(truth, src)
    n_in = int(round(frac * n))
    labels = np.zeros(n, dtype=bool)
    labels[rng.permutation(n)[:n_in]] = True
    if sigma > 0.0:
        dst[labels] += rng.normal(scale=sigma, size=(n_in, 3))
    for i in np.nonzero(~labels)[0]:
        while True:
            fake = rng.uniform(-extent, extent, size=3)
            if np.linalg.norm(fake - src[i]) >= offset:
                dst[i] = apply(truth, fake)
                break
    u = rng.random(n)
    corrs = Correspondences(
        src=np.arange(n, dtype=np.int64),
        dst=np.arange(n, dtype=np.int64),
        feat_dist=rng.uniform(0.1, 1.0, n),
        ratio=np.where(labels, 2.0 + u, 1.0 + 0.5 * u),
        is_mnn=labels.copy(),
    )
    return src, dst, corrs, labels, truth


def count_inliers(motion, corrs, src, dst, threshold):
    mask = np.sqrt(_squared_residuals(motion.rotation, motion.translation,
                                      src[corrs.src].T, dst[corrs.dst].T)) <= threshold
    return int(mask.sum()), mask


def test_count_inliers_exact_on_planted_set():
    rng = np.random.default_rng(5)
    src, dst, corrs, labels, truth = make_planted(rng, n=100, frac=0.7, offset=2.0)
    count, mask = count_inliers(truth, corrs, src, dst, threshold=0.6)
    assert count == 70
    assert np.array_equal(mask, labels)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t", [5e-324, 1e-300, 0.6, 1.0, 1e200, sys.float_info.max,
                               math.inf])
def test_squared_gate_is_the_largest_float_whose_root_is_within_t(t):
    gate = _squared_gate(t)
    assert math.sqrt(gate) <= t
    above = math.nextafter(gate, math.inf)
    assert gate == math.inf or above == math.inf or math.sqrt(above) > t


def test_squared_scoring_equals_the_residual_gate_at_the_threshold():
    # thresholds placed at residuals and one ulp to either side of them,
    # for one motion and for a stack of them
    rng = np.random.default_rng(51)
    a = rng.uniform(-25.0, 25.0, size=(300, 3))
    b = apply(random_motion(rng), a) + rng.normal(scale=0.4, size=a.shape)
    motions = [random_motion(rng, translation_scale=0.01) for _ in range(3)]
    rot = np.stack([m.rotation for m in motions])
    trans = np.stack([m.translation for m in motions])
    for r, t in ((rot[0], trans[0]), (rot, trans)):
        sq = _squared_residuals(r, t, a.T, b.T)
        res = np.sqrt(sq)
        for x in res.ravel()[:40].tolist():
            for thr in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)):
                assert np.array_equal(sq <= _squared_gate(thr), res <= thr)


def test_required_iterations_frozen_values():
    assert required_iterations(0.999, 0.5) == 52
    assert required_iterations(0.9995, 0.3) == 278


def test_required_iterations_boundaries():
    assert required_iterations(0.999, 1.0) == 1
    assert required_iterations(0.999, 0.0, max_iterations=12345) == 12345
    assert required_iterations(0.999, 1e-12, max_iterations=777) == 777


def test_required_iterations_monotone_in_fraction():
    vals = [required_iterations(0.999, w) for w in (0.2, 0.3, 0.5, 0.8, 0.99)]
    assert vals == sorted(vals, reverse=True)


def test_required_iterations_validation():
    with pytest.raises(ValueError):
        required_iterations(1.0, 0.5)
    with pytest.raises(ValueError):
        required_iterations(0.99, 1.5)


# ---------------------------------------------------------------------------
# edge-length compatibility
# ---------------------------------------------------------------------------

def test_elc_accepts_rigidly_moved_triangle():
    rng = np.random.default_rng(6)
    for _ in range(50):
        tri = rng.uniform(-10.0, 10.0, size=(3, 3))
        moved = apply(random_motion(rng), tri)
        assert elc_check(tri, moved, tolerance=1e-9)


def test_elc_rejects_stretched_edge():
    tri = np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
    bad = tri.copy()
    bad[1, 0] = 5.0   # one edge longer by 1 m
    assert not elc_check(tri, bad, tolerance=0.6)
    assert elc_check(tri, bad, tolerance=1.1)


def test_elc_checks_all_three_edges():
    tri = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    for corner in range(3):
        bad = tri.copy()
        bad[corner] += np.array([2.0, 2.0, 0.0])
        assert not elc_check(tri, bad, tolerance=0.5), corner


@pytest.mark.parametrize("shape", [(9,), (1, 9), (3, 2, 3), (9, 1)])
def test_elc_refuses_triangles_of_the_wrong_shape(shape):
    tri = np.eye(3)
    bad = np.ones(shape)
    for pair in ((bad, tri), (tri, bad)):
        with pytest.raises(ValueError, match=r"shape \(3, 3\)"):
            elc_check(*pair, tolerance=0.5)


# ---------------------------------------------------------------------------
# progressive sampler
# ---------------------------------------------------------------------------

def subset_size(growth, n, t):
    """n(t): the top-ranked entries the t-th sample draws from, one more
    for each growth iteration before t, and all n once the schedule ends."""
    return min(n, SAMPLE_SIZE + int(np.sum(growth < t)))


def test_prosac_first_sample_is_top_three(monkeypatch):
    monkeypatch.setattr(ransac_module, "_PROSAC_T_TOTAL", 1000)
    rows = _sample_block(_prosac_growth(100), 100, 1, 1, np.random.default_rng(10))
    assert list(rows[0]) == [0, 1, 2]


def test_prosac_growth_nondecreasing_and_contains_newest(monkeypatch):
    monkeypatch.setattr(ransac_module, "_PROSAC_T_TOTAL", 500)
    rng = np.random.default_rng(11)
    growth = _prosac_growth(60)
    assert len(growth) == 60 - SAMPLE_SIZE + 1 and growth[0] == 1
    assert (np.diff(growth) >= 1).all()
    last = 3
    for t in range(1, int(growth[-1]) + 1):
        n_t = subset_size(growth, 60, t)
        assert n_t >= last
        last = n_t
        pick = _sample_block(growth, 60, t, 1, rng)[0]
        assert len(np.unique(pick)) == 3
        assert pick.max() < n_t
        if t > 1:
            assert (n_t - 1) in pick    # newest-ranked entry always included


def assert_uniform_over_triples(rows, n):
    picks, counts = np.unique(np.sort(rows, axis=1), axis=0, return_counts=True)
    assert len(picks) == math.comb(n, 3)
    assert (picks < n).all()
    assert chisquare(counts).pvalue > 0.001


def test_prosac_uniform_phase_covers_all_triples(monkeypatch):
    monkeypatch.setattr(ransac_module, "_PROSAC_T_TOTAL", 25)
    growth = _prosac_growth(8)
    t_uniform = int(growth[-1]) + 1
    rows = _sample_block(growth, 8, t_uniform, 30000, np.random.default_rng(12))
    assert_uniform_over_triples(rows, 8)


def test_empty_schedule_is_uniform_from_the_first_sample():
    # the uniform sampler is the empty schedule over unranked input
    rows = _sample_block(np.empty(0, dtype=np.int64), 8, 1, 30000,
                         np.random.default_rng(13))
    assert_uniform_over_triples(rows, 8)


def test_distinct_rows_are_distinct_and_in_range():
    rng = np.random.default_rng(42)
    pop = rng.integers(3, 9, size=5000)
    newest = rng.random(5000) < 0.5
    rows = _distinct_rows(rng, pop, newest=newest)
    assert (rows >= 0).all() and (rows < pop[:, None]).all()
    srt = np.sort(rows, axis=1)
    assert (srt[:, 1:] != srt[:, :-1]).all()
    assert np.array_equal(rows[newest, 0], pop[newest] - 1)


def test_distinct_rows_map_each_draw_onto_the_values_not_taken():
    # each draw of a row picks a value by its rank among those not yet
    # taken, so the rows follow from the raw draws alone
    pop = np.random.default_rng(44).integers(3, 7, size=2000)
    newest = np.arange(2000) % 3 == 0
    raw = np.random.default_rng(45).integers(0, pop[:, None] - np.arange(3), size=(2000, 3))
    rows = _distinct_rows(np.random.default_rng(45), pop, newest=newest)
    for row, draws, m, first in zip(rows.tolist(), raw.tolist(), pop.tolist(), newest):
        free = list(range(m))
        want = [free.pop(m - 1 if first else draws[0])]
        want += [free.pop(draws[1]), free.pop(draws[2])]
        assert row == want


def test_prosac_block_matches_schedule(monkeypatch):
    monkeypatch.setattr(ransac_module, "_PROSAC_T_TOTAL", 500)
    growth = _prosac_growth(60)
    t_end = int(growth[-1]) + 40
    rows = _sample_block(growth, 60, 1, t_end, np.random.default_rng(43))
    for t, row in enumerate(rows, start=1):
        n_t = subset_size(growth, 60, t)
        assert row.max() < n_t and len(set(row.tolist())) == 3
        if 1 < t <= growth[-1]:
            assert row[0] == n_t - 1


# ---------------------------------------------------------------------------
# local optimization
# ---------------------------------------------------------------------------

def test_lo_never_decreases_inlier_count():
    rng = np.random.default_rng(13)
    src, dst, corrs, labels, truth = make_planted(rng, n=400, frac=0.4, sigma=0.05)
    count, mask = count_inliers(truth, corrs, src, dst, 0.6)
    start = Hypothesis(truth, count, mask)
    out = _lo_step(start, src[corrs.src], dst[corrs.dst], 0.6)
    assert out.inlier_count >= start.inlier_count


def test_lo_improves_a_perturbed_hypothesis():
    rng = np.random.default_rng(14)
    src, dst, corrs, labels, truth = make_planted(rng, n=600, frac=0.5, sigma=0.05)
    wobble = RigidMotion(
        truth.rotation @ random_rotation_small(0.8), truth.translation + 0.25)
    count, mask = count_inliers(wobble, corrs, src, dst, 0.6)
    assert count > 4
    out = _lo_step(Hypothesis(wobble, count, mask), src[corrs.src], dst[corrs.dst], 0.6)
    best_possible, _ = count_inliers(truth, corrs, src, dst, 0.6)
    assert out.inlier_count >= int(0.95 * best_possible)
    assert out.inlier_count > count


def random_rotation_small(deg):
    angle = math.radians(deg)
    axis = np.array([0.3, -0.5, 0.81])
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)


def replay_lo(best, a, b, threshold):
    """The local optimizer as explicit kabsch calls: a fit on the inliers
    of ``best``, one re-fit per annealed gate, then the score."""
    if best.inlier_count < _LO_MIN_SAMPLE:
        return best
    try:
        motion = kabsch(a[best.inlier_mask], b[best.inlier_mask])
        for mult in _LO_ANNEAL:
            d = np.linalg.norm(a @ motion.rotation.T + motion.translation - b, axis=1)
            motion = kabsch(a[d <= mult * threshold], b[d <= mult * threshold])
    except ValueError:            # a gate of fewer than three points
        return best
    d = np.linalg.norm(a @ motion.rotation.T + motion.translation - b, axis=1)
    mask = d <= threshold
    if mask.sum() > best.inlier_count:
        return Hypothesis(motion, int(mask.sum()), mask)
    return best


def lo_start(seed):
    """A scene whose first inliers are collinear and a hypothesis whose
    inliers are a few of those plus the rest, slightly off the truth."""
    rng = np.random.default_rng([seed, 46])
    src, dst, corrs, labels, truth = make_planted(rng, n=400, frac=0.4, sigma=0.2)
    a, b = src[corrs.src], dst[corrs.dst]
    line = np.flatnonzero(labels)[:4]
    a[line] = a[line[0]] + np.outer(np.arange(4.0), [1.0, 0.5, -0.3])
    b[line] = apply(truth, a[line])
    wobble = RigidMotion(truth.rotation @ random_rotation_small(0.6),
                         truth.translation + 0.2)
    mask = np.linalg.norm(apply(wobble, a) - b, axis=1) <= 0.6
    if seed == 0:                 # six inliers: samples of 4 are often a line
        mask = np.zeros(len(a), dtype=bool)
        mask[np.flatnonzero(labels)[:6]] = True
    return Hypothesis(wobble, int(mask.sum()), mask), a, b


def two_motion_start(seed):
    """Two planted motions with 60 inliers each and a hypothesis holding
    20 inliers of the first and two of the second: the annealed gates
    must drop the second motion's points to reach all of the first's."""
    rng = np.random.default_rng([seed, 47])
    a = rng.uniform(-25.0, 25.0, size=(300, 3))
    b = rng.uniform(-25.0, 25.0, size=(300, 3))
    first, second = random_motion(rng, translation_scale=8.0), random_motion(rng, translation_scale=8.0)
    b[:60], b[60:120] = apply(first, a[:60]), apply(second, a[60:120])
    mask = np.zeros(300, dtype=bool)
    mask[:20] = mask[60:62] = True
    return Hypothesis(first, 22, mask), a, b


def test_lo_equals_kabsch_replay_of_the_iterated_fit():
    cases = [lo_start(s) for s in range(4)] + [two_motion_start(s) for s in (0, 1)]
    gains = []
    for i, (start, a, b) in enumerate(cases):
        got = _lo_step(start, a, b, 0.6)
        want = replay_lo(start, a, b, 0.6)
        gains.append(got.inlier_count > start.inlier_count)
        assert got.inlier_count == want.inlier_count, i
        assert np.array_equal(got.inlier_mask, want.inlier_mask), i
        assert np.abs(got.motion.rotation - want.motion.rotation).max() <= 1e-9
        assert np.abs(got.motion.translation - want.motion.translation).max() <= 1e-9
    # the second two-motion case's first gate is empty, so it keeps its start
    assert gains == [True] * 5 + [False]


@pytest.mark.parametrize("max_iterations", [50, 150])
def test_lo_equals_kabsch_replay_of_its_own_draws(max_iterations, monkeypatch):
    # every hypothesis the engine hands to the local optimizer, drawn by
    # the engine itself within a short run, is polished as the replay is
    calls = []

    def recording(best, a, b, threshold):
        out = _lo_step(best, a, b, threshold)
        calls.append((best, a, b, threshold, out))
        return out

    monkeypatch.setattr(ransac_module, "_lo_step", recording)
    for seed in range(8):
        src, dst, corrs, labels, truth = make_planted(
            np.random.default_rng([seed, 49]), n=300, frac=0.08, sigma=0.2)
        for prosac in (False, True):
            ransac_register(src, dst, corrs, engine_cfg(
                max_iterations=max_iterations, seed=seed, use_prosac=prosac,
                rejection="none"))
    assert len(calls) >= 10
    gains = 0
    for i, (best, a, b, threshold, got) in enumerate(calls):
        want = replay_lo(best, a, b, threshold)
        gains += got.inlier_count > best.inlier_count
        assert got.inlier_count == want.inlier_count, i
        assert np.array_equal(got.inlier_mask, want.inlier_mask), i
        assert np.abs(got.motion.rotation - want.motion.rotation).max() <= 1e-9
        assert np.abs(got.motion.translation - want.motion.translation).max() <= 1e-9
    assert 0 < gains < len(calls)     # some polished, some kept as drawn


def test_lo_leaves_a_hypothesis_it_cannot_fit_unchanged():
    rng = np.random.default_rng(48)
    a = rng.uniform(-25.0, 25.0, size=(200, 3))
    b = rng.uniform(-25.0, 25.0, size=(200, 3))
    line = a[0] + np.outer(np.arange(6.0), [1.0, 0.5, -0.3])
    a[:6], b[:6] = line, line + 2.0
    mask = np.zeros(200, dtype=bool)
    mask[:6] = True               # collinear inliers: the first fit is degenerate
    collinear = Hypothesis(RigidMotion.identity(), 6, mask)
    mask = np.zeros(200, dtype=bool)
    mask[100:104] = True          # unrelated pairs: the first gate holds no point
    scattered = Hypothesis(RigidMotion.identity(), 4, mask)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _lo_step(collinear, a, b, 0.6) is collinear
        assert _lo_step(scattered, a, b, 1e-6) is scattered


def test_lo_keeps_the_fit_of_a_gate_that_does_not_change(monkeypatch):
    # noiseless inliers and far outliers: every annealed gate holds the
    # same correspondences as the first, so one fit serves all of them
    rng = np.random.default_rng(51)
    src, dst, corrs, labels, truth = make_planted(rng, n=300, frac=0.5, offset=5.0)
    a, b = src[corrs.src], dst[corrs.dst]
    start = Hypothesis(truth, int(labels.sum()), labels.copy())
    want = replay_lo(start, a, b, 0.6)
    calls = []

    def counting(p, q):
        calls.append(len(p))
        return kabsch(p, q)

    monkeypatch.setattr(ransac_module, "kabsch", counting)
    got = _lo_step(start, a, b, 0.6)
    assert calls == [int(labels.sum())]
    assert got is start and want is start


# ---------------------------------------------------------------------------
# the full estimator
# ---------------------------------------------------------------------------

def engine_cfg(**kw) -> RansacConfig:
    base = dict(max_iterations=5000, confidence=0.999, inlier_threshold=0.6, seed=0)
    base.update(kw)
    return RansacConfig(**base)


@pytest.mark.parametrize("prosac", [False, True])
@pytest.mark.parametrize("rejection", ["none", "elc"])
@pytest.mark.parametrize("lo", [False, True])
def test_engine_recovers_planted_motion(prosac, rejection, lo):
    rng = np.random.default_rng(15)
    src, dst, corrs, labels, truth = make_planted(rng, n=400, frac=0.5, sigma=0.02)
    cfg = engine_cfg(use_prosac=prosac, rejection=rejection, use_lo=lo)
    res = ransac_register(src, dst, corrs, cfg)
    assert rotation_error(res.motion.rotation, truth.rotation) < 1.0
    assert translation_error(res.motion.translation, truth.translation) < 0.3
    assert res.inlier_count >= int(0.9 * labels.sum())


def test_engine_inlier_mask_in_input_order():
    rng = np.random.default_rng(16)
    src, dst, corrs, labels, truth = make_planted(rng, n=300, frac=0.5, sigma=0.0)
    res = ransac_register(src, dst, corrs, engine_cfg())
    # noiseless inliers and far outliers: the mask is exactly the labels
    assert np.array_equal(res.inlier_mask, labels)


def test_engine_deterministic_given_seed():
    rng = np.random.default_rng(17)
    src, dst, corrs, labels, truth = make_planted(rng, n=300, frac=0.4, sigma=0.03)
    cfg = engine_cfg(seed=42)
    a = ransac_register(src, dst, corrs, cfg)
    b = ransac_register(src, dst, corrs, cfg)
    assert np.array_equal(a.motion.rotation, b.motion.rotation)
    assert np.array_equal(a.motion.translation, b.motion.translation)
    assert np.array_equal(a.inlier_mask, b.inlier_mask)
    assert a.iterations_run == b.iterations_run
    assert a.hypotheses_rejected_fast == b.hypotheses_rejected_fast
    assert a.lo_rounds == b.lo_rounds
    assert a.converged_by == b.converged_by
    assert len(a.best_history) == len(b.best_history)


def test_engine_seed_changes_draws():
    rng = np.random.default_rng(18)
    src, dst, corrs, labels, truth = make_planted(rng, n=300, frac=0.4, sigma=0.03)
    a = ransac_register(src, dst, corrs, engine_cfg(seed=1, use_prosac=False))
    b = ransac_register(src, dst, corrs, engine_cfg(seed=2, use_prosac=False))
    assert a.iterations_run != b.iterations_run or \
        not np.array_equal(a.motion.translation, b.motion.translation)


def test_engine_early_stop_bound():
    rng = np.random.default_rng(19)
    src, dst, corrs, labels, truth = make_planted(rng, n=400, frac=0.6, sigma=0.01)
    cfg = engine_cfg(max_iterations=100000)
    res = ransac_register(src, dst, corrs, cfg)
    assert res.converged_by == "early_stop"
    found_at = res.best_history[-1][0]
    bound = required_iterations(cfg.confidence, res.inlier_count / len(corrs),
                                max_iterations=cfg.max_iterations)
    assert res.iterations_run <= max(bound, found_at)
    assert res.iterations_run < cfg.max_iterations


def test_engine_best_count_nondecreasing_in_history():
    rng = np.random.default_rng(20)
    src, dst, corrs, labels, truth = make_planted(rng, n=400, frac=0.3, sigma=0.05)
    res = ransac_register(src, dst, corrs, engine_cfg(use_lo=True))
    counts = [h[1] for h in res.best_history]
    assert counts == sorted(counts)
    assert res.inlier_count == counts[-1]


def test_engine_all_degenerate_hits_iteration_cap():
    # collinear source points: every minimal sample fails the rigid fit,
    # in the first block and across block boundaries
    line = np.outer(np.linspace(0.0, 10.0, 50), np.array([1.0, 0.0, 0.0]))
    corrs = Correspondences(
        src=np.arange(50, dtype=np.int64), dst=np.arange(50, dtype=np.int64),
        feat_dist=np.ones(50), ratio=np.ones(50), is_mnn=np.ones(50, dtype=bool))
    for cap, prosac in ((50, True), (2 * _BLOCK + 1, True), (2 * _BLOCK + 1, False)):
        cfg = engine_cfg(max_iterations=cap, rejection="none", use_prosac=prosac)
        res = ransac_register(line, line, corrs, cfg)
        assert res.converged_by == "iteration_cap"
        assert res.iterations_run == cap
        assert res.hypotheses_rejected_fast == cap
        assert res.inlier_count == 0
        assert res.best_history == ()
        assert np.array_equal(res.motion.rotation, np.eye(3))


@pytest.mark.parametrize("frac", [0.05, 0.1, 0.2, 0.3, 0.4, 0.6])
def test_engine_stops_at_the_one_at_a_time_iteration(frac):
    # a loop that draws one sample per iteration runs until t reaches the
    # bound of the best model so far; blocks must trim to that iteration.
    # Noise at a third of the threshold spreads the counts, so without
    # local optimization some improvements land past their own bound.
    for seed in range(3):
        src, dst, corrs, labels, truth = make_planted(
            np.random.default_rng([seed, 21]), n=300, frac=frac, sigma=0.2)
        n = len(corrs)
        for max_iterations in (4000, _BLOCK + 1):
            for rejection, prosac, lo in (("elc", True, True), ("none", True, True),
                                          ("elc", False, False), ("none", False, True)):
                cfg = engine_cfg(max_iterations=max_iterations, seed=seed,
                                 rejection=rejection, use_prosac=prosac, use_lo=lo)
                res = ransac_register(src, dst, corrs, cfg)
                case = (seed, max_iterations, rejection, prosac, lo)

                def bound(count):
                    return required_iterations(cfg.confidence, count / n,
                                               max_iterations=max_iterations)
                last_gain = res.best_history[-1][0] if res.best_history else 0
                want = min(max_iterations, max(bound(res.inlier_count), last_gain))
                assert res.iterations_run == want, case
                # no improvement after the iteration the loop had to stop at
                for (_, count, _), (it, _, _) in zip(res.best_history,
                                                     res.best_history[1:]):
                    assert it <= bound(count), case
                assert 0 <= res.hypotheses_rejected_fast <= res.iterations_run
                early = res.iterations_run < max_iterations
                assert res.converged_by == ("early_stop" if early else "iteration_cap")


def one_at_a_time(src, dst, corrs, cfg, rows):
    """Reference loop: one minimal sample per iteration, taken from rows."""
    a, b = src[corrs.src], dst[corrs.dst]
    if cfg.use_prosac:
        order = priority_order(corrs)
        a, b = a[order], b[order]
    n = len(corrs)
    best = Hypothesis(RigidMotion.identity(), 0, np.zeros(n, dtype=bool))
    history, rejected, lo_rounds = [], 0, 0
    required, t = cfg.max_iterations, 0
    while t < cfg.max_iterations and t < required:
        t += 1
        sp, dp = a[rows[t - 1]], b[rows[t - 1]]
        if cfg.rejection == "elc" and not elc_check(sp, dp, cfg.elc_tolerance):
            rejected += 1
            continue
        try:
            motion = kabsch(sp, dp)
        except DegenerateSampleError:
            rejected += 1
            continue
        d = np.linalg.norm(a @ motion.rotation.T + motion.translation - b, axis=1)
        mask = d <= cfg.inlier_threshold
        if mask.sum() > best.inlier_count:
            best = Hypothesis(motion, int(mask.sum()), mask)
            if cfg.use_lo and lo_rounds < ransac_module._LO_MAX_ROUNDS:
                lo_rounds += 1
                best = _lo_step(best, a, b, cfg.inlier_threshold)
            history.append((t, best.inlier_count))
            required = required_iterations(cfg.confidence, best.inlier_count / n,
                                           max_iterations=cfg.max_iterations)
    return t, rejected, lo_rounds, history


@pytest.mark.parametrize("frac", [0.1, 0.3, 0.5])
def test_engine_matches_the_one_at_a_time_loop_on_its_draws(frac, monkeypatch):
    drawn = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            rows = fn(*args, **kwargs)
            drawn.append(rows.copy())
            return rows
        return wrapper

    monkeypatch.setattr(ransac_module, "_sample_block",
                        recording(ransac_module._sample_block))
    # seed 1 allows one local-optimization round, so the cap binds where
    # the default would run two
    for seed, lo_cap in ((0, ransac_module._LO_MAX_ROUNDS), (1, 1)):
        monkeypatch.setattr(ransac_module, "_LO_MAX_ROUNDS", lo_cap)
        src, dst, corrs, labels, truth = make_planted(
            np.random.default_rng([seed, 22]), n=300, frac=frac, sigma=0.2)
        for max_iterations in (3000, _BLOCK + 1):
            for rejection, prosac, lo in (("elc", True, True), ("none", True, False),
                                          ("elc", False, False), ("none", False, True)):
                cfg = engine_cfg(max_iterations=max_iterations, seed=seed,
                                 rejection=rejection, use_prosac=prosac, use_lo=lo)
                drawn.clear()
                res = ransac_register(src, dst, corrs, cfg)
                rows = np.concatenate(drawn)
                want = one_at_a_time(src, dst, corrs, cfg, rows)
                got = (res.iterations_run, res.hypotheses_rejected_fast, res.lo_rounds,
                       [(it, count) for it, count, _ in res.best_history])
                assert got == want, (seed, max_iterations, rejection, prosac, lo)


@pytest.mark.parametrize("prosac", [False, True])
def test_lo_draws_nothing(prosac, monkeypatch):
    # local optimization takes no random draws, so switching it on leaves
    # the minimal samples as they were, up to where the shorter run stops
    sample_block = ransac_module._sample_block
    for seed in range(3):
        src, dst, corrs, labels, truth = make_planted(
            np.random.default_rng([seed, 23]), n=300, frac=0.1, sigma=0.2)
        drawn = {}
        for lo in (False, True):
            rows = drawn[lo] = []

            def recording(*args, rows=rows):
                rows.append(sample_block(*args))
                return rows[-1]

            monkeypatch.setattr(ransac_module, "_sample_block", recording)
            ransac_register(src, dst, corrs, engine_cfg(seed=seed, use_prosac=prosac,
                                                        use_lo=lo))
        off, on = np.concatenate(drawn[False]), np.concatenate(drawn[True])
        k = min(len(off), len(on))
        assert k > _BLOCK, seed
        assert np.array_equal(off[:k], on[:k]), seed


def result_key(res):
    """Every field of a RegistrationResult but wall_time, as comparable bytes."""
    def motion(m):
        return m.rotation.tobytes() + m.translation.tobytes()
    return (motion(res.motion), res.inlier_mask.tobytes(), res.inlier_count,
            res.iterations_run, res.hypotheses_rejected_fast, res.lo_rounds,
            res.converged_by, [(it, count, motion(m)) for it, count, m in res.best_history])


def test_results_do_not_depend_on_the_block_schedule(monkeypatch):
    # Generator.integers with array bounds draws row by row, so where a
    # block starts or ends changes no draw and no result.  A 10% scene runs
    # to a cap that ends mid-block; a 30% scene stops early mid-block.
    scenes = [(make_planted(np.random.default_rng([seed, 24]), n=300, frac=frac,
                            sigma=0.2), cap)
              for seed, frac, cap in ((0, 0.1, 600), (1, 0.3, 3000))]
    results = {}
    for first, largest in ((1, 1), (7, 7), (1, 7), (_BLOCK, _MAX_BLOCK)):
        monkeypatch.setattr(ransac_module, "_BLOCK", first)
        monkeypatch.setattr(ransac_module, "_MAX_BLOCK", largest)
        for k, ((src, dst, corrs, _, _), cap) in enumerate(scenes):
            for prosac in (False, True):
                for rejection in REJECTIONS:
                    for lo in (False, True):
                        cfg = engine_cfg(max_iterations=cap, seed=k, use_prosac=prosac,
                                         rejection=rejection, use_lo=lo)
                        res = ransac_register(src, dst, corrs, cfg)
                        results.setdefault((k, prosac, rejection, lo), []).append(
                            result_key(res))
    for case, keys in results.items():
        assert all(key == keys[0] for key in keys[1:]), case
    stops = {keys[0][6] for keys in results.values()}
    assert stops == {"early_stop", "iteration_cap"}


def test_blocks_start_at_the_first_size_and_stay_bounded(monkeypatch):
    counts = []
    sample_block = ransac_module._sample_block

    def recording(growth, n, t, count, rng):
        counts.append(count)
        return sample_block(growth, n, t, count, rng)

    monkeypatch.setattr(ransac_module, "_sample_block", recording)
    src, dst, corrs, labels, truth = make_planted(
        np.random.default_rng(25), n=300, frac=0.05, sigma=0.2)
    res = ransac_register(src, dst, corrs, engine_cfg(max_iterations=50_000))
    assert res.iterations_run == sum(counts) == 50_000
    assert counts[0] <= _BLOCK
    assert max(counts) == _MAX_BLOCK     # the run is long enough to reach it


def test_engine_fits_only_the_survivors_it_scores(monkeypatch):
    # a run that stops near 100 iterations fits the elc survivors up to
    # the stop, plus at most one chunk past it, not its whole first block
    rows = []

    def counting(p, q):
        rows.append(len(p))
        return _fit_rigid(p, q)

    monkeypatch.setattr(ransac_module, "_fit_rigid", counting)
    src, dst, corrs, labels, truth = make_planted(
        np.random.default_rng(52), n=400, frac=0.4, sigma=0.05)
    res = ransac_register(src, dst, corrs, engine_cfg(use_lo=False))
    assert res.converged_by == "early_stop"
    assert 50 <= res.iterations_run <= 150
    survivors = res.iterations_run - res.hypotheses_rejected_fast
    assert survivors <= sum(rows) <= survivors + ransac_module._SCORE_CHUNK


def test_engine_requires_three_correspondences():
    c = Correspondences(np.arange(2), np.arange(2), np.ones(2), np.ones(2),
                        np.ones(2, dtype=bool))
    with pytest.raises(ValueError):
        ransac_register(np.zeros((2, 3)), np.zeros((2, 3)), c, engine_cfg())


def test_config_validation():
    with pytest.raises(ValueError, match="^rejection must be"):
        RansacConfig(rejection="both")
    with pytest.raises(ValueError, match="^rejection must be"):
        RansacConfig(rejection="sprt")     # removed: never beat elc
    with pytest.raises(ValueError):
        RansacConfig(confidence=1.0)
    with pytest.raises(ValueError):
        RansacConfig(inlier_threshold=0.0)


@pytest.mark.parametrize("name", ["inlier_threshold", "elc_tolerance"])
def test_config_rejects_nan_thresholds(name):
    with pytest.raises(ValueError, match=name):
        RansacConfig(**{name: float("nan")})


def test_kabsch_refuses_arrays_that_are_not_n_by_3():
    p = np.arange(12, dtype=float).reshape(6, 2)
    with pytest.raises(ValueError, match=r"\(6, 2\)"):
        kabsch(p, p)
    with pytest.raises(ValueError, match=r"\(4, 3, 1\)"):
        kabsch(np.ones((4, 3)), np.ones((4, 3, 1)))
