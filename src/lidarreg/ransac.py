"""Robust rigid-motion estimation from putative correspondences.

The estimator is a RANSAC loop with three optional accelerators that can
be toggled independently:

* progressive sampling: minimal samples are drawn from the best-ranked
  correspondences first (mutual pairs, then high ratio), widening toward
  uniform sampling over everything as iterations accumulate;
* sample rejection: edge-length compatibility (elc) of the sampled
  triangle discards hopeless samples before they are fitted and scored;
* local optimization: each time a new best model appears, a few rounds of
  non-minimal re-fitting with an annealed threshold polish it.

Hypotheses are evaluated in blocks of ``_BLOCK`` iterations: the block's
minimal samples are drawn in one call, screened by elc together, fitted
with one stacked SVD, and scored ``_SCORE_CHUNK`` models per residual
pass.  The survivors are then walked in iteration order, so local
optimization, adaptive stopping and the reported counters
(``iterations_run``, ``hypotheses_rejected_fast``, ``best_history``) are
exactly those of a loop that handles one sample per iteration and stops
at the same iteration.

Scoring counts correspondences whose post-transform residual is within
``inlier_threshold``.  With a fixed seed the whole run is deterministic;
the local optimizer draws from its own random stream, so toggling it does
not change which minimal samples are drawn.  The draws are fixed by the
seed, but they are not the draws of versions that sampled one hypothesis
at a time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.special import gammaln

from .geom import Points, RigidMotion
from .gpf import priority_order
from .match import Correspondences

SAMPLE_SIZE = 3


class DegenerateSampleError(ValueError):
    """The sampled points do not determine a unique rotation."""


# ---------------------------------------------------------------------------
# least-squares rigid fit
# ---------------------------------------------------------------------------

def kabsch(src_pts: Points, dst_pts: Points, weights=None) -> RigidMotion:
    """Least-squares rigid motion mapping src_pts onto dst_pts.

    Minimizes sum_i w_i ||R p_i + t - q_i||^2 via the SVD of the weighted
    cross-covariance, with the reflection case corrected so the result is
    always a proper rotation.

    Raises
    ------
    DegenerateSampleError
        When the centered source points span less than two dimensions
        (coincident or collinear sample); the rotation is then not unique.
    """
    p = np.asarray(src_pts, dtype=np.float64).reshape(-1, 3)
    q = np.asarray(dst_pts, dtype=np.float64).reshape(-1, 3)
    if len(p) != len(q):
        raise ValueError(f"point counts differ: {len(p)} vs {len(q)}")
    if len(p) < SAMPLE_SIZE:
        raise ValueError(f"need at least {SAMPLE_SIZE} point pairs, got {len(p)}")
    if weights is None:
        w = np.full(len(p), 1.0 / len(p))
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (len(p),) or np.any(w < 0.0) or w.sum() <= 0.0:
            raise ValueError("weights must be nonnegative with positive sum")
        w = w / w.sum()

    rot, trans, ok = _fit_rigid(p[None], q[None], w[None])
    if not ok[0]:
        raise DegenerateSampleError("sample covariance has rank < 2")
    return RigidMotion(rot[0], trans[0])


def _fit_rigid(p: NDArray[np.float64], q: NDArray[np.float64],
               w: NDArray[np.float64]):
    """Stacked weighted Kabsch over S point sets of k points each.

    ``p`` and ``q`` are (S, k, 3), ``w`` is (S, k) or (k,) with unit row
    sums.  Returns rotations (S, 3, 3), translations (S, 3) and a mask of
    the fits whose centered source spans at least two dimensions; the
    other rows hold an arbitrary rotation.
    """
    cp = (w[..., None, :] @ p)[:, 0]
    cq = (w[..., None, :] @ q)[:, 0]
    h = np.swapaxes(p - cp[:, None], 1, 2) @ ((q - cq[:, None]) * w[..., None])
    u, s, vt = np.linalg.svd(h)
    ok = s[:, 1] > 1e-9 * np.maximum(s[:, 0], 1e-300)
    ut = np.swapaxes(u, 1, 2)
    rot = np.swapaxes(vt, 1, 2) @ ut
    flip = np.linalg.det(rot) < 0.0
    if flip.any():
        # reflection: negate the axis of the smallest singular value
        vt[flip, -1, :] *= -1.0
        rot[flip] = np.swapaxes(vt[flip], 1, 2) @ ut[flip]
    return rot, cq - (rot @ cp[..., None])[..., 0], ok


# ---------------------------------------------------------------------------
# scoring and stopping
# ---------------------------------------------------------------------------

def _residuals(rotation, translation, a: Points, b: Points) -> NDArray[np.float64]:
    """Residual norms of ``a`` mapped onto ``b``: (n,) for one motion, or
    (S, n) for stacked rotations (S, 3, 3) and translations (S, 3)."""
    # one coordinate at a time keeps every temporary a contiguous (S, n)
    at = a.T
    for i in range(3):
        d = rotation[..., i, :] @ at
        d += translation[..., i, None]
        d -= b[:, i]
        d *= d
        if i == 0:
            sq = d
        else:
            sq += d
    return np.sqrt(sq, out=sq)


def count_inliers(motion: RigidMotion, corrs: Correspondences,
                  src_points: Points, dst_points: Points,
                  threshold: float) -> tuple[int, NDArray[np.bool_]]:
    """Inlier count and mask: residual under ``motion`` within threshold."""
    a = np.asarray(src_points, dtype=np.float64)[corrs.src]
    b = np.asarray(dst_points, dtype=np.float64)[corrs.dst]
    mask = _residuals(motion.rotation, motion.translation, a, b) <= threshold
    return int(mask.sum()), mask


def required_iterations(confidence: float, inlier_fraction: float,
                        sample_size: int = SAMPLE_SIZE,
                        max_iterations: int = 1_000_000) -> int:
    """Iterations needed to hit an all-inlier sample with given confidence.

    ceil(log(1 - confidence) / log(1 - w^m)), clamped to [1, max_iterations].
    The boundary fractions behave sensibly: w=1 gives 1, w=0 gives the cap.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if not 0.0 <= inlier_fraction <= 1.0:
        raise ValueError(f"inlier fraction must be in [0, 1], got {inlier_fraction}")
    if inlier_fraction >= 1.0:
        return 1
    p_good = inlier_fraction ** sample_size
    if p_good <= 0.0:
        return max_iterations
    denom = math.log1p(-p_good)
    if denom == 0.0:
        return max_iterations
    need = math.ceil(math.log1p(-confidence) / denom)
    return int(min(max(need, 1), max_iterations))


# ---------------------------------------------------------------------------
# sample rejection: edge-length compatibility
# ---------------------------------------------------------------------------

_EDGE_I = np.array([0, 0, 1])
_EDGE_J = np.array([1, 2, 2])


def elc_check(src_tri: Points, dst_tri: Points, tolerance: float) -> bool:
    """True iff all three edge lengths agree within ``tolerance`` meters.

    A rigid motion preserves edge lengths, so a sample whose triangles
    disagree cannot be all-inlier and is not worth fitting.
    """
    p = np.asarray(src_tri, dtype=np.float64).reshape(1, 3, 3)
    q = np.asarray(dst_tri, dtype=np.float64).reshape(1, 3, 3)
    return bool(_elc_mask(p, q, tolerance)[0])


def _elc_mask(p: NDArray[np.float64], q: NDArray[np.float64],
              tolerance: float) -> NDArray[np.bool_]:
    """``elc_check`` over stacked triangle pairs ``p``, ``q`` of shape (B, 3, 3)."""
    dp = np.sqrt(np.sum((p[:, _EDGE_I] - p[:, _EDGE_J]) ** 2, axis=2))
    dq = np.sqrt(np.sum((q[:, _EDGE_I] - q[:, _EDGE_J]) ** 2, axis=2))
    return np.all(np.abs(dp - dq) <= tolerance, axis=1)


# ---------------------------------------------------------------------------
# progressive sampler
# ---------------------------------------------------------------------------

def _distinct_rows(rng: np.random.Generator, pop: NDArray[np.int64], k: int,
                   newest: NDArray[np.bool_] | None = None) -> NDArray[np.int64]:
    """One row of k distinct indices per entry of ``pop``, uniform over
    [0, pop[i]).  Rows flagged in ``newest`` start with pop[i] - 1 and draw
    the rest uniformly below it.

    The j-th draw of a row is uniform over the pop[i] - j values not yet
    taken and is mapped onto them, so no row is ever redrawn.
    """
    rows = rng.integers(0, pop[:, None] - np.arange(k), size=(len(pop), k))
    if newest is not None:
        rows[newest, 0] = pop[newest] - 1
    for j in range(1, k):
        taken = np.sort(rows[:, :j], axis=1)
        for c in range(j):
            rows[:, j] += rows[:, j] >= taken[:, c]
    return rows


class ProsacSampler:
    """Progressive minimal-sample schedule over quality-ranked input.

    Correspondences must already be sorted best-first.  The t-th sample is
    drawn from the top n(t) entries, where the growth of n(t) follows the
    standard schedule: growth iteration counts T'_n start at 1 for n = m
    and advance by ceil(T_{n+1} - T_n) with T_n = t_total·C(n,m)/C(N,m).
    While growing, the sample always contains the n(t)-th ranked entry.
    After T'_N the schedule is plain uniform sampling over everything.
    """

    def __init__(self, n_corrs: int, sample_size: int = SAMPLE_SIZE,
                 t_total: int = 200_000):
        if n_corrs < sample_size:
            raise ValueError(f"need at least {sample_size} correspondences")
        self.n = n_corrs
        self.m = sample_size
        ns = np.arange(sample_size, n_corrs + 1, dtype=np.float64)
        log_c = gammaln(ns + 1) - gammaln(sample_size + 1) - gammaln(ns - sample_size + 1)
        t_n = np.exp(math.log(t_total) + log_c - log_c[-1])
        grow = np.maximum(np.ceil(np.diff(t_n)), 1.0).astype(np.int64)
        tprime = np.empty(len(ns), dtype=np.int64)
        tprime[0] = 1
        np.cumsum(grow, out=tprime[1:])
        tprime[1:] += 1
        self._tprime = tprime

    def subset_size(self, t: int) -> int:
        """n(t): how many top-ranked entries the t-th sample draws from."""
        return int(self._subset_sizes(np.asarray([t]))[0])

    def _subset_sizes(self, ts: NDArray[np.int64]) -> NDArray[np.int64]:
        idx = np.searchsorted(self._tprime, ts, side="left")
        return np.where(idx < len(self._tprime), self.m + idx, self.n)

    def sample(self, t: int, rng: np.random.Generator) -> NDArray[np.int64]:
        """Ranked positions of the t-th minimal sample (t counts from 1)."""
        return self.sample_block(t, 1, rng)[0]

    def sample_block(self, t: int, count: int,
                     rng: np.random.Generator) -> NDArray[np.int64]:
        """Samples t .. t + count - 1, one row of ranked positions each."""
        ts = np.arange(t, t + count)
        n_t = self._subset_sizes(ts)
        growing = ts <= self._tprime[-1]
        rows = _distinct_rows(rng, n_t, self.m, newest=growing)
        rows[growing & (n_t == self.m)] = np.arange(self.m)
        return rows


# ---------------------------------------------------------------------------
# local optimization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Hypothesis:
    motion: RigidMotion
    inlier_count: int
    inlier_mask: NDArray[np.bool_]


_LO_ANNEAL = np.linspace(2.0, 1.0, 4)
_LO_MAX_SAMPLE = 14
_LO_MIN_SAMPLE = 4


def _distinct(rng: np.random.Generator, n: int, k: int) -> NDArray[np.int64]:
    # rejection sampling is O(k) when n >> k; fall back to a shuffle when
    # the sample covers a big share of the population
    if 3 * k >= n:
        return rng.permutation(n)[:k]
    while True:
        pick = rng.integers(0, n, size=k)
        if len(np.unique(pick)) == k:
            return pick


def _lo_step(best: Hypothesis, a: Points, b: Points, threshold: float,
             inner_iters: int, rng: np.random.Generator) -> Hypothesis:
    """Polish a hypothesis by non-minimal re-fitting with annealed gating."""
    cur = best
    for _ in range(inner_iters):
        inliers = np.nonzero(cur.inlier_mask)[0]
        if len(inliers) < _LO_MIN_SAMPLE:
            break
        size = min(_LO_MAX_SAMPLE, max(_LO_MIN_SAMPLE, len(inliers) // 2))
        size = min(size, len(inliers))
        pick = inliers[_distinct(rng, len(inliers), size)]
        try:
            motion = kabsch(a[pick], b[pick])
            for mult in _LO_ANNEAL:
                gate = _residuals(motion.rotation, motion.translation, a, b) \
                    <= mult * threshold
                if int(gate.sum()) < SAMPLE_SIZE:
                    raise DegenerateSampleError("annealed gate emptied out")
                motion = kabsch(a[gate], b[gate])
        except DegenerateSampleError:
            continue
        mask = _residuals(motion.rotation, motion.translation, a, b) <= threshold
        count = int(mask.sum())
        if count > cur.inlier_count:
            cur = Hypothesis(motion, count, mask)
    return cur


def lo_step(best: Hypothesis, corrs: Correspondences, src_points: Points,
            dst_points: Points, threshold: float,
            inner_iters: int = 50, seed: int = 0) -> Hypothesis:
    """Public wrapper over the local optimizer (see ``_lo_step``).

    Needs at least 4 current inliers to do anything; returns a hypothesis
    whose inlier count is never below the input's.
    """
    a = np.asarray(src_points, dtype=np.float64)[corrs.src]
    b = np.asarray(dst_points, dtype=np.float64)[corrs.dst]
    return _lo_step(best, a, b, threshold, inner_iters, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------

_BLOCK = 256          # iterations drawn, screened and fitted together
_SCORE_CHUNK = 16     # models per residual pass
_SAMPLE_WEIGHTS = np.full(SAMPLE_SIZE, 1.0 / SAMPLE_SIZE)


@dataclass(frozen=True)
class RansacConfig:
    max_iterations: int = 1_000_000
    confidence: float = 0.999
    inlier_threshold: float = 0.6
    use_prosac: bool = True
    rejection: str = "elc"            # none | elc
    use_lo: bool = True
    elc_tolerance: float = 0.6
    lo_inner_iters: int = 50
    lo_max_rounds: int = 10
    prosac_t_total: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.inlier_threshold <= 0.0:
            raise ValueError("inlier_threshold must be positive")
        if self.rejection not in ("none", "elc"):
            raise ValueError(f"unknown rejection kind {self.rejection!r}")
        if self.elc_tolerance <= 0.0:
            raise ValueError("elc_tolerance must be positive")
        if self.lo_inner_iters < 1 or self.lo_max_rounds < 0:
            raise ValueError("bad local-optimization limits")
        if self.prosac_t_total < 1:
            raise ValueError("prosac_t_total must be >= 1")


@dataclass(frozen=True)
class RegistrationResult:
    """Outcome of a robust estimation run.

    ``inlier_mask`` is aligned with the input correspondence order.
    ``best_history`` records (iteration, inlier count, motion) at every
    improvement, which makes convergence studies cheap.  The counters are
    those of one hypothesis per iteration even though hypotheses are
    evaluated in blocks: samples drawn past the stopping iteration are
    neither counted nor scored.  ``wall_time`` is the only field that is
    not reproducible run to run; the rest is fixed by the seed, though not
    equal to what versions that drew one sample at a time returned.
    """

    motion: RigidMotion
    inlier_mask: NDArray[np.bool_]
    inlier_count: int
    iterations_run: int
    hypotheses_rejected_fast: int
    lo_rounds: int
    wall_time: float
    converged_by: str                 # early_stop | iteration_cap
    best_history: tuple


def ransac_register(src_points: Points, dst_points: Points,
                    corrs: Correspondences, cfg: RansacConfig) -> RegistrationResult:
    """Estimate the rigid motion aligning src onto dst from putative matches."""
    t0 = time.perf_counter()
    n = len(corrs)
    if n < SAMPLE_SIZE:
        raise ValueError(f"need at least {SAMPLE_SIZE} correspondences, got {n}")

    a = np.asarray(src_points, dtype=np.float64)[corrs.src]
    b = np.asarray(dst_points, dtype=np.float64)[corrs.dst]
    if cfg.use_prosac:
        order = priority_order(corrs)
        a, b = a[order], b[order]
    else:
        order = np.arange(n)

    root = np.random.default_rng(cfg.seed)
    sample_rng, lo_rng = root.spawn(2)
    sampler = ProsacSampler(n, SAMPLE_SIZE, cfg.prosac_t_total) if cfg.use_prosac else None

    best = Hypothesis(RigidMotion.identity(), 0, np.zeros(n, dtype=bool))
    history: list[tuple[int, int, RigidMotion]] = []
    rejected_fast = 0
    lo_rounds = 0
    required = cfg.max_iterations
    t = 0

    while t < cfg.max_iterations and t < required:
        # iterations t+1 .. t+size; block position i is iteration t+1+i
        size = min(_BLOCK, cfg.max_iterations - t, required - t)
        idx = sampler.sample_block(t + 1, size, sample_rng) if sampler is not None \
            else _distinct_rows(sample_rng, np.full(size, n), SAMPLE_SIZE)
        sp, dp = a[idx], b[idx]
        live = np.flatnonzero(_elc_mask(sp, dp, cfg.elc_tolerance)) \
            if cfg.rejection == "elc" else np.arange(size)
        rot, trans, ok = _fit_rigid(sp[live], dp[live], _SAMPLE_WEIGHTS)
        live, rot, trans = live[ok], rot[ok], trans[ok]

        # walk the survivors in iteration order, scoring them chunk by chunk
        last_gain = t
        for c in range(0, len(live), _SCORE_CHUNK):
            if t + 1 + live[c] > required:
                break
            chunk = slice(c, c + _SCORE_CHUNK)
            masks = _residuals(rot[chunk], trans[chunk], a, b) <= cfg.inlier_threshold
            for k, count in enumerate(masks.sum(axis=1).tolist()):
                it = t + 1 + int(live[c + k])
                if it > required:
                    break
                if count <= best.inlier_count:
                    continue
                best = Hypothesis(RigidMotion(rot[c + k], trans[c + k]), count, masks[k])
                if cfg.use_lo and lo_rounds < cfg.lo_max_rounds:
                    lo_rounds += 1
                    best = _lo_step(best, a, b, cfg.inlier_threshold,
                                    cfg.lo_inner_iters, lo_rng)
                history.append((it, best.inlier_count, best.motion))
                required = required_iterations(cfg.confidence, best.inlier_count / n,
                                               SAMPLE_SIZE, cfg.max_iterations)
                last_gain = it

        # the one-at-a-time loop stops once t >= required
        end = min(t + size, max(required, last_gain))
        rejected_fast += (end - t) - int(np.count_nonzero(live < end - t))
        t = end

    mask_input_order = np.zeros(n, dtype=bool)
    mask_input_order[order] = best.inlier_mask
    converged_by = "early_stop" if t >= required and required < cfg.max_iterations \
        else "iteration_cap"
    return RegistrationResult(
        motion=best.motion,
        inlier_mask=mask_input_order,
        inlier_count=best.inlier_count,
        iterations_run=t,
        hypotheses_rejected_fast=rejected_fast,
        lo_rounds=lo_rounds,
        wall_time=time.perf_counter() - t0,
        converged_by=converged_by,
        best_history=tuple(history),
    )
