"""Robust rigid-motion estimation from putative correspondences.

The estimator is a RANSAC loop with three optional accelerators that can
be toggled independently:

* progressive sampling: minimal samples are drawn from the best-ranked
  correspondences first (mutual pairs, then high ratio), widening toward
  uniform sampling over everything as iterations accumulate;
* sample rejection: edge-length compatibility (elc) of the sampled
  triangle discards hopeless samples before they are fitted and scored;
* local optimization: each time a new best model appears, iterated least
  squares polishes it: a re-fit on its inliers, then re-fits on the
  correspondences within a threshold that shrinks to the inlier one.

Hypotheses are evaluated in blocks that grow with the run: the first
holds ``_BLOCK`` iterations, and each later one as many as have run so
far, up to ``_MAX_BLOCK``, so short runs keep small blocks and long runs
pay the per-block numpy overhead rarely.  A block's minimal samples are
drawn in one call and screened by elc one edge at a time.  The survivors
are then walked in iteration order and scored ``_SCORE_CHUNK`` models per
residual pass, each fitted by a stacked SVD just before its chunk is
scored: one chunk first, then every survivor up to the current adaptive
bound, so a run that stops early fits little past its stopping iteration.
Local optimization, adaptive stopping and the reported counters
(``iterations_run``, ``hypotheses_rejected_fast``, ``best_history``) are
exactly those of a loop that handles one sample per iteration and stops
at the same iteration.

Scoring counts correspondences whose post-transform residual is within
``inlier_threshold``.  It compares squared residuals with a squared gate,
the largest float whose square root is within the threshold, so it counts
the same correspondences without taking a square root.  Elc sums each
edge from the coordinate rows ``a.T``, one coordinate at a time, to the
same float as a sum over the point's row.  With a fixed seed the whole
run is deterministic.
``Generator.integers`` with array bounds draws its values one after the
other, row by row, from the bit generator, so a block's draws are the
next ones of the stream wherever the block starts or ends: the block
sizes change no result.  The local optimizer draws nothing, so toggling
it does not change which minimal samples are drawn.  The draws are fixed
by the seed, but they are not the draws of versions that sampled one
hypothesis at a time.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.special import gammaln

from .geom import Points, RigidMotion, _cloud
from .gpf import priority_order
from .match import Correspondences

__all__ = [
    "RansacConfig", "RegistrationResult", "DegenerateSampleError",
    "ransac_register", "required_iterations", "elc_check", "kabsch",
]

SAMPLE_SIZE = 3
REJECTIONS = ("none", "elc")
_PROSAC_T_TOTAL = 200_000   # iterations over which PROSAC reaches uniform


class DegenerateSampleError(ValueError):
    """The sampled points do not determine a unique rotation."""


# ---------------------------------------------------------------------------
# least-squares rigid fit
# ---------------------------------------------------------------------------

def kabsch(src_pts: Points, dst_pts: Points) -> RigidMotion:
    """Least-squares rigid motion mapping src_pts onto dst_pts.

    Minimizes sum_i ||R p_i + t - q_i||^2 via the SVD of the
    cross-covariance, with the reflection case corrected so the result is
    always a proper rotation.

    Raises
    ------
    DegenerateSampleError
        When the centered source points span less than two dimensions
        (coincident or collinear sample); the rotation is then not unique.
    """
    p = _cloud(src_pts, "src_pts")
    q = _cloud(dst_pts, "dst_pts")
    if len(p) != len(q):
        raise ValueError(f"point counts differ: {len(p)} vs {len(q)}")
    if len(p) < SAMPLE_SIZE:
        raise ValueError(f"need at least {SAMPLE_SIZE} point pairs, got {len(p)}")
    rot, trans, ok = _fit_rigid(p[None], q[None])
    if not ok[0]:
        raise DegenerateSampleError("sample covariance has rank < 2")
    return RigidMotion(rot[0], trans[0])


def _fit_rigid(p: NDArray[np.float64], q: NDArray[np.float64]):
    """Stacked Kabsch over S point sets of k points each.

    ``p`` and ``q`` are (S, k, 3).  Returns rotations (S, 3, 3),
    translations (S, 3) and a mask of the fits whose centered source spans
    at least two dimensions; the other rows hold an arbitrary rotation.
    """
    # the means as one product with uniform weights, not p.mean(), whose
    # summation rounds differently
    w = np.full(p.shape[1], 1.0 / p.shape[1])
    cp, cq = w @ p, w @ q
    h = np.swapaxes(p - cp[:, None], 1, 2) @ ((q - cq[:, None]) * w[:, None])
    # the proper rotations maximizing tr(R h)
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

def _squared_residuals(rotation, translation, at, bt) -> NDArray[np.float64]:
    """Squared residual norms of points mapped onto their targets, from
    the coordinate rows ``at``, ``bt`` (3, n): (n,) for one motion, or
    (S, n) for stacked rotations (S, 3, 3) and translations (S, 3).

    The product with ``at`` goes through BLAS, whose kernel, and so the
    last bit of a residual, depends on the operand's layout: callers pass
    ``a.T`` of a C-ordered (n, 3) ``a``.
    """
    # one coordinate at a time keeps every temporary a contiguous (S, n),
    # and one of them serves all three
    sq = d = None
    for i in range(3):
        d = np.matmul(rotation[..., i, :], at, out=d)
        d += translation[..., i, None]
        d -= bt[i]
        if sq is None:
            sq = np.square(d)
        else:
            sq += np.square(d, out=d)
    return sq


def _squared_gate(t: float) -> float:
    """The largest float64 x with sqrt(x) <= t, for t > 0.

    IEEE sqrt is correctly rounded and monotone, so a squared residual sq
    passes ``sq <= _squared_gate(t)`` exactly when ``sqrt(sq) <= t``.
    """
    t = float(t)
    if t == math.inf:
        return math.inf
    # Python floats: t * t past the float range is inf, without a warning
    g = min(t * t, sys.float_info.max)
    while math.sqrt(g) > t:
        g = math.nextafter(g, 0.0)
    while g < sys.float_info.max and math.sqrt(math.nextafter(g, math.inf)) <= t:
        g = math.nextafter(g, math.inf)
    return g


def required_iterations(confidence: float, inlier_fraction: float,
                        max_iterations: int = 1_000_000) -> int:
    """Iterations needed to hit an all-inlier sample with given confidence.

    ceil(log(1 - confidence) / log(1 - w^m)) with m = SAMPLE_SIZE, clamped
    to [1, max_iterations].
    The boundary fractions behave sensibly: w=1 gives 1, w=0 gives the cap.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if not 0.0 <= inlier_fraction <= 1.0:
        raise ValueError(f"inlier fraction must be in [0, 1], got {inlier_fraction}")
    if inlier_fraction >= 1.0:
        return 1
    p_good = inlier_fraction ** SAMPLE_SIZE
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

_EDGES = ((0, 1), (0, 2), (1, 2))


def elc_check(src_tri: Points, dst_tri: Points, tolerance: float) -> bool:
    """True iff all three edge lengths agree within ``tolerance`` meters.

    A rigid motion preserves edge lengths, so a sample whose triangles
    disagree cannot be all-inlier and is not worth fitting.
    """
    p = np.asarray(src_tri, dtype=np.float64)
    q = np.asarray(dst_tri, dtype=np.float64)
    if p.shape != (3, 3) or q.shape != (3, 3):
        raise ValueError(f"triangles must have shape (3, 3), got {p.shape} and {q.shape}")
    return len(_elc_live(p, q, np.arange(3)[None], tolerance)) == 1


def _elc_live(a: Points, b: Points, idx: NDArray[np.int64],
              tolerance: float) -> NDArray[np.int64]:
    """Positions of the rows of ``idx`` whose triangles ``a[row]``,
    ``b[row]`` pass ``elc_check``, in increasing order.

    Edges are screened one at a time, each on the survivors of the one
    before, so a row costs nothing past its first failing edge.  Each
    length is summed from the coordinate rows ``a.T``, ``b.T``, one
    coordinate at a time and in order, as ``np.sum`` over a row would.
    """
    live = np.arange(len(idx))
    for i, j in _EDGES:
        ii, jj = idx[live, i], idx[live, j]
        # 0.0 + x*x is x*x, so the sums equal np.sum's bit for bit
        p2 = q2 = 0.0
        for x, y in zip(a.T, b.T):
            p2 += np.square(x[ii] - x[jj])
            q2 += np.square(y[ii] - y[jj])
        live = live[np.abs(np.sqrt(p2) - np.sqrt(q2)) <= tolerance]
    return live


# ---------------------------------------------------------------------------
# progressive sampler
# ---------------------------------------------------------------------------

def _distinct_rows(rng: np.random.Generator, pop: NDArray[np.int64],
                   newest: NDArray[np.bool_]) -> NDArray[np.int64]:
    """One row of three distinct indices per entry of ``pop``, uniform over
    [0, pop[i]).  Rows flagged in ``newest`` start with pop[i] - 1 and draw
    the rest uniformly below it.

    The j-th draw of a row is uniform over the pop[i] - j values not yet
    taken and is mapped onto them, so no row is ever redrawn.
    """
    rows = rng.integers(0, pop[:, None] - np.arange(SAMPLE_SIZE),
                        size=(len(pop), SAMPLE_SIZE))
    rows[newest, 0] = pop[newest] - 1
    r0, r1, r2 = rows.T
    r1 += r1 >= r0
    # step past the smaller taken value first, then the larger
    r2 += r2 >= np.minimum(r0, r1)
    r2 += r2 >= np.maximum(r0, r1)
    return rows


def _prosac_growth(n: int) -> NDArray[np.int64]:
    """PROSAC's growth iterations T'_k for k = m .. n, m = SAMPLE_SIZE:
    the t-th sample draws from the top k of n quality-ranked entries for
    T'_{k-1} < t <= T'_k.  They start at 1 and advance by
    ceil(T_{k+1} - T_k), at least 1, with T_k = _PROSAC_T_TOTAL·C(k,m)/C(n,m).
    """
    m = SAMPLE_SIZE
    ks = np.arange(m, n + 1, dtype=np.float64)
    log_c = gammaln(ks + 1) - gammaln(m + 1) - gammaln(ks - m + 1)
    t_k = np.exp(math.log(_PROSAC_T_TOTAL) + log_c - log_c[-1])
    step = np.maximum(np.ceil(np.diff(t_k)), 1.0).astype(np.int64)
    growth = np.empty(len(ks), dtype=np.int64)
    growth[0] = 1
    np.cumsum(step, out=growth[1:])
    growth[1:] += 1
    return growth


def _sample_block(growth: NDArray[np.int64], n: int, t: int, count: int,
                  rng: np.random.Generator) -> NDArray[np.int64]:
    """Minimal samples t .. t + count - 1 (t counts from 1), one row of
    ranked positions each.

    While the schedule ``growth`` runs, the t-th sample draws from the top
    n(t) entries and always contains the n(t)-th; after its last entry
    sampling is uniform over all n.  The empty schedule is plain uniform
    sampling from the first iteration on.
    """
    ts = np.arange(t, t + count)
    stage = np.searchsorted(growth, ts)
    growing = stage < len(growth)
    n_t = np.where(growing, SAMPLE_SIZE + stage, n)
    rows = _distinct_rows(rng, n_t, growing)
    rows[growing & (n_t == SAMPLE_SIZE)] = np.arange(SAMPLE_SIZE)
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
_LO_MIN_SAMPLE = 4
_LO_MAX_ROUNDS = 10   # rounds per run, one per new best model


def _lo_step(best: Hypothesis, a: Points, b: Points, threshold: float) -> Hypothesis:
    """Polish a hypothesis by iterated least squares with annealed gating.

    The model is re-fitted on the inliers of ``best``, then once per
    ``_LO_ANNEAL`` step on the correspondences within that multiple of
    ``threshold`` of the previous fit.  The last fit wins if it has more
    inliers than ``best``; a gate of fewer than three points, or of
    collinear ones, leaves ``best`` as it is.  A step whose gate equals
    the one the model was fitted on keeps that model and its residuals,
    since a re-fit would return the same floats.
    """
    gate = best.inlier_mask
    if np.count_nonzero(gate) < _LO_MIN_SAMPLE:
        return best
    try:
        # motion is always the fit on gate, and sq its squared residuals
        motion = kabsch(a[gate], b[gate])
        sq = _squared_residuals(motion.rotation, motion.translation, a.T, b.T)
        for mult in _LO_ANNEAL:
            new = sq <= _squared_gate(mult * threshold)
            if not np.array_equal(new, gate):
                motion = kabsch(a[new], b[new])
                sq = _squared_residuals(motion.rotation, motion.translation, a.T, b.T)
            gate = new
    except ValueError:
        return best
    mask = sq <= _squared_gate(threshold)
    count = int(np.count_nonzero(mask))
    return Hypothesis(motion, count, mask) if count > best.inlier_count else best


# ---------------------------------------------------------------------------
# the estimator
# ---------------------------------------------------------------------------

_BLOCK = 256          # iterations in the first block
_MAX_BLOCK = 4096     # iterations in the largest block
_SCORE_CHUNK = 16     # models per residual pass


@dataclass(frozen=True)
class RansacConfig:
    max_iterations: int = 1_000_000
    confidence: float = 0.999
    inlier_threshold: float = 0.6
    use_prosac: bool = True
    rejection: str = "elc"            # one of REJECTIONS
    use_lo: bool = True
    elc_tolerance: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if not self.inlier_threshold > 0.0:
            raise ValueError("inlier_threshold must be positive")
        if self.rejection not in REJECTIONS:
            raise ValueError(f"rejection must be one of {REJECTIONS}, "
                             f"got {self.rejection!r}")
        if not self.elc_tolerance > 0.0:
            raise ValueError("elc_tolerance must be positive")


@dataclass(frozen=True)
class RegistrationResult:
    """Outcome of a robust estimation run.

    ``inlier_mask`` is aligned with the input correspondence order.
    ``best_history`` records (iteration, inlier count, motion) at every
    improvement, which makes convergence studies cheap.  The counters are
    those of one hypothesis per iteration even though hypotheses are
    evaluated in blocks that grow with the run: samples drawn past the
    stopping iteration are neither counted nor scored, and no field
    depends on the block sizes.  ``wall_time`` is the only field that is
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

    # the residuals' target rows, contiguous, and the squared inlier gate
    bt = np.ascontiguousarray(b.T)
    gate = _squared_gate(cfg.inlier_threshold)
    sample_rng = np.random.default_rng(cfg.seed).spawn(1)[0]
    # uniform sampling is the empty schedule over unranked input
    growth = _prosac_growth(n) if cfg.use_prosac else np.empty(0, dtype=np.int64)

    best = Hypothesis(RigidMotion.identity(), 0, np.zeros(n, dtype=bool))
    history: list[tuple[int, int, RigidMotion]] = []
    rejected_fast = 0
    lo_rounds = 0
    required = cfg.max_iterations
    t = 0

    while t < cfg.max_iterations and t < required:
        # iterations t+1 .. t+size; block position i is iteration t+1+i
        size = min(max(_BLOCK, t), _MAX_BLOCK, cfg.max_iterations - t, required - t)
        idx = _sample_block(growth, n, t + 1, size, sample_rng)
        pending = _elc_live(a, b, idx, cfg.elc_tolerance) \
            if cfg.rejection == "elc" else np.arange(size)
        # the fitted survivors with a proper fit, in iteration order
        live = np.empty(0, dtype=np.int64)
        rot, trans = np.empty((0, 3, 3)), np.empty((0, 3))

        def fit(count):
            # fit the next count elc survivors, keeping the proper fits
            nonlocal pending, live, rot, trans
            pick, pending = pending[:count], pending[count:]
            if not len(pick):
                return
            r, tr, ok = _fit_rigid(a[idx[pick]], b[idx[pick]])
            live = np.concatenate([live, pick[ok]])
            rot, trans = np.concatenate([rot, r[ok]]), np.concatenate([trans, tr[ok]])

        # walk the survivors in iteration order, scoring them chunk by chunk;
        # a survivor is fitted only once a chunk needs it: one chunk first,
        # then every survivor up to the current bound, then past the bound
        # only what completes a chunk that starts within it
        last_gain = t
        fit(_SCORE_CHUNK)
        for c in itertools.count(0, _SCORE_CHUNK):
            if len(live) < c + _SCORE_CHUNK:
                fit(int(np.searchsorted(pending, required - t)))
            if c >= len(live) or t + 1 + live[c] > required:
                break
            while len(live) < c + _SCORE_CHUNK and len(pending):
                fit(c + _SCORE_CHUNK - len(live))
            chunk = slice(c, c + _SCORE_CHUNK)
            masks = _squared_residuals(rot[chunk], trans[chunk], a.T, bt) <= gate
            for k, count in enumerate(masks.sum(axis=1).tolist()):
                it = t + 1 + int(live[c + k])
                if it > required:
                    break
                if count <= best.inlier_count:
                    continue
                best = Hypothesis(RigidMotion(rot[c + k], trans[c + k]), count, masks[k])
                if cfg.use_lo and lo_rounds < _LO_MAX_ROUNDS:
                    lo_rounds += 1
                    best = _lo_step(best, a, b, cfg.inlier_threshold)
                history.append((it, best.inlier_count, best.motion))
                required = required_iterations(cfg.confidence, best.inlier_count / n,
                                               cfg.max_iterations)
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
