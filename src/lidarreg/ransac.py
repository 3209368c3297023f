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

Hypotheses are evaluated in blocks of at most ``_MAX_BLOCK`` iterations:
from ``_BLOCK`` on, each as many as have run so far until a model sets
the adaptive bound, and each up to that bound from then on, so short
runs keep small blocks and long runs pay the per-block numpy overhead
rarely.  A block's minimal samples are drawn in one call and screened by
elc one edge at a time, and the survivors are fitted in one call.  They
are then walked in iteration order and scored ``_SCORE_CHUNK`` models per
product; survivors past a bound that a new best sets are fitted but
never scored.  The fit is a closed-form Kabsch for three points
(``_fit_rigid``), elementwise over the stack, with no BLAS or LAPACK
call, so each model is the same float on any BLAS kernel.  Local
optimization, adaptive stopping and the reported counters
(``iterations_run``, ``hypotheses_rejected_fast``, ``best_history``) are
exactly those of a loop that handles one sample per iteration and stops
at the same iteration.

Scoring counts correspondences whose post-transform residual is within
``inlier_threshold``.  It compares squared residuals, as
``_squared_residuals`` computes them, with a squared gate, the largest
float whose square root is within the threshold, so it counts the same
correspondences without taking a square root.  The hypothesis loop
estimates a chunk's squared residuals from one matrix product: each
fitted model gets a row of coefficients, and the run one table of
per-correspondence products.  A window around the gate, derived in
``_coefficients``, covers the rounding of that estimate and of
``_squared_residuals`` on any BLAS kernel, so an estimate outside it
decides its entry as the residual pass would.  A chunk whose models can
hold no more inliers than the best so far is settled by the window's
upper side alone; otherwise an estimate within the window sends the chunk
to the residual pass, which also scores local optimization.  Elc sums each
edge from the coordinate rows ``a.T``, one coordinate at a time, to the
same float as a sum over the point's row.  With a fixed seed the whole
run is deterministic.
Each index of a sample is drawn from one double of ``Generator.random``,
row by row, so a block's draws are the next ones of the stream wherever
the block starts or ends: the block sizes change no result.  The local
optimizer draws nothing, so toggling it does not change which minimal
samples are drawn.  The draws are fixed by the seed, but they are not the
draws of versions that sampled one hypothesis at a time, nor of those
that drew with ``Generator.integers``.
"""

from __future__ import annotations

import math
import numbers
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
    # the means as one product with uniform weights, not p.mean(), whose
    # summation rounds differently
    w = np.full(len(p), 1.0 / len(p))
    cp, cq = w @ p, w @ q
    # the proper rotation maximizing tr(R h)
    u, s, vt = np.linalg.svd((p - cp).T @ ((q - cq) * w[:, None]))
    if not s[1] > 1e-9 * max(s[0], 1e-300):
        raise DegenerateSampleError("sample covariance has rank < 2")
    rot = vt.T @ u.T
    if np.linalg.det(rot) < 0.0:
        # reflection: negate the axis of the smallest singular value
        vt[-1] *= -1.0
        rot = vt.T @ u.T
    return RigidMotion(rot, cq - rot @ cp)


def _outer_sum(x: NDArray[np.float64], y: NDArray[np.float64]) -> NDArray[np.float64]:
    """sum_k x[k] y[k]^T over stacks of columns: x, y (3, 3, S), out[i, j]
    summed over k = 0, 1, 2 in that order, each row of the stack alone."""
    prod = x[:, :, None] * y[:, None, :]
    out = prod[0] + prod[1]
    out += prod[2]
    return out


def _fit_rigid(p: NDArray[np.float64], q: NDArray[np.float64]):
    """Stacked Kabsch over S three-point samples, in closed form.

    ``p`` and ``q`` are (S, 3, 3), one row per corner.  Returns rotations
    (S, 3, 3), translations (S, 3) and a mask of the fits whose centered
    source spans at least two dimensions (s2 > 1e-9 s1, as ``kabsch``
    tests it); the other rows hold the identity and the translation of the
    means.  The rotation is ``kabsch``'s in real arithmetic, from
    elementwise products summed in a fixed order over (3, 3, S) component
    arrays: each row is the same float for any stack it is fitted in, and
    no BLAS kernel or LAPACK call touches it.
    """
    # x[0] and x[1] hold the source and target corners, x[., k, i] is
    # coordinate i of corner k, over the stack
    x = np.stack([p, q]).transpose(0, 2, 3, 1).copy()
    xw = x * (1.0 / 3.0)
    c = xw[:, 0] + xw[:, 1]
    c += xw[:, 2]
    x -= c[:, None]
    # Each sample's centered corners scaled so their largest magnitude is
    # in [1/2, 1): a power of two, so exact but for entries below 2**-1000
    # of the largest, which no sum below keeps, and the cubic terms stay in
    # range at any coordinate scale.  Positive scalings change no rotation.
    exponent = np.frexp(np.abs(x).max(axis=(1, 2)))[1]
    x = np.ldexp(x, -exponent[:, None, None])
    # The closed form.  With p2 = -p0 - p1, the cross-covariance of the
    # centered corners is H = sum_k p_k q_k^T = [p0 p1] M [q0 q1]^T with
    # M = [[2, 1], [1, 2]], of rank <= 2: H = U diag(s1, s2, 0) V^T, and
    # Kabsch's proper rotation maximizing tr(R H) is V diag(1, 1, e) U^T,
    # e = det(V U^T).
    # * tau = |H|_F^2 = s1^2 + s2^2, and s1 s2 = det M |n_p| |n_q| = d for
    #   the triangle normals n_p = p0 x p1 and n_q = q0 x q1.  So
    #   S = sqrt(tau + 2d) = s1 + s2 and s1^2 = (tau + sqrt(tau^2 - 4d^2))/2.
    # * (tau + d) H^T - H^T H H^T = V diag(s (tau + d - s^2)) U^T over
    #   s = s1, s2, 0, that is S d V diag(1, 1, 0) U^T.
    # * u3 and v3 are the planes' unit normals.  In the bases (p0, p1) and
    #   (q0, q1), H^T restricted to the source plane is M [p0 p1]^T [p0 p1],
    #   of determinant 3 |n_p|^2 > 0, so H^T, and with it the in-plane part
    #   V diag(1, 1, 0) U^T, keeps the orientation that n_p and n_q give
    #   the planes, and the proper rotation maps n_p onto n_q:
    #   e v3 u3^T = n_q n_p^T / (|n_q| |n_p|) = 3 S n_q n_p^T / (S d).
    # R = [(tau + d) H^T - H^T H H^T + 3 S n_q n_p^T] / (S d).  s2 > 1e-9 s1
    # is d > 1e-9 s1^2; the rows that fail it are the identity.
    h = _outer_sum(x[0], x[1])
    ht = h.transpose(1, 0, 2)
    g = _outer_sum(h, h)                     # H^T H
    tau = g[0, 0] + g[1, 1]
    tau += g[2, 2]
    # n_p and n_q from corners 0 and 1, their coordinates repeated so
    # that coordinates i + 1 and i + 2 are slices
    rep = np.concatenate([x[:, :2], x[:, :2, :2]], axis=2)
    n = rep[:, 0, 1:4] * rep[:, 1, 2:5]
    n -= rep[:, 0, 2:5] * rep[:, 1, 1:4]
    sq = n * n
    norm = sq[:, 0] + sq[:, 1]
    norm += sq[:, 2]
    np.sqrt(norm, out=norm)
    d = 3.0 * norm[0] * norm[1]
    s = np.sqrt(tau + 2.0 * d)
    root = tau * tau - 4.0 * d * d
    np.maximum(root, 0.0, out=root)
    ok = d > 1e-9 * ((tau + np.sqrt(root)) / 2.0)
    rot = (tau + d) * ht
    rot -= _outer_sum(g, ht)
    rot += (3.0 * s) * n[1][:, None] * n[0][None, :]
    rot /= np.where(ok, s * d, 1.0)
    if not ok.all():
        rot[:, :, ~ok] = np.eye(3)[:, :, None]
    # t = c_q - R c_p
    prod = rot * c[0]
    rc = prod[:, 0] + prod[:, 1]
    rc += prod[:, 2]
    return (np.ascontiguousarray(rot.transpose(2, 0, 1)),
            np.ascontiguousarray((c[1] - rc).T), ok)


# ---------------------------------------------------------------------------
# scoring and stopping
# ---------------------------------------------------------------------------

def _squared_residuals(rotation, translation, at, bt) -> NDArray[np.float64]:
    """Squared residual norms of points mapped onto their targets, from
    the coordinate rows ``at``, ``bt`` (3, n): (n,) for one motion, or
    (S, n) for stacked rotations (S, 3, 3) and translations (S, 3).

    These residuals define the inlier counts.  Local optimization scores
    with them, and the hypothesis loop when its estimate cannot decide a
    chunk (``_scored``).  The product with ``at`` goes through BLAS,
    whose kernel, and so the last bit of a residual, depends on the
    operand's layout: callers pass ``a.T`` of a C-ordered (n, 3) ``a``.
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


# The hypothesis loop's scoring product.  F holds one column per
# correspondence: |b|^2; b_i a_0, b_i a_1, b_i a_2, b_i for i = 0, 1, 2; a;
# the six a_j a_k of _J, _K; and 1.  A model's row holds the coefficients
# of |R a + t - b|^2 = |b|^2 - 2 b.(R a + t) + 2 (R^T t).a + a^T R^T R a
# + |t|^2, exact for any matrix R: 1, -2 [R | t] row by row, then the
# Gram entries of [R | t] in _GRAM order times _GRAM_SCALE.
_J, _K = (0, 1, 2, 0, 0, 1), (0, 1, 2, 1, 2, 2)
_GRAM = ((0, 3), (1, 3), (2, 3)) + tuple(zip(_J, _K)) + ((3, 3),)
# the flat [R | t] positions whose products, summed over i, are the Gram
# entries, for i = 0, 1, 2 in turn
_GRAM_LEFT, _GRAM_RIGHT = (np.array([[4 * i + g[side] for g in _GRAM] for i in range(3)])
                           .ravel() for side in (0, 1))
_GRAM_SCALE = np.array([2.0] * 3 + [1.0] * 3 + [2.0] * 3 + [1.0])
# Coordinates past this bound could overflow the estimate's products, so
# such a run scores every chunk with ``_squared_residuals``.
_ESTIMATE_RANGE = 2.0 ** 500


def _features(a: Points, b: Points) -> NDArray[np.float64]:
    """The (23, n) table F of the scoring product."""
    at, bt = a.T, b.T
    f = np.empty((23, len(a)))
    f[0] = bt[0] * bt[0] + bt[1] * bt[1] + bt[2] * bt[2]
    rows = f[1:13].reshape(3, 4, -1)
    rows[:, :3] = bt[:, None] * at
    rows[:, 3] = bt
    f[13:16] = at
    f[16:22] = at[_J, :] * at[_K, :]
    f[22] = 1.0
    return f


@np.errstate(over="ignore", invalid="ignore")
def _coefficients(rot, trans, reach: NDArray[np.float64], b_reach: float,
                  gate: float) -> tuple[NDArray[np.float64], float]:
    """(S, 23) and a float: per model, the coefficients c of F, c @ F
    estimating its squared residuals, and the half-width W of the window
    around ``gate`` that every model of the stack shares.

    ``reach`` holds (max|a_0|, max|a_1|, max|a_2|, 1) three times, and
    ``b_reach`` is max|b_0| + max|b_1| + max|b_2|.  Beyond
    ``_ESTIMATE_RANGE``, or at an infinite gate, the values may overflow;
    the run does not use the former, and an infinite or NaN window decides
    nothing.
    """
    s = len(rot)
    p = np.concatenate([rot, trans[:, :, None]], axis=2).reshape(s, 12)
    out = np.empty((s, 23))
    out[:, 0] = 1.0
    np.multiply(p, -2.0, out=out[:, 1:13])
    gram = p[:, _GRAM_LEFT]
    gram *= p[:, _GRAM_RIGHT]
    np.multiply(gram.reshape(s, 3, 10).sum(axis=1), _GRAM_SCALE, out=out[:, 13:])
    # The window.  Let u = 2**-53, gamma_k = ku/(1 - ku), g = gate, X the
    # exact |R a + t - b|^2 of the float R, t, a, b, and per model
    # V = |R| max|a| + |t| + max|b|, per axis, and N = |V|, at most the
    # largest |[R | t]| . reach + b_reach of the stack.
    # * The estimate E: c @ F errs from the exact sum of the rounded
    #   products by gamma_23 sum|c_k||f_k| in any summation order, with or
    #   without FMA (Higham, ch. 3).  Each f_k, and each c_k, is exact or
    #   within gamma_3 of its exact value, relative to the same sums over
    #   |a|, |b|, |R| and |t|.  Over those absolute values the expansion
    #   sums to | |R||a| + |t| + |b| |^2 <= N^2, so |E - X| <= gamma_30 N^2
    #   <= 31u N^2.
    # * Today's T (``_squared_residuals``, any BLAS kernel): each
    #   coordinate d_i = (R a)_i + t_i - b_i errs by gamma_5 V_i, so
    #   |d - D| <= e1 = gamma_5 N for the exact residual D, and the squares
    #   and sums put T within gamma_3 of |d|^2.
    # E <= g - W gives X <= g - W + 31u N^2 and T <= (1 + gamma_3)
    # (sqrt(X) + e1)^2, which is at most g when W >= 31u N^2 + 3.01u g +
    # 10.1u N sqrt(g) + e1^2 (if e1 > sqrt(g), this W exceeds g plus the
    # estimate's error, and no E is that low).  E > g + W gives
    # T >= (1 - gamma_3)(sqrt(X) - e1)^2 > g under the same W.  That W is
    # at most 32u N^2 + 4u g + 11u N sqrt(g); twice it, at most
    # 80u (N^2 + g), covers computing W and the limits in float64, and
    # tiny, with that slack, covers underflow.
    n = float((np.abs(p) @ reach).max(initial=0.0)) + b_reach
    return out, 80.0 * 2.0 ** -53 * (n * n + gate) + sys.float_info.min


def _scored(rot, trans, models, w: float, feats, at, bt, gate: float, floor: int):
    """Inlier masks and counts of a chunk of models, (S, n) and (S,).

    A count above ``floor`` and its mask are those of
    ``_squared_residuals(rot, trans, at, bt) <= gate``; a count at or below
    it bounds the exact count from above.  They come from the scoring
    product ``models @ feats`` of the models' ``_coefficients`` rows,
    decided with the window W of their stack.  All of a model's inliers
    estimate at or below gate + W, so if no model has more than ``floor``
    such entries, those are returned.  Otherwise, if no estimate lies
    within the window, the entries at or below gate - W are exactly the
    inliers; if one does, or ``feats`` is None, the chunk is scored with
    ``_squared_residuals``.
    """
    if feats is not None:
        est = models @ feats
        masks = est <= gate + w
        counts = masks.view(np.uint8).sum(axis=1, dtype=np.uint32)
        if counts.max() <= floor:
            return masks, counts
        masks = est <= gate - w
        if np.count_nonzero(masks) == counts.sum():
            return masks, counts
    masks = _squared_residuals(rot, trans, at, bt) <= gate
    return masks, masks.sum(axis=1)


def required_iterations(confidence: float, inlier_fraction: float,
                        max_iterations: int = 1_000_000) -> int:
    """Iterations needed to hit an all-inlier sample with given confidence.

    ceil(log(1 - confidence) / log(1 - w^m)) with m = SAMPLE_SIZE, clamped
    to [1, max_iterations].
    The boundary fractions behave sensibly: w=1 gives 1, w=0 gives the cap,
    and so does any w whose quotient overflows.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    if not 0.0 <= inlier_fraction <= 1.0:
        raise ValueError(f"inlier fraction must be in [0, 1], got {inlier_fraction}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    if inlier_fraction >= 1.0:
        return 1
    p_good = inlier_fraction ** SAMPLE_SIZE
    if p_good <= 0.0:
        return max_iterations
    # the quotient is inf for a vanishing p_good, so it is clamped before ceil
    need = math.ceil(min(math.log1p(-confidence) / math.log1p(-p_good), max_iterations))
    return int(max(need, 1))


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

    The j-th draw of a row is uniform over the b = pop[i] - j values not
    yet taken and is mapped onto them, so no row is ever redrawn.  It is
    floor(u b) of the next double u of ``rng.random``, so a row's draws are
    the next three values of the stream, wherever its block starts.  u is
    a multiple of 2**-53 below 1, so each value takes within a few of
    2**53 / b of them: a bias of order b / 2**53.  For an integer b < 2**53
    the largest product, (1 - 2**-53) b, lies within half a spacing of the
    float below b (exactly on it when b is a power of two), so it rounds to
    that float, and rounding is monotone: every draw is below its bound.
    """
    bounds = pop[:, None] - np.arange(SAMPLE_SIZE)
    rows = (rng.random((len(pop), SAMPLE_SIZE)) * bounds).astype(np.int64)
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
_SCORE_CHUNK = 16     # models per scoring product


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
        if not isinstance(self.max_iterations, numbers.Integral):
            raise ValueError(f"max_iterations must be an integer, "
                             f"got {self.max_iterations!r}")
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
    evaluated in blocks: samples drawn past the stopping iteration are
    neither counted nor scored, and no field depends on the block sizes.
    ``wall_time`` is the only field that is not reproducible run to run;
    the rest is fixed by the seed.  It is not what versions that drew one
    sample at a time, drew with ``Generator.integers`` or fitted
    hypotheses by SVD returned.
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

    order = priority_order(corrs) if cfg.use_prosac else np.arange(n)
    a = _cloud(src_points, "src_points")[corrs.src[order]]
    b = _cloud(dst_points, "dst_points")[corrs.dst[order]]

    # the residuals' target rows, contiguous, and the squared inlier gate
    bt = np.ascontiguousarray(b.T)
    gate = _squared_gate(cfg.inlier_threshold)
    # the scoring product's table, and the coordinate bounds of its windows
    a_max, b_max = np.abs(a).max(axis=0), np.abs(b).max(axis=0)
    feats = _features(a, b) if max(a_max.max(), b_max.max()) <= _ESTIMATE_RANGE else None
    reach, b_reach = np.tile(np.append(a_max, 1.0), 3), float(b_max.sum())
    sample_rng = np.random.default_rng(cfg.seed).spawn(1)[0]
    # uniform sampling is the empty schedule over unranked input
    growth = _prosac_growth(n) if cfg.use_prosac else np.empty(0, dtype=np.int64)

    best = Hypothesis(RigidMotion.identity(), 0, np.zeros(n, dtype=bool))
    history: list[tuple[int, int, RigidMotion]] = []
    rejected_fast = 0
    lo_rounds = 0
    required = cfg.max_iterations
    t = 0

    while t < required:             # required_iterations clamps to the cap
        # iterations t+1 .. t+size; block position i is iteration t+1+i.
        # Blocks double from _BLOCK until a bound exists, then run to it.
        bounded = required < cfg.max_iterations
        size = min(_MAX_BLOCK if bounded else max(_BLOCK, t), _MAX_BLOCK, required - t)
        idx = _sample_block(growth, n, t + 1, size, sample_rng)
        live = _elc_live(a, b, idx, cfg.elc_tolerance) \
            if cfg.rejection == "elc" else np.arange(size)
        # fit every elc survivor in one call, keeping the proper fits in
        # iteration order, and their scoring rows
        rot, trans, ok = _fit_rigid(a[idx[live]], b[idx[live]])
        live, rot, trans = live[ok], rot[ok], trans[ok]
        models, w = _coefficients(rot, trans, reach, b_reach, gate)

        # walk the survivors in iteration order, scoring them chunk by chunk;
        # survivors past a bound that a new best sets are fitted but never
        # scored
        last_gain = t
        for c in range(0, len(live), _SCORE_CHUNK):
            if t + 1 + live[c] > required:
                break
            chunk = slice(c, c + _SCORE_CHUNK)
            masks, counts = _scored(rot[chunk], trans[chunk], models[chunk], w, feats,
                                    a.T, bt, gate, best.inlier_count)
            for k, count in enumerate(counts.tolist()):
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
    converged_by = "early_stop" if required < cfg.max_iterations else "iteration_cap"
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
