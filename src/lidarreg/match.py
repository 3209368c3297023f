"""Exact nearest-neighbor matching in descriptor space.

Each source descriptor row is matched to its nearest target row by L2
distance.  Alongside the match we keep the two quality signals used by
the downstream filtering and sampling stages:

* ratio: distance to the second-nearest target over distance to the
  nearest.  Always >= 1; large means the match is discriminative.
* is_mnn: the pair is a mutual nearest neighbor (the source row is also
  the nearest source to its matched target row).

Distance ties are broken toward the lowest row index, which keeps the
output reproducible.

The search is an exact brute force done as one blocked matrix product
that serves both directions.  Both sets are shifted by one common vector,
and each block of source rows gets a float32 estimate of every squared
distance, |q|^2 + |r|^2 - 2 q.r, from one GEMM.  Per source row, argmin
finds the best and the second-best estimate; the forward candidates are
entries within a proven rounding-error window of the second best: those
two, and the further entries of the rare rows whose third best lies in
the window too.  Per target row, each block lowers a running bound on
its nearest squared distance by the block's column minimum, and records
the rows whose minimum lies within a window of the bound.  After the
last block the bound is final, and each block is estimated again at its
recorded rows still within their window; the entries within it are the
reverse candidates.  All candidates are re-measured with the arithmetic
of a plain scan, ``sqrt(sum((r - q)**2))``, and ranked by (distance, row
index).  The windows always hold the scan's nearest and second-nearest
rows, so the output equals the scan's bit for bit; the bound is derived
in ``_nearest``.

Each search runs in one dtype.  It runs in float64, whose windows are
2**29 times narrower, when the centered values would overflow or
underflow float32, and again from the first block when a float32 block
keeps more than four forward candidates per query row and target row,
or a reverse pass more than four per query row and recorded row; the
float32 search is then dropped with all it found.  Candidates are
re-measured and ranked in batches of about a block's entries, and the
records are settled under the running bound once they outgrow a block,
so working memory is bounded by the block size and the row counts, not
by N x M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = ["Correspondences", "match_features", "mnn_filter"]


@dataclass(frozen=True)
class Correspondences:
    """One putative match per source point, stored column-wise.

    All arrays share the same length.  ``src`` and ``dst`` are row indices
    into the source and target clouds (equivalently descriptor arrays).
    """

    src: NDArray[np.int64]
    dst: NDArray[np.int64]
    feat_dist: NDArray[np.float64]
    ratio: NDArray[np.float64]
    is_mnn: NDArray[np.bool_]

    def __len__(self) -> int:
        return len(self.src)

    def take(self, indices) -> "Correspondences":
        """Subset (or reorder) by positional indices."""
        idx = np.asarray(indices)
        return Correspondences(self.src[idx], self.dst[idx], self.feat_dist[idx],
                               self.ratio[idx], self.is_mnn[idx])


# Query rows per block are sized so one block's estimate matrix holds about
# this many entries (1 MB in float32; the passes over a block run faster
# than over smaller or larger blocks); the selection masks scale with it.
_BLOCK_ENTRIES = 1 << 18
# Candidates are re-measured in pieces of about this many entries, 32 KB
# temporaries.  Two live temporaries of 256 KB made glibc return the heap
# top and fault it back in on the next call: 500-700 minor faults, a third
# of a 700 x 700 match's time.
_PIECE_ENTRIES = 1 << 12
# A float32 search stops at the first block that keeps more than this many
# forward candidates per query row and target row, or reverse pass that
# keeps more per query row and recorded row, and runs again from the first
# block in float64, whose windows are 2**29 times narrower.  Blocks keep
# about two forward candidates per query row and one reverse candidate per
# target row.  At the budget, re-measuring costs about as much as a float64
# block (2.5 against 1.5 ms at 5k x 5k rows).  One far row widens every
# float32 window of the other set: at 5k x 5k 16-D rows (2-vCPU host, one
# BLAS thread) the search took 72-76 ms with one far target row and
# 90-114 ms with one far source row, rerun in float64, and 4.0-4.4 s
# without a budget.
_CANDIDATES_PER_ROW = 4
# Float32 estimates are used while the largest squared centered norms,
# summed over both sets, lie in this range; outside it they could overflow,
# or underflow by more than the windows cover, so the search runs in float64.
_FLOAT32_SCALES = (2.0 ** -60, 2.0 ** 100)


def _augmented(queries, rows, center, q_norm, r_norm, dtype):
    """Centered rows whose products are the squared distances, in ``dtype``.

    [-2q, |q|^2, 1] . [r, 1, |r|^2] = |q|^2 + |r|^2 - 2 q.r = |r - q|^2.
    """
    n, m, dim = len(queries), len(rows), rows.shape[1]
    q_aug = np.empty((n, dim + 2), dtype=dtype)
    np.subtract(queries, center, out=q_aug[:, :dim], casting="same_kind")
    q_aug[:, :dim] *= -2.0
    q_aug[:, dim] = q_norm
    q_aug[:, dim + 1] = 1.0
    r_aug = np.empty((m, dim + 2), dtype=dtype)
    np.subtract(rows, center, out=r_aug[:, :dim], casting="same_kind")
    r_aug[:, dim] = 1.0
    r_aug[:, dim + 1] = r_norm
    return q_aug, r_aug


def _errors(q_norm, r_norm, dim, dtype, pad):
    """Bounds on |estimate - squared distance| per query and per row (see ``_nearest``)."""
    k = 4.0 * (dim + 4) * np.finfo(dtype).eps / 2.0
    tiny = np.finfo(dtype).tiny
    return k * (q_norm + r_norm.max() + pad) + tiny, k * (q_norm.max() + r_norm + pad) + tiny


def _candidates(est, q_window, r_err, r_reach, r_upper, mask, budget):
    """One block's forward candidates and the rows its reverse pass records.

    Query indices are local to the block.  Forward candidates lie within
    ``q_window`` of their query's second-best estimate: the best and the
    second-best entry, found by argmin, and the entries of the rare queries
    whose third-best estimate lies in the window too.  ``r_upper`` bounds
    each row's nearest squared distance over the queries seen, and is first
    lowered by this block's estimates plus ``r_err``; the rows whose least
    estimate in the block lies within ``r_reach`` of it are recorded.
    Returns (query, row) of the forward candidates and (row, least
    estimate) of the recorded rows, or None if there are more than
    ``budget`` forward candidates.  Each query's two best entries of
    ``est`` are left at inf.
    """
    least = est.min(axis=0)
    np.minimum(r_upper, least + r_err, out=r_upper)
    recorded = np.flatnonzero(least <= (r_upper + r_reach).astype(est.dtype))
    at = np.arange(len(est))
    first = est.argmin(axis=1)
    est[at, first] = np.inf
    second = est.argmin(axis=1)
    q_limit = est[at, second] + q_window
    est[at, second] = np.inf
    more = np.flatnonzero(est.min(axis=1) <= q_limit)
    # flat indices and divmod: 2-D np.nonzero is several times slower here
    flat = np.flatnonzero(np.less_equal(est[more], q_limit[more, None],
                                        out=mask[:len(more)]))
    if 2 * len(est) + len(flat) > budget:
        return None
    qi, rj = np.divmod(flat, est.shape[1])
    return (np.concatenate((at, at, more[qi])), np.concatenate((first, second, rj)),
            recorded, least[recorded])


def _distances(rows, queries, rj, qi):
    """The scan's ``sqrt(sum((r - q)**2))`` for each pair (rows[rj], queries[qi])."""
    d = np.empty(len(rj))
    step = max(1, _PIECE_ENTRIES // rows.shape[1])
    for lo in range(0, len(rj), step):
        diff = rows[rj[lo:lo + step]] - queries[qi[lo:lo + step]]
        d[lo:lo + step] = np.sqrt(np.sum(diff ** 2, axis=1))
    return d


def _nearest(rows: NDArray[np.float64], queries: NDArray[np.float64]):
    """(d1, i1, d2, j1): nearest neighbors in both directions.

    Per query, d1 and i1 are the nearest row's distance and index and d2
    the second-smallest distance (it may equal d1); per row, j1 is the
    index of its nearest query.  Ties go to the lowest index.  Distances
    are computed as ``sqrt(sum((r - q)**2))``, the arithmetic of a
    brute-force scan, so the output equals that scan's bit for bit.
    """
    center = (rows.mean(axis=0) + queries.mean(axis=0)) / 2.0
    q_norm, r_norm = (np.einsum("ij,ij->i", c, c) for c in (x - center for x in (queries, rows)))
    scale = q_norm.max() + r_norm.max()
    # Every squared distance, centered or as the scan computes it, is at
    # most 2(|q|^2 + |r|^2) up to rounding, and the windows and estimates
    # are smaller still.  Past float64's range they overflow, the window
    # argument fails and the scan's own distances turn infinite.
    if not np.isfinite(4.0 * scale):
        raise ValueError("descriptor values too large: squared distances "
                         "overflow float64")
    # Error bounds.  Let u be the unit roundoff of the estimates' dtype,
    # v <= u that of float64, S = |q|^2 + |r|^2 (centered) and X the exact
    # |r - q|^2.  An estimate is within (3D+11)uS of X: the dot product of
    # length D+2 errs by at most gamma_{D+2}(2|q||r| + S) <= 2(D+2)uS in any
    # summation order (Higham, ch. 3), rounding the centered rows to the
    # dtype moves 2q.r by 2uS, the rounded norms add (D+1)uS and centering
    # in float64 adds 4vS.  Rounding a limit to the dtype costs 2uS more,
    # so err = 4(D+4)u(|q|^2 + max|r|^2) per query, and its mirror per row,
    # covers both with room for second-order terms.  The scan's square errs
    # by a relative (D+2)v and its sqrt merges squares 4v apart, so a row
    # the scan ranks at or before another has an X at most 4(D+4)v(...)
    # above it; the slack, twice the float64 err, covers that and the
    # float64 rounding of the limits.  In float32, scale >= 2**-60 bounds
    # what underflow can lose by (3D+5)2**-90 scale, which the pad covers;
    # in float64 the added tiny covers products that underflow.
    #
    # Forward: the scan's nearest row estimates within 2 err + slack of the
    # best estimate, and its second nearest within as much of the second
    # best (of any two distinct rows, one is at least as far as the second
    # nearest).  Each query's candidates all come from its own block, so
    # one batch ranks them.
    #
    # Reverse: est + err over the queries seen bounds a row's nearest X
    # from above, and an entry whose est - err lies more than the slack
    # above that bound ranks after the query that set it.  So the reverse
    # candidates are the entries within err + slack of the bound.
    # * The bound only falls, so the final bound is at most every running
    #   bound: a block whose column minimum lies beyond the window under
    #   the running bound holds no candidate under the final one either,
    #   and recording under the running bound misses none.
    # * A block estimated again, in another summation order, obeys the
    #   same error bound, which holds in any order.
    # * Each estimate + err is at least the least X, and so is the final
    #   bound B = C + err, with C the row's least estimate over all
    #   blocks.  The scan's nearest query q has an X within the scan's
    #   rounding of the least X, which the slack covers, so every estimate
    #   of its entry, first or again, lies within B + err + slack
    #   (C + 2 err + slack): its block's minimum lies within the window
    #   under every bound, and so does the entry.
    # So the block is recorded and its entry for q is re-measured, and
    # records settled early under a running bound keep a superset.  The
    # best re-measured candidate is q: ties go to the lower query within a
    # batch, and across batches to the earlier one, which holds the lower
    # queries.
    low, high = _FLOAT32_SCALES
    pad = 2.0 ** -40 * scale
    if low <= scale <= high:
        found = _search(rows, queries, center, q_norm, r_norm, pad, np.float32)
        if found is not None:
            return found
    return _search(rows, queries, center, q_norm, r_norm, pad, np.float64)


def _search(rows, queries, center, q_norm, r_norm, pad, dtype):
    """``_nearest``'s output from estimates in ``dtype``, or None.

    Each block of queries is estimated against every row, its forward
    candidates are held and the rows its reverse pass needs recorded.  A
    float32 search stops and returns None at the first block, or deferred
    reverse pass, whose windows keep more than ``_CANDIDATES_PER_ROW``
    candidates per query row and target (or recorded) row; ``_nearest``
    then runs it again from the first block in float64, which has no
    budget.
    """
    n, m, dim = len(queries), len(rows), rows.shape[1]
    q_slack, r_slack = (2.0 * err for err in _errors(q_norm, r_norm, dim, np.float64, pad))
    q_err, r_err = _errors(q_norm, r_norm, dim, dtype, pad)
    q_aug, r_aug = _augmented(queries, rows, center, q_norm, r_norm, dtype)
    q_window, r_reach = (2.0 * q_err + q_slack).astype(dtype), r_err + r_slack
    per_row = _CANDIDATES_PER_ROW if dtype is np.float32 else np.inf
    step = max(1, _BLOCK_ENTRIES // m)
    r_upper = np.full(m, np.inf)
    # one buffer and one mask serve every block: fresh block-sized arrays
    # cost a page fault per 4 KB, which doubled the time of a 700 x 700
    # match
    buf = np.empty((min(step, n), m), dtype=dtype)
    mask = np.empty((min(step, n), m), dtype=bool)
    # per query, the nearest and second-nearest distance and the nearest
    # row; per row, the distance to its nearest query over the batches
    # settled, and that query
    d1, d2, i1 = np.full(n, np.inf), np.full(n, np.inf), np.full(n, m)
    j_dist, j1 = np.full(m, np.inf), np.full(m, n)

    def settle(qi, rj, fwd):
        """Re-measure candidates and take the least into the outputs.

        The forward ones hold all of each query's candidates, and the
        reverse ones come in query order over the batches.  Ties go to the
        lowest index: np.minimum.at over the indices of the entries at the
        least distance.
        """
        d = _distances(rows, queries, rj, qi)
        qi_f, rj_f, d_f = qi[fwd], rj[fwd], d[fwd]
        np.minimum.at(d1, qi_f, d_f)
        least = d_f == d1[qi_f]
        np.minimum.at(i1, qi_f[least], rj_f[least])
        rest = ~least | (rj_f != i1[qi_f])      # all but the nearest entry
        np.minimum.at(d2, qi_f[rest], d_f[rest])
        rev = ~fwd
        qi_r, rj_r, d_r = qi[rev], rj[rev], d[rev]
        before = j_dist[rj_r]
        np.minimum.at(j_dist, rj_r, d_r)
        # earlier batches hold lower query indices, so they keep exact ties
        won = (d_r == j_dist[rj_r]) & (d_r < before)
        j1[rj_r[won]] = n
        np.minimum.at(j1, rj_r[won], qi_r[won])

    # candidates are settled in batches of about a block's entries, which
    # bounds memory and spreads the per-call costs over several blocks
    pending, held = [], 0

    def hold(qi, rj, fwd):
        nonlocal pending, held
        pending.append((qi, rj, np.full(len(qi), fwd)))
        held += len(qi)
        if held >= _BLOCK_ENTRIES:
            flush()

    def flush():
        nonlocal pending, held
        if pending:
            batch = [np.concatenate(part) for part in zip(*pending)]
            pending, held = [], 0       # freed before the re-measure
            settle(*batch)

    # per block, the rows whose least estimate lay within their reverse
    # window, and those estimates
    records, recorded = [], 0

    def reverse():
        """Hold the recorded blocks' reverse candidates under the current
        bound; False if a block keeps more than the budget.

        Each block is estimated again at its recorded rows still within
        their window, in block order, into the block buffer.
        """
        for lo, hi, cols, least in records:
            live = cols[least <= (r_upper[cols] + r_reach[cols]).astype(dtype)]
            h, k = hi - lo, len(live)
            est = np.matmul(q_aug[lo:hi], r_aug[live].T,
                            out=buf.reshape(-1)[:h * k].reshape(h, k))
            keep = np.less_equal(est, (r_upper[live] + r_reach[live]).astype(dtype),
                                 out=mask.reshape(-1)[:h * k].reshape(h, k))
            flat = np.flatnonzero(keep)
            if len(flat) > per_row * (h + k):
                return False
            qi, j = np.divmod(flat, k)
            hold(qi + lo, live[j], False)
        records.clear()
        return True

    for lo in range(0, n, step):
        hi = min(lo + step, n)
        est = np.matmul(q_aug[lo:hi], r_aug.T, out=buf[:hi - lo])
        found = _candidates(est, q_window[lo:hi], r_err, r_reach, r_upper, mask,
                            per_row * (hi - lo + m))
        if found is None:
            return None
        qi, rj, cols, least = found
        hold(qi + lo, rj, True)
        records.append((lo, hi, cols, least))
        recorded += len(cols)
        # records past a block's entries are settled under the running
        # bound, which keeps a superset of the candidates
        if recorded > _BLOCK_ENTRIES:
            if not reverse():
                return None
            recorded = 0
    if not reverse():
        return None
    flush()
    return d1, i1, d2, j1


def match_features(src_desc: NDArray[np.float64], dst_desc: NDArray[np.float64]) -> Correspondences:
    """Match every source descriptor row to its nearest target row.

    Parameters
    ----------
    src_desc, dst_desc:
        Arrays of shape (N, D) and (M, D).  Both need at least two rows;
        the ratio is undefined without a second neighbor.

    Returns
    -------
    Correspondences in source-row order, one entry per source row.

    Raises
    ------
    ValueError
        On malformed or non-finite input, and on values so large that
        squared descriptor distances overflow float64.
    """
    src_desc = np.ascontiguousarray(src_desc, dtype=np.float64)
    dst_desc = np.ascontiguousarray(dst_desc, dtype=np.float64)
    if src_desc.ndim != 2 or dst_desc.ndim != 2:
        raise ValueError("descriptor arrays must be 2-D")
    if src_desc.shape[1] != dst_desc.shape[1]:
        raise ValueError(
            f"descriptor dims differ: {src_desc.shape[1]} vs {dst_desc.shape[1]}")
    if len(src_desc) < 2 or len(dst_desc) < 2:
        raise ValueError("need at least two descriptors on each side")
    if not (np.isfinite(src_desc).all() and np.isfinite(dst_desc).all()):
        raise ValueError("descriptors must be finite")

    d1, nearest_dst, d2, nearest_src = _nearest(dst_desc, src_desc)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = d2 / d1
    ratio[(d1 == 0.0) & (d2 == 0.0)] = 1.0   # identical rows: no preference signal

    is_mnn = nearest_src[nearest_dst] == np.arange(len(src_desc))

    return Correspondences(
        src=np.arange(len(src_desc), dtype=np.int64),
        dst=nearest_dst.astype(np.int64),
        feat_dist=d1,
        ratio=ratio,
        is_mnn=is_mnn,
    )


def mnn_filter(corrs: Correspondences) -> Correspondences:
    """Keep only mutual-nearest-neighbor pairs, preserving order."""
    return corrs.take(np.nonzero(corrs.is_mnn)[0])
