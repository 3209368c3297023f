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

The search is an exact brute force in two steps.  Both sets are shifted
by one common vector, and blocks of source rows get an estimate of every
squared distance, |q|^2 + |r|^2 - 2 q.r, from one GEMM.  The forward step
takes each source row's best and second-best estimate by argmin, and the
entries within a proven rounding-error window of the second best: those
two, and the rare further ones.  They are re-measured with the arithmetic
of a plain scan, ``sqrt(sum((r - q)**2))``, and ranked by (distance, row
index).

The mutual step decides the nearest source row of each target row that
some source row holds as nearest.  The row's claim is the least nearest
distance D among those source rows, held by the lowest of them.  Any
other source row lies at least its second-nearest distance from the row,
so only source rows with that distance at most D can take the row from
its claim; on well-separated descriptors there are none.  Their entries
are estimated, those within a window of the lesser of D^2 and the row's
least estimate are re-measured, and all are ranked with the claim by
(distance, source row index).  The windows always hold the scan's
answer, so the output equals the scan's bit for bit; they are derived in
``_nearest``.

Estimates are float64, whose windows are 2**29 times narrower, where the
centered values would overflow or underflow float32.  A float32 forward
block that keeps more than four candidates per query row and target row
reruns the whole search in float64; a float32 mutual tile over that
budget reruns only the mutual step, as the forward result is exact in
either dtype.  Candidates are re-measured in batches of about a block's
entries and the mutual step's tiles fit the block's buffer, so working
memory is bounded by the block size and the row counts, not by N x M.
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
# than over smaller or larger blocks); the mutual step's tiles share the
# block's buffer and the selection mask scales with it.
_BLOCK_ENTRIES = 1 << 18
# Candidates are re-measured in pieces of about this many entries,
# gathered, subtracted and squared in place in one buffer per call (512 KB
# per operand).  Fresh temporaries per piece cost more: 40 trajectory
# pairs matched in 5.7% more time with fresh 32 KB pieces (2-vCPU host,
# one BLAS thread), and fresh 256 KB pieces once made glibc return the
# heap top and fault it back in on every call.  Full 1k- and 5k-point
# pairs through register_pair take no minor fault with the buffer.
_PIECE_ENTRIES = 1 << 16
# The float32 budget (see the module docstring).  Blocks keep about two
# candidates per query row, and tiles about one per target row.  At the
# budget, re-measuring costs about as much as a float64 block (2.5 against
# 1.5 ms at 5k x 5k rows).  One far target row widens every float32
# forward window, and one far query row every mutual one: without a
# budget, a 5k x 5k 16-D search with one far target row took 4.0-4.4 s.
_CANDIDATES_PER_ROW = 4
# Float32 estimates are used while the largest squared centered norms,
# summed over both sets, lie in this range; outside it they could overflow,
# or underflow by more than the windows cover, so the search runs in float64.
_FLOAT32_SCALES = (2.0 ** -60, 2.0 ** 100)


def _augmented(queries, rows, center, q_norm, r_norm, dtype):
    """Centered query rows and target columns, in ``dtype``, whose products
    are the squared distances.

    [-2q, |q|^2, 1] . [r, 1, |r|^2] = |q|^2 + |r|^2 - 2 q.r = |r - q|^2.
    The targets are the columns of one contiguous (D + 2, M) array, the
    layout the block products read fastest.
    """
    n, m, dim = len(queries), len(rows), rows.shape[1]
    q_aug = np.empty((n, dim + 2), dtype=dtype)
    np.subtract(queries, center, out=q_aug[:, :dim], casting="same_kind")
    q_aug[:, :dim] *= -2.0
    q_aug[:, dim] = q_norm
    q_aug[:, dim + 1] = 1.0
    r_aug = np.empty((dim + 2, m), dtype=dtype)
    np.subtract(rows.T, center[:, None], out=r_aug[:dim], casting="same_kind")
    r_aug[dim] = 1.0
    r_aug[dim + 1] = r_norm
    return q_aug, r_aug


def _errors(q_norm, r_norm, dim, dtype, pad):
    """Bounds on |estimate - squared distance| per query and per row (see ``_nearest``)."""
    k = 4.0 * (dim + 4) * np.finfo(dtype).eps / 2.0
    tiny = np.finfo(dtype).tiny
    return k * (q_norm + r_norm.max() + pad) + tiny, k * (q_norm.max() + r_norm + pad) + tiny


def _candidates(est, q_window, mask, budget):
    """One block's forward candidates, or None if there are more than ``budget``.

    Query indices are local to the block.  Candidates lie within
    ``q_window`` of their query's second-best estimate: the best and the
    second-best entry, found by argmin, and the entries of the rare
    queries whose third-best estimate lies in the window too.  Returns
    (query, row) of the candidates.  Each query's two best entries of
    ``est`` are left at inf.
    """
    at = np.arange(len(est))
    first = est.argmin(axis=1)
    est[at, first] = np.inf
    second = est.argmin(axis=1)
    q_limit = est[at, second] + q_window
    est[at, second] = np.inf
    # the third best by argmin: as fast as min along rows of 5000 entries,
    # and twice as fast along rows of 700 (35 against 69 us per block)
    more = np.flatnonzero(est[at, est.argmin(axis=1)] <= q_limit)
    # flat indices and divmod: 2-D np.nonzero is several times slower here
    flat = np.flatnonzero(np.less_equal(est[more], q_limit[more, None],
                                        out=mask[:len(more)]))
    if 2 * len(est) + len(flat) > budget:
        return None
    qi, rj = np.divmod(flat, est.shape[1])
    return np.concatenate((at, at, more[qi])), np.concatenate((first, second, rj))


def _contenders(est, bound, window, mask, budget):
    """(row, query) of the entries of one mutual tile, target rows by
    queries, that lie within ``window`` of the lesser of their row's
    ``bound`` and least estimate, or None if there are more than
    ``budget``.  Like ``_candidates``, only the rare rows whose
    second-least estimate lies in the window are compared whole; each
    row's least entry of ``est`` is left at inf.
    """
    at = np.arange(len(est))
    first = est.argmin(axis=1)
    least = est[at, first]
    limit = (np.minimum(bound, least) + window).astype(est.dtype)
    est[at, first] = np.inf
    more = np.flatnonzero(est[at, est.argmin(axis=1)] <= limit)
    flat = np.flatnonzero(np.less_equal(est[more], limit[more, None],
                                        out=mask[:len(more)]))
    hit = np.flatnonzero(least <= limit)
    if len(hit) + len(flat) > budget:
        return None
    rj, qi = np.divmod(flat, est.shape[1])
    return np.concatenate((hit, more[rj])), np.concatenate((first[hit], qi))


def _distances(rows, queries, rj, qi):
    """The scan's ``sqrt(sum((r - q)**2))`` for each pair (rows[rj], queries[qi])."""
    d = np.empty(len(rj))
    step = max(1, _PIECE_ENTRIES // rows.shape[1])
    diff, other = np.empty((2, min(step, len(rj)), rows.shape[1]))
    for lo in range(0, len(rj), step):
        hi = min(lo + step, len(rj))
        a, b = diff[:hi - lo], other[:hi - lo]
        # "clip" takes without buffering; every index is in range
        np.take(rows, rj[lo:hi], axis=0, out=a, mode="clip")
        np.take(queries, qi[lo:hi], axis=0, out=b, mode="clip")
        np.subtract(a, b, out=a)
        np.square(a, out=a)
        # the sum over each contiguous row, as the scan's
        np.sum(a, axis=1, out=d[lo:hi])
    return np.sqrt(d, out=d)


def _nearest(rows: NDArray[np.float64], queries: NDArray[np.float64]):
    """(d1, i1, d2, j1): nearest neighbors in both directions.

    Per query, d1 and i1 are the nearest row's distance and index and d2
    the second-smallest distance (it may equal d1).  Per row in i1's
    image, j1 is the index of its nearest query; it is n on the other
    rows.  Ties go to the lowest index.  Distances are computed as
    ``sqrt(sum((r - q)**2))``, the arithmetic of a brute-force scan, so the
    output equals that scan's bit for bit.
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
    # Mutual: the forward distances are the scan's.  Take a row r in i1's
    # image, its claim D, the least d1 of the queries holding r as
    # nearest, and c, the lowest query at D.  The other queries holding r
    # rank after c.  Any query q holding another row has r among its rows
    # other than the nearest, so the scan puts q at least d2[q] from r,
    # and q ranks at or before c only if d2[q] <= D; at an equal distance
    # the lower index wins.  So the scan's nearest query q* to r is c, or
    # one of the queries taken in d2 order up to D.  Say it is one of
    # those.
    # * q* ranks at or before every query, so its X is at most half the
    #   slack, 4(D+4)v(...), above any query's X, and its estimate lies
    #   within 2 err + slack of the row's least estimate over any set of
    #   queries: its tile, or a piece of the tile.
    # * The scan's distance of q* is at most D, so its X exceeds the
    #   float64 D^2 by at most a relative (D+5)v, 2(D+5)v(...) absolute,
    #   which the other half of the slack covers; its estimate lies within
    #   err + slack of D^2.
    # So q*'s estimate lies within 2 err + slack of the lesser of the two,
    # and err also covers rounding that limit to the dtype.  The kept
    # entries are re-measured and ranked with the claim by (distance,
    # query index), and the least is q*.  A row whose claim no query can
    # contend for keeps it without an estimate.
    low, high = _FLOAT32_SCALES
    pad = 2.0 ** -40 * scale

    def search(dtype):
        return _Search(rows, queries, center, q_norm, r_norm, pad, dtype)

    estimates = search(np.float32 if low <= scale <= high else np.float64)
    forward = estimates.forward()
    if forward is None:
        estimates = search(np.float64)
        forward = estimates.forward()
    j1 = estimates.mutual(*forward)
    if j1 is None:
        j1 = search(np.float64).mutual(*forward)
    return (*forward, j1)


class _Search:
    """Estimates in one dtype and the two steps of ``_nearest`` that read
    them; a step returns None when a float32 block or tile goes over the
    budget, and float64 has none."""

    def __init__(self, rows, queries, center, q_norm, r_norm, pad, dtype):
        n, m, dim = len(queries), len(rows), rows.shape[1]
        self.rows, self.queries = rows, queries
        q_slack, r_slack = (2.0 * err for err in _errors(q_norm, r_norm, dim, np.float64, pad))
        q_err, r_err = _errors(q_norm, r_norm, dim, dtype, pad)
        self.q_aug, self.r_aug = _augmented(queries, rows, center, q_norm, r_norm, dtype)
        self.q_window = (2.0 * q_err + q_slack).astype(dtype)
        self.r_window = 2.0 * r_err + r_slack
        self.per_row = _CANDIDATES_PER_ROW if dtype is np.float32 else np.inf
        self.step = max(1, _BLOCK_ENTRIES // m)
        # one buffer and one mask serve every block and tile: fresh
        # block-sized arrays cost a page fault per 4 KB, which doubled the
        # time of a 700 x 700 match
        self.buf = np.empty((min(self.step, n), m), dtype=dtype)
        self.mask = np.empty((min(self.step, n), m), dtype=bool)

    def forward(self):
        """(d1, i1, d2) per query, or None over the budget."""
        rows, queries = self.rows, self.queries
        n, m = len(queries), len(rows)
        d1, d2, i1 = np.full(n, np.inf), np.full(n, np.inf), np.full(n, m)
        # candidates are settled in batches of about a block's entries,
        # which bounds memory and spreads the per-call costs over several
        # blocks
        pending, held = [], 0

        def settle():
            """Re-measure the held candidates and take the least into the
            outputs; ties go to the lowest index, by np.minimum.at over the
            indices of the entries at the least distance."""
            qi, rj = (np.concatenate(part) for part in zip(*pending))
            pending.clear()
            d = _distances(rows, queries, rj, qi)
            np.minimum.at(d1, qi, d)
            least = d == d1[qi]
            np.minimum.at(i1, qi[least], rj[least])
            rest = ~least | (rj != i1[qi])      # all but the nearest entry
            np.minimum.at(d2, qi[rest], d[rest])

        for lo in range(0, n, self.step):
            hi = min(lo + self.step, n)
            est = np.matmul(self.q_aug[lo:hi], self.r_aug, out=self.buf[:hi - lo])
            found = _candidates(est, self.q_window[lo:hi], self.mask,
                                self.per_row * (hi - lo + m))
            if found is None:
                return None
            pending.append((found[0] + lo, found[1]))
            held += len(found[0])
            if held >= _BLOCK_ENTRIES:
                settle()
                held = 0
        if pending:
            settle()
        return d1, i1, d2

    def mutual(self, d1, i1, d2):
        """j1 per row (see ``_nearest``), or None over the budget."""
        rows, queries = self.rows, self.queries
        n, m = len(queries), len(rows)
        # each row's claim: its least d1, held by the lowest query at it;
        # contenders then lower the distance or the query
        j_dist, j1 = np.full(m, np.inf), np.full(m, n)
        np.minimum.at(j_dist, i1, d1)
        at = d1 == j_dist[i1]
        np.minimum.at(j1, i1[at], np.flatnonzero(at))
        # per claimed row, the number of queries in d2 order that may
        # contend for it; rows are taken in that order
        order = np.argsort(d2, kind="stable")
        claimed = np.flatnonzero(j1 < n)
        reach = np.searchsorted(d2[order], j_dist[claimed], "right")
        by = np.argsort(reach, kind="stable")
        claimed, reach = claimed[by], reach[by]
        lo = np.searchsorted(reach, 0, "right")     # rows before lo keep their claim
        # queries in d2 order as columns and rows as rows: each row's
        # entries are contiguous, where argmin runs fastest
        q_aug = np.ascontiguousarray(self.q_aug[order[:reach[-1]]].T)
        r_aug = self.r_aug.T
        buf, mask = self.buf.reshape(-1), self.mask.reshape(-1)
        size = len(buf)
        while lo < len(claimed):
            # the most rows whose tile, over the last row's queries, fits
            # the buffer; one row's queries may take several pieces
            w = min(len(reach) - lo, size // reach[lo])
            k = max(1, np.count_nonzero(reach[lo:lo + w] * np.arange(1, w + 1) <= size))
            cols, h = claimed[lo:lo + k], reach[lo + k - 1]
            r_cols, bound, window = r_aug[cols], j_dist[cols] ** 2, self.r_window[cols]
            piece = max(1, size // k)
            kept_q, kept_r = [], []
            for top in range(0, h, piece):
                t = min(piece, h - top)
                est = np.matmul(r_cols, q_aug[:, top:top + t], out=buf[:k * t].reshape(k, t))
                found = _contenders(est, bound, window, mask[:k * t].reshape(k, t),
                                    self.per_row * (t + k))
                if found is None:
                    return None
                kept_r.append(cols[found[0]])
                kept_q.append(order[top + found[1]])
            qi, rj = np.concatenate(kept_q), np.concatenate(kept_r)
            d = _distances(rows, queries, rj, qi)
            before = j_dist[rj]
            np.minimum.at(j_dist, rj, d)
            j1[rj[d < before]] = n
            at = d == j_dist[rj]
            np.minimum.at(j1, rj[at], qi[at])
            lo += k
        return j1


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
    if src_desc.shape[1] == 0:
        raise ValueError("descriptors need at least one column")
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
