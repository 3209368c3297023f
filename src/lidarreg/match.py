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

The search is an exact brute force done as blocked matrix products.  Both
sets are shifted by one common vector, and each block of query rows gets
an estimate of every squared distance (up to a per-query constant) from
one GEMM.  Entries within a proven rounding-error window of a query's best
estimate (second-best when the ratio needs it) are re-measured with the
arithmetic of a plain scan, ``sqrt(sum((r - q)**2))``, and ranked by
(distance, row index).  The window always holds the scan's nearest and
second-nearest rows, so the output equals the scan's bit for bit; the
bound is derived in ``_nearest``.  Working memory is bounded by the block
size, not by N x M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray


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


def feature_distance(p_row: NDArray[np.float64], q_row: NDArray[np.float64]) -> float:
    """L2 distance between two descriptor rows."""
    p = np.asarray(p_row, dtype=np.float64)
    q = np.asarray(q_row, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError(f"descriptor shapes differ: {p.shape} vs {q.shape}")
    return float(np.sqrt(np.sum((p - q) ** 2)))


# Query rows per block are sized so one block's estimate matrix holds about
# this many float64 entries (2 MB; the passes over it run faster than over
# 8 MB blocks); the selection mask and the candidate re-measure of a block
# scale with it.
_BLOCK_ENTRIES = 1 << 18
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2.0


def _nearest(rows: NDArray[np.float64], queries: NDArray[np.float64], second: bool):
    """(d1, i1, d2) per query, ties resolved toward the lowest row index.

    d1 and i1 are the nearest row's distance and index; d2 is the
    second-smallest distance (it may equal d1), or None unless ``second``.
    Distances are computed as ``sqrt(sum((r - q)**2))``, the arithmetic of
    a brute-force scan, so the output equals that scan's bit for bit.
    """
    n, m, dim = len(queries), len(rows), rows.shape[1]
    center = (rows.mean(axis=0) + queries.mean(axis=0)) / 2.0
    r = rows - center
    q = queries - center
    # [-2q, 1] . [r, |r|^2] = |r|^2 - 2 q.r = |r - q|^2 - |q|^2, one GEMM per
    # block; |q|^2 is constant along a query row, so it is left out.
    r_aug = np.empty((m, dim + 1))
    r_aug[:, :dim] = r
    r_aug[:, dim] = np.einsum("ij,ij->i", r, r)
    q_aug = np.empty((n, dim + 1))
    q_aug[:, :dim] = -2.0 * q
    q_aug[:, dim] = 1.0
    # Candidate window.  Let u be the unit roundoff and, all centered,
    # err = (D+3)u(|q|^2 + 3 max|r|^2).  Each estimate is within err of the
    # exact |r - q|^2 - |q|^2: the GEMM's dot product of length D+1 errs by
    # at most gamma_{D+1}(2|q||r| + |r|^2) <= (D+1)u(|q|^2 + 2|r|^2) in any
    # summation order, the rounded |r|^2 adds Du|r|^2, and rounding the
    # centered rows adds 2u(|q|^2 + 2|r|^2).  A re-measured square differs
    # from the exact one by a relative (D+4)u, so a row the scan ranks at
    # or before another has an exact square at most 4(D+4)u(|q|^2 + |r|^2)
    # above it.  The scan's nearest row therefore estimates within
    # 2 err + 4(D+4)u(...) <= 10(D+3)u(|q|^2 + 3 max|r|^2) of the best
    # estimate, and its second nearest within as much of the second-best
    # estimate (of any two distinct rows, one is at least as far as the
    # second nearest).  The window is 16(D+3)u(...), which also covers the
    # second-order terms and its own rounding; the added tiny covers
    # products that underflow.
    q_norm = np.einsum("ij,ij->i", q, q)
    r_max = r_aug[:, dim].max()
    # Every squared distance, centered or as the scan computes it, is at
    # most 2(|q|^2 + |r|^2) up to rounding, and the window and estimates
    # are smaller still.  Past float64's range they overflow, the window
    # argument fails and the scan's own distances turn infinite.
    if not np.isfinite(4.0 * (q_norm.max() + r_max)):
        raise ValueError("descriptor values too large: squared distances "
                         "overflow float64")
    window = (16.0 * (dim + 3) * _UNIT_ROUNDOFF * (q_norm + 3.0 * r_max)
              + np.finfo(np.float64).tiny)

    d1 = np.empty(n)
    i1 = np.empty(n, dtype=np.int64)
    d2 = np.empty(n) if second else None
    step = max(1, _BLOCK_ENTRIES // m)
    # one estimate and one mask buffer serve every block: fresh block-sized
    # arrays cost a page fault per 4 KB, which doubled the time of a
    # 700 x 700 match
    est_buf = np.empty((min(step, n), m))
    keep_buf = np.empty(est_buf.shape, dtype=bool)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        est = np.matmul(q_aug[lo:hi], r_aug.T, out=est_buf[:hi - lo])
        if second:
            # the second-best estimate is the row minimum with the best hidden
            at = (np.arange(hi - lo), est.argmin(axis=1))
            best = est[at]
            est[at] = np.inf
            ref = est.min(axis=1)
            est[at] = best
        else:
            ref = est.min(axis=1)
        # flat indices and divmod: 2-D np.nonzero is several times slower here
        keep = np.less_equal(est, (ref + window[lo:hi])[:, None], out=keep_buf[:hi - lo])
        qi, rj = np.divmod(np.flatnonzero(keep), m)
        qi += lo
        d = np.sqrt(np.sum((rows[rj] - queries[qi]) ** 2, axis=1))
        order = np.lexsort((rj, d, qi))
        # every query keeps at least one candidate (two with ``second``);
        # its sorted candidates start after those of the queries before it
        counts = np.bincount(qi - lo, minlength=hi - lo)
        first = np.cumsum(counts) - counts
        d1[lo:hi] = d[order[first]]
        i1[lo:hi] = rj[order[first]]
        if second:
            d2[lo:hi] = d[order[first + 1]]
    return d1, i1, d2


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

    d1, nearest_dst, d2 = _nearest(dst_desc, src_desc, second=True)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = d2 / d1
    ratio[(d1 == 0.0) & (d2 == 0.0)] = 1.0   # identical rows: no preference signal

    _, nearest_src, _ = _nearest(src_desc, dst_desc, second=False)
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
