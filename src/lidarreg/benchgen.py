"""Balanced registration-pair selection from posed point-cloud sequences.

Building a registration set from driving sequences in the obvious way
(adjacent frames) produces almost exclusively small, forward motions.  The
selector here counteracts that: candidate pairs are pooled from each
sequence, their relative motions are normalized into the unit 6-cube
(x, y, z offsets and roll, pitch, yaw), and pairs are then accepted by
rejection-sampling uniform locations in that cube.  The accepted set is
close to uniform over whatever motion range the pool actually covers.
A candidate holds only its two frames and their overlap; its motion and
time gap are derived from the frames when they are needed.

Overlap between two frames is the fraction of source points whose nearest
neighbor in the target cloud, after applying the ground-truth alignment,
lies within ``overlap_tau`` meters.  Clouds are expected to be voxel
downsampled (0.3 m) beforehand so that point density does not skew the
measure; this is a documented convention, not an enforced check.  The
pool only needs to know which pairs exceed ``min_overlap``, so it settles
that test from as few points as decide it, and measures the full overlap
only for the pairs it draws.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .geom import (F64, Points, RigidMotion, SpatialIndex, _pad, _squared_norms, apply, compose,
                   inverse, to_euler)
from .metrics import PairRecord

__all__ = [
    "PosedFrame",
    "CandidatePair",
    "SelectorConfig",
    "SelectionResult",
    "alignment_motion",
    "motion_descriptor",
    "overlap",
    "build_candidate_pool",
    "normalize_motions",
    "select_balanced",
]

# select_balanced gives up after this many draws per requested pair
_ATTEMPT_FACTOR = 1000


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PosedFrame:
    """One cloud of a sequence with its sensor-to-world pose."""

    sequence_id: str
    frame_index: int
    timestamp: float
    pose: RigidMotion
    cloud: Points


@dataclass(frozen=True)
class CandidatePair:
    """Pool entry: a qualifying (source, target) frame pair and its overlap."""

    src: PosedFrame
    tgt: PosedFrame
    overlap: float


@dataclass(frozen=True)
class SelectorConfig:
    k: int = 10
    min_overlap: float = 0.2
    r: float = 0.1
    target_count: int = 1000
    overlap_tau: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("k", "target_count"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not 0.0 < self.min_overlap < 1.0:
            raise ValueError("min_overlap must lie strictly between 0 and 1")
        if not 0.0 < self.r <= 1.0:
            raise ValueError("r must lie in (0, 1]")
        if self.target_count < 1:
            raise ValueError("target_count must be at least 1")
        if not 0.0 < self.overlap_tau < np.inf:
            raise ValueError("overlap_tau must be positive and finite, "
                             f"got {self.overlap_tau}")


@dataclass(frozen=True)
class SelectionResult:
    """Selected pairs plus the uniform draws that accepted them.

    ``draws[i]`` is the location in the normalized cube whose neighborhood
    produced ``records[i]``; every record's normalized motion lies within
    the selector radius of its draw.  ``exhausted`` is set when the attempt
    budget ran out before ``target_count`` pairs were found.
    """

    records: tuple[PairRecord, ...]
    draws: NDArray[F64]
    attempts: int
    exhausted: bool


# ---------------------------------------------------------------------------
# pair geometry
# ---------------------------------------------------------------------------

def alignment_motion(pose_src: RigidMotion, pose_tgt: RigidMotion) -> RigidMotion:
    """Motion mapping source-frame coordinates into the target frame."""
    return compose(inverse(pose_tgt), pose_src)


def motion_descriptor(pose_src: RigidMotion, pose_tgt: RigidMotion) -> NDArray[F64]:
    """How the sensor moved from source to target, as the (6,) array
    ``[dx, dy, dz, roll, pitch, yaw]``: offsets in meters, angles in degrees."""
    rel = compose(inverse(pose_src), pose_tgt)
    e = to_euler(rel.rotation)
    return np.array([*rel.translation, e.roll, e.pitch, e.yaw], dtype=np.float64)


def overlap(src: Points, tgt: Points, gt: RigidMotion, tau: float) -> float:
    """Fraction of source points with a target neighbor within tau after gt.

    Asymmetric by construction (source side only).  The candidate pool
    reports each drawn pair's overlap through this function.
    """
    src = np.asarray(src, dtype=np.float64)
    tgt = np.asarray(tgt, dtype=np.float64)
    if len(src) == 0 or len(tgt) == 0:
        raise ValueError("overlap needs two nonempty clouds")
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    src = apply(gt, src)
    (pts,) = _inside([src], tgt, tau)
    hits = int(np.count_nonzero(SpatialIndex(tgt).within(pts, tau))) if len(pts) else 0
    return hits / len(src)


# ---------------------------------------------------------------------------
# candidate pool
# ---------------------------------------------------------------------------

def _sphere(points: Points) -> tuple[NDArray[F64], float]:
    # centroid and enclosing radius of a cloud
    center = points.mean(axis=0)
    radius = float(np.sqrt(np.max(_squared_norms(points - center))))
    return center, radius


def _near_sources(centers: NDArray[F64], radii: NDArray[F64],
                  sources: NDArray[np.int64], ti: int, tau: float) -> NDArray[np.int64]:
    # the sources whose world-frame bounding sphere comes within tau of
    # target ti's: clouds whose spheres clear tau apart cannot overlap at
    # all.  The pad keeps a pair that rounding puts just past the limit;
    # _qualifies then decides every kept pair exactly.
    limit = _pad(radii[sources] + radii[ti] + tau)
    dist = np.sqrt(_squared_norms(centers[sources] - centers[ti]))
    return sources[(dist <= limit) & (sources != ti)]


def _inside(srcs: list[Points], tgt: Points, tau: float) -> list[Points]:
    # the points of each source, already mapped into the target frame, that
    # lie inside the target cloud's sphere widened by tau: no other point
    # has a target neighbor within tau
    center, radius = _sphere(tgt)
    reach = _pad(radius + tau)
    return [src[_squared_norms(src - center) <= reach * reach] for src in srcs]


def _qualifies(srcs: list[Points], tgt: Points, tau: float,
               min_overlap: float) -> NDArray[np.bool_]:
    """Whether the overlap of each source cloud, already mapped into the
    target frame, with the target cloud exceeds min_overlap.

    Each source's points inside the target's widened sphere are queried in
    pieces, all open sources' pieces in one within-tau query, until the
    hits so far settle the test: ``hits / n > min_overlap`` passes it, and
    ``(hits + unqueried) / n <= min_overlap`` fails it, with n the source's
    size.  The full count lies between the two, so the answer is the one
    the full count gives.  A source's first piece holds the fewest points
    that could settle its test; later pieces scale what is still needed by
    the hit and miss rates seen so far.
    """
    parts = _inside(srcs, tgt, tau)
    sizes = [len(src) for src in srcs]
    hits = [0] * len(srcs)
    done = [0] * len(srcs)
    out = np.zeros(len(srcs), dtype=bool)
    # a source with too few points inside the sphere is settled unqueried
    open_ = [j for j, pts in enumerate(parts) if len(pts) / sizes[j] > min_overlap]
    index = SpatialIndex(tgt) if open_ else None
    while open_:
        pieces = []
        for j in open_:
            # the hits, or misses, that would settle the test, rounded to
            # whole points; the float tests below decide, this only sizes
            bar = int(min_overlap * sizes[j])
            need_hits = bar + 1 - hits[j]
            need_misses = hits[j] + len(parts[j]) - done[j] - bar
            if done[j]:
                misses = done[j] - hits[j]
                need_hits = need_hits * done[j] / hits[j] if hits[j] else math.inf
                need_misses = need_misses * done[j] / misses if misses else math.inf
            step = max(math.ceil(min(need_hits, need_misses)), 1)
            pieces.append(parts[j][done[j]:done[j] + step])
        found = index.within(np.concatenate(pieces), tau)
        starts = np.cumsum([0] + [len(p) for p in pieces[:-1]])
        counts = np.add.reduceat(found.astype(np.int64), starts).tolist()
        still = []
        for j, piece, count in zip(open_, pieces, counts):
            hits[j] += count
            done[j] += len(piece)
            if hits[j] / sizes[j] > min_overlap:
                out[j] = True
            elif (hits[j] + len(parts[j]) - done[j]) / sizes[j] > min_overlap:
                still.append(j)
        open_ = still
    return out


def build_candidate_pool(sequences, cfg: SelectorConfig) -> list[CandidatePair]:
    """One candidate per source frame: every k-th frame of each sequence
    becomes a source, and a target is drawn uniformly at random among the
    frames of the same sequence whose overlap with it exceeds min_overlap.
    Sources with no qualifying target are skipped, and a frame with an
    empty cloud is refused with a ``ValueError`` naming it.

    Targets qualify one at a time, every source whose bounding sphere can
    reach the target tested together, each from only as many of its points
    as settle the test.  The draw reads only how many targets qualify and
    their frame order, so the exact overlap is computed, by ``overlap``,
    for the drawn target alone.
    """
    rng = np.random.default_rng([cfg.seed, 0])
    pool: list[CandidatePair] = []
    for frames in sequences:
        frames = list(frames)
        times = [f.timestamp for f in frames]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("timestamps must be nondecreasing within a sequence")
        for f in frames:
            if len(f.cloud) == 0:
                raise ValueError(f"sequence {f.sequence_id} frame {f.frame_index} "
                                 "has an empty cloud")
        if len(frames) < 2:
            continue
        bounds = [_sphere(apply(f.pose, f.cloud)) for f in frames]
        centers = np.stack([c for c, _ in bounds])
        radii = np.array([r for _, r in bounds])
        sources = np.arange(0, len(frames), cfg.k)
        # per source, its qualifying targets in frame order
        qualifying: list[list[PosedFrame]] = [[] for _ in sources]
        for ti, tgt in enumerate(frames):
            near = _near_sources(centers, radii, sources, ti, cfg.overlap_tau)
            mapped = [apply(alignment_motion(frames[si].pose, tgt.pose), frames[si].cloud)
                      for si in near]
            for si in near[_qualifies(mapped, tgt.cloud, cfg.overlap_tau, cfg.min_overlap)]:
                qualifying[si // cfg.k].append(tgt)
        for src, cands in zip(frames[::cfg.k], qualifying):
            if not cands:
                continue
            tgt = cands[int(rng.integers(len(cands)))]
            ov = overlap(src.cloud, tgt.cloud, alignment_motion(src.pose, tgt.pose),
                         cfg.overlap_tau)
            pool.append(CandidatePair(src=src, tgt=tgt, overlap=ov))
    return pool


def normalize_motions(pool) -> tuple[NDArray[F64], NDArray[F64]]:
    """Map pool motions into [0,1]^6 per axis; constant axes map to 0.5.

    Returns (coords, bounds) where bounds[axis] = (min, max) permits the
    inverse map on non-degenerate axes.
    """
    if len(pool) == 0:
        raise ValueError("cannot normalize an empty pool")
    raw = np.stack([motion_descriptor(c.src.pose, c.tgt.pose) for c in pool])
    lo = raw.min(axis=0)
    hi = raw.max(axis=0)
    span = hi - lo
    safe = np.where(span > 0.0, span, 1.0)
    coords = np.where(span > 0.0, (raw - lo) / safe, 0.5)
    return coords, np.stack([lo, hi], axis=1)


# ---------------------------------------------------------------------------
# balanced selection
# ---------------------------------------------------------------------------

def _record_of(cand: CandidatePair) -> PairRecord:
    return PairRecord(sequence_id=cand.src.sequence_id,
                      src=cand.src.frame_index,
                      tgt=cand.tgt.frame_index,
                      motion=alignment_motion(cand.src.pose, cand.tgt.pose),
                      overlap=cand.overlap,
                      dt=abs(cand.tgt.timestamp - cand.src.timestamp))


def select_balanced(pool, cfg: SelectorConfig) -> SelectionResult:
    """Rejection-sample motions uniformly over the normalized cube.

    Each attempt draws a uniform location; if no unselected candidate lies
    within radius r of it the draw is discarded, otherwise one candidate
    within r is selected and removed from the pool.  Among the in-radius
    candidates the pick goes to a sequence with the fewest selections so
    far (sequence ties broken uniformly at random, then uniformly among
    that sequence's candidates), so no single sequence dominates the set.
    """
    pool = [c for c in pool if c.overlap > cfg.min_overlap]
    if len(pool) == 0:
        raise ValueError("candidate pool is empty")
    # column-major, so each attempt's scan reads every axis contiguously
    coords = np.asfortranarray(normalize_motions(pool)[0])
    rng = np.random.default_rng([cfg.seed, 1])
    remaining = np.ones(len(pool), dtype=bool)
    # sequences as codes in sorted-id order, with their selection counts
    seqs, seq_of = np.unique([c.src.sequence_id for c in pool], return_inverse=True)
    counts = np.zeros(len(seqs), dtype=np.int64)

    records: list[PairRecord] = []
    draws: list[NDArray[F64]] = []
    budget = _ATTEMPT_FACTOR * cfg.target_count
    attempts = 0
    while len(records) < cfg.target_count and attempts < budget and remaining.any():
        attempts += 1
        u = rng.random(6)
        d2 = _squared_norms(coords - u)
        near = np.flatnonzero(remaining & (d2 <= cfg.r * cfg.r))
        if near.size == 0:
            continue
        near_counts = counts[seq_of[near]]
        tied = near[near_counts == near_counts.min()]
        tied_seqs = np.unique(seq_of[tied])
        seq = tied_seqs[int(rng.integers(tied_seqs.size))]
        members = tied[seq_of[tied] == seq]
        pick = int(members[int(rng.integers(members.size))])
        remaining[pick] = False
        counts[seq_of[pick]] += 1
        records.append(_record_of(pool[pick]))
        draws.append(u)

    draw_arr = np.stack(draws) if draws else np.zeros((0, 6), dtype=np.float64)
    return SelectionResult(records=tuple(records), draws=draw_arr,
                           attempts=attempts,
                           exhausted=len(records) < cfg.target_count)
