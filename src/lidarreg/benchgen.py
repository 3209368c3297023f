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
measure; this is a documented convention, not an enforced check.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .geom import F64, Points, RigidMotion, SpatialIndex, _pad, apply, compose, inverse, to_euler
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
    computes the same measure through the same routine, ``_overlaps``.
    """
    src = np.asarray(src, dtype=np.float64)
    tgt = np.asarray(tgt, dtype=np.float64)
    if len(src) == 0 or len(tgt) == 0:
        raise ValueError("overlap needs two nonempty clouds")
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    return float(_overlaps([apply(gt, src)], tgt, tau, min_overlap=0.0)[0])


# ---------------------------------------------------------------------------
# candidate pool
# ---------------------------------------------------------------------------

def _sphere(points: Points) -> tuple[NDArray[F64], float]:
    # centroid and enclosing radius of a cloud
    center = points.mean(axis=0)
    radius = float(np.sqrt(np.max(np.sum((points - center) ** 2, axis=1))))
    return center, radius


def _near_sources(centers: NDArray[F64], radii: NDArray[F64],
                  sources: NDArray[np.int64], ti: int, tau: float) -> NDArray[np.int64]:
    # the sources whose world-frame bounding sphere comes within tau of
    # target ti's: clouds whose spheres clear tau apart cannot overlap at
    # all.  The pad keeps a pair that rounding puts just past the limit;
    # _overlaps then decides every kept pair exactly.
    limit = _pad(radii[sources] + radii[ti] + tau)
    dist = np.sqrt(np.sum((centers[sources] - centers[ti]) ** 2, axis=1))
    return sources[(dist <= limit) & (sources != ti)]


def _overlaps(srcs: list[Points], tgt: Points, tau: float, min_overlap: float) -> NDArray[F64]:
    """Overlap of every source cloud, already mapped into the target
    frame, with the target cloud, from one within-tau query.

    A source whose share of points inside the target cloud's sphere,
    widened by tau, is at most min_overlap gets 0.0 without a query: its
    overlap cannot exceed that share, so it could never qualify.  At
    min_overlap 0 only a source with no point inside that sphere is
    skipped, and its overlap is exactly 0.
    """
    center, radius = _sphere(tgt)
    reach = _pad(radius + tau)
    out = np.zeros(len(srcs))
    kept, parts = [], []
    for j, src in enumerate(srcs):
        pts = src[np.sum((src - center) ** 2, axis=1) <= reach * reach]
        if len(pts) / len(src) > min_overlap:
            kept.append(j)
            parts.append(pts)
    if not kept:
        return out
    hits = SpatialIndex(tgt).within(np.concatenate(parts), tau)
    owner = np.repeat(np.arange(len(kept)), [len(p) for p in parts])
    counts = np.bincount(owner[hits], minlength=len(kept))
    # the same float as np.mean over the source's hit vector
    out[kept] = counts / np.array([len(srcs[j]) for j in kept])
    return out


def build_candidate_pool(sequences, cfg: SelectorConfig) -> list[CandidatePair]:
    """One candidate per source frame: every k-th frame of each sequence
    becomes a source, and a target is drawn uniformly at random among the
    frames of the same sequence whose overlap with it exceeds min_overlap.
    Sources with no qualifying target are skipped.

    Overlaps are computed one target at a time, batching every source
    whose bounding sphere can reach it into a single within-tau query.
    """
    rng = np.random.default_rng([cfg.seed, 0])
    pool: list[CandidatePair] = []
    for frames in sequences:
        frames = list(frames)
        times = [f.timestamp for f in frames]
        if any(b < a for a, b in zip(times, times[1:])):
            raise ValueError("timestamps must be nondecreasing within a sequence")
        if len(frames) < 2:
            continue
        bounds = [_sphere(apply(f.pose, f.cloud)) for f in frames]
        centers = np.stack([c for c, _ in bounds])
        radii = np.array([r for _, r in bounds])
        sources = np.arange(0, len(frames), cfg.k)
        # per source, its qualifying targets in frame order
        qualifying: list[list[tuple[PosedFrame, float]]] = [[] for _ in sources]
        for ti, tgt in enumerate(frames):
            near = _near_sources(centers, radii, sources, ti, cfg.overlap_tau)
            mapped = [apply(alignment_motion(frames[si].pose, tgt.pose), frames[si].cloud)
                      for si in near]
            ovs = _overlaps(mapped, tgt.cloud, cfg.overlap_tau, cfg.min_overlap)
            for si, ov in zip(near, ovs):
                if ov > cfg.min_overlap:
                    qualifying[si // cfg.k].append((tgt, float(ov)))
        for src, cands in zip(frames[::cfg.k], qualifying):
            if not cands:
                continue
            tgt, ov = cands[int(rng.integers(len(cands)))]
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
    coords, _ = normalize_motions(pool)
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
        d2 = np.sum((coords - u) ** 2, axis=1)
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

    exhausted = len(records) < cfg.target_count
    if exhausted:
        warnings.warn(
            f"selection stopped at {len(records)}/{cfg.target_count} pairs "
            f"after {attempts} attempts", RuntimeWarning, stacklevel=2)
    draw_arr = np.stack(draws) if draws else np.zeros((0, 6), dtype=np.float64)
    return SelectionResult(records=tuple(records), draws=draw_arr,
                           attempts=attempts, exhausted=exhausted)
