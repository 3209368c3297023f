"""Synthetic registration problems with exactly known ground truth.

Two generators live here.  ``generate_scene`` plants a correspondence set
with a chosen inlier fraction: inlier targets are the true motion applied
to the source plus bounded Gaussian noise, outlier targets are resampled
box points forced at least ``OUTLIER_MIN_OFFSET`` away from where the true
motion would put them.  Because the noise norm is capped at three sigma,
a 3-sigma gate on residuals under the true motion recovers the planted
labels exactly, which is what makes the generator usable as an oracle.
Generation is O(n) in time and memory.  The planted pairs' ratio and
mutual flag need a full descriptor match, so ``Scene.corrs`` ranks them
on its first read, from the descriptors as they are at that moment, and
keeps the result.

``generate_trajectory`` builds a vehicle-like posed sequence over a shared
world point set, so the overlap between any two frames is decided by disk
geometry rather than by chance: frame clouds are exactly the world points
within sensor range, expressed in the sensor frame.  The drive's shape is
the spec's profile, one of ``PROFILES``: straight, a U-turn, standing
still, or a seeded random wander.  The world grid is jittered but keeps a
minimum point spacing above the overlap gate, so a point either is shared
between two frames or is nowhere near a match.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .benchgen import PosedFrame
from .geom import EulerAngles, F64, Mat3, Points, RigidMotion, apply, from_euler, inverse
from .match import Correspondences, match_features

__all__ = [
    "SceneSpec",
    "Scene",
    "TrajectorySpec",
    "generate_scene",
    "generate_trajectory",
    "frame_descriptors",
    "random_rotation",
    "random_motion",
]

NOISE_CAP_SIGMA = 3.0
OUTLIER_MIN_OFFSET = 2.0        # meters off where the true motion maps the source
POINT_SPACING = 2.0             # pitch of the trajectory world grid, meters
Z_JITTER = 2.0                  # vertical jitter of that grid, meters
FRAME_DT = 1.0                  # seconds between trajectory frames
DESCRIPTOR_NOISE_SIGMA = 0.05   # per-frame noise of frame_descriptors
MAX_YAW_STEP_DEG = 15.0         # the random profile's largest turn per frame
PROFILES = ("straight", "uturn", "stationary", "random")
_MAX_WORLD_POINTS = 2**24       # world grid cap; a 2,000-frame drive needs ~3.1e6


def random_rotation(rng: np.random.Generator) -> Mat3:
    """Rotation drawn uniformly over SO(3) via a normalized quaternion."""
    q = rng.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ], dtype=np.float64)


def random_motion(rng: np.random.Generator, translation_scale: float = 10.0) -> RigidMotion:
    return RigidMotion(rotation=random_rotation(rng),
                       translation=rng.uniform(-translation_scale,
                                               translation_scale, 3))


# ---------------------------------------------------------------------------
# single-scene generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SceneSpec:
    """Recipe for one planted registration problem.

    ``extent`` is the half-width of the cubic box the source points fill.
    ``quality_correlation`` controls how informative descriptor distances
    are about outlierness: 0 makes inlier and outlier descriptor pairs
    statistically identical, 1 gives inliers identical descriptor rows and
    therefore perfect separation by distance ratio.  ``true_motion`` of
    None means a fresh random motion per seed.
    """

    n_points: int = 1000
    extent: float = 50.0
    true_motion: RigidMotion | None = None
    inlier_fraction: float = 0.3
    noise_sigma: float = 0.05
    descriptor_dim: int = 16
    quality_correlation: float = 0.7
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_points", "descriptor_dim"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n_points < 3:
            raise ValueError("n_points must be at least 3")
        if not 0.0 < self.extent < math.inf:
            raise ValueError(f"extent must be positive and finite, got {self.extent}")
        if not 0.0 <= self.inlier_fraction <= 1.0:
            raise ValueError("inlier_fraction must lie in [0, 1]")
        if self.n_inliers < 3:
            raise ValueError("the spec must plant at least 3 inliers")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError("noise_sigma must be nonnegative and finite, "
                             f"got {self.noise_sigma}")
        if OUTLIER_MIN_OFFSET <= 2.0 * self.noise_sigma:
            raise ValueError("noise_sigma must be below half OUTLIER_MIN_OFFSET")
        if OUTLIER_MIN_OFFSET >= math.sqrt(3.0) * self.extent:
            # every source point must have a reachable outlier target in the box
            raise ValueError("extent is too small for OUTLIER_MIN_OFFSET")
        if self.descriptor_dim < 1:
            raise ValueError(f"descriptor_dim must be at least 1, got {self.descriptor_dim}")
        if not 0.0 <= self.quality_correlation <= 1.0:
            raise ValueError("quality_correlation must lie in [0, 1]")

    @property
    def n_inliers(self) -> int:
        return int(round(self.inlier_fraction * self.n_points))


@dataclass(frozen=True)
class Scene:
    """A planted problem: clouds, descriptors, proposed pairs, and truth.

    Correspondences pair row i of ``src`` with row i of ``dst``;
    ``inlier_labels[i]`` says whether that pair is planted as an inlier.
    ``corrs`` is ranked on its first read, from the descriptors as they are
    at that moment, and the same object is returned after that.
    """

    src: Points
    dst: Points
    src_desc: NDArray[F64]
    dst_desc: NDArray[F64]
    inlier_labels: NDArray[np.bool_]
    true_motion: RigidMotion

    @cached_property
    def corrs(self) -> Correspondences:
        """The planted pairs (i, i) with the matcher's ratio and mutual flag."""
        return _planted_pairs(self.src_desc, self.dst_desc)


def _capped_noise(rng: np.random.Generator, n: int, sigma: float) -> Points:
    # Gaussian displacement resampled until every norm is at most 3 sigma,
    # so a 3-sigma residual gate keeps every inlier
    out = rng.standard_normal((n, 3)) * sigma
    cap = NOISE_CAP_SIGMA * sigma
    while True:
        bad = np.flatnonzero(np.linalg.norm(out, axis=1) > cap)
        if bad.size == 0:
            return out
        out[bad] = rng.standard_normal((bad.size, 3)) * sigma


def _offset_targets(rng: np.random.Generator, anchors: Points,
                    extent: float, min_offset: float) -> Points:
    # uniform box points at least min_offset from their anchors
    out = rng.uniform(-extent, extent, anchors.shape)
    while True:
        bad = np.flatnonzero(np.linalg.norm(out - anchors, axis=1) < min_offset)
        if bad.size == 0:
            return out
        out[bad] = rng.uniform(-extent, extent, (bad.size, 3))


def generate_scene(spec: SceneSpec) -> Scene:
    rng = np.random.default_rng(spec.seed)
    motion = spec.true_motion
    if motion is None:
        motion = random_motion(rng, spec.extent / 2.0)

    n = spec.n_points
    src = rng.uniform(-spec.extent, spec.extent, (n, 3))
    labels = np.zeros(n, dtype=bool)
    labels[rng.permutation(n)[:spec.n_inliers]] = True
    outliers = ~labels

    dst = np.empty_like(src)
    dst[labels] = apply(motion, src[labels]) + _capped_noise(
        rng, int(labels.sum()), spec.noise_sigma)
    if outliers.any():
        dst[outliers] = apply(motion, _offset_targets(
            rng, src[outliers], spec.extent, OUTLIER_MIN_OFFSET))

    src_desc = rng.standard_normal((n, spec.descriptor_dim))
    dst_desc = rng.standard_normal((n, spec.descriptor_dim))
    # inlier descriptor pairs differ by scaled noise; the sqrt(2) makes the
    # zero-correlation end indistinguishable from independent rows
    scale = (1.0 - spec.quality_correlation) * math.sqrt(2.0)
    dst_desc[labels] = src_desc[labels] + scale * rng.standard_normal(
        (int(labels.sum()), spec.descriptor_dim))

    return Scene(src=src, dst=dst, src_desc=src_desc, dst_desc=dst_desc,
                 inlier_labels=labels, true_motion=motion)


def _planted_pairs(src_desc: NDArray[F64], dst_desc: NDArray[F64]) -> Correspondences:
    """The pairs (i, i), with the ratio and mutual flag the matcher gives
    row i; a pair is mutual only if row i's nearest target row is i."""
    m = match_features(src_desc, dst_desc)
    idx = np.arange(len(src_desc))
    return Correspondences(src=idx, dst=idx.copy(),
                           feat_dist=np.sqrt(np.sum((src_desc - dst_desc) ** 2, axis=1)),
                           ratio=m.ratio, is_mnn=(m.dst == idx) & m.is_mnn)


# ---------------------------------------------------------------------------
# trajectory generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectorySpec:
    """Recipe for a posed driving sequence over a shared world point set.

    ``profile`` is one of ``PROFILES`` and sets the heading change after
    each frame: ``straight`` and ``stationary`` never turn, ``uturn``
    turns 180 degrees in equal steps over the drive, and ``random`` draws
    each step uniformly within ``MAX_YAW_STEP_DEG`` from the seed.  A
    ``stationary`` drive also never moves, whatever ``frame_spacing`` is.
    The world is a jittered ground grid with pitch ``POINT_SPACING`` and
    vertical jitter ``Z_JITTER``; the jitter never exceeds a quarter pitch
    per axis, so distinct world points stay at least half a pitch apart.
    Frames are ``FRAME_DT`` seconds apart.  ``sequence_id`` names the
    drive's files, so it must be one plain path component.
    """

    n_frames: int = 10
    frame_spacing: float = 10.0
    profile: str = "straight"       # one of PROFILES
    sensor_range: float = 50.0
    seed: int = 0
    sequence_id: str = "seq0"

    def __post_init__(self) -> None:
        if not isinstance(self.n_frames, numbers.Integral):
            raise ValueError(f"n_frames must be an integer, got {self.n_frames!r}")
        if self.n_frames < 2:
            raise ValueError("n_frames must be at least 2")
        if not 0.0 <= self.frame_spacing < math.inf:
            raise ValueError("frame_spacing must be nonnegative and finite, "
                             f"got {self.frame_spacing}")
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}, "
                             f"got {self.profile!r}")
        if not 0.0 < self.sensor_range < math.inf:
            raise ValueError("sensor_range must be positive and finite, "
                             f"got {self.sensor_range}")
        # a stationary drive ignores its spacing; a moving one must keep
        # (n_frames - 1) * frame_spacing + sensor_range finite, tested by
        # division since an int past float64's range cannot be multiplied
        if (self.profile != "stationary" and self.frame_spacing > 0.0
                and self.n_frames - 1 > (sys.float_info.max - self.sensor_range)
                / self.frame_spacing):
            raise ValueError(f"frame_spacing {self.frame_spacing} over "
                             f"{self.n_frames - 1} steps, plus sensor_range, "
                             "overflows float64")
        if (self.sequence_id in ("", ".", "..") or "/" in self.sequence_id
                or "\\" in self.sequence_id):
            raise ValueError("sequence_id must be one plain path component, "
                             f"got {self.sequence_id!r}")

    def yaw_steps(self) -> NDArray[F64]:
        """The n_frames - 1 heading changes, in degrees."""
        n = self.n_frames - 1
        if self.profile == "uturn":
            return np.full(n, 180.0 / n)
        if self.profile == "random":
            return np.random.default_rng([self.seed, 17]).uniform(
                -MAX_YAW_STEP_DEG, MAX_YAW_STEP_DEG, n)
        return np.zeros(n)


def _world_points(rng: np.random.Generator, positions: Points,
                  spec: TrajectorySpec) -> tuple[NDArray[F64], NDArray[F64], NDArray[F64]]:
    """The jittered world grid as an (len(xs), len(ys), 3) array, and its axes."""
    g = POINT_SPACING
    # Python floats: bounds past float64's range turn inf without a
    # warning, and the cap below refuses them
    margin = float(spec.sensor_range) + g
    x_lo, y_lo = (v - margin for v in positions[:, :2].min(axis=0).tolist())
    x_hi, y_hi = (v + margin for v in positions[:, :2].max(axis=0).tolist())
    # np.arange's lengths, so an oversized grid is refused before allocation
    size = math.prod(np.ceil([(x_hi + g - x_lo) / g, (y_hi + g - y_lo) / g]).tolist())
    if not size <= _MAX_WORLD_POINTS:
        raise ValueError(f"the drive's world grid would hold {size:.3g} points, "
                         f"over the limit of {_MAX_WORLD_POINTS}")
    xs = np.arange(x_lo, x_hi + g, g)
    ys = np.arange(y_lo, y_hi + g, g)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    n = gx.size
    pts = np.empty((n, 3), dtype=np.float64)
    pts[:, 0] = gx.ravel() + rng.uniform(-g / 4.0, g / 4.0, n)
    pts[:, 1] = gy.ravel() + rng.uniform(-g / 4.0, g / 4.0, n)
    pts[:, 2] = rng.uniform(-Z_JITTER, Z_JITTER, n)
    return pts.reshape(len(xs), len(ys), 3), xs, ys


def generate_trajectory(spec: TrajectorySpec) -> list[PosedFrame]:
    """Posed frames along a planar drive, clouds in sensor coordinates.

    Heading integrates the yaw steps; each frame advances along the current
    heading before turning; poses have zero pitch and roll.  A frame reads
    only the grid rectangle within ``sensor_range + POINT_SPACING / 2`` of
    its position on each axis, which holds every point in range since the
    jitter is at most a quarter pitch.  So a frame costs
    O((sensor_range / POINT_SPACING)^2) whatever the drive's length; only
    building the world grid grows with the drive's bounding box.
    """
    # spawn's first child: a seed keeps the frames it has always given
    world_rng = np.random.default_rng(spec.seed).spawn(1)[0]

    yaw = np.zeros(spec.n_frames)
    yaw[1:] = np.cumsum(spec.yaw_steps())
    spacing = 0.0 if spec.profile == "stationary" else spec.frame_spacing
    positions = np.zeros((spec.n_frames, 3))
    for i in range(1, spec.n_frames):
        h = math.radians(yaw[i - 1])
        positions[i] = positions[i - 1] + spacing * np.array(
            [math.cos(h), math.sin(h), 0.0])

    world, xs, ys = _world_points(world_rng, positions, spec)
    reach = spec.sensor_range + POINT_SPACING / 2.0
    x0, x1 = np.searchsorted(xs, [positions[:, 0] - reach, positions[:, 0] + reach])
    y0, y1 = np.searchsorted(ys, [positions[:, 1] - reach, positions[:, 1] + reach])

    frames: list[PosedFrame] = []
    for i in range(spec.n_frames):
        pose = RigidMotion(
            rotation=from_euler(EulerAngles(roll=0.0, pitch=0.0,
                                            yaw=float(yaw[i]))),
            translation=positions[i])
        # C order keeps the full grid's point order
        patch = world[x0[i]:x1[i], y0[i]:y1[i]].reshape(-1, 3)
        planar = np.linalg.norm(patch[:, :2] - positions[i, :2], axis=1)
        visible = patch[planar <= spec.sensor_range]
        frames.append(PosedFrame(sequence_id=spec.sequence_id,
                                 frame_index=i,
                                 timestamp=i * FRAME_DT,
                                 pose=pose,
                                 cloud=apply(inverse(pose), visible)))
    return frames


def frame_descriptors(frames, dim: int = SceneSpec.descriptor_dim,
                      seed: int = 0) -> list[NDArray[F64]]:
    """Per-frame descriptors consistent across frames.

    A point's descriptor is a fixed affine image of its world coordinates
    plus per-frame noise of sigma ``DESCRIPTOR_NOISE_SIGMA``, so the same
    world point seen from two frames yields nearby rows and feature
    matching can recover shared points.  ``dim`` is the descriptor width,
    at least 1.
    """
    if dim < 1:
        raise ValueError(f"descriptor_dim must be at least 1, got {dim}")
    frames = list(frames)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, 3))
    b = rng.standard_normal(dim)
    out: list[NDArray[F64]] = []
    for frame, child in zip(frames, rng.spawn(len(frames))):
        world = apply(frame.pose, frame.cloud)
        out.append(world @ a.T + b + DESCRIPTOR_NOISE_SIGMA * child.standard_normal(
            (len(world), dim)))
    return out
