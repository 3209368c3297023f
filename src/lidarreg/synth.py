"""Synthetic registration problems with exactly known ground truth.

Two generators live here.  ``generate_scene`` plants a correspondence set
with a chosen inlier fraction: inlier targets are the true motion applied
to the source plus bounded Gaussian noise, outlier targets are resampled
box points forced at least ``OUTLIER_MIN_OFFSET`` away from where the true
motion would put them.  Because the noise norm is capped at three sigma,
a 3-sigma gate on residuals under the true motion recovers the planted
labels exactly, which is what makes the generator usable as an oracle.

``generate_trajectory`` builds a vehicle-like posed sequence over a shared
world point set, so the overlap between any two frames is decided by disk
geometry rather than by chance: frame clouds are exactly the world points
within sensor range, expressed in the sensor frame.  The world grid is
jittered but keeps a minimum point spacing above the overlap gate, so a
point either is shared between two frames or is nowhere near a match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
MAX_YAW_STEP_DEG = 15.0         # random_drive's largest turn per frame


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
            raise ValueError("descriptor_dim must be at least 1")
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
    """

    src: Points
    dst: Points
    src_desc: NDArray[F64]
    dst_desc: NDArray[F64]
    corrs: Correspondences
    inlier_labels: NDArray[np.bool_]
    true_motion: RigidMotion


def _capped_noise(rng: np.random.Generator, n: int, sigma: float) -> Points:
    # Gaussian displacement resampled until every norm is at most 3 sigma,
    # so a 3-sigma residual gate keeps every inlier
    out = rng.standard_normal((n, 3)) * sigma
    if sigma == 0.0:
        return out
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
        motion = RigidMotion(rotation=random_rotation(rng),
                             translation=rng.uniform(-spec.extent / 2.0,
                                                     spec.extent / 2.0, 3))

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

    # the planted pairs are (i, i); their ratio and mutual flag are those the
    # matcher gives row i, and a pair is mutual only if i's nearest is i
    m = match_features(src_desc, dst_desc)
    idx = np.arange(n)
    corrs = Correspondences(src=idx, dst=idx.copy(),
                            feat_dist=np.sqrt(np.sum((src_desc - dst_desc) ** 2, axis=1)),
                            ratio=m.ratio, is_mnn=(m.dst == idx) & m.is_mnn)
    return Scene(src=src, dst=dst, src_desc=src_desc, dst_desc=dst_desc,
                 corrs=corrs, inlier_labels=labels, true_motion=motion)


# ---------------------------------------------------------------------------
# trajectory generator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectorySpec:
    """Recipe for a posed driving sequence over a shared world point set.

    ``yaw_step_deg`` is the heading change applied after each frame, either
    one value for all steps or a tuple of length n_frames - 1.  The world
    is a jittered ground grid with pitch ``POINT_SPACING`` and vertical
    jitter ``Z_JITTER``; the jitter never exceeds a quarter pitch per axis,
    so distinct world points stay at least half a pitch apart.  Frames are
    ``FRAME_DT`` seconds apart.
    """

    n_frames: int = 10
    frame_spacing: float = 10.0
    yaw_step_deg: float | tuple[float, ...] = 0.0
    sensor_range: float = 50.0
    seed: int = 0
    sequence_id: str = "seq0"

    def __post_init__(self) -> None:
        if self.n_frames < 2:
            raise ValueError("n_frames must be at least 2")
        if not 0.0 <= self.frame_spacing < math.inf:
            raise ValueError("frame_spacing must be nonnegative and finite, "
                             f"got {self.frame_spacing}")
        if not 0.0 < self.sensor_range < math.inf:
            raise ValueError("sensor_range must be positive and finite, "
                             f"got {self.sensor_range}")
        steps = self.yaw_steps()
        if len(steps) != self.n_frames - 1:
            raise ValueError("yaw_step_deg tuple must have n_frames - 1 entries")

    def yaw_steps(self) -> tuple[float, ...]:
        if isinstance(self.yaw_step_deg, tuple):
            return self.yaw_step_deg
        return (float(self.yaw_step_deg),) * (self.n_frames - 1)

    @classmethod
    def stationary(cls, n_frames: int = 5, **kw) -> "TrajectorySpec":
        return cls(n_frames=n_frames, frame_spacing=0.0, yaw_step_deg=0.0, **kw)

    @classmethod
    def straight(cls, n_frames: int = 10, frame_spacing: float = 10.0,
                 **kw) -> "TrajectorySpec":
        return cls(n_frames=n_frames, frame_spacing=frame_spacing,
                   yaw_step_deg=0.0, **kw)

    @classmethod
    def uturn(cls, n_frames: int = 7, frame_spacing: float = 3.0,
              **kw) -> "TrajectorySpec":
        step = 180.0 / (n_frames - 1)
        return cls(n_frames=n_frames, frame_spacing=frame_spacing,
                   yaw_step_deg=step, **kw)

    @classmethod
    def random_drive(cls, n_frames: int = 20, frame_spacing: float = 5.0,
                     seed: int = 0, **kw) -> "TrajectorySpec":
        steps = np.random.default_rng([seed, 17]).uniform(
            -MAX_YAW_STEP_DEG, MAX_YAW_STEP_DEG, n_frames - 1)
        return cls(n_frames=n_frames, frame_spacing=frame_spacing,
                   yaw_step_deg=tuple(float(s) for s in steps), seed=seed, **kw)


def _world_points(rng: np.random.Generator, positions: Points,
                  spec: TrajectorySpec) -> Points:
    g = POINT_SPACING
    margin = spec.sensor_range + g
    x_lo = positions[:, 0].min() - margin
    x_hi = positions[:, 0].max() + margin
    y_lo = positions[:, 1].min() - margin
    y_hi = positions[:, 1].max() + margin
    xs = np.arange(x_lo, x_hi + g, g)
    ys = np.arange(y_lo, y_hi + g, g)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    n = gx.size
    pts = np.empty((n, 3), dtype=np.float64)
    pts[:, 0] = gx.ravel() + rng.uniform(-g / 4.0, g / 4.0, n)
    pts[:, 1] = gy.ravel() + rng.uniform(-g / 4.0, g / 4.0, n)
    pts[:, 2] = rng.uniform(-Z_JITTER, Z_JITTER, n)
    return pts


def generate_trajectory(spec: TrajectorySpec) -> list[PosedFrame]:
    """Posed frames along a planar drive, clouds in sensor coordinates.

    Heading integrates the yaw steps; each frame advances along the current
    heading before turning; poses have zero pitch and roll.
    """
    # spawn's first child: a seed keeps the frames it has always given
    world_rng = np.random.default_rng(spec.seed).spawn(1)[0]

    steps = spec.yaw_steps()
    yaw = np.zeros(spec.n_frames)
    yaw[1:] = np.cumsum(steps)
    positions = np.zeros((spec.n_frames, 3))
    for i in range(1, spec.n_frames):
        h = math.radians(yaw[i - 1])
        positions[i] = positions[i - 1] + spec.frame_spacing * np.array(
            [math.cos(h), math.sin(h), 0.0])

    world = _world_points(world_rng, positions, spec)

    frames: list[PosedFrame] = []
    for i in range(spec.n_frames):
        pose = RigidMotion(
            rotation=from_euler(EulerAngles(roll=0.0, pitch=0.0,
                                            yaw=float(yaw[i]))),
            translation=positions[i])
        planar = np.linalg.norm(world[:, :2] - positions[i, :2], axis=1)
        visible = world[planar <= spec.sensor_range]
        frames.append(PosedFrame(sequence_id=spec.sequence_id,
                                 frame_index=i,
                                 timestamp=i * FRAME_DT,
                                 pose=pose,
                                 cloud=apply(inverse(pose), visible)))
    return frames


def frame_descriptors(frames, dim: int = 16,
                      seed: int = 0) -> list[NDArray[F64]]:
    """Per-frame descriptors consistent across frames.

    A point's descriptor is a fixed affine image of its world coordinates
    plus per-frame noise of sigma ``DESCRIPTOR_NOISE_SIGMA``, so the same
    world point seen from two frames yields nearby rows and feature
    matching can recover shared points.
    """
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
