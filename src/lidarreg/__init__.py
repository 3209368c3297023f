"""Point cloud registration toolkit.

Rigid motions and descriptors come in through the readers in
:mod:`lidarreg.io`, pairs get matched, filtered, robustly estimated, and
refined by the pipeline, and the benchmark side builds balanced
registration sets from posed trajectories.  Everything here is seeded and
deterministic; the command line in :mod:`lidarreg.cli` wraps the same
calls for file-to-file use.
"""

from .benchgen import (
    CandidatePair,
    PosedFrame,
    SelectionResult,
    SelectorConfig,
    alignment_motion,
    build_candidate_pool,
    motion_descriptor,
    normalize_motions,
    overlap,
    select_balanced,
)
from .geom import (
    EulerAngles,
    GimbalLockError,
    RigidMotion,
    SpatialIndex,
    apply,
    compose,
    from_euler,
    inverse,
    rotation_is_valid,
    to_euler,
    voxel_downsample,
)
from .gpf import GpfConfig, NoMnnPairsError, gpf, grid_assign, priority_order, quota_search
from .icp import IcpConfig, IcpResult, icp_refine
from .io import (
    FormatError,
    read_cloud_bin,
    read_cloud_ply,
    read_config,
    read_descriptors,
    read_jsonl,
    read_pair_list,
    read_poses,
    read_times,
    write_cloud_bin,
    write_cloud_ply,
    write_descriptors,
    write_histogram_csv,
    write_jsonl,
    write_pair_list,
    write_poses,
    write_times,
)
from .match import Correspondences, match_features, mnn_filter
from .metrics import (
    DEFAULT_BIN_EDGES,
    FailureHistogram,
    Histogram,
    PairRecord,
    failure_histogram,
    histogram,
    is_success,
    recall,
    rotation_error,
    set_distribution_report,
    translation_error,
)
from .pipeline import PairResult, PipelineConfig, register_pair
from .ransac import (
    DegenerateSampleError,
    RansacConfig,
    RegistrationResult,
    elc_check,
    kabsch,
    ransac_register,
    required_iterations,
)
from .synth import (
    Scene,
    SceneSpec,
    TrajectorySpec,
    frame_descriptors,
    generate_scene,
    generate_trajectory,
    random_motion,
    random_rotation,
)

__version__ = "0.1.0"

__all__ = [
    "CandidatePair", "Correspondences", "DEFAULT_BIN_EDGES",
    "DegenerateSampleError", "EulerAngles", "FailureHistogram",
    "FormatError", "GimbalLockError", "GpfConfig", "Histogram", "IcpConfig",
    "IcpResult", "NoMnnPairsError", "PairRecord",
    "PairResult", "PipelineConfig", "PosedFrame", "RansacConfig",
    "RegistrationResult", "RigidMotion", "Scene", "SceneSpec",
    "SelectionResult", "SelectorConfig", "SpatialIndex", "TrajectorySpec",
    "alignment_motion", "apply", "build_candidate_pool", "compose",
    "elc_check", "failure_histogram",
    "frame_descriptors", "from_euler", "generate_scene",
    "generate_trajectory", "gpf", "grid_assign", "histogram", "icp_refine",
    "inverse", "is_success", "kabsch", "match_features", "mnn_filter",
    "motion_descriptor", "normalize_motions", "overlap", "priority_order",
    "quota_search", "random_motion", "random_rotation", "ransac_register",
    "read_cloud_bin", "read_cloud_ply", "read_config", "read_descriptors",
    "read_jsonl", "read_pair_list", "read_poses", "read_times", "recall",
    "register_pair", "required_iterations", "rotation_error",
    "rotation_is_valid", "select_balanced",
    "set_distribution_report", "to_euler",
    "translation_error", "voxel_downsample", "write_cloud_bin",
    "write_cloud_ply", "write_descriptors", "write_histogram_csv",
    "write_jsonl", "write_pair_list", "write_poses", "write_times",
]
