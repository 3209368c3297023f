"""The public surface: each module's ``__all__`` declares its names once,
and the package re-exports every one of them."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import lidarreg

# the public names by the module that defines them
PUBLIC = {
    "benchgen": ("CandidatePair", "PosedFrame", "SelectionResult", "SelectorConfig",
                 "alignment_motion", "build_candidate_pool", "motion_descriptor",
                 "normalize_motions", "overlap", "select_balanced"),
    "geom": ("EulerAngles", "GimbalLockError", "RigidMotion", "SpatialIndex", "apply",
             "compose", "from_euler", "inverse", "rotation_is_valid", "to_euler",
             "voxel_downsample"),
    "gpf": ("GpfConfig", "NoMnnPairsError", "gpf", "grid_assign", "priority_order",
            "quota_search"),
    "icp": ("IcpConfig", "IcpResult", "icp_refine"),
    "io": ("FormatError", "read_cloud_bin", "read_cloud_ply", "read_config",
           "read_descriptors", "read_jsonl", "read_pair_list", "read_poses", "read_times",
           "write_cloud_bin", "write_cloud_ply", "write_descriptors", "write_histogram_csv",
           "write_jsonl", "write_pair_list", "write_poses", "write_times"),
    "match": ("Correspondences", "match_features", "mnn_filter"),
    "metrics": ("DEFAULT_BIN_EDGES", "PairRecord", "failure_histogram", "histogram",
                "is_success", "recall", "rotation_error", "set_distribution_report",
                "translation_error"),
    "pipeline": ("PairResult", "PipelineConfig", "register_pair"),
    "ransac": ("DegenerateSampleError", "RansacConfig", "RegistrationResult", "elc_check",
               "kabsch", "ransac_register", "required_iterations"),
    "synth": ("Scene", "SceneSpec", "TrajectorySpec", "frame_descriptors", "generate_scene",
              "generate_trajectory", "random_motion", "random_rotation"),
}

# every module but the command line, which the package does not re-export
DECLARING = sorted(info.name for info in pkgutil.iter_modules(lidarreg.__path__)
                   if info.name != "cli")


def _module(name: str):
    # import_module returns the submodule even where a package attribute
    # of the same name is something else, as ``lidarreg.gpf`` is
    return importlib.import_module(f"lidarreg.{name}")


def test_package_exports_exactly_the_public_names():
    names = [name for names in PUBLIC.values() for name in names]
    assert len(names) == 77
    assert sorted(lidarreg.__all__) == sorted(names)


@pytest.mark.parametrize("module_name", sorted(PUBLIC))
def test_each_export_is_its_defining_modules_object(module_name):
    module = _module(module_name)
    for name in PUBLIC[module_name]:
        assert getattr(lidarreg, name) is getattr(module, name), name


def test_every_module_but_cli_is_listed():
    assert DECLARING == sorted(PUBLIC)


@pytest.mark.parametrize("module_name", DECLARING)
def test_module_declares_all_with_names_it_defines(module_name):
    module = _module(module_name)
    assert sorted(module.__all__) == sorted(PUBLIC[module_name])
    for name in module.__all__:
        owner = getattr(getattr(module, name), "__module__", module.__name__)
        assert owner == module.__name__, name


def test_no_name_is_declared_by_two_modules():
    declared = [name for module_name in DECLARING for name in _module(module_name).__all__]
    assert len(declared) == len(set(declared))


@pytest.mark.parametrize("module_name", DECLARING)
def test_star_import_yields_exactly_all(module_name):
    namespace: dict = {}
    exec(f"from lidarreg.{module_name} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(_module(module_name).__all__)


def test_gpf_is_the_function_and_io_the_module():
    assert lidarreg.gpf is _module("gpf").gpf
    assert callable(lidarreg.gpf)
    assert lidarreg.io is _module("io")
