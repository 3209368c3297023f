"""Command options: `register`'s table from flag or config key to config
field, and every command's defaults taken from its config dataclass."""

from __future__ import annotations

import json
import re

import pytest

from lidarreg import cli
from lidarreg.benchgen import SelectorConfig
from lidarreg.gpf import GpfConfig
from lidarreg.icp import IcpConfig
from lidarreg.io import read_descriptors
from lidarreg.pipeline import PipelineConfig
from lidarreg.ransac import RansacConfig
from lidarreg.synth import SceneSpec, TrajectorySpec

# every register option at the built-in default, as a config file
_DEFAULTS = {
    "max-iters": "1000000", "confidence": "0.999", "inlier-thresh": "0.6",
    "sampler": "prosac", "reject": "elc", "lo": "on", "seed": "0",
    "filter": "gpf", "gpf": "2.0", "grid-m": "10", "refine": "icp",
    "icp-thresh": "0.6", "elc-tol": "0.6", "threads": "1", "timing": "wall",
}

# every register option at a value other than the default
_OTHERS = {
    "max-iters": "2000", "confidence": "0.99", "inlier-thresh": "0.5",
    "sampler": "uniform", "reject": "none", "lo": "off", "seed": "3",
    "filter": "mnn", "gpf": "3.0", "grid-m": "5", "refine": "none",
    "icp-thresh": "0.4", "elc-tol": "0.7", "threads": "2", "timing": "off",
}

_OTHERS_CONFIG = PipelineConfig(
    correspondence_filter="mnn", refine="none",
    gpf=GpfConfig(grid_m=5, phi=3.0),
    ransac=RansacConfig(max_iterations=2000, confidence=0.99,
                        inlier_threshold=0.5, use_prosac=False,
                        rejection="none", use_lo=False, elc_tolerance=0.7,
                        seed=3),
    icp=IcpConfig(threshold=0.4))


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    assert cli.main(["synth", "scene", "--out-dir", str(out), "--seed", "5",
                     "--n", "300", "--inlier-fraction", "0.4"]) == 0
    return out


@pytest.fixture
def configs(monkeypatch):
    """The PipelineConfig of every pair that register runs."""
    seen = []
    real = cli.register_pair

    def spy(src, dst, src_desc, dst_desc, cfg):
        seen.append(cfg)
        return real(src, dst, src_desc, dst_desc, cfg)

    monkeypatch.setattr(cli, "register_pair", spy)
    return seen


def _register(scene_dir, out, *extra: str) -> int:
    return cli.main(["register",
                     "--src", str(scene_dir / "src.ply"),
                     "--dst", str(scene_dir / "dst.ply"),
                     "--src-desc", str(scene_dir / "src.fdsc"),
                     "--dst-desc", str(scene_dir / "dst.fdsc"),
                     "--gt-pose", str(scene_dir / "gt.txt"),
                     "--out", str(out), *extra])


def _config_file(path, options: dict[str, str]):
    path.write_text("".join(f"{k}={v}\n" for k, v in options.items()))
    return path


def test_config_at_the_defaults_equals_no_config(scene_dir, tmp_path,
                                                 configs):
    cfg = _config_file(tmp_path / "defaults.cfg", _DEFAULTS)
    assert _register(scene_dir, tmp_path / "plain.jsonl",
                     "--timing", "off") == 0
    assert _register(scene_dir, tmp_path / "file.jsonl",
                     "--config", str(cfg), "--timing", "off") == 0
    assert (tmp_path / "file.jsonl").read_bytes() == \
        (tmp_path / "plain.jsonl").read_bytes()
    assert configs == [PipelineConfig(), PipelineConfig()]


def test_config_values_equal_the_same_flags(scene_dir, tmp_path, configs):
    cfg = _config_file(tmp_path / "others.cfg", _OTHERS)
    flags = [a for k, v in _OTHERS.items() for a in (f"--{k}", v)]
    assert _register(scene_dir, tmp_path / "flags.jsonl", *flags) == 0
    assert _register(scene_dir, tmp_path / "file.jsonl",
                     "--config", str(cfg)) == 0
    assert (tmp_path / "file.jsonl").read_bytes() == \
        (tmp_path / "flags.jsonl").read_bytes()
    assert configs == [_OTHERS_CONFIG, _OTHERS_CONFIG]


@pytest.mark.parametrize("flag", ["--inlier-thresh", "--elc-tol",
                                  "--icp-thresh"])
def test_nan_threshold_exits_2_naming_the_flag(scene_dir, tmp_path, capsys,
                                               configs, flag):
    assert _register(scene_dir, tmp_path / "out.jsonl", flag, "nan") == 2
    assert flag[2:] in capsys.readouterr().err
    assert configs == []


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_exit_2(scene_dir, tmp_path, capsys, configs,
                                  threads):
    assert _register(scene_dir, tmp_path / "out.jsonl",
                     "--threads", threads) == 2
    assert "threads must be >= 1" in capsys.readouterr().err
    assert configs == []


def test_infinite_gpf_budget_exits_2_naming_the_flag(scene_dir, tmp_path,
                                                     capsys, configs):
    assert _register(scene_dir, tmp_path / "out.jsonl", "--gpf", "inf") == 2
    assert "gpf: phi must be positive and finite" in capsys.readouterr().err
    assert configs == []


def test_gpf_budget_past_the_float_range_keeps_every_match(scene_dir, tmp_path):
    out = tmp_path / "out.jsonl"
    assert _register(scene_dir, out, "--gpf", "1e308", "--refine", "none") == 0
    row = json.loads(out.read_text())
    assert row["n_filtered"] == row["n_corrs"] == 300


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("thresh", ["1e200", "inf"])
def test_inlier_threshold_past_the_float_range_registers(scene_dir, tmp_path,
                                                         thresh):
    # the squared inlier gate saturates without an overflow warning, and
    # the first sample's model holds every match, so the run stops there
    out = tmp_path / "out.jsonl"
    assert _register(scene_dir, out, "--inlier-thresh", thresh) == 0
    row = json.loads(out.read_text())
    assert (row["iterations"], row["converged_by"]) == (1, "early_stop")


# benchgen's case exits 1 on an empty pool: its two frames share no point
@pytest.mark.parametrize("name, argv, default, code", [
    pytest.param("generate_scene", ["synth", "scene"], SceneSpec(), 0,
                 id="synth-scene"),
    pytest.param("generate_trajectory", ["synth", "trajectory"],
                 TrajectorySpec(), 0, id="synth-trajectory"),
    pytest.param("build_candidate_pool", ["benchgen"], SelectorConfig(), 1,
                 id="benchgen"),
])
def test_required_flags_alone_give_the_config_defaults(
        tmp_path, monkeypatch, name, argv, default, code):
    out = tmp_path / "out"
    if argv == ["benchgen"]:
        data = tmp_path / "data"
        assert cli.main(["synth", "trajectory", "--out-dir", str(data),
                         "--frames", "2", "--spacing", "100",
                         "--range", "20"]) == 0
        argv = [*argv, "--cloud-dir", str(data), "--pose-dir", str(data),
                "--out-pairs", str(out / "pairs.csv")]
    else:
        argv = [*argv, "--out-dir", str(out)]
    seen = []
    real = getattr(cli, name)

    def spy(*args):
        seen.append(args[-1])
        return real(*args)

    monkeypatch.setattr(cli, name, spy)
    assert cli.main(argv) == code
    assert seen == [default]


@pytest.fixture(scope="module")
def drive(tmp_path_factory):
    """A three-frame drive and a two-pair list over it."""
    out = tmp_path_factory.mktemp("drive")
    assert cli.main(["synth", "trajectory", "--out-dir", str(out),
                     "--frames", "3", "--spacing", "5", "--range", "20"]) == 0
    assert cli.main(["benchgen", "--cloud-dir", str(out), "--pose-dir", str(out),
                     "--out-pairs", str(out / "pairs.csv"), "--k", "1",
                     "--r", "0.5", "--target-count", "2"]) == 0
    return out


# every table flag at a value other than the default, and the config
# those flags must build
_SPEC_FLAGS = [
    pytest.param(
        "build_candidate_pool",
        ["benchgen", "--k", "2", "--min-overlap", "0.25", "--r", "0.5",
         "--target-count", "1", "--tau", "0.7", "--seed", "4"],
        SelectorConfig(k=2, min_overlap=0.25, r=0.5, target_count=1,
                       overlap_tau=0.7, seed=4), id="benchgen"),
    pytest.param(
        "generate_scene",
        ["synth", "scene", "--n", "200", "--extent", "40",
         "--inlier-fraction", "0.5", "--sigma", "0.04", "--dim", "8",
         "--qc", "0.6", "--seed", "2"],
        SceneSpec(n_points=200, extent=40.0, inlier_fraction=0.5,
                  noise_sigma=0.04, descriptor_dim=8, quality_correlation=0.6,
                  seed=2), id="synth-scene"),
    pytest.param(
        "generate_trajectory",
        ["synth", "trajectory", "--frames", "3", "--spacing", "4",
         "--profile", "uturn", "--range", "25", "--sequence-id", "d1",
         "--seed", "5", "--dim", "8"],
        TrajectorySpec(n_frames=3, frame_spacing=4.0, profile="uturn",
                       sensor_range=25.0, sequence_id="d1", seed=5),
        id="synth-trajectory"),
]


@pytest.mark.parametrize("name, argv, expected", _SPEC_FLAGS)
def test_every_flag_sets_its_config_field(drive, tmp_path, monkeypatch,
                                          name, argv, expected):
    out = tmp_path / "out"
    if argv[0] == "benchgen":
        argv = [*argv, "--cloud-dir", str(drive), "--pose-dir", str(drive),
                "--out-pairs", str(out / "pairs.csv")]
    else:
        argv = [*argv, "--out-dir", str(out)]
    seen = []
    real = getattr(cli, name)

    def spy(*args):
        seen.append(args[-1])
        return real(*args)

    monkeypatch.setattr(cli, name, spy)
    assert cli.main(argv) == 0
    assert seen == [expected]
    if name == "generate_trajectory":
        # --dim sets the descriptor width of every frame
        for frame in range(3):
            assert read_descriptors(out / "d1" / f"{frame:06d}.fdsc").shape[1] == 8


@pytest.mark.parametrize("argv", [
    pytest.param(["trajectory", "--qc", "0.3"], id="trajectory-qc"),
    pytest.param(["trajectory", "--identity"], id="trajectory-identity"),
    pytest.param(["scene", "--frames", "3"], id="scene-frames"),
    pytest.param(["scene", "--profile", "uturn"], id="scene-profile"),
])
def test_synth_mode_rejects_the_other_modes_flags(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["synth", *argv, "--out-dir", str(tmp_path / "out")])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_SELECTOR, _SCENE, _TRAJECTORY = SelectorConfig(), SceneSpec(), TrajectorySpec()

# every table flag's default as --help must show it
_HELP_DEFAULTS = {
    ("register",): _DEFAULTS,
    ("benchgen",): {
        "k": _SELECTOR.k, "min-overlap": _SELECTOR.min_overlap,
        "r": _SELECTOR.r, "target-count": _SELECTOR.target_count,
        "tau": _SELECTOR.overlap_tau, "seed": _SELECTOR.seed},
    ("synth", "scene"): {
        "n": _SCENE.n_points, "extent": _SCENE.extent,
        "inlier-fraction": _SCENE.inlier_fraction,
        "sigma": _SCENE.noise_sigma, "dim": _SCENE.descriptor_dim,
        "qc": _SCENE.quality_correlation, "seed": _SCENE.seed},
    ("synth", "trajectory"): {
        "frames": _TRAJECTORY.n_frames, "spacing": _TRAJECTORY.frame_spacing,
        "profile": _TRAJECTORY.profile, "range": _TRAJECTORY.sensor_range,
        "sequence-id": _TRAJECTORY.sequence_id, "seed": _TRAJECTORY.seed,
        "dim": _SCENE.descriptor_dim},
}


@pytest.mark.parametrize("command", list(_HELP_DEFAULTS), ids=" ".join)
def test_help_shows_every_config_default(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        cli.main([*command, "--help"])
    assert exit_.value.code == 0
    # one entry per option, its lines joined
    entries = {" ".join(entry.split()).split(" ", 1)[0]: " ".join(entry.split())
               for entry in re.split(r"\n  (?=-)", capsys.readouterr().out)}
    for flag, default in _HELP_DEFAULTS[command].items():
        assert entries[f"--{flag}"].endswith(f"(default: {default})"), flag


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["benchgen", "--cloud-pattern", "{sequence}/{frame:06d}.ply"],
                 "cloud-pattern", id="benchgen-unknown-field"),
    pytest.param(["register", "--desc-pattern", "{0}.fdsc"], "desc-pattern",
                 id="register-positional"),
    pytest.param(["register", "--cloud-pattern", "{seq}/{frame:06s}.ply"],
                 "cloud-pattern", id="register-bad-format-spec"),
])
def test_malformed_path_pattern_exits_2_naming_the_flag(drive, tmp_path, capsys,
                                                        monkeypatch, argv, flag):
    read = []
    monkeypatch.setattr(cli, "read_cloud_ply", read.append)
    monkeypatch.setattr(cli, "read_poses", read.append)
    monkeypatch.setattr(cli, "read_pair_list", read.append)
    if argv[0] == "benchgen":
        argv = [*argv, "--cloud-dir", str(drive), "--pose-dir", str(drive),
                "--out-pairs", str(tmp_path / "pairs.csv")]
    else:
        argv = [*argv, "--pairs", str(drive / "pairs.csv"), "--cloud-dir",
                str(drive), "--desc-dir", str(drive), "--out", str(tmp_path / "r.jsonl")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and err.count("\n") == 1
    assert read == []
    assert list(tmp_path.iterdir()) == []


def test_config_keys_take_either_spelling(scene_dir, tmp_path, configs):
    cfg = _config_file(tmp_path / "others.cfg",
                       {k.replace("-", "_"): v for k, v in _OTHERS.items()})
    assert _register(scene_dir, tmp_path / "out.jsonl", "--config", str(cfg)) == 0
    assert configs == [_OTHERS_CONFIG]


@pytest.mark.parametrize("options, message", [
    pytest.param({"gpf": "inf"}, "gpf: phi must be positive and finite",
                 id="field-error-names-the-flag"),
    pytest.param({"max_iters": "1e3"}, "bad value for 'max_iters': '1e3'",
                 id="untyped-value"),
    pytest.param({"lo": "maybe"}, "lo must be one of off, on", id="bad-choice"),
])
def test_config_value_errors_exit_2(scene_dir, tmp_path, capsys, configs,
                                    options, message):
    cfg = _config_file(tmp_path / "bad.cfg", options)
    assert _register(scene_dir, tmp_path / "out.jsonl", "--config", str(cfg)) == 2
    assert message in capsys.readouterr().err
    assert configs == []


def test_cross_field_error_names_no_flag(tmp_path, capsys):
    assert cli.main(["synth", "scene", "--out-dir", str(tmp_path / "out"),
                     "--n", "10", "--inlier-fraction", "0.1"]) == 2
    assert capsys.readouterr().err == \
        "error: the spec must plant at least 3 inliers\n"


def test_stdout_rows_equal_the_out_file(scene_dir, tmp_path, capsys):
    path = tmp_path / "rows.jsonl"
    assert _register(scene_dir, path, "--timing", "off") == 0
    # the last --out wins
    assert _register(scene_dir, tmp_path / "unused.jsonl", "--timing", "off",
                     "--out", "-") == 0
    assert cli.main(["register", "--src", str(scene_dir / "src.ply"),
                     "--dst", str(scene_dir / "dst.ply"),
                     "--src-desc", str(scene_dir / "src.fdsc"),
                     "--dst-desc", str(scene_dir / "dst.fdsc"),
                     "--gt-pose", str(scene_dir / "gt.txt"),
                     "--timing", "off"]) == 0
    assert capsys.readouterr().out.encode() == 2 * path.read_bytes()
    assert not (tmp_path / "unused.jsonl").exists()
