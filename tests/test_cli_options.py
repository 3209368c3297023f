"""Command options: `register`'s table from flag or config key to config
field, and every command's defaults taken from its config dataclass."""

from __future__ import annotations

import json

import pytest

from lidarreg import cli
from lidarreg.benchgen import SelectorConfig
from lidarreg.gpf import GpfConfig
from lidarreg.icp import IcpConfig
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
