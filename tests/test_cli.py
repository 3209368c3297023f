"""Command-line tests: exit codes, output schema, determinism."""

from __future__ import annotations

import json
import re
import shutil
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lidarreg.benchgen import SelectorConfig
from lidarreg import cli, io
from lidarreg.cli import main
from lidarreg.geom import EulerAngles, GimbalLockError, RigidMotion, from_euler
from lidarreg.io import (
    read_cloud_ply,
    read_descriptors,
    read_pair_list,
    read_poses,
    write_pair_list,
)
from lidarreg.metrics import set_distribution_report
from lidarreg.synth import SceneSpec, TrajectorySpec

# Small scenes keep these tests quick; the heavy statistical checks live
# in the acceptance suite.
_SCENE_ARGS = ["--n", "300", "--inlier-fraction", "0.4"]


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    assert main(["synth", "scene", "--out-dir", str(out), "--seed", "5",
                 *_SCENE_ARGS]) == 0
    return out


@pytest.fixture(scope="module")
def traj_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("traj")
    assert main(["synth", "trajectory", "--out-dir", str(out),
                 "--profile", "random", "--frames", "8", "--spacing", "6",
                 "--range", "30", "--seed", "9",
                 "--sequence-id", "drive0"]) == 0
    return out


def _register_args(scene_dir, *extra: str) -> list[str]:
    return ["register",
            "--src", str(scene_dir / "src.ply"),
            "--dst", str(scene_dir / "dst.ply"),
            "--src-desc", str(scene_dir / "src.fdsc"),
            "--dst-desc", str(scene_dir / "dst.fdsc"),
            "--timing", "off", *extra]


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_scene_writes_the_standard_files(scene_dir):
    src = read_cloud_ply(scene_dir / "src.ply")
    dst = read_cloud_ply(scene_dir / "dst.ply")
    assert src.shape == dst.shape == (300, 3)
    assert read_descriptors(scene_dir / "src.fdsc").shape == (300, 16)
    assert read_descriptors(scene_dir / "dst.fdsc").shape == (300, 16)
    assert len(read_poses(scene_dir / "gt.txt")) == 1


def test_synth_scene_identity_flag(tmp_path):
    assert main(["synth", "scene", "--out-dir", str(tmp_path), "--seed", "1",
                 "--identity", *_SCENE_ARGS]) == 0
    gt = read_poses(tmp_path / "gt.txt")[0]
    ident = RigidMotion.identity()
    assert np.array_equal(gt.rotation, ident.rotation)
    assert np.array_equal(gt.translation, ident.translation)


def test_synth_trajectory_writes_clouds_descriptors_and_poses(traj_dir):
    poses = read_poses(traj_dir / "drive0.poses")
    assert len(poses) == 8
    times = (traj_dir / "drive0.times").read_text().split()
    assert [float(t) for t in times] == [float(i) for i in range(8)]
    for i in range(8):
        cloud = read_cloud_ply(traj_dir / "drive0" / f"{i:06d}.ply")
        desc = read_descriptors(traj_dir / "drive0" / f"{i:06d}.fdsc")
        assert len(cloud) == len(desc) > 0


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

def test_register_single_pair_with_gt(scene_dir, tmp_path):
    out = tmp_path / "r.jsonl"
    args = _register_args(scene_dir, "--gt-pose", str(scene_dir / "gt.txt"),
                          "--seed", "3", "--out", str(out))
    assert main(args) == 0
    row = json.loads(out.read_text())
    assert row["sequence_id"] == "pair" and row["src"] == 0 and row["tgt"] == 1
    assert row["n_corrs"] == 300
    assert 0 < row["n_filtered"] <= 300
    assert row["converged_by"] in ("early_stop", "iteration_cap")
    assert len(row["est_coarse"]) == 12 and len(row["est_refined"]) == 12
    assert row["coarse"]["success"] and row["refined"]["success"]
    assert row["refined"]["te_m"] < 0.1
    assert row["coarse"]["wall_time"] == 0.0


def test_register_without_gt_omits_error_fields(scene_dir, tmp_path):
    out = tmp_path / "r.jsonl"
    assert main(_register_args(scene_dir, "--out", str(out))) == 0
    row = json.loads(out.read_text())
    assert "gt" not in row
    assert set(row["coarse"]) == {"wall_time"}


def test_register_prints_to_stdout_without_out(scene_dir, capsys):
    assert main(_register_args(scene_dir, "--refine", "none")) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    row = json.loads(lines[0])
    assert "est_refined" not in row and "refined" not in row


def test_register_is_byte_deterministic(scene_dir, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        args = _register_args(scene_dir, "--seed", "42", "--threads", "1",
                              "--out", str(out))
        assert main(args) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, message", [
    pytest.param(["register"],
                 "give either --src/--dst/--src-desc/--dst-desc or --pairs",
                 id="no-input"),
    pytest.param(["register", "--src", "a.ply", "--pairs", "p.csv"],
                 "give either --src/--dst/--src-desc/--dst-desc or --pairs",
                 id="both-inputs"),
    pytest.param(["register", "--src", "a.ply"], "--dst is required with --src",
                 id="src-without-dst"),
    pytest.param(["register", "--pairs", "p.csv", "--desc-dir", "d"],
                 "--cloud-dir and --desc-dir are required with --pairs",
                 id="pairs-without-cloud-dir"),
])
def test_register_usage_errors_print_one_line_and_exit_2(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_register_unreadable_cloud_exits_2(scene_dir, tmp_path, capsys):
    args = _register_args(scene_dir)
    args[args.index("--dst") + 1] = str(tmp_path / "missing.ply")
    assert main(args) == 2
    assert "unreadable" in capsys.readouterr().err


def test_register_descriptor_count_mismatch_names_the_file(scene_dir,
                                                           tmp_path, capsys):
    import lidarreg.io as io
    bad = tmp_path / "short.fdsc"
    io.write_descriptors(bad, np.zeros((5, 16), dtype=np.float32))
    args = _register_args(scene_dir)
    args[args.index("--src-desc") + 1] = str(bad)
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "short.fdsc" in err and "5 descriptors" in err


def test_register_config_file_sits_between_defaults_and_flags(scene_dir,
                                                              tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("sampler=uniform\nrefine=none\nseed=9\n")
    out1 = tmp_path / "one.jsonl"
    assert main(_register_args(scene_dir, "--config", str(cfg),
                               "--out", str(out1))) == 0
    row = json.loads(out1.read_text())
    assert "refined" not in row

    # the flag wins over the file
    out2 = tmp_path / "two.jsonl"
    assert main(_register_args(scene_dir, "--config", str(cfg),
                               "--refine", "icp", "--out", str(out2))) == 0
    assert "refined" in json.loads(out2.read_text())


def test_register_rejects_unknown_config_key(scene_dir, tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("turbo=yes\n")
    assert main(_register_args(scene_dir, "--config", str(cfg))) == 2
    assert "unknown option 'turbo'" in capsys.readouterr().err


def test_register_rejects_bad_config_choice(scene_dir, tmp_path, capsys):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("sampler=magic\n")
    assert main(_register_args(scene_dir, "--config", str(cfg))) == 2
    assert "sampler must be one of" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# benchgen + pair-list register
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def pair_list(traj_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    pairs = out / "pairs.csv"
    assert main(["benchgen", "--cloud-dir", str(traj_dir),
                 "--pose-dir", str(traj_dir),
                 "--out-pairs", str(pairs), "--out-dist", str(out / "dist"),
                 "--k", "1", "--min-overlap", "0.3", "--r", "0.5",
                 "--target-count", "6", "--seed", "2"]) == 0
    return pairs


def test_benchgen_writes_pairs_and_distributions(pair_list):
    records = read_pair_list(pair_list)
    assert len(records) == 6
    assert all(r.overlap > 0.3 for r in records)
    dist = pair_list.parent / "dist"
    names = sorted(p.name for p in dist.glob("*.csv"))
    assert names == ["dist_distance.csv", "dist_dt.csv", "dist_overlap.csv",
                     "dist_pitch.csv", "dist_roll.csv", "dist_yaw.csv"]
    header = (dist / "dist_yaw.csv").read_text().splitlines()[0]
    assert header == "bin_lo,bin_hi,count"


def test_benchgen_is_deterministic(traj_dir, pair_list, tmp_path):
    again = tmp_path / "again.csv"
    assert main(["benchgen", "--cloud-dir", str(traj_dir),
                 "--pose-dir", str(traj_dir), "--out-pairs", str(again),
                 "--k", "1", "--min-overlap", "0.3", "--r", "0.5",
                 "--target-count", "6", "--seed", "2"]) == 0
    assert again.read_bytes() == pair_list.read_bytes()


def test_benchgen_shortfall_is_one_warning_line_and_exits_0(traj_dir, tmp_path,
                                                           capsys):
    # with runtime warnings as errors, a shortfall is still only reported
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["benchgen", "--cloud-dir", str(traj_dir),
                     "--pose-dir", str(traj_dir),
                     "--out-pairs", str(tmp_path / "p.csv"),
                     "--k", "1", "--r", "1.0", "--target-count", "100",
                     "--seed", "2"]) == 0
    warned = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("warning:")]
    assert len(warned) == 1
    shortfall = re.fullmatch(r"warning: selected only (\d+) of 100 requested "
                             r"pairs after \d+ attempts", warned[0])
    assert shortfall
    assert len(read_pair_list(tmp_path / "p.csv")) == int(shortfall[1]) < 100


def test_benchgen_empty_pool_exits_1(traj_dir, tmp_path, capsys):
    assert main(["benchgen", "--cloud-dir", str(traj_dir),
                 "--pose-dir", str(traj_dir),
                 "--out-pairs", str(tmp_path / "p.csv"),
                 "--min-overlap", "0.999", "--k", "1"]) == 1
    assert "empty" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("config, field, command, flag", [
    pytest.param(SelectorConfig, "overlap_tau", "benchgen", "--tau", id="tau"),
    pytest.param(SceneSpec, "extent", "scene", "--extent", id="extent"),
    pytest.param(SceneSpec, "noise_sigma", "scene", "--sigma", id="sigma"),
    pytest.param(TrajectorySpec, "frame_spacing", "trajectory", "--spacing",
                 id="spacing"),
    pytest.param(TrajectorySpec, "sensor_range", "trajectory", "--range",
                 id="range"),
    pytest.param(None, None, "benchgen", "--voxel", id="voxel"),
])
def test_bad_float_is_rejected_naming_the_field_and_the_flag(
        traj_dir, tmp_path, capsys, config, field, command, flag, value):
    if config is not None:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            config(**{field: float(value)})
    out = tmp_path / "out"
    if command == "benchgen":
        argv = ["benchgen", "--cloud-dir", str(traj_dir),
                "--pose-dir", str(traj_dir), "--out-pairs", str(out / "p.csv"),
                "--k", "1", "--min-overlap", "0.3", "--r", "0.5"]
    else:
        argv = ["synth", command, "--out-dir", str(out)]
    assert main([*argv, f"{flag}={value}"]) == 2
    assert f"error: {flag[2:]}" in capsys.readouterr().err
    assert not any(p.is_file() for p in tmp_path.rglob("*"))


@pytest.mark.parametrize("argv, flag", [
    pytest.param(["scene", "--sigma", "nan"], "sigma", id="scene-sigma-nan"),
    pytest.param(["trajectory", "--profile", "uturn", "--frames", "1"],
                 "frames", id="uturn-frames-1"),
    pytest.param(["trajectory", "--profile", "random", "--frames", "0"],
                 "frames", id="random-frames-0"),
    pytest.param(["trajectory", "--dim", "0"], "dim", id="trajectory-dim-0"),
    pytest.param(["trajectory", "--sequence-id", "../escape"], "sequence-id",
                 id="escaping-sequence-id"),
])
def test_synth_bad_flag_exits_2_before_creating_the_out_dir(tmp_path, capsys,
                                                            monkeypatch, argv, flag):
    built = []
    monkeypatch.setattr("lidarreg.cli.generate_trajectory", built.append)
    out = tmp_path / "out"
    assert main(["synth", *argv, "--out-dir", str(out)]) == 2
    assert f"error: {flag}:" in capsys.readouterr().err
    assert built == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, bad_file", [
    # every coordinate is past float32's range
    pytest.param(["--extent", "1e39"], "src.ply", id="extent-1e39"),
    # the source fits float32, the moved target does not
    pytest.param(["--extent", "3e38", "--seed", "3"], "dst.ply", id="extent-3e38-target"),
])
def test_synth_scene_beyond_float32_exits_2_and_writes_nothing(tmp_path, capsys,
                                                               argv, bad_file):
    out = tmp_path / "out"
    assert main(["synth", "scene", "--out-dir", str(out), "--n", "20", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / bad_file}: ")
    assert "not finite at float32 precision" in err
    assert list(tmp_path.iterdir()) == []


def test_synth_trajectory_over_the_world_grid_cap_exits_2_before_the_out_dir(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("lidarreg.synth._MAX_WORLD_POINTS", 1000)
    out = tmp_path / "out"
    assert main(["synth", "trajectory", "--out-dir", str(out)]) == 2
    assert "world grid would hold" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    # 99 steps of 1e307 m overflow float64, so the spec refuses the spacing
    pytest.param(["--frames", "100", "--spacing", "1e307"], "spacing: frame_spacing",
                 id="spacing-past-float64"),
    # 99 steps of 1.8e306 m stay finite; the grid's point count does not
    pytest.param(["--frames", "100", "--spacing", "1.8e306"], "the drive's world grid",
                 id="spacing-under-float64"),
    # a stationary drive ignores its spacing, but its grid bounds overflow
    pytest.param(["--profile", "stationary", "--spacing", "1e308", "--range", "1e308"],
                 "the drive's world grid", id="range-past-float64"),
])
def test_synth_trajectory_past_float64_exits_2_in_one_line_without_warnings(
        tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["synth", "trajectory", "--out-dir", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_benchgen_voxel_zero_disables_downsampling(traj_dir, tmp_path,
                                                   monkeypatch):
    calls = []
    monkeypatch.setattr("lidarreg.cli.voxel_downsample",
                        lambda *args: calls.append(args))
    pairs = tmp_path / "p.csv"
    assert main(["benchgen", "--cloud-dir", str(traj_dir),
                 "--pose-dir", str(traj_dir), "--out-pairs", str(pairs),
                 "--k", "1", "--min-overlap", "0.3", "--r", "0.5",
                 "--target-count", "6", "--voxel", "0"]) == 0
    assert len(read_pair_list(pairs)) == 6
    assert calls == []


def test_benchgen_missing_pose_dir_exits_2(tmp_path, capsys):
    assert main(["benchgen", "--cloud-dir", str(tmp_path),
                 "--pose-dir", str(tmp_path),
                 "--out-pairs", str(tmp_path / "p.csv")]) == 2
    assert "no *.poses files" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [b"nan", b"inf", "2.0\u00e9".encode("utf-8"), b"0.5"],
                         ids=["nan", "inf", "non-ascii", "decreasing"])
def test_benchgen_bad_timestamp_exits_2_naming_the_line(traj_dir, tmp_path,
                                                       capsys, bad):
    (tmp_path / "drive0.poses").write_bytes((traj_dir / "drive0.poses").read_bytes())
    later = b"".join(b"%d.0\n" % i for i in range(3, 8))
    (tmp_path / "drive0.times").write_bytes(b"0.0\n1.0\n" + bad + b"\n" + later)
    out = tmp_path / "p.csv"
    assert main(["benchgen", "--cloud-dir", str(traj_dir),
                 "--pose-dir", str(tmp_path), "--out-pairs", str(out),
                 "--k", "1", "--min-overlap", "0.3", "--r", "0.5"]) == 2
    assert "drive0.times:3: " in capsys.readouterr().err
    assert not out.exists()


def test_benchgen_empty_frame_cloud_exits_2_naming_the_frame(traj_dir, tmp_path,
                                                             capsys):
    data = tmp_path / "data"
    shutil.copytree(traj_dir, data)
    io.write_cloud_ply(data / "drive0" / "000002.ply", np.empty((0, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["benchgen", "--cloud-dir", str(data), "--pose-dir", str(data),
                     "--out-pairs", str(tmp_path / "p.csv"), "--k", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: sequence drive0 frame 2 has an empty cloud"]
    assert not (tmp_path / "p.csv").exists()


def test_benchgen_timestamp_count_must_match_poses(traj_dir, tmp_path, capsys):
    (tmp_path / "drive0.poses").write_bytes((traj_dir / "drive0.poses").read_bytes())
    (tmp_path / "drive0.times").write_text("0.0\n1.0\n")
    assert main(["benchgen", "--cloud-dir", str(traj_dir),
                 "--pose-dir", str(tmp_path),
                 "--out-pairs", str(tmp_path / "p.csv")]) == 2
    assert "2 timestamps for 8 poses" in capsys.readouterr().err


@pytest.fixture(scope="module")
def register_output(traj_dir, pair_list, tmp_path_factory):
    out = tmp_path_factory.mktemp("regs") / "records.jsonl"
    assert main(["register", "--pairs", str(pair_list),
                 "--cloud-dir", str(traj_dir), "--desc-dir", str(traj_dir),
                 "--seed", "7", "--timing", "off",
                 "--out", str(out)]) == 0
    return out


def test_pair_list_register_carries_pair_metadata(register_output):
    rows = [json.loads(line) for line in
            register_output.read_text().splitlines()]
    assert len(rows) == 6
    for row in rows:
        assert row["sequence_id"] == "drive0"
        assert {"overlap", "dt", "distance", "yaw", "gt"} <= set(row)
        assert "success" in row["coarse"]


def test_threads_do_not_change_the_output(traj_dir, pair_list,
                                          register_output, tmp_path):
    out = tmp_path / "mp.jsonl"
    assert main(["register", "--pairs", str(pair_list),
                 "--cloud-dir", str(traj_dir), "--desc-dir", str(traj_dir),
                 "--seed", "7", "--timing", "off", "--threads", "3",
                 "--out", str(out)]) == 0
    assert out.read_bytes() == register_output.read_bytes()


def test_register_starts_no_more_workers_than_pairs(traj_dir, pair_list,
                                                   tmp_path, monkeypatch):
    # a stand-in pool records its size and maps in this process, so no
    # worker is started
    sizes = []

    class SerialPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, jobs):
            return [func(job) for job in jobs]

    monkeypatch.setattr(cli, "Pool", SerialPool)
    pairs = tmp_path / "pairs.csv"
    write_pair_list(pairs, read_pair_list(pair_list)[:2])

    def run(threads):
        out = tmp_path / f"threads-{threads}.jsonl"
        assert main(["register", "--pairs", str(pairs), "--cloud-dir", str(traj_dir),
                     "--desc-dir", str(traj_dir), "--seed", "7", "--timing", "off",
                     "--threads", threads, "--out", str(out)]) == 0
        return out.read_bytes()

    assert run("8") == run("1")
    assert sizes == [2]


def test_worker_errors_cross_the_process_boundary(traj_dir, pair_list,
                                                  tmp_path, capsys):
    # every pair's cloud is unreadable: each becomes an error row, exit 3
    out = tmp_path / "rows.jsonl"
    assert main(["register", "--pairs", str(pair_list),
                 "--cloud-dir", str(tmp_path), "--desc-dir", str(traj_dir),
                 "--threads", "2", "--out", str(out)]) == 3
    assert "unreadable" in capsys.readouterr().err
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 6
    assert all(row["status"] == "error" and "unreadable" in row["error"]
               for row in rows)


def test_a_failing_pair_is_an_error_row_and_the_batch_goes_on(
        traj_dir, pair_list, tmp_path, capsys):
    # 40 pairs, one of them from a frame that is cut to two points, too
    # few for RANSAC; the other 39 rows keep the bytes of a run over the
    # intact frame
    data = tmp_path / "data"
    shutil.copytree(traj_dir, data)
    records = read_pair_list(pair_list)
    listed = [records[i % len(records)] for i in range(40)]
    bad = 17
    frame = data / "drive0" / f"{listed[bad].src:06d}"
    for suffix in (".ply", ".fdsc"):
        shutil.copy(frame.with_suffix(suffix), data / "drive0" / f"{99:06d}{suffix}")
    listed[bad] = replace(listed[bad], src=99)
    pairs = tmp_path / "pairs.csv"
    write_pair_list(pairs, listed)

    def run(name):
        out = tmp_path / name
        code = main(["register", "--pairs", str(pairs), "--cloud-dir", str(data),
                     "--desc-dir", str(data), "--seed", "7", "--timing", "off",
                     "--threads", "2", "--out", str(out)])
        return code, out.read_bytes().splitlines()

    code, intact = run("intact.jsonl")
    assert code == 0 and len(intact) == 40
    io.write_cloud_ply(data / "drive0" / f"{99:06d}.ply", np.zeros((2, 3)))
    io.write_descriptors(data / "drive0" / f"{99:06d}.fdsc", np.zeros((2, 16)))
    capsys.readouterr()
    code, rows = run("cut.jsonl")
    assert code == 3
    assert len(rows) == 40
    assert rows[:bad] + rows[bad + 1:] == intact[:bad] + intact[bad + 1:]
    row, want = json.loads(rows[bad]), json.loads(intact[bad])
    assert row.pop("status") == "error"
    assert row.pop("error") == "need at least 3 correspondences, got 2"
    assert row == {k: want[k] for k in row}
    assert set(row) == {"sequence_id", "src", "tgt", "distance", "overlap", "yaw",
                        "pitch", "roll", "dt"}
    err = capsys.readouterr().err
    assert err == (f"error: pair drive0 99->{listed[bad].tgt}: "
                   "need at least 3 correspondences, got 2\n")
    # eval counts the error row as a failure and bins it
    assert main(["eval", "--records", str(tmp_path / "cut.jsonl"),
                 "--out-dir", str(tmp_path / "report")]) == 0
    printed = capsys.readouterr().out
    assert "error_rows=1" in printed
    assert float(printed.split("recall=")[1].split()[0]) <= 39 / 40
    lines = (tmp_path / "report" / "failure_overlap.csv").read_text().splitlines()
    assert sum(int(line.split(",")[3]) for line in lines[1:]) >= 1
    assert sum(int(line.split(",")[2]) + int(line.split(",")[3])
               for line in lines[1:]) == 40


def test_zero_width_descriptors_are_error_rows_and_the_batch_goes_on(
        traj_dir, pair_list, tmp_path, capsys):
    # both frames of the first pair get width-0 descriptors: every pair
    # that touches one of them is an error row, the others keep their
    # bytes; the matcher once raised ZeroDivisionError and ended the batch
    data = tmp_path / "data"
    shutil.copytree(traj_dir, data)
    listed = read_pair_list(pair_list)
    frames = {listed[0].src, listed[0].tgt}

    def run(name, threads="1"):
        out = tmp_path / name
        code = main(["register", "--pairs", str(pair_list), "--cloud-dir", str(data),
                     "--desc-dir", str(data), "--seed", "7", "--timing", "off",
                     "--threads", threads, "--out", str(out)])
        return code, out.read_bytes().splitlines()

    code, intact = run("intact.jsonl")
    assert code == 0 and len(intact) == len(listed)
    for frame in frames:
        path = data / "drive0" / f"{frame:06d}.fdsc"
        io.write_descriptors(path, read_descriptors(path)[:, :0])
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, rows = run("zero.jsonl")
    assert code == 3
    assert run("zero-threads.jsonl", "2") == (3, rows)
    touched = [k for k, r in enumerate(listed) if {r.src, r.tgt} & frames]
    assert 0 < len(touched) < len(listed)
    for k, (row, want) in enumerate(zip(rows, intact)):
        if k not in touched:
            assert row == want
            continue
        row = json.loads(row)
        assert row["status"] == "error"
        assert row["error"] == ("descriptors need at least one column"
                                if {listed[k].src, listed[k].tgt} <= frames
                                else "descriptor dims differ: 0 vs 16"
                                if listed[k].src in frames
                                else "descriptor dims differ: 16 vs 0")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 * len(touched)
    assert all(line.startswith("error: pair drive0 ") for line in err)
    # one pair alone exits 2 in one line
    first = data / "drive0" / f"{listed[0].src:06d}"
    second = data / "drive0" / f"{listed[0].tgt:06d}"
    assert main(["register", "--src", str(first.with_suffix(".ply")),
                 "--dst", str(second.with_suffix(".ply")),
                 "--src-desc", str(first.with_suffix(".fdsc")),
                 "--dst-desc", str(second.with_suffix(".fdsc")),
                 "--timing", "off", "--out", str(tmp_path / "one.jsonl")]) == 2
    assert capsys.readouterr().err == "error: descriptors need at least one column\n"


def test_benchgen_tiny_voxel_exits_2_in_one_line_without_warnings(traj_dir, tmp_path,
                                                                  capsys):
    # at 1e-20 the voxel keys overflow int64; the clouds were once merged
    # into a few centroids with only a cast warning
    pairs = tmp_path / "p.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["benchgen", "--cloud-dir", str(traj_dir),
                     "--pose-dir", str(traj_dir), "--out-pairs", str(pairs),
                     "--k", "1", "--r", "0.5", "--voxel", "1e-20"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: voxel_size 1e-20 gives voxel keys")
    assert not pairs.exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_reports_recall_and_histograms(register_output, tmp_path,
                                            capsys):
    out = tmp_path / "report"
    assert main(["eval", "--records", str(register_output),
                 "--out-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "recall=" in printed and "mean_wall_time_s=" in printed
    recall = float(printed.split("recall=")[1].splitlines()[0])
    assert 0.0 <= recall <= 1.0
    csvs = sorted(p.name for p in out.glob("*.csv"))
    assert csvs == ["failure_distance.csv", "failure_dt.csv",
                    "failure_overlap.csv", "failure_pitch.csv",
                    "failure_roll.csv", "failure_yaw.csv"]
    lines = (out / "failure_overlap.csv").read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,successes,failures,failure_ratio"
    totals = sum(int(line.split(",")[2]) + int(line.split(",")[3])
                 for line in lines[1:])
    assert totals == 6


def test_eval_without_gt_exits_2(scene_dir, tmp_path, capsys):
    out = tmp_path / "nogt.jsonl"
    assert main(_register_args(scene_dir, "--out", str(out))) == 0
    assert main(["eval", "--records", str(out)]) == 2
    assert "no success field" in capsys.readouterr().err


def test_eval_warns_and_omits_missing_parameters(scene_dir, tmp_path,
                                                 capsys):
    out = tmp_path / "single.jsonl"
    assert main(_register_args(scene_dir, "--gt-pose",
                               str(scene_dir / "gt.txt"),
                               "--out", str(out))) == 0
    report = tmp_path / "report"
    assert main(["eval", "--records", str(out),
                 "--out-dir", str(report)]) == 0
    err = capsys.readouterr().err
    assert "histogram" in err and "omitted" in err
    assert list(report.glob("*.csv")) == []


def test_gimbal_lock_row_reports_only_its_defined_parameters(
        traj_dir, pair_list, tmp_path, capsys):
    # a relative pitch of 90 degrees leaves roll, pitch and yaw undefined
    first, second = read_pair_list(pair_list)[:2]
    locked = replace(first, motion=RigidMotion(
        from_euler(EulerAngles(0.0, 90.0, 0.0)), first.motion.translation))
    with pytest.raises(GimbalLockError):
        set_distribution_report([locked, second])
    pairs = tmp_path / "pairs.csv"
    write_pair_list(pairs, [locked, second])
    records = tmp_path / "records.jsonl"
    assert main(["register", "--pairs", str(pairs),
                 "--cloud-dir", str(traj_dir), "--desc-dir", str(traj_dir),
                 "--seed", "7", "--timing", "off",
                 "--out", str(records)]) == 0
    rows = [json.loads(line) for line in records.read_text().splitlines()]
    angles = {"roll", "pitch", "yaw"}
    assert {"distance", "overlap", "dt"} <= set(rows[0])
    assert not angles & set(rows[0])
    assert angles <= set(rows[1])
    report = tmp_path / "report"
    assert main(["eval", "--records", str(records),
                 "--out-dir", str(report)]) == 0
    assert sorted(p.name for p in report.glob("*.csv")) == [
        "failure_distance.csv", "failure_dt.csv", "failure_overlap.csv"]
    warned = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("warning:")]
    assert warned == [f"warning: some records lack {name!r}; histogram omitted"
                      for name in ("yaw", "pitch", "roll")]


def test_eval_empty_records_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["eval", "--records", str(empty)]) == 2
    assert capsys.readouterr() == ("", f"error: {empty}: no records\n")
