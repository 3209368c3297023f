"""Command-line interface: register, benchgen, eval, synth.

``register`` runs the matching/filter/RANSAC/ICP pipeline over one cloud
pair or a pair-list CSV and emits one JSON line per pair.  ``benchgen``
builds a balanced registration set from pose and cloud directories.
``eval`` aggregates register output into recall and failure histograms.
``synth`` writes generated scenes or trajectories in the standard formats
so the whole chain can run from files alone.

Each config's flags are declared once, in one table per config:
``PipelineConfig`` (and its sections) for ``register``,
``SelectorConfig`` for ``benchgen``, ``SceneSpec`` for ``synth scene`` and
``TrajectorySpec`` for ``synth trajectory``; each ``synth`` mode takes
only its own flags.  A flag's type, choices and the default ``--help``
shows come from the config, and a flag left out keeps the config's value.
Option precedence for ``register`` is flags over config file over those
defaults; the config file holds flat ``key=value`` lines named after the
long flags.  With a fixed ``--seed`` and ``--threads 1`` (plus ``--timing
off``, since wall clocks are measurements, not outputs) every emitted
byte is reproducible.

Exit codes: 0 all pairs processed, 1 empty result (the benchgen candidate
pool is empty), 2 bad usage, unreadable or malformed input, or a value
the estimator rejects (any ``ValueError``, such as a pair with fewer than
three correspondences), 3 ``register --pairs`` finished with error rows.
In a ``--pairs`` batch a pair that raises a ``ValueError`` (a
``FormatError`` included) does not end the batch: its row holds the
pair's metadata, ``status: "error"`` and the ``error`` message, every
other row is written as usual, and ``eval`` counts the pair as a failure.
A single ``--src`` pair that fails exits 2.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from multiprocessing import Pool
from operator import attrgetter
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .benchgen import PosedFrame, SelectorConfig, build_candidate_pool, select_balanced
from .geom import RigidMotion, voxel_downsample
from .io import (
    FormatError,
    _float32,
    read_cloud_bin,
    read_cloud_ply,
    read_config,
    read_descriptors,
    read_jsonl,
    read_pair_list,
    read_poses,
    read_times,
    write_cloud_ply,
    write_descriptors,
    write_histogram_csv,
    write_jsonl,
    write_pair_list,
    write_poses,
    write_times,
)
from .metrics import (
    DEFAULT_BIN_EDGES,
    PairRecord,
    failure_histogram,
    is_success,
    recall,
    rotation_error,
    set_distribution_report,
    translation_error,
)
from .pipeline import FILTERS, REFINERS, PipelineConfig, register_pair
from .ransac import REJECTIONS
from .synth import (
    PROFILES,
    SceneSpec,
    TrajectorySpec,
    frame_descriptors,
    generate_scene,
    generate_trajectory,
)

DEFAULT_CLOUD_PATTERN = "{seq}/{frame:06d}.ply"
DEFAULT_DESC_PATTERN = "{seq}/{frame:06d}.fdsc"

_Table = dict[str, tuple[str, str]]

# One table per config, flag: (field, help); a field of a PipelineConfig
# section is dotted.  A config's error message starts with the field's
# name, which names the flag in the CLI's message.
_PIPELINE_FLAGS: _Table = {
    "max-iters": ("ransac.max_iterations", "RANSAC iteration cap"),
    "confidence": ("ransac.confidence", "RANSAC stopping confidence"),
    "inlier-thresh": ("ransac.inlier_threshold", "RANSAC inlier gate, meters"),
    "sampler": ("ransac.use_prosac", "minimal-sample sampler"),
    "reject": ("ransac.rejection", "sample rejection before fitting"),
    "lo": ("ransac.use_lo", "local optimization of each new best model"),
    "seed": ("ransac.seed", "RANSAC seed; each listed pair derives its own"),
    "filter": ("correspondence_filter", "correspondence filter"),
    "gpf": ("gpf.phi", "GPF match budget per mutual pair"),
    "grid-m": ("gpf.grid_m", "GPF grid cells per axis"),
    "refine": ("refine", "refinement of the RANSAC motion"),
    "icp-thresh": ("icp.threshold", "ICP pairing gate, meters"),
    "elc-tol": ("ransac.elc_tolerance", "ELC edge-length tolerance"),
}

_SELECTOR_FLAGS: _Table = {
    "k": ("k", "source frame stride"),
    "min-overlap": ("min_overlap", "least overlap of a candidate pair"),
    "r": ("r", "selection radius in the normalized motion cube"),
    "target-count": ("target_count", "pairs to select"),
    "tau": ("overlap_tau", "nearest-neighbor gate for the overlap measure"),
    "seed": ("seed", "selection seed"),
}

_SCENE_FLAGS: _Table = {
    "n": ("n_points", "points per cloud"),
    "extent": ("extent", "half-width of the source point box, meters"),
    "inlier-fraction": ("inlier_fraction", "share of planted inliers"),
    "sigma": ("noise_sigma", "inlier noise, meters"),
    "dim": ("descriptor_dim", "descriptor width"),
    "qc": ("quality_correlation", "descriptor quality correlation"),
    "seed": ("seed", "generator seed"),
}

_TRAJECTORY_FLAGS: _Table = {
    "frames": ("n_frames", "frames in the drive"),
    "spacing": ("frame_spacing", "meters between frames (unused when stationary)"),
    "profile": ("profile", "heading change from frame to frame"),
    "range": ("sensor_range", "sensor range, meters"),
    "sequence-id": ("sequence_id", "drive name in the file names"),
    "seed": ("seed", "generator seed"),
}

# register's options that set no config field, at their defaults
_RUN = SimpleNamespace(threads=1, timing="wall")
_RUN_FLAGS: _Table = {
    "threads": ("threads", "worker processes for a pair list"),
    "timing": ("timing", "off writes every wall time as 0.0"),
}

# a bool field's flag words, (False, True), and the other flags' choices
_CHOICES: dict[str, tuple[str, ...]] = {
    "sampler": ("uniform", "prosac"), "lo": ("off", "on"),
    "reject": REJECTIONS, "filter": FILTERS, "refine": REFINERS,
    "timing": ("wall", "off"), "profile": PROFILES,
}


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _read_cloud(path) -> np.ndarray:
    p = Path(path)
    if p.suffix == ".ply":
        return read_cloud_ply(p)
    if p.suffix == ".bin":
        return read_cloud_bin(p)
    raise FormatError(p, f"unknown cloud extension {p.suffix!r} "
                         "(expected .ply or .bin)")


def _motion_reals(m: RigidMotion) -> list[float]:
    return [float(v) for v in m.matrix34().ravel()]


def _defaults(table: _Table, config) -> dict[str, object]:
    """``config``'s value of each of ``table``'s flags, a bool as its word."""
    values = {flag: attrgetter(field)(config) for flag, (field, _) in table.items()}
    return {flag: _CHOICES[flag][v] if isinstance(v, bool) else v
            for flag, v in values.items()}


def _add_flags(parser: argparse.ArgumentParser, table: _Table, config) -> None:
    """Adds ``table``'s flags, typed and shown at ``config``'s values.  Each
    parses under its own name, as None when left out."""
    for flag, default in _defaults(table, config).items():
        parser.add_argument("--" + flag, dest=flag, type=type(default),
                            choices=_CHOICES.get(flag),
                            help=f"{table[flag][1]} (default: {default})")


def _build(config, table: _Table, values: dict[str, object]):
    """``config`` with the values of ``table``'s flags that are not None,
    section by section; a value the config rejects raises ``ValueError``
    naming its flag."""
    by_section: dict[str, dict[str, object]] = {}
    for flag, (field, _) in table.items():
        if (value := values.get(flag)) is not None:
            if isinstance(attrgetter(field)(config), bool):
                value = value == _CHOICES[flag][True]
            section, _, name = field.rpartition(".")
            by_section.setdefault(section, {})[name] = value
    own = by_section.pop("", {})
    try:
        return replace(config, **own, **{
            section: replace(getattr(config, section), **fields)
            for section, fields in by_section.items()})
    except ValueError as e:
        name = str(e).split(" ", 1)[0]
        for flag, (field, _) in table.items():
            if field.rpartition(".")[2] == name:
                raise ValueError(f"{flag}: {e}") from e
        raise


def _register_options(args: argparse.Namespace) -> dict[str, object]:
    """Every register option by flag: flags over config file over the
    defaults."""
    merged = _defaults(_PIPELINE_FLAGS, PipelineConfig()) | _defaults(_RUN_FLAGS, _RUN)
    for key, value in ({} if args.config is None else read_config(args.config)).items():
        flag = key.replace("_", "-")
        if flag not in merged:
            raise FormatError(args.config, f"unknown option {key!r}")
        try:
            merged[flag] = type(merged[flag])(value)
        except ValueError as e:
            raise FormatError(args.config, f"bad value for {key!r}: {value!r}") from e
    merged |= {flag: v for flag in merged if (v := vars(args)[flag]) is not None}
    for flag, allowed in _CHOICES.items():
        if flag in merged and merged[flag] not in allowed:
            raise ValueError(f"{flag} must be one of {', '.join(allowed)}")
    if merged["threads"] < 1:
        raise ValueError("threads must be >= 1")
    return merged


def _pattern_paths(flag: str, root, pattern: str):
    """``(seq, frame) -> root / pattern.format(seq=seq, frame=frame)``;
    raises ``ValueError`` naming ``flag`` unless the pattern formats with
    only ``seq`` and ``frame``."""
    try:
        pattern.format(seq="seq", frame=0)
    except (LookupError, ValueError, AttributeError, TypeError) as e:
        raise ValueError(f"{flag}: {pattern!r} is not a path pattern over "
                         f"{{seq}} and {{frame}} ({type(e).__name__}: {e})") from e
    return lambda seq, frame: Path(root) / pattern.format(seq=seq, frame=frame)


def _stage_dict(est: RigidMotion, gt: RigidMotion | None,
                wall: float, timing: str) -> dict:
    out: dict = {"wall_time": 0.0 if timing == "off" else float(wall)}
    if gt is not None:
        re = rotation_error(est.rotation, gt.rotation)
        te = translation_error(est.translation, gt.translation)
        out.update(re_deg=re, te_m=te, success=is_success(re, te))
    return out


def _register_job(job: tuple) -> dict:
    """One pair's row; a ``ValueError`` becomes an error row, so a worker
    never raises."""
    try:
        return _register_row(*job)
    except ValueError as e:  # FormatError included
        return dict(job[0], status="error", error=str(e))


def _register_row(meta, src_path, dst_path, sdesc_path, ddesc_path, gt, cfg,
                  timing) -> dict:
    src = _read_cloud(src_path)
    dst = _read_cloud(dst_path)
    src_desc = read_descriptors(sdesc_path)
    dst_desc = read_descriptors(ddesc_path)
    if len(src_desc) != len(src):
        raise FormatError(sdesc_path, f"{len(src_desc)} descriptors for a "
                                      f"{len(src)}-point cloud")
    if len(dst_desc) != len(dst):
        raise FormatError(ddesc_path, f"{len(dst_desc)} descriptors for a "
                                      f"{len(dst)}-point cloud")

    result = register_pair(src, dst, src_desc, dst_desc, cfg)

    row = dict(meta)
    row.update(
        n_corrs=result.corrs_total,
        n_filtered=result.corrs_kept,
        iterations=result.ransac.iterations_run,
        rejected_fast=result.ransac.hypotheses_rejected_fast,
        lo_rounds=result.ransac.lo_rounds,
        converged_by=result.ransac.converged_by,
        est_coarse=_motion_reals(result.ransac.motion),
        coarse=_stage_dict(result.ransac.motion, gt, result.coarse_time, timing))
    if gt is not None:
        row["gt"] = _motion_reals(gt)
    if result.icp is not None:
        row["est_refined"] = _motion_reals(result.icp.motion)
        row["refined"] = _stage_dict(result.icp.motion, gt,
                                     result.refined_time, timing)
    return row


def _pair_seed(base: int, index: int) -> int:
    return int(np.random.SeedSequence([base, index]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

def _pair_meta(record: PairRecord) -> dict:
    return {"sequence_id": record.sequence_id, "src": record.src,
            "tgt": record.tgt} | record.parameters()


def _cmd_register(args: argparse.Namespace) -> int:
    opt = _register_options(args)
    cfg = _build(PipelineConfig(), _PIPELINE_FLAGS, opt)
    timing = opt["timing"]
    single = args.src is not None
    listed = args.pairs is not None
    if single == listed:
        raise ValueError("give either --src/--dst/--src-desc/--dst-desc or --pairs")

    jobs: list[tuple] = []
    if single:
        missing = [n for n in ("dst", "src_desc", "dst_desc")
                   if getattr(args, n) is None]
        if missing:
            raise ValueError(f"--{missing[0].replace('_', '-')} is required "
                             "with --src")
        gt = None
        if args.gt_pose is not None:
            poses = read_poses(args.gt_pose)
            if not poses:
                raise FormatError(args.gt_pose, "no pose line")
            gt = poses[0]
        meta = {"sequence_id": "pair", "src": 0, "tgt": 1}
        jobs.append((meta, args.src, args.dst, args.src_desc, args.dst_desc,
                     gt, cfg, timing))
    else:
        if args.cloud_dir is None or args.desc_dir is None:
            raise ValueError("--cloud-dir and --desc-dir are required with --pairs")
        cloud = _pattern_paths("cloud-pattern", args.cloud_dir, args.cloud_pattern)
        desc = _pattern_paths("desc-pattern", args.desc_dir, args.desc_pattern)
        for i, rec in enumerate(read_pair_list(args.pairs)):
            paths = [cloud(rec.sequence_id, rec.src), cloud(rec.sequence_id, rec.tgt),
                     desc(rec.sequence_id, rec.src), desc(rec.sequence_id, rec.tgt)]
            seed = _pair_seed(cfg.ransac.seed, i)
            jobs.append((_pair_meta(rec), *map(str, paths), rec.motion,
                         replace(cfg, ransac=replace(cfg.ransac, seed=seed)),
                         timing))

    if opt["threads"] > 1 and len(jobs) > 1:
        # a pool starts all its workers at once: no more than there are pairs
        with Pool(min(opt["threads"], len(jobs))) as pool:
            rows = pool.map(_register_job, jobs)
    else:
        rows = [_register_job(j) for j in jobs]

    errors = [row for row in rows if row.get("status") == "error"]
    if single and errors:
        raise ValueError(errors[0]["error"])
    write_jsonl(args.out, rows)
    for row in errors:
        print(f"error: pair {row['sequence_id']} {row['src']}->{row['tgt']}: "
              f"{row['error']}", file=sys.stderr)
    return 3 if errors else 0


# ---------------------------------------------------------------------------
# benchgen
# ---------------------------------------------------------------------------

def _load_sequences(args: argparse.Namespace):
    cloud_path = _pattern_paths("cloud-pattern", args.cloud_dir, args.cloud_pattern)
    pose_dir = Path(args.pose_dir)
    pose_files = sorted(pose_dir.glob("*.poses"))
    if not pose_files:
        raise FormatError(pose_dir, "no *.poses files")
    sequences = []
    for pf in pose_files:
        seq = pf.stem
        poses = read_poses(pf)
        times_file = pose_dir / f"{seq}.times"
        times = read_times(times_file) if times_file.exists() \
            else [float(i) for i in range(len(poses))]
        if len(times) != len(poses):
            raise FormatError(times_file, f"{len(times)} timestamps for "
                                          f"{len(poses)} poses")
        frames = []
        for i, pose in enumerate(poses):
            cloud = _read_cloud(cloud_path(seq, i))
            if args.voxel > 0.0:
                cloud = voxel_downsample(cloud, args.voxel)
            frames.append(PosedFrame(sequence_id=seq, frame_index=i,
                                     timestamp=times[i], pose=pose,
                                     cloud=cloud))
        sequences.append(frames)
    return sequences


def _cmd_benchgen(args: argparse.Namespace) -> int:
    cfg = _build(SelectorConfig(), _SELECTOR_FLAGS, vars(args))
    if not 0.0 <= args.voxel < np.inf:
        raise ValueError(f"voxel must be nonnegative and finite, got {args.voxel}")
    pool = build_candidate_pool(_load_sequences(args), cfg)
    if not pool:
        print("error: candidate pool is empty after overlap filtering; "
              "lower --min-overlap or check the poses", file=sys.stderr)
        return 1
    result = select_balanced(pool, cfg)
    if result.exhausted:
        print(f"warning: selected only {len(result.records)} of "
              f"{cfg.target_count} requested pairs after {result.attempts} "
              "attempts", file=sys.stderr)

    out_pairs = Path(args.out_pairs)
    out_pairs.parent.mkdir(parents=True, exist_ok=True)
    write_pair_list(out_pairs, result.records)

    if args.out_dist is not None:
        dist_dir = Path(args.out_dist)
        dist_dir.mkdir(parents=True, exist_ok=True)
        for name, counts in set_distribution_report(result.records).items():
            write_histogram_csv(dist_dir / f"dist_{name}.csv",
                                DEFAULT_BIN_EDGES[name], {"count": counts})
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _final_stage(row: dict, path) -> dict | None:
    """The row's last stage, or None for an error row."""
    if row.get("status") == "error":
        return None
    stage = row.get("refined", row.get("coarse"))
    if not isinstance(stage, dict):
        raise FormatError(path, "record has neither refined nor coarse stage")
    if "success" not in stage:
        raise FormatError(path, "record carries no ground truth "
                                "(no success field); eval needs gt pairs")
    return stage


def _cmd_eval(args: argparse.Namespace) -> int:
    rows = read_jsonl(args.records)
    if not rows:
        raise FormatError(args.records, "no records")
    stages = [_final_stage(row, args.records) for row in rows]
    # an error row is a failed pair; it has no wall time
    success = np.array([s is not None and bool(s["success"]) for s in stages])
    walls = [float(s.get("wall_time", 0.0)) for s in stages if s is not None]
    print(f"recall={recall(success):.4f}")
    print(f"mean_wall_time_s={np.mean(walls) if walls else 0.0:.4f}")
    if len(walls) < len(rows):
        print(f"error_rows={len(rows) - len(walls)}")

    if args.out_dir is not None:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name in DEFAULT_BIN_EDGES:
            if not all(name in row for row in rows):
                print(f"warning: some records lack {name!r}; histogram "
                      "omitted", file=sys.stderr)
                continue
            values = [float(row[name]) for row in rows]
            write_histogram_csv(out / f"failure_{name}.csv", DEFAULT_BIN_EDGES[name],
                                failure_histogram(name, values, success))
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _cmd_scene(args: argparse.Namespace) -> int:
    out = Path(args.out_dir)
    spec = _build(SceneSpec(true_motion=RigidMotion.identity() if args.identity else None),
                  _SCENE_FLAGS, vars(args))
    scene = generate_scene(spec)
    files = {"src.ply": scene.src, "dst.ply": scene.dst,
             "src.fdsc": scene.src_desc, "dst.fdsc": scene.dst_desc}
    # the writers' own float32 check, on every array before any is written
    for name, values in files.items():
        _float32(out / name, values, "cloud" if name.endswith(".ply") else "descriptors")
    out.mkdir(parents=True, exist_ok=True)
    for name, values in files.items():
        (write_cloud_ply if name.endswith(".ply") else write_descriptors)(out / name, values)
    write_poses(out / "gt.txt", [scene.true_motion])
    return 0


def _cmd_trajectory(args: argparse.Namespace) -> int:
    spec = _build(TrajectorySpec(), _TRAJECTORY_FLAGS, vars(args))
    # --dim is the scene's flag, checked there before the drive is built
    dim = _build(SceneSpec(), _SCENE_FLAGS, {"dim": args.dim}).descriptor_dim
    frames = generate_trajectory(spec)
    descs = frame_descriptors(frames, dim=dim, seed=spec.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for frame, desc in zip(frames, descs):
        cloud_path = out / DEFAULT_CLOUD_PATTERN.format(
            seq=spec.sequence_id, frame=frame.frame_index)
        cloud_path.parent.mkdir(parents=True, exist_ok=True)
        write_cloud_ply(cloud_path, frame.cloud)
        write_descriptors(out / DEFAULT_DESC_PATTERN.format(
            seq=spec.sequence_id, frame=frame.frame_index), desc)
    write_poses(out / f"{spec.sequence_id}.poses", [f.pose for f in frames])
    write_times(out / f"{spec.sequence_id}.times", [f.timestamp for f in frames])
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidarreg",
        description="point cloud registration toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("register", help="register one pair or a pair list")
    reg.add_argument("--src", help="source cloud (.ply or .bin)")
    reg.add_argument("--dst", help="target cloud")
    reg.add_argument("--src-desc", help="source descriptor file")
    reg.add_argument("--dst-desc", help="target descriptor file")
    reg.add_argument("--gt-pose", help="pose file with the ground-truth motion")
    reg.add_argument("--pairs", help="pair-list CSV")
    reg.add_argument("--cloud-dir", help="cloud root for pair-list mode")
    reg.add_argument("--desc-dir", help="descriptor root for pair-list mode")
    reg.add_argument("--cloud-pattern", default=DEFAULT_CLOUD_PATTERN,
                     help="cloud path under --cloud-dir (default: %(default)s)")
    reg.add_argument("--desc-pattern", default=DEFAULT_DESC_PATTERN,
                     help="descriptor path under --desc-dir (default: %(default)s)")
    reg.add_argument("--config", help="key=value option file")
    reg.add_argument("--out", help="output JSONL path (default: stdout)")
    _add_flags(reg, _PIPELINE_FLAGS, PipelineConfig())
    _add_flags(reg, _RUN_FLAGS, _RUN)
    reg.set_defaults(func=_cmd_register)

    bg = sub.add_parser("benchgen", help="build a balanced registration set")
    bg.add_argument("--cloud-dir", required=True)
    bg.add_argument("--pose-dir", required=True,
                    help="directory of {seq}.poses files (optional {seq}.times)")
    bg.add_argument("--cloud-pattern", default=DEFAULT_CLOUD_PATTERN,
                    help="cloud path under --cloud-dir (default: %(default)s)")
    bg.add_argument("--out-pairs", required=True, help="pair-list CSV to write")
    bg.add_argument("--out-dist", help="directory for distribution CSVs")
    bg.add_argument("--voxel", type=float, default=0.3,
                    help="downsample resolution before overlap, 0 disables "
                         "(default: %(default)s)")
    _add_flags(bg, _SELECTOR_FLAGS, SelectorConfig())
    bg.set_defaults(func=_cmd_benchgen)

    ev = sub.add_parser("eval", help="aggregate register output")
    ev.add_argument("--records", required=True, help="JSONL from register")
    ev.add_argument("--out-dir", help="directory for failure-ratio CSVs")
    ev.set_defaults(func=_cmd_eval)

    sy = sub.add_parser("synth", help="generate synthetic data files")
    modes = sy.add_subparsers(dest="mode", required=True)
    scene = modes.add_parser("scene", help="one planted pair and its motion")
    scene.add_argument("--out-dir", required=True)
    _add_flags(scene, _SCENE_FLAGS, SceneSpec())
    scene.add_argument("--identity", action="store_true",
                       help="use the identity as the true motion")
    scene.set_defaults(func=_cmd_scene)
    traj = modes.add_parser("trajectory", help="a posed drive, frame by frame")
    traj.add_argument("--out-dir", required=True)
    _add_flags(traj, _TRAJECTORY_FLAGS, TrajectorySpec())
    _add_flags(traj, {"dim": _SCENE_FLAGS["dim"]}, SceneSpec())
    traj.set_defaults(func=_cmd_trajectory)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:  # FormatError included
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
