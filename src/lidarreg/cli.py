"""Command-line interface: register, benchgen, eval, synth.

``register`` runs the matching/filter/RANSAC/ICP pipeline over one cloud
pair or a pair-list CSV and emits one JSON line per pair.  ``benchgen``
builds a balanced registration set from pose and cloud directories.
``eval`` aggregates register output into recall and failure histograms.
``synth`` writes generated scenes or trajectories in the standard formats
so the whole chain can run from files alone.

Option precedence for ``register`` is flags over config file over
defaults, which are the field defaults of ``PipelineConfig`` and its
sections; the config file holds flat ``key=value`` lines named after the
long flags.  With a fixed ``--seed`` and ``--threads 1`` (plus
``--timing off``, since wall clocks are measurements, not outputs) every
emitted byte is reproducible.

Exit codes: 0 all pairs processed, 1 empty result (the benchgen candidate
pool is empty), 2 bad usage, unreadable or malformed input, or a value
the estimator rejects (any ``ValueError``, such as a pair with fewer than
three correspondences).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from multiprocessing import Pool
from pathlib import Path

import numpy as np

from .benchgen import PosedFrame, SelectorConfig, build_candidate_pool, select_balanced
from .geom import GimbalLockError, RigidMotion, voxel_downsample
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
    FailureHistogram,
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
from .synth import SceneSpec, TrajectorySpec, frame_descriptors, generate_scene, generate_trajectory

DEFAULT_CLOUD_PATTERN = "{seq}/{frame:06d}.ply"
DEFAULT_DESC_PATTERN = "{seq}/{frame:06d}.fdsc"

# register's estimator options by flag dest: (PipelineConfig section, field),
# section None for PipelineConfig's own fields.  Their defaults are the
# dataclass field defaults.
_PIPELINE_FIELDS: dict[str, tuple[str | None, str]] = {
    "max_iters": ("ransac", "max_iterations"),
    "confidence": ("ransac", "confidence"),
    "inlier_thresh": ("ransac", "inlier_threshold"),
    "sampler": ("ransac", "use_prosac"),
    "reject": ("ransac", "rejection"),
    "lo": ("ransac", "use_lo"),
    "seed": ("ransac", "seed"),
    "filter": (None, "correspondence_filter"),
    "gpf": ("gpf", "phi"),
    "grid_m": ("gpf", "grid_m"),
    "refine": (None, "refine"),
    "icp_thresh": ("icp", "threshold"),
    "elc_tol": ("ransac", "elc_tolerance"),
}

# the words for the two bool fields, (False, True)
_BOOL_WORDS: dict[str, tuple[str, str]] = {
    "sampler": ("uniform", "prosac"),
    "lo": ("off", "on"),
}

_REGISTER_CHOICES: dict[str, tuple[str, ...]] = {
    **_BOOL_WORDS, "reject": REJECTIONS, "filter": FILTERS,
    "refine": REFINERS, "timing": ("wall", "off"),
}


# benchgen's and synth's flags by the config field each sets; a config's
# error message starts with the field's name
_FLAG_OF_FIELD: dict[str, str] = {
    "k": "k", "min_overlap": "min-overlap", "r": "r", "overlap_tau": "tau",
    "target_count": "target-count", "n_points": "n", "extent": "extent",
    "inlier_fraction": "inlier-fraction", "noise_sigma": "sigma",
    "descriptor_dim": "dim", "quality_correlation": "qc",
    "n_frames": "frames", "frame_spacing": "spacing", "sensor_range": "range",
}


def _field_word(cfg: PipelineConfig, dest: str) -> object:
    section, name = _PIPELINE_FIELDS[dest]
    value = getattr(cfg if section is None else getattr(cfg, section), name)
    return _BOOL_WORDS[dest][value] if dest in _BOOL_WORDS else value


# every register option's default; a config file value takes its type
_REGISTER_DEFAULTS: dict[str, object] = {
    **{dest: _field_word(PipelineConfig(), dest) for dest in _PIPELINE_FIELDS},
    "threads": 1,
    "timing": "wall",
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


def _merge_register_options(args: argparse.Namespace) -> dict[str, object]:
    merged = dict(_REGISTER_DEFAULTS)
    if args.config is not None:
        for key, value in read_config(args.config).items():
            dest = key.replace("-", "_")
            if dest not in _REGISTER_DEFAULTS:
                raise FormatError(args.config, f"unknown option {key!r}")
            try:
                merged[dest] = type(_REGISTER_DEFAULTS[dest])(value)
            except ValueError as e:
                raise FormatError(args.config,
                                  f"bad value for {key!r}: {value!r}") from e
    for dest in _REGISTER_DEFAULTS:
        flag_value = getattr(args, dest)
        if flag_value is not None:
            merged[dest] = flag_value
    for dest, allowed in _REGISTER_CHOICES.items():
        if merged[dest] not in allowed:
            raise ValueError(f"{dest.replace('_', '-')} must be one of "
                             f"{', '.join(allowed)}")
    if merged["threads"] < 1:
        raise ValueError("threads must be >= 1")
    return merged


def _from_flags(make, **kwargs):
    """``make(**kwargs)``; a ``ValueError`` that names a field is re-raised
    naming the flag that sets it."""
    try:
        return make(**kwargs)
    except ValueError as e:
        flag = _FLAG_OF_FIELD.get(str(e).split(" ", 1)[0])
        if flag is None:
            raise
        raise ValueError(f"{flag}: {e}") from e


def _pipeline_config(opt: dict[str, object]) -> PipelineConfig:
    """The merged options as a config; a value the config rejects raises
    ``ValueError`` naming its option."""
    cfg = PipelineConfig()
    for dest, (section, name) in _PIPELINE_FIELDS.items():
        value = opt[dest]
        if dest in _BOOL_WORDS:
            value = value == _BOOL_WORDS[dest][True]
        try:
            if section is None:
                cfg = replace(cfg, **{name: value})
            else:
                cfg = replace(cfg, **{section: replace(getattr(cfg, section),
                                                       **{name: value})})
        except ValueError as e:
            raise ValueError(f"{dest.replace('_', '-')}: {e}") from e
    return cfg


def _stage_dict(est: RigidMotion, gt: RigidMotion | None,
                wall: float, timing: str) -> dict:
    out: dict = {"wall_time": 0.0 if timing == "off" else float(wall)}
    if gt is not None:
        re = rotation_error(est.rotation, gt.rotation)
        te = translation_error(est.translation, gt.translation)
        out.update(re_deg=re, te_m=te, success=is_success(re, te))
    return out


def _register_job(job: tuple) -> dict:
    meta, src_path, dst_path, sdesc_path, ddesc_path, gt, cfg, timing = job
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


def _emit_rows(rows, out_path) -> None:
    if out_path is None or out_path == "-":
        for row in rows:
            print(json.dumps(row, sort_keys=True))
    else:
        write_jsonl(out_path, rows)


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

def _pair_meta(record: PairRecord) -> dict:
    meta = {"sequence_id": record.sequence_id, "src": record.src,
            "tgt": record.tgt}
    for name in DEFAULT_BIN_EDGES:
        try:
            meta[name] = float(record.parameter(name))
        except GimbalLockError:
            pass    # at gimbal lock no angle is defined
    return meta


def _cmd_register(args: argparse.Namespace) -> int:
    opt = _merge_register_options(args)
    cfg = _pipeline_config(opt)
    timing = str(opt["timing"])
    single = args.src is not None
    listed = args.pairs is not None
    if single == listed:
        print("error: give either --src/--dst/--src-desc/--dst-desc or --pairs",
              file=sys.stderr)
        return 2

    jobs: list[tuple] = []
    if single:
        missing = [n for n in ("dst", "src_desc", "dst_desc")
                   if getattr(args, n) is None]
        if missing:
            print(f"error: --{missing[0].replace('_', '-')} is required "
                  "with --src", file=sys.stderr)
            return 2
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
            print("error: --cloud-dir and --desc-dir are required with --pairs",
                  file=sys.stderr)
            return 2
        records = read_pair_list(args.pairs)
        for i, rec in enumerate(records):
            cloud = Path(args.cloud_dir)
            desc = Path(args.desc_dir)
            paths = [cloud / args.cloud_pattern.format(seq=rec.sequence_id, frame=rec.src),
                     cloud / args.cloud_pattern.format(seq=rec.sequence_id, frame=rec.tgt),
                     desc / args.desc_pattern.format(seq=rec.sequence_id, frame=rec.src),
                     desc / args.desc_pattern.format(seq=rec.sequence_id, frame=rec.tgt)]
            seed = _pair_seed(cfg.ransac.seed, i)
            jobs.append((_pair_meta(rec), *map(str, paths), rec.motion,
                         replace(cfg, ransac=replace(cfg.ransac, seed=seed)),
                         timing))

    threads = int(opt["threads"])
    if threads > 1 and len(jobs) > 1:
        with Pool(threads) as pool:
            rows = pool.map(_register_job, jobs)
    else:
        rows = [_register_job(j) for j in jobs]

    _emit_rows(rows, args.out)
    return 0


# ---------------------------------------------------------------------------
# benchgen
# ---------------------------------------------------------------------------

def _load_sequences(args: argparse.Namespace):
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
            cloud_path = Path(args.cloud_dir) / args.cloud_pattern.format(
                seq=seq, frame=i)
            cloud = _read_cloud(cloud_path)
            if args.voxel > 0.0:
                cloud = voxel_downsample(cloud, args.voxel)
            frames.append(PosedFrame(sequence_id=seq, frame_index=i,
                                     timestamp=times[i], pose=pose,
                                     cloud=cloud))
        sequences.append(frames)
    return sequences


def _cmd_benchgen(args: argparse.Namespace) -> int:
    cfg = _from_flags(SelectorConfig, k=args.k, min_overlap=args.min_overlap,
                      r=args.r, target_count=args.target_count,
                      overlap_tau=args.tau, seed=args.seed)
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
              f"{cfg.target_count} requested pairs", file=sys.stderr)

    out_pairs = Path(args.out_pairs)
    out_pairs.parent.mkdir(parents=True, exist_ok=True)
    write_pair_list(out_pairs, result.records)

    if args.out_dist is not None:
        dist_dir = Path(args.out_dist)
        dist_dir.mkdir(parents=True, exist_ok=True)
        for name, hist in set_distribution_report(result.records).items():
            write_histogram_csv(dist_dir / f"dist_{name}.csv", hist)
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _final_stage(row: dict, path) -> dict:
    stage = row.get("refined", row.get("coarse"))
    if not isinstance(stage, dict):
        raise FormatError(path, "record has neither refined nor coarse stage")
    if "success" not in stage:
        raise FormatError(path, "record carries no ground truth "
                                "(no success field); eval needs gt pairs")
    return stage


def _write_failure_csv(path, fh: FailureHistogram) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as f:
        f.write("bin_lo,bin_hi,successes,failures,failure_ratio\n")
        ratios = fh.failure_ratio
        for i in range(len(fh.edges) - 1):
            f.write(f"{repr(float(fh.edges[i]))},{repr(float(fh.edges[i + 1]))},"
                    f"{int(fh.success_counts[i])},{int(fh.failure_counts[i])},"
                    f"{repr(float(ratios[i]))}\n")


def _cmd_eval(args: argparse.Namespace) -> int:
    rows = read_jsonl(args.records)
    if not rows:
        print(f"error: {args.records}: no records", file=sys.stderr)
        return 2
    stages = [_final_stage(row, args.records) for row in rows]
    success = np.array([bool(s["success"]) for s in stages])
    walls = np.array([float(s.get("wall_time", 0.0)) for s in stages])
    print(f"recall={recall(success):.4f}")
    print(f"mean_wall_time_s={walls.mean():.4f}")

    if args.out_dir is not None:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name in DEFAULT_BIN_EDGES:
            if not all(name in row for row in rows):
                print(f"warning: some records lack {name!r}; histogram "
                      "omitted", file=sys.stderr)
                continue
            values = [float(row[name]) for row in rows]
            _write_failure_csv(out / f"failure_{name}.csv",
                               failure_histogram(name, values, success))
    return 0


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _cmd_synth(args: argparse.Namespace) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.mode == "scene":
        spec = _from_flags(SceneSpec, n_points=args.n, extent=args.extent,
                           true_motion=RigidMotion.identity() if args.identity else None,
                           inlier_fraction=args.inlier_fraction,
                           noise_sigma=args.sigma,
                           descriptor_dim=args.dim,
                           quality_correlation=args.qc, seed=args.seed)
        scene = generate_scene(spec)
        write_cloud_ply(out / "src.ply", scene.src)
        write_cloud_ply(out / "dst.ply", scene.dst)
        write_descriptors(out / "src.fdsc", scene.src_desc)
        write_descriptors(out / "dst.fdsc", scene.dst_desc)
        write_poses(out / "gt.txt", [scene.true_motion])
        return 0

    shared = dict(n_frames=args.frames, sensor_range=args.range,
                  seed=args.seed, sequence_id=args.sequence_id)
    if args.profile == "stationary":
        spec = _from_flags(TrajectorySpec.stationary, **shared)
    else:
        make = {"straight": TrajectorySpec.straight,
                "uturn": TrajectorySpec.uturn,
                "random": TrajectorySpec.random_drive}[args.profile]
        spec = _from_flags(make, frame_spacing=args.spacing, **shared)
    frames = generate_trajectory(spec)
    descs = frame_descriptors(frames, dim=args.dim, seed=args.seed)
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
    reg.add_argument("--cloud-pattern", default=DEFAULT_CLOUD_PATTERN)
    reg.add_argument("--desc-pattern", default=DEFAULT_DESC_PATTERN)
    reg.add_argument("--config", help="key=value option file")
    reg.add_argument("--out", help="output JSONL path (default: stdout)")
    for dest, default in _REGISTER_DEFAULTS.items():
        field = ".".join(filter(None, _PIPELINE_FIELDS.get(dest, ())))
        reg.add_argument("--" + dest.replace("_", "-"), dest=dest,
                         type=type(default),
                         choices=_REGISTER_CHOICES.get(dest),
                         help=f"{field} (default: {default})" if field
                         else f"default: {default}")
    reg.set_defaults(func=_cmd_register)

    bg = sub.add_parser("benchgen", help="build a balanced registration set")
    bg.add_argument("--cloud-dir", required=True)
    bg.add_argument("--pose-dir", required=True,
                    help="directory of {seq}.poses files (optional {seq}.times)")
    bg.add_argument("--cloud-pattern", default=DEFAULT_CLOUD_PATTERN)
    bg.add_argument("--out-pairs", required=True, help="pair-list CSV to write")
    bg.add_argument("--out-dist", help="directory for distribution CSVs")
    bg.add_argument("--k", type=int, default=10, help="source frame stride")
    bg.add_argument("--min-overlap", type=float, default=0.2)
    bg.add_argument("--r", type=float, default=0.1,
                    help="selection radius in the normalized motion cube")
    bg.add_argument("--target-count", type=int, default=1000)
    bg.add_argument("--tau", type=float, default=0.6,
                    help="nearest-neighbor gate for the overlap measure")
    bg.add_argument("--voxel", type=float, default=0.3,
                    help="downsample resolution before overlap (0 disables)")
    bg.add_argument("--seed", type=int, default=0)
    bg.set_defaults(func=_cmd_benchgen)

    ev = sub.add_parser("eval", help="aggregate register output")
    ev.add_argument("--records", required=True, help="JSONL from register")
    ev.add_argument("--out-dir", help="directory for failure-ratio CSVs")
    ev.set_defaults(func=_cmd_eval)

    sy = sub.add_parser("synth", help="generate synthetic data files")
    sy.add_argument("mode", choices=("scene", "trajectory"))
    sy.add_argument("--out-dir", required=True)
    sy.add_argument("--seed", type=int, default=0)
    sy.add_argument("--n", type=int, default=1000, help="scene: points")
    sy.add_argument("--extent", type=float, default=50.0)
    sy.add_argument("--inlier-fraction", type=float, default=0.3)
    sy.add_argument("--sigma", type=float, default=0.05)
    sy.add_argument("--qc", type=float, default=0.7,
                    help="descriptor quality correlation")
    sy.add_argument("--identity", action="store_true",
                    help="scene: use the identity as the true motion")
    sy.add_argument("--dim", type=int, default=16, help="descriptor width")
    sy.add_argument("--profile", default="straight",
                    choices=("straight", "uturn", "stationary", "random"))
    sy.add_argument("--frames", type=int, default=10)
    sy.add_argument("--spacing", type=float, default=10.0)
    sy.add_argument("--range", type=float, default=50.0)
    sy.add_argument("--sequence-id", default="seq0", dest="sequence_id")
    sy.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
