"""
The whole chain through files
=============================

Everything the command line does, driven from Python: write a synthetic
scene to disk in the standard formats, read it back, register, report.
"""

import json
import tempfile
from pathlib import Path

from lidarreg import (
    PipelineConfig,
    SceneSpec,
    generate_scene,
    is_success,
    read_cloud_ply,
    read_descriptors,
    read_poses,
    register_pair,
    rotation_error,
    translation_error,
    write_cloud_ply,
    write_descriptors,
    write_poses,
)
from lidarreg.cli import main

# removed at the end of the demo, or at exit if the demo fails first
tmp = tempfile.TemporaryDirectory(prefix="lidarreg_demo_")
workdir = Path(tmp.name)
print("working in", workdir)

# Generate a scene and persist it: clouds as ASCII PLY, descriptors in
# the binary table format, the true motion as a pose line.
scene = generate_scene(SceneSpec(n_points=800, inlier_fraction=0.35, seed=3))
write_cloud_ply(workdir / "src.ply", scene.src)
write_cloud_ply(workdir / "dst.ply", scene.dst)
write_descriptors(workdir / "src.fdsc", scene.src_desc)
write_descriptors(workdir / "dst.fdsc", scene.dst_desc)
write_poses(workdir / "gt.txt", [scene.true_motion])

# Read back and register with the library API.
src = read_cloud_ply(workdir / "src.ply")
dst = read_cloud_ply(workdir / "dst.ply")
result = register_pair(src, dst,
                       read_descriptors(workdir / "src.fdsc"),
                       read_descriptors(workdir / "dst.fdsc"),
                       PipelineConfig())
gt = read_poses(workdir / "gt.txt")[0]
re = rotation_error(result.final.rotation, gt.rotation)
te = translation_error(result.final.translation, gt.translation)
print(f"library call: RE={re:.4f} deg TE={te:.4f} m "
      f"success={is_success(re, te)}")

# The same thing through the command line entry point.  With a fixed
# seed, one worker, and timing off, the output bytes are reproducible.
code = main(["register",
             "--src", str(workdir / "src.ply"),
             "--dst", str(workdir / "dst.ply"),
             "--src-desc", str(workdir / "src.fdsc"),
             "--dst-desc", str(workdir / "dst.fdsc"),
             "--gt-pose", str(workdir / "gt.txt"),
             "--seed", "0", "--threads", "1", "--timing", "off",
             "--out", str(workdir / "result.jsonl")])
row = json.loads((workdir / "result.jsonl").read_text())
print(f"cli call: exit={code} refined TE={row['refined']['te_m']:.4f} m "
      f"over {row['n_filtered']} filtered matches")

tmp.cleanup()
