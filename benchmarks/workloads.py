"""The benchmark's workloads: seeded set-up and one timed unit of work.

Every workload makes its inputs from the seed alone and drives lidarreg
from this single process, one unit at a time (closed loop, one client).

* ``scene-lowinlier``: planted 1k-point scenes at 5/7/10% inliers,
  registered in memory with ``pipeline.register_pair``.  RANSAC dominates.
* ``scene-dense``: planted 5k-point scenes at 30% inliers, in memory.
  Descriptor matching dominates; set-up is dominated by ``synth``.
* ``trajectory-files``: a random-drive trajectory written as files, then
  ``lidarreg benchgen``, ``register --pairs`` and ``eval`` through
  ``cli.main``.  The only workload that reads and writes files.

A unit is one pair for the scene workloads and one benchgen, register and
eval round for the trajectory workload.  A pass is the workload's fixed
list of units; the timed phase runs the pass at least once and repeats it
until the time is up.  On a shared host other tenants slow whole stretches
of a run by up to 1.9x, so each run is scaled to reference host speed
(see hostspeed.py), and a unit's cost is the median of its scaled runs.

Correctness is checked on every unit: results must be finite, repeats of
the same input must agree byte for byte, and the recall against ground
truth must reach a floor.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import traceback
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from time import perf_counter

import numpy as np

from lidarreg import cli, pipeline, synth
from lidarreg.metrics import is_success, rotation_error, translation_error
from lidarreg.pipeline import PipelineConfig
from lidarreg.ransac import RansacConfig
from lidarreg.synth import SceneSpec

# Registration must succeed on at least this share of pairs.  Every pair
# succeeds at the sizes below; the floor leaves room for a rare miss.
RECALL_FLOOR = 0.9


def child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


@dataclass
class Tally:
    """What the timed units did; shared by the untraced and traced passes."""

    attempted: int = 0
    failed: int = 0
    # unit -> [(seconds, pairs, seconds per pair)], scaled to reference speed
    runs: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)         # the same, unscaled
    pending: list = field(default_factory=list)     # runs not yet scaled
    benchgen_s: list = field(default_factory=list)  # per round
    success: dict = field(default_factory=dict)     # input key -> bool
    problems: list = field(default_factory=list)    # failed correctness checks
    counters: Counter = field(default_factory=Counter)  # warnings by kind

    def problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def timed(self, unit: int, seconds: float, pairs: int, per_pair: float) -> None:
        """Hold a unit's run that registered ``pairs`` until it is scaled."""
        self.pending.append((unit, seconds, pairs, per_pair))

    def take_pending(self) -> list:
        out, self.pending = self.pending, []
        return out

    def keep(self, run, factor: float) -> None:
        """Keep a held run, scaled by the host speed ``factor``."""
        unit, seconds, pairs, per_pair = run
        self.raw.setdefault(unit, []).append((seconds, pairs, per_pair))
        self.runs.setdefault(unit, []).append(
            (seconds * factor, pairs, per_pair * factor))


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _succeeded(motion, truth) -> bool:
    return is_success(rotation_error(motion.rotation, truth.rotation),
                      translation_error(motion.translation, truth.translation))


# ---------------------------------------------------------------------------
# planted scenes, registered in memory
# ---------------------------------------------------------------------------

class SceneWorkload:
    def __init__(self, n_points: int, fractions, pass_size: int):
        self.n_points = n_points
        self.fractions = tuple(fractions)
        self.pass_size = pass_size
        self.items: list = []
        self._first: dict[int, bytes] = {}

    def setup(self, seed: int, work_dir: Path) -> str:
        """Generate the pass's scenes; returns a digest of the inputs."""
        self.items = []
        for i in range(self.pass_size):
            s = child_seed(seed, i)
            spec = SceneSpec(n_points=self.n_points,
                             inlier_fraction=self.fractions[i % len(self.fractions)],
                             quality_correlation=0.7, seed=s)
            scene = synth.generate_scene(spec)
            self.items.append((scene, PipelineConfig(ransac=RansacConfig(seed=s))))
        return _digest(*(a.tobytes() for scene, _ in self.items
                         for a in (scene.src, scene.dst,
                                   scene.src_desc, scene.dst_desc)))

    def warm_up(self) -> None:
        # the timed phase runs pair 0 again and must get the same motion
        scene, cfg = self.items[0]
        result = pipeline.register_pair(scene.src, scene.dst, scene.src_desc,
                                        scene.dst_desc, cfg)
        self._first[0] = result.final.matrix34().tobytes()

    def run_unit(self, i: int, tally: Tally, tracer=None) -> None:
        key = i % self.pass_size
        scene, cfg = self.items[key]
        tally.attempted += 1
        t0 = perf_counter()
        try:
            result = pipeline.register_pair(scene.src, scene.dst, scene.src_desc,
                                            scene.dst_desc, cfg)
        except Exception:
            # counted, not fatal: one bad pair must not end the run
            tally.failed += 1
            print(f"pair {key} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return
        dt = perf_counter() - t0
        m = result.final.matrix34()
        if not np.isfinite(m).all():
            tally.failed += 1
            return
        tally.timed(key, dt, 1, dt)
        first = self._first.setdefault(key, m.tobytes())
        if first != m.tobytes():
            tally.problem(f"pair {key}: repeat gave a different motion")
        tally.success.setdefault(key, _succeeded(result.final, scene.true_motion))

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# trajectory files through the command line
# ---------------------------------------------------------------------------

class TrajectoryWorkload:
    SEQ = "drive0"

    pass_size = 1

    def __init__(self, frames: int, sensor_range: float, target: int):
        self.frames = frames
        self.sensor_range = sensor_range
        self.target = target
        self.seed = 0
        self.dir: Path | None = None
        self._digests: tuple[str, str] | None = None

    def setup(self, seed: int, work_dir: Path) -> str:
        """Write the trajectory files; returns a digest of every file."""
        self.seed = seed
        self.dir = work_dir
        data = work_dir / "data"
        if data.exists():
            shutil.rmtree(data)
        code = cli.main(["synth", "trajectory", "--out-dir", str(data),
                         "--profile", "random", "--frames", str(self.frames),
                         "--spacing", "5", "--range", str(self.sensor_range),
                         "--seed", str(seed), "--sequence-id", self.SEQ])
        if code != 0:
            raise RuntimeError(f"lidarreg synth exited with {code}")
        files = sorted(p for p in data.rglob("*") if p.is_file())
        return _digest(*(p.relative_to(data).as_posix().encode() + p.read_bytes()
                         for p in files))

    def _frame(self, index: int, suffix: str) -> str:
        return str(self.dir / "data" / self.SEQ / f"{index:06d}{suffix}")

    def warm_up(self) -> None:
        with redirect_stdout(StringIO()):
            cli.main(["register", "--src", self._frame(0, ".ply"),
                      "--dst", self._frame(1, ".ply"),
                      "--src-desc", self._frame(0, ".fdsc"),
                      "--dst-desc", self._frame(1, ".fdsc"),
                      "--threads", "1", "--timing", "off",
                      "--out", str(self.dir / "warm.jsonl")])

    def run_unit(self, i: int, tally: Tally, tracer=None) -> None:
        data = str(self.dir / "data")
        pairs = self.dir / "pairs.csv"
        records = self.dir / "records.jsonl"
        pairs.unlink(missing_ok=True)
        records.unlink(missing_ok=True)
        out = StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out):
                with _span(tracer, "cli.benchgen"):
                    code_b = cli.main([
                        "benchgen", "--cloud-dir", data, "--pose-dir", data,
                        "--out-pairs", str(pairs), "--k", "1", "--r", "0.3",
                        "--target-count", str(self.target),
                        "--seed", str(self.seed)])
                t1 = perf_counter()
                with _span(tracer, "cli.register"):
                    code_r = cli.main([
                        "register", "--pairs", str(pairs), "--cloud-dir", data,
                        "--desc-dir", data, "--seed", str(self.seed),
                        "--threads", "1", "--timing", "off",
                        "--out", str(records)])
                t2 = perf_counter()
                with _span(tracer, "cli.eval"):
                    code_e = cli.main(["eval", "--records", str(records)])
            t3 = perf_counter()
        except Exception:
            tally.attempted += self.target
            tally.failed += self.target
            print(f"round {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return
        if (code_b, code_r, code_e) != (0, 0, 0):
            tally.attempted += self.target
            tally.failed += self.target
            print(f"round {i}: exit codes benchgen={code_b} register={code_r} "
                  f"eval={code_e}", file=sys.stderr)
            return

        pair_bytes = pairs.read_bytes()
        record_bytes = records.read_bytes()
        n_pairs = len(pair_bytes.splitlines()) - 1      # minus the header
        rows = [json.loads(line) for line in record_bytes.splitlines()]
        tally.attempted += len(rows)
        tally.benchgen_s.append(t1 - t0)
        if n_pairs != self.target:
            tally.problem(f"round {i}: {n_pairs} pairs selected, "
                          f"{self.target} requested")
        if len(rows) != n_pairs:
            tally.problem(f"round {i}: {len(rows)} records for {n_pairs} pairs")

        successes = []
        for k, row in enumerate(rows):
            est = np.asarray(row.get("est_refined", row["est_coarse"]), dtype=float)
            if not np.isfinite(est).all():
                tally.failed += 1
                continue
            ok = bool(row["refined"]["success"])
            successes.append(ok)
            tally.success.setdefault(k, ok)
        if successes:
            # the command registers the whole list, so per-pair latency is
            # its time over the pairs
            tally.timed(0, t3 - t0, len(successes), (t2 - t1) / len(rows))
        reported = [line for line in out.getvalue().splitlines()
                    if line.startswith("recall=")]
        if not reported or (successes and abs(
                float(reported[0].split("=")[1]) - np.mean(successes)) > 5e-5):
            tally.problem(f"round {i}: eval printed {reported}, records give "
                          f"recall {np.mean(successes) if successes else None}")

        digests = (_digest(pair_bytes), _digest(record_bytes))
        if self._digests is None:
            self._digests = digests
        elif digests != self._digests:
            tally.problem(f"round {i}: pair list or records differ from round 0 "
                          f"(sha256 {digests} vs {self._digests})")

    def close(self) -> None:
        if self.dir is not None and self.dir.exists():
            shutil.rmtree(self.dir)


def make(name: str, smoke: bool):
    """The named workload at full size, or tiny for the smoke tests."""
    if name == "scene-lowinlier":
        # 15 pairs per fraction: RANSAC time at 5% is bimodal across
        # scenes, so fewer pairs make the pass's cost depend on the seed
        return SceneWorkload(300 if smoke else 1000, (0.05, 0.07, 0.10),
                             pass_size=3 if smoke else 45)
    if name == "scene-dense":
        return SceneWorkload(600 if smoke else 5000, (0.30,), pass_size=2)
    if name == "trajectory-files":
        return TrajectoryWorkload(frames=12 if smoke else 60,
                                  sensor_range=20.0 if smoke else 30.0,
                                  target=4 if smoke else 40)
    raise ValueError(f"unknown workload {name!r}")
