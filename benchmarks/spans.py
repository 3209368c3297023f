"""In-memory span tracing for the benchmark's traced run.

A traced run replaces the public lidarreg functions at the names their
callers look them up (``lidarreg.pipeline.ransac_register``,
``lidarreg.cli.read_cloud_ply`` and so on) with wrappers that record a
span per call and read counters off the returned result.  The untraced
run installs nothing, so its timings carry no tracing cost.

Spans are kept in memory as (name, start, end, parent, pair, phase) and
written once when the run ends.  A layer's self time is its spans'
duration minus the time covered by their direct child spans.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import lidarreg.benchgen
import lidarreg.cli
import lidarreg.geom
import lidarreg.pipeline
import lidarreg.synth

# warning text -> counter; these conditions reach callers only as warnings
WARNING_COUNTERS = (
    ("no mutual matches to size the filter budget", "gpf.fallback"),
    ("selection stopped at", "benchgen.exhausted"),
)


def count_warnings(caught, counters: Counter) -> None:
    for w in caught:
        text = str(w.message)
        name = next((c for prefix, c in WARNING_COUNTERS
                     if text.startswith(prefix)), "warnings.other")
        counters[name] += 1


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.pair: str | None = None
        self.phase = "setup"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.pair,
                           self.phase])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = perf_counter()

    def totals(self, phase: str) -> dict[str, list[float]]:
        """name -> [calls, busy seconds, self seconds] over one phase."""
        child = defaultdict(float)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for i, (name, start, end, _, _, ph) in enumerate(self.spans):
            if ph != phase:
                continue
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out

    def write(self, path, header: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii", newline="\n") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, pair, phase in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "pair": pair,
                                    "phase": phase}) + "\n")


# ---------------------------------------------------------------------------
# what to wrap, and the counters each call contributes
# ---------------------------------------------------------------------------

def _file_size(c, args, result):
    c["io.bytes_read"] += os.path.getsize(args[0])


def _match(c, args, result):
    c["match.rows"] += len(result)
    c["match.mnn"] += int(result.is_mnn.sum())


def _gpf(c, args, result):
    c["gpf.in"] += len(args[1])
    c["gpf.kept"] += len(result)


def _ransac(c, args, result):
    c["ransac.calls"] += 1
    c["ransac.corrs"] += len(args[2])
    c["ransac.hypotheses"] += result.iterations_run
    c["ransac.rejected_fast"] += result.hypotheses_rejected_fast
    c["ransac.lo_rounds"] += result.lo_rounds
    c["ransac.early_stop"] += result.converged_by == "early_stop"
    c["ransac.inliers"] += result.inlier_count


def _icp(c, args, result):
    c["icp.calls"] += 1
    c["icp.iterations"] += result.iterations
    c["icp.converged"] += result.converged


def _pool(c, args, result):
    c["benchgen.pool_size"] += len(result)


def _select(c, args, result):
    c["benchgen.select_attempts"] += result.attempts
    c["benchgen.selected"] += len(result.records)


_cli, _pipe = lidarreg.cli, lidarreg.pipeline
TARGETS = (
    (_pipe, "register_pair", "pipeline.register_pair", None),
    (_cli, "register_pair", "pipeline.register_pair", None),
    (_pipe, "match_features", "match", _match),
    (_pipe, "gpf", "gpf", _gpf),
    (_pipe, "ransac_register", "ransac", _ransac),
    (_pipe, "icp_refine", "icp", _icp),
    (lidarreg.geom.SpatialIndex, "nearest", "geom.nearest", None),
    (_cli, "build_candidate_pool", "benchgen.pool", _pool),
    (lidarreg.benchgen, "overlap", "benchgen.overlap", None),
    (_cli, "select_balanced", "benchgen.select", _select),
    (_cli, "read_cloud_ply", "io.read_cloud", _file_size),
    (_cli, "read_descriptors", "io.read_desc", _file_size),
    (_cli, "read_pair_list", "io.read_other", _file_size),
    (_cli, "read_jsonl", "io.read_other", _file_size),
    (_cli, "read_poses", "io.read_other", _file_size),
    (_cli, "write_pair_list", "io.write", None),
    (_cli, "write_jsonl", "io.write", None),
    (lidarreg.synth, "generate_scene", "synth.scene", None),
    (_cli, "generate_trajectory", "synth.trajectory", None),
    (_cli, "frame_descriptors", "synth.trajectory", None),
)


def _traced(tracer: Tracer, fn, name: str, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if observe is not None:
            observe(tracer.counters, args, result)
        return result
    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TARGETS]
    try:
        for (owner, attr, name, observe), (_, _, fn) in zip(TARGETS, saved):
            setattr(owner, attr, _traced(tracer, fn, name, observe))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, setups: int, overhead_share: float) -> dict:
    """name -> (value, unit) for every per-layer metric of the benchmark.

    Everything comes from the traced timed phase except ``synth.*``,
    which is the mean over the traced set-ups.
    """
    t = tracer.totals("loop")
    s = tracer.totals("setup")
    c = tracer.counters

    def busy(name, table=t):
        return table.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return t.get(name, [0, 0.0, 0.0])[2]

    def calls(name):
        return t.get(name, [0, 0.0, 0.0])[0]

    return {
        "match.busy_s": (busy("match"), "s"),
        "match.rows_per_s": (_ratio(c["match.rows"], busy("match")), "1/s"),
        "match.mnn_share": (_ratio(c["match.mnn"], c["match.rows"]), "share"),
        "gpf.busy_s": (busy("gpf"), "s"),
        "gpf.kept_share": (_ratio(c["gpf.kept"], c["gpf.in"]), "share"),
        "gpf.fallback_count": (c["gpf.fallback"], "count"),
        "ransac.busy_s": (busy("ransac"), "s"),
        "ransac.hypotheses": (c["ransac.hypotheses"], "count"),
        "ransac.us_per_hypothesis": (
            1e6 * _ratio(busy("ransac"), c["ransac.hypotheses"]), "us"),
        "ransac.fast_reject_share": (
            _ratio(c["ransac.rejected_fast"], c["ransac.hypotheses"]), "share"),
        "ransac.lo_rounds": (c["ransac.lo_rounds"], "count"),
        "ransac.early_stop_share": (
            _ratio(c["ransac.early_stop"], c["ransac.calls"]), "share"),
        "ransac.inlier_share": (
            _ratio(c["ransac.inliers"], c["ransac.corrs"]), "share"),
        "icp.busy_s": (busy("icp"), "s"),
        "icp.iterations": (c["icp.iterations"], "count"),
        "icp.us_per_iteration": (
            1e6 * _ratio(busy("icp"), c["icp.iterations"]), "us"),
        "icp.converged_share": (_ratio(c["icp.converged"], c["icp.calls"]),
                                "share"),
        "geom.nearest_calls": (calls("geom.nearest"), "count"),
        "geom.nearest_s": (busy("geom.nearest"), "s"),
        "benchgen.command_s": (busy("cli.benchgen"), "s"),
        "benchgen.pool_s": (busy("benchgen.pool"), "s"),
        "benchgen.overlap_calls": (calls("benchgen.overlap"), "count"),
        "benchgen.overlap_s": (busy("benchgen.overlap"), "s"),
        "benchgen.pool_size": (c["benchgen.pool_size"], "count"),
        "benchgen.select_s": (busy("benchgen.select"), "s"),
        "benchgen.select_attempts": (c["benchgen.select_attempts"], "count"),
        "benchgen.accept_share": (
            _ratio(c["benchgen.selected"], c["benchgen.select_attempts"]),
            "share"),
        "benchgen.exhausted": (c["benchgen.exhausted"], "count"),
        "io.read_cloud_s": (busy("io.read_cloud"), "s"),
        "io.read_cloud_calls": (calls("io.read_cloud"), "count"),
        "io.read_desc_s": (busy("io.read_desc"), "s"),
        "io.write_s": (busy("io.write"), "s"),
        "io.bytes_read": (c["io.bytes_read"], "bytes"),
        "synth.scene_s": (busy("synth.scene", s) / setups, "s"),
        "synth.trajectory_s": (busy("synth.trajectory", s) / setups, "s"),
        "pipeline.self_s": (self_s("pipeline.register_pair"), "s"),
        "cli.register_self_s": (self_s("cli.register"), "s"),
        "cli.eval_s": (self_s("cli.eval"), "s"),
        "trace.overhead_share": (overhead_share, "share"),
    }
