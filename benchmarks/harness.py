"""One benchmark run: set-up, warm-up, timed or traced units, report."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import warnings
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import hostspeed
import spans
import workloads

SETUP_REPEATS = 3


def _machine(thread_vars) -> dict:
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in thread_vars},
            "loadavg": list(os.getloadavg()),
            "platform": platform.platform()}


def _run_unit(workload, i, tally, counters, tracer=None) -> float:
    """One unit with its warnings counted; returns wall seconds."""
    t0 = perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        workload.run_unit(i, tally, tracer)
    wall = perf_counter() - t0
    spans.count_warnings(caught, counters)
    return wall


def _timed_loop(workload, seconds, tally, clock):
    """Repeat the pass until ``seconds`` have passed and it ran once whole.

    The host clock samples its kernel between units; once the loop ends,
    each unit's run is scaled by the host speed around it.  Returns
    (units run, wall seconds).
    """
    n = 0
    held = []
    t0 = perf_counter()
    clock.sample()
    while True:
        start = perf_counter()
        _run_unit(workload, n, tally, tally.counters)
        end = perf_counter()
        clock.sample(end - start)
        held += [(run, start, end) for run in tally.take_pending()]
        n += 1
        wall = perf_counter() - t0
        if wall >= seconds and n >= workload.pass_size:
            break
    for run, start, end in held:
        tally.keep(run, clock.factor(start, end))
    return n, wall


def _traced_units(workload, tally, tracer):
    """Each unit of one pass untraced, then traced; returns both walls.

    Alternating the two passes unit by unit keeps drift in machine speed
    out of the overhead estimate.
    """
    plain = traced = 0.0
    for i in range(workload.pass_size):
        plain += _run_unit(workload, i, tally, tally.counters)
        tracer.pair = str(i)
        with spans.instrumented(tracer):
            traced += _run_unit(workload, i, tally, tracer.counters, tracer)
    return plain, traced


def _quantile(values, q) -> float:
    return float(np.quantile(values, q)) if values else 0.0


def _recall(tally) -> float:
    return statistics.fmean(tally.success.values()) if tally.success else 0.0


def _rates(runs) -> tuple[float, list]:
    """(pairs per second, seconds per pair) from each unit's median run."""
    seconds = sum(statistics.median(r[0] for r in rs) for rs in runs.values())
    pairs = sum(rs[0][1] for rs in runs.values())
    per_pair = [statistics.median(r[2] for r in rs) for rs in runs.values()]
    return (pairs / seconds if seconds else 0.0), per_pair


def _end_to_end(tally, setup_times) -> dict:
    """Timings scaled to reference host speed; see hostspeed.py."""
    ok = tally.attempted - tally.failed
    rate, per_pair = _rates(tally.runs)
    return {
        "pairs_per_s": (rate, "1/s"),
        "pair_p50_s": (_quantile(per_pair, 0.5), "s"),
        "recall": (_recall(tally), "share"),
        "ok_share": (ok / max(tally.attempted, 1), "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def run(args, root: Path, thread_vars) -> int:
    machine = _machine(thread_vars)
    print(json.dumps({"machine": machine}, sort_keys=True))
    workload = workloads.make(args.workload, args.smoke)
    work_dir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    tally = workloads.Tally()
    tracer = spans.Tracer() if args.trace else None
    clock = hostspeed.HostClock()
    try:
        setup_times, raw_setup, digests = [], [], set()
        for _ in range(SETUP_REPEATS):
            clock.sample()
            t0 = perf_counter()
            if tracer is not None:
                with spans.instrumented(tracer):
                    digests.add(workload.setup(args.seed, work_dir))
            else:
                digests.add(workload.setup(args.seed, work_dir))
            t1 = perf_counter()
            clock.sample()
            raw_setup.append(t1 - t0)
            setup_times.append(raw_setup[-1] * clock.factor(t0, t1))
        if len(digests) != 1:
            tally.problem("repeated set-ups with one seed made different inputs")
        workload.warm_up()

        if not args.trace:
            n, wall = _timed_loop(workload, args.seconds, tally, clock)
            metrics = _end_to_end(tally, setup_times)
        else:
            tracer.phase = "loop"
            plain, traced = _traced_units(workload, tally, tracer)
            n, wall = 2 * workload.pass_size, plain + traced
            metrics = spans.layer_metrics(tracer, SETUP_REPEATS,
                                          traced / plain - 1.0)
            out = root / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(out, {"machine": machine, "workload": args.workload,
                               "seed": args.seed})
            print(f"spans written to {out.relative_to(root)}")
    finally:
        workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    if _recall(tally) < workloads.RECALL_FLOOR:
        tally.problem(f"recall {_recall(tally):.4f} over {len(tally.success)} "
                      f"pairs is below the floor {workloads.RECALL_FLOOR}")
    correct = not tally.problems
    for text in tally.problems:
        print(f"check failed: {text}", file=sys.stderr)

    ok = tally.attempted - tally.failed
    print(f"workload={args.workload} seed={args.seed} units={n} "
          f"pass={workload.pass_size} wall_s={wall:.3f} "
          f"pairs_attempted={tally.attempted} pairs_failed={tally.failed} "
          f"wall_pairs_per_s={ok / wall:.4f}")
    speed = [hostspeed.REF_SECONDS / k for k in clock.kernel_s]
    print(f"host_speed median={statistics.median(speed):.3f} "
          f"min={min(speed):.3f} max={max(speed):.3f} samples={len(speed)}")
    if tally.raw:
        raw_rate, raw_per_pair = _rates(tally.raw)
        print(f"unscaled pairs_per_s={raw_rate:.4f} "
              f"pair_p50_s={_quantile(raw_per_pair, 0.5):.4f} "
              f"setup_s={statistics.median(raw_setup):.4f}")
    # a p90 needs ten samples beyond it; a pass has at most 45
    per_pair = _rates(tally.runs)[1]
    print(f"latency_samples={len(per_pair)} "
          f"pair_p90_s={_quantile(per_pair, 0.9):.4f}")
    if tally.benchgen_s:
        print(f"benchgen_s fastest={min(tally.benchgen_s):.4f} "
              f"median={statistics.median(tally.benchgen_s):.4f} "
              f"rounds={len(tally.benchgen_s)}")
    if tally.counters:
        print("warnings " + " ".join(f"{k}={v}" for k, v in sorted(tally.counters.items())))
    if tracer is not None:
        print(f"{'span':<24}{'calls':>8}{'busy_s':>12}{'self_s':>12}")
        for name, (calls, busy, self_s) in sorted(tracer.totals("loop").items()):
            print(f"{name:<24}{calls:>8}{busy:>12.4f}{self_s:>12.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1
