#!/usr/bin/env python3
"""zerocert benchmark: one seeded workload, run as a closed loop.

    python3 perfbench/run.py --workload certify-plane --seed 1 --seconds 30 --trace 0

One caller runs one task at a time on one thread, with BLAS pinned to one
thread. The loop runs passes of fresh tasks until ``--seconds`` have passed
and the workload's count window (its first passes) is complete; every task's
answer is checked against the ground truth its generator knows. The run
prints a report, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics named in BENCHMARK.json, ``--trace 1`` the per-layer
ones: it runs each pass untraced and then traced, so the report also gives
the tracing overhead.

The library is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with status 2 and prints no result.
"""
import os

# BLAS reads its thread count when numpy loads, so pin it before any import.
BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"
# the library's locator jiggle seed: leave it at the library default
os.environ.pop("ZERO_CERT_SEED", None)

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

import numpy as np

from tracer import LAYER_METRICS, Tracer
from workloads import WORKLOADS, make_pass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench_spans")
SETUP_PROBES = 3         # fresh processes whose set-up time makes setup_s
WARMUP_PASS = 1 << 20    # pass index of the warm-up tasks, never timed
# The reference kernel's time at the uncontended speed of the 2-core machine
# where BENCHMARK.json's bounds were set. Every reported time is scaled to it.
REFERENCE_MS = 1.5


class GuardError(RuntimeError):
    """A task broke an assumption the measurement rests on."""


def reference_ms():
    """Milliseconds taken by a fixed piece of work like the library's own,
    the faster of two back-to-back runs so that what a task left in the
    caches does not count.

    Other processes on a shared machine slow everything down in phases that
    last from seconds to minutes. Timing this kernel next to each task
    measures the phase, and a task time t is reported as
    t * REFERENCE_MS / (the kernel's time around the task).
    """
    return min(_reference_kernel_ms(), _reference_kernel_ms())


def _reference_kernel_ms():
    """Interpreter loops, small and single-point numpy calls, and one medium
    array operation: the mix of the library's own work."""
    start = time.perf_counter()
    x = np.linspace(0.0, 1.0, 64)
    pts = np.random.default_rng(0).normal(size=(160, 3))
    acc = 0.0
    for i in range(20):
        y = np.stack([np.cos(x + i), np.sin(x - i)], axis=1)
        acc += float(np.linalg.norm(y[3])) + sum(j * 0.5 for j in range(40))
    point = np.array([[0.3, 0.4]])
    for _ in range(30):
        with np.errstate(all="ignore"):
            cols = [point[:, 0], point[:, 1]]
            out = np.stack([cols[0] * cols[1] + 1.0, cols[0] - cols[1] ** 2.0], 1)
        acc += float(np.any(~np.isfinite(out)))
    acc += float(np.min(np.sum((pts[:, None] - pts[None]) ** 2, axis=2)))
    return 1e3 * (time.perf_counter() - start)


def load_library():
    sys.path.insert(0, SRC)
    import zerocert
    if not os.path.abspath(zerocert.__file__).startswith(SRC + os.sep):
        raise ImportError(f"zerocert came from {zerocert.__file__}, not {SRC}")
    return zerocert


def set_up(zc, workload, seed, traced):
    """Everything before the first timed task: the counters, the first pass
    of inputs, and a warm-up run of one task of each kind."""
    tracer = Tracer()
    tracer.install(traced)
    reference_ms()
    first = make_pass(workload, seed, 0)
    seen = set()
    for task in make_pass(workload, seed, WARMUP_PASS):
        if task.kind not in seen:
            seen.add(task.kind)
            task.check(task.run(zc, tracer.span))
    return tracer, first


def probe_setup(workload_name, seed):
    """Seconds from starting a fresh process to its first timed task, scaled
    by the reference kernel timed before and after."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    ref_before = reference_ms()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed with status {code}")
    return elapsed * 2.0 * REFERENCE_MS / (ref_before + reference_ms())


def run_pass(zc, tracer, tasks, records, traced, window):
    """Run and check each task; append one record per task."""
    tracer.tracing = traced
    ref_before = reference_ms()
    for task in tasks:
        calls, points = tracer.eval_calls, tracer.eval_points
        tracer.begin_task(len(records), task.kind)
        start = time.perf_counter()
        try:
            answer, error = task.run(zc, tracer.span), None
        except Exception as exc:    # a task-level raise is a failed task
            answer, error = None, type(exc).__name__
        elapsed = time.perf_counter() - start
        tracer.end_task()
        evals = tracer.eval_calls - calls
        if error is None and evals == 0:
            raise GuardError(
                f"task {task.kind} returned without calling mapspec.evaluate")
        if threading.active_count() > 1:
            raise GuardError(f"task {task.kind} left a thread running")
        ok = claims = False
        if error is None:
            try:
                ok, claims = task.check(answer)
            except Exception:       # an answer the check cannot read is wrong
                ok = claims = False
        false_claim = claims and not task.has_zero
        ref_after = reference_ms()
        ref = 0.5 * (ref_before + ref_after)
        ref_before = ref_after
        records.append(dict(kind=task.kind, wall_ms=1e3 * elapsed, ref_ms=ref,
                            ms=1e3 * elapsed * REFERENCE_MS / ref, evals=evals,
                            points=tracer.eval_points - points, ok=ok,
                            claims=claims, has_zero=task.has_zero,
                            known=false_claim and task.known_false_claims,
                            error=error, traced=traced, window=window))
    tracer.tracing = False


def measure(zc, workload_name, seed, seconds, trace, metric_names,
            probes=SETUP_PROBES, count_passes=None):
    """Run one workload; return (report lines, result dict). A traced run
    computes every metric of LAYER_METRICS as well as ``metric_names``."""
    workload = WORKLOADS[workload_name]
    count_passes = count_passes or workload.count_passes
    tracer, tasks = set_up(zc, workload, seed, traced=trace)
    try:
        setup = [probe_setup(workload_name, seed) for _ in range(probes)]
        records, layers, spans = [], None, []
        start = time.perf_counter()
        index = 0
        while index < count_passes or time.perf_counter() - start < seconds:
            if index:
                tasks = make_pass(workload, seed, index)
            window = index < count_passes
            run_pass(zc, tracer, tasks, records, False, window)
            if trace:
                run_pass(zc, tracer, tasks, records, True, window)
                if index == count_passes - 1:
                    layers = layer_metrics(tracer, records,
                                           [*LAYER_METRICS, *metric_names])
                    spans, tracer.spans = tracer.spans, []
                elif not window:
                    tracer.spans.clear()    # keep only the window's spans
            index += 1
        wall = time.perf_counter() - start
    finally:
        tracer.restore()

    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        path = os.path.join(SPANS_DIR, f"{workload_name}-seed{seed}.json")
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "task"],
                       "spans": spans}, fh)
        metrics = dict(layers)
        metrics.update(overhead_metrics(records))
    else:
        metrics = end_to_end_metrics(records, setup)

    # Every answer of the run is checked, and only the known defect may be
    # wrong. attempted and failed count the count window, whose tasks the
    # seed alone fixes, so that they repeat exactly for a seed.
    window = [r for r in records if r["window"]]
    result = {
        "correct": all(r["ok"] or r["known"] for r in records),
        "attempted": len(window),
        "failed": sum(not r["ok"] for r in window),
        "metrics": metrics,
    }
    lines = report_lines(workload_name, seed, seconds, trace, index,
                         count_passes, wall, records, tracer.absent)
    return lines, result


def _quantile(values, q):
    return float(np.quantile(np.asarray(values), q))


def timings(records, key="ms"):
    """tasks_per_s, task_ms_p50 and task_ms_p90 of the records' times."""
    ms = [r[key] for r in records]
    return 1e3 * len(ms) / sum(ms), _quantile(ms, 0.5), _quantile(ms, 0.9)


def end_to_end_metrics(records, setup):
    """Timings come from every task of the run, counts from the window."""
    window = [r for r in records if r["window"]]
    with_zero = [r for r in window if r["has_zero"]]
    rate, p50, p90 = timings(records)
    return {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "tasks_per_s": rate,
        "task_ms_p50": p50,
        "task_ms_p90": p90,
        "evals_per_task": statistics.fmean(r["evals"] for r in window),
        "points_per_task": statistics.fmean(r["points"] for r in window),
        "success_rate": statistics.fmean(r["ok"] for r in window),
        "certified_rate": (statistics.fmean(r["claims"] for r in with_zero)
                           if with_zero else 0.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracer, records, metric_names):
    """Per-layer values over the count window's traced passes."""
    self_ms = tracer.self_ms()
    errors = Counter(r["error"] for r in records if r["traced"] and r["error"])
    out = {}
    for name in metric_names:
        if name.startswith("errors."):
            out[name] = errors[name.split(".")[1]]
        elif not name.startswith("trace."):
            out[name] = tracer.layer_metric(name, self_ms)
    return out


def overhead_metrics(records):
    """Traced against untraced tasks_per_s over the same passes."""
    rate = {traced: timings([r for r in records if r["traced"] == traced])[0]
            for traced in (False, True)}
    return {"trace.tasks_per_s.untraced": rate[False],
            "trace.tasks_per_s.traced": rate[True],
            "trace.overhead_pct": 100.0 * (1.0 - rate[True] / rate[False])}


def machine_facts():
    pin = ",".join(f"{v}={os.environ[v]}" for v in BLAS_PIN)
    return (f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
            f"python={platform.python_version()} numpy={np.__version__} "
            f"blas_pin={pin}")


def report_lines(workload_name, seed, seconds, trace, passes, count_passes,
                 wall, records, absent):
    window = [r for r in records if r["window"] and r["traced"] == trace]
    timed = [r for r in records if not r["traced"]]
    p90 = timings(timed)[2]
    unscaled = "tasks_per_s {:.4f} 1/s, p50 {:.4f} ms, p90 {:.4f} ms".format(
        *timings(timed, "wall_ms"))
    refs = [r["ref_ms"] for r in timed]
    kinds = Counter(r["kind"] for r in window)
    errors = Counter(r["error"] for r in records if r["error"])
    failed = sum(not r["ok"] for r in records)
    lines = [
        f"# machine: {machine_facts()}",
        f"# workload {workload_name} seed {seed} trace {int(trace)}: closed loop, "
        f"1 caller, {passes} passes ({count_passes} in the count window), "
        f"{len(records)} tasks in {wall:.2f} s (asked {seconds:g} s)",
        f"# window task mix: " + ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())),
        f"# {sum(r['ms'] > p90 for r in timed)} of {len(timed)} timed tasks "
        f"lie beyond task_ms_p90",
        f"# times scaled to a reference kernel time of {REFERENCE_MS} ms; the "
        f"kernel took {_quantile(refs, 0.1):.3f} / {_quantile(refs, 0.5):.3f} / "
        f"{_quantile(refs, 0.9):.3f} ms (p10/p50/p90) around the tasks",
        f"# unscaled wall clock: {unscaled}",
        f"# fail_rate (window) {1.0 - statistics.fmean(r['ok'] for r in window):.6f} ratio; "
        f"failed {failed} of {len(records)} tasks in the whole run, "
        f"{sum(r['known'] for r in records)} of them false zero claims on n >= 3 "
        f"(known defect)",
        f"# task-level raises: {dict(errors) or 'none'}",
    ]
    if absent:
        lines.append(f"# absent from the library, reported as 0: {', '.join(absent)}")
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        zc = load_library()
    except ImportError as exc:
        print(f"perfbench: cannot import zerocert from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        set_up(zc, workload, args.seed, traced=False)
        print("ready", flush=True)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    key = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[key]]
    units = {**LAYER_METRICS, **{m["name"]: m["unit"] for m in spec[key]}}
    try:
        lines, result = measure(zc, args.workload, args.seed, args.seconds,
                                bool(args.trace), names,
                                probes=0 if args.trace else SETUP_PROBES)
    except GuardError as exc:
        print(f"perfbench: guard: {exc}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    for name, value in result["metrics"].items():
        print(f"{name:40s} {value:>16.6f} {units[name]}")
    result["metrics"] = {name: {"value": result["metrics"][name],
                                "unit": units[name]} for name in names}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
