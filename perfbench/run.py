"""socnavsim benchmark: eval and training throughput, with a traced run
for per-layer numbers.

    python3 perfbench/run.py --workload eval-crowd20 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Workloads (reasons in BENCHMARK.json): eval-crowd20, eval-mapless1080,
train-desk; ``all`` runs each in its own process, one after another.
The code under test is the checkout's ``src/socnavsim``; BLAS is pinned
to one thread.  With ``--trace 0`` the run reports the end-to-end
metrics, each timing scaled to reference-host time by a calibration
kernel timed next to it (see workloads.calibrate); with ``--trace 1`` it runs the first pass untraced, then the
first two passes traced, and reports per-layer metrics, the layer
shares of wall time and the tracing overhead.  Spans are written to
``.perfbench/spans-<workload>-seed<seed>.jsonl``.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 6

END_TO_END = (
    ("setup_s", "s"),
    ("steps_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Import socnavsim from this checkout's src/, or exit with an error."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import socnavsim
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import socnavsim from {src}: {exc}")
    where = os.path.dirname(os.path.abspath(socnavsim.__file__))
    if os.path.commonpath([where, src]) != src:
        sys.exit(f"perfbench: socnavsim was imported from {where}, not from {src}")


import_program()
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
    }


def time_setup(args, count: int, times: list, samples: list) -> None:
    """Append the wall times of fresh processes that only set the workload
    up to times, and calibrations taken around them to samples."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    samples += [workloads.calibrate() for _ in range(3)]
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
        samples += [workloads.calibrate() for _ in range(3)]


def end_to_end(passes, setup_times, setup_samples) -> dict:
    latencies = [x for p in passes for x in p.latencies_ms]
    return {
        "setup_s": statistics.median(setup_times) * workloads.scale(setup_samples),
        "steps_per_s": sum(p.steps for p in passes) / sum(p.scaled_s for p in passes),
        "step_ms_p50": layers.percentile(latencies, 50),
        # the tail: p99 follows host stalls of 10-30 ms more than the program
        "step_ms_p95": layers.percentile(latencies, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(workload, args, errors: list):
    """Pass 0 untraced, then passes 0 and 1 again with tracing on.

    Both runs of pass 0 take the same inputs: their outputs must agree,
    and their wall times, scaled by the calibrations next to each, give
    the tracing overhead.
    """
    def calibration():
        return statistics.median(workloads.calibrate() for _ in range(3))

    # calibrations only between passes, so the traced windows hold no other work
    marks = [calibration()]
    base = workload.run_pass(0, workloads.uncalibrated)
    marks.append(calibration())
    passes = []
    with tracing.Tracer(layers.TARGETS) as tracer:
        for k in range(workloads.PASSES - 1):
            tracer.run = k
            passes.append(workload.run_pass(k, workloads.uncalibrated))
            marks.append(calibration())
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    windows = [(k, p.start, p.end) for k, p in enumerate(passes)]
    metrics = layers.timings(tracer.spans, windows)
    metrics.update(layers.counts(tracer.spans))
    traced_s = passes[0].work_s * workloads.scale(marks[1:3])
    untraced_s = base.work_s * workloads.scale(marks[0:2])
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    top = layers.top_self(tracer.spans, windows)
    same = passes[0].signature == base.signature
    if not same:
        errors.append("traced pass 0 outputs differ from the untraced pass 0")
    return [base] + passes, metrics, (1, int(not same)), top


def print_summary(args, passes, metrics, errors, attempted, failed, setup_times,
                  top=None) -> None:
    kind = "train" if args.workload.startswith("train") else "eval"
    steps = sum(p.steps for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"{'env' if kind == 'train' else 'policy'} steps {steps}")
    if not args.trace:
        work = sum(p.work_s for p in passes)
        print(f"  host speed: timings x{sum(p.scaled_s for p in passes) / work:.3f} to reference "
              f"host time; unscaled {steps / work:.4f} steps/s, "
              f"setup {statistics.median(setup_times):.4f} s")
        n_lat = sum(len(p.latencies_ms) for p in passes)
        sample = "passes" if kind == "train" else "steps"
        notes = {
            "setup_s": ("setup_s", f"median of {SETUP_PROBES} fresh processes"),
            "steps_per_s": (f"{kind}_{'env_' if kind == 'train' else ''}steps_per_s",
                            f"{steps} steps over n={len(passes)} passes"),
            "step_ms_p50": ("step_ms_p50", f"n={n_lat} {sample}"),
            "step_ms_p95": ("step_ms_p95", f"n={n_lat} {sample}, "
                            f"{n_lat - -(-n_lat * 95 // 100)} beyond"),
            "peak_rss_mb": ("peak_rss_mb", "n=1 process"),
        }
        for name, unit in END_TO_END:
            label, note = notes[name]
            print(f"  {label:24s} {metrics[name]:12.4f} {unit:4s} ({note})")
    else:
        print(f"  {'metric':40s} {'value':>14s} unit  should move -> on; ~0 on")
        for name, unit, _better, _what, moves, on, flat in layers.LAYER_METRICS:
            where = f"{','.join(moves)} -> {','.join(on)}; ~0 on {','.join(flat)}" if moves else ""
            print(f"  {name:40s} {metrics[name]:14.4f} {unit:4s} {where}")
        print("  largest self times (share of traced pass wall time, calls):")
        for name, share, calls in top:
            print(f"    {name:36s} {share:6.2f}%  {calls}")
        claim, holds = layers.PREDICTIONS[args.workload]
        print(f"  predicted bottleneck: {claim}: {'confirmed' if holds(metrics) else 'NOT confirmed'}")
    rate = failed / attempted if attempted else 0.0
    print(f"  {'error_rate':24s} {rate:12.4f}      ({failed} failed / {attempted} attempted)")
    for e in errors:
        print(f"  FAILED: {e}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        code = 0
        for name in workloads.WORKLOADS:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
        return code
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    if args.setup_probe:
        workloads.make(args.workload, ROOT, args.seed, args.seconds)
        return 0

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    # set-up probes before and after the passes, so machine load that
    # drifts during the run reaches both
    setup_times, setup_samples = [], []
    if not args.trace:
        time_setup(args, SETUP_PROBES // 2, setup_times, setup_samples)
    workload = workloads.make(args.workload, ROOT, args.seed, args.seconds)
    workload.warm_up()
    errors: list[str] = []
    top = None
    if args.trace:
        passes, metrics, (attempted, failed), top = traced(workload, args, errors)
        units = {name: unit for name, unit, *_ in layers.LAYER_METRICS}
    else:
        passes = [workload.run_pass(k) for k in range(workloads.PASSES)]
        time_setup(args, SETUP_PROBES - len(setup_times), setup_times, setup_samples)
        metrics = end_to_end(passes, setup_times, setup_samples)
        attempted = failed = 0
        units = dict(END_TO_END)
    attempted += sum(p.attempted for p in passes)
    failed += sum(p.failed for p in passes)
    for p in passes:
        errors.extend(p.errors)

    print_summary(args, passes, metrics, errors, attempted, failed, setup_times, top)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
