"""One workload process: set up, run the timed closed loop, print one JSON line.

Started by run.py with BLAS limited to one thread in its environment, so the
limit holds before numpy loads.  With --probe it stops after set-up.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter

from speed import CLOCK, Speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REFERENCES = 5  # reference() runs that scale the set-up time


def blas_threads():
    """Thread count reported by each loaded OpenBLAS, or None if none answers."""
    counts = []
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return max(counts) if counts else None


def environment():
    import numpy
    import scipy

    return {
        "machine": f"{platform.platform()} {platform.machine()}, {os.cpu_count()} cpus",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


class Loop:
    """Closed loop, one client: whole rounds of the job list, one job at a time."""

    def __init__(self, jobs, wrong_output):
        self.jobs = jobs
        self.wrong_output = wrong_output
        self.speed = Speed()
        self.errors = []

    def run_job(self, label, fn):
        try:
            return bool(fn())
        except self.wrong_output as exc:
            self.errors.append(f"{label}: {exc}")
        except Exception:
            self.errors.append(f"{label}: {traceback.format_exc()}")
        return False

    def round(self):
        times, failed = [], 0
        for label, fn in self.jobs:
            t = CLOCK()
            ok = self.run_job(label, fn)
            times.append(CLOCK() - t)
            failed += not ok
            self.speed.after_job(times[-1])
        return times, failed

    def rounds(self, seconds, round_fn=None):
        """Run whole rounds (``round_fn``, by default ``round``) until the round
        boundary nearest to ``seconds``; return each round's result."""
        results = []
        start = time.perf_counter()
        while True:
            results.append((round_fn or self.round)())
            wall = time.perf_counter() - start
            if wall + 0.5 * wall / len(results) >= seconds:
                return results


def per_layer(tracer, counts, rounds):
    from tracer import layer_names

    calls, self_s = tracer.self_times()
    metrics = {}
    for name in layer_names():
        metrics[name + ".calls"] = calls[name] / rounds
        metrics[name + ".ms"] = 1e3 * self_s[name] / rounds
    base, passed = tracer.counts["analysis.self_test.storability_d"], tracer.counts["analysis.self_test.passed"]
    metrics["analysis.self_test.pass_ratio"] = passed / base if base else 0.0
    metrics["analysis.self_test.pass_base"] = base / rounds
    eb_base = counts.get("eb.inputs", 0)
    metrics["properties.eb_certificate.certified_ratio"] = counts.get("eb.certified", 0) / eb_base if eb_base else 0.0
    metrics["properties.eb_certificate.eb_base"] = eb_base / rounds
    return metrics


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    import commat

    if not os.path.abspath(commat.__file__).startswith(src + os.sep):
        sys.exit(f"commat imported from {commat.__file__}, not from {src}")
    from workloads import WORKLOADS, WrongOutput

    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](commat, args.seed, workdir)
        loop = Loop(workload.jobs, WrongOutput)
        loop.run_job(*workload.jobs[0])  # warm-up; its output is checked too
        # Set-up is the CPU time of this process so far (interpreter start,
        # imports, inputs, warm-up), scaled like the jobs; the wall time from
        # spawn is reported beside it.
        setup_cpu_s, setup_wall_s = CLOCK(), time.monotonic() - args.t0
        for _ in range(SETUP_REFERENCES):
            loop.speed.probe()
        record = {"setup_s": setup_cpu_s * loop.speed.scale(), "setup_cpu_s": setup_cpu_s,
                  "setup_wall_s": setup_wall_s, "digest": workload.digest.hexdigest()}
        if not args.probe:
            record.update(measure(args, workload, loop))
        record["errors"] = loop.errors
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))


def measure(args, workload, loop):
    record = {"environment": environment()}
    if args.trace:
        return record | measure_traced(args, workload, loop)
    rounds = loop.rounds(args.seconds)
    times = [t for round_times, _ in rounds for t in round_times]
    # Median over rounds: a burst of machine load spoils one round, not the run.
    cpu_jobs_per_s = statistics.median(len(t) / sum(t) for t, _ in rounds)
    scale = loop.speed.scale()
    return record | {
        "attempted": len(times),
        "failed": sum(f for _, f in rounds),
        "rounds": len(rounds),
        "job_p50_ms": 1e3 * scale * statistics.median(times),
        "jobs_per_s": cpu_jobs_per_s / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "speed": {"reference_ms": 1e3 * statistics.fmean(loop.speed.samples),
                  "reference_runs": len(loop.speed.samples), "scale": scale,
                  "cpu_job_p50_ms": 1e3 * statistics.median(times), "cpu_jobs_per_s": cpu_jobs_per_s},
    }


def measure_traced(args, workload, loop):
    """Run every job twice in a row, untraced and traced, in alternating order.

    The two runs of one job are a fraction of a second apart, so the machine's
    slow drifts of speed cancel in their ratio; ``tracing.overhead_pct`` is the
    median over all pairs of traced over untraced time, minus one.  Single jobs
    still vary by tens of percent here, more than the wrappers cost, so
    ``tracing.wrapper_cost_pct`` also reports the spans recorded times the cost
    of one wrapper call, over the untraced time.
    """
    from tracer import Tracer

    tracer = Tracer()
    counts = Counter()
    ratios, untraced_s = [], []

    def timed(label, fn, traced):
        before = Counter(workload.counts)
        if traced:
            tracer.install()
        t = CLOCK()
        ok = loop.run_job(label, fn)
        t = CLOCK() - t
        if traced:
            tracer.uninstall()
            counts.update(Counter(workload.counts) - before)
        return t, ok

    def paired_round():
        failed = 0
        for label, fn in loop.jobs:
            order = (False, True) if len(ratios) % 2 == 0 else (True, False)
            result = {traced: timed(label, fn, traced) for traced in order}
            ratios.append(result[True][0] / result[False][0])
            untraced_s.append(result[False][0])
            failed += (not result[True][1]) + (not result[False][1])
        return failed

    failed_per_round = loop.rounds(args.seconds, paired_round)
    rounds = len(failed_per_round)
    layers = per_layer(tracer, counts, rounds)
    layers["tracing.overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
    layers["tracing.wrapper_cost_pct"] = 100.0 * len(tracer.spans) * Tracer.wrapper_cost_s() / sum(untraced_s)
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return {"attempted": 2 * rounds * len(loop.jobs), "failed": sum(failed_per_round), "rounds": 2 * rounds,
            "layers": layers}


if __name__ == "__main__":
    main()
