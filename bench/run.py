"""Benchmark of commat: one workload per call, one JSON result on the last line.

    python3 bench/run.py --workload tomo-qudit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; commat is imported from ./src.  Each run
starts the workload in its own process with BLAS fixed to one thread, then
starts it SETUP_PROBES more times, up to the end of set-up only, and reports
the median set-up time.  --trace 1 reports per-layer metrics instead of the
end-to-end ones (see README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tomo-qudit", "selftest-gauge", "eb-search", "cli-report")
SETUP_PROBES = 2
DEADLINE_S = 170  # the whole run, probes included, ends within this
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(args, probe, deadline):
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if probe:
        cmd.append("--probe")
    env = dict(os.environ, **ONE_THREAD)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"workload process did not finish within {DEADLINE_S} s of the start")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "commat", "__init__.py")):
        sys.exit(f"no commat sources under {os.path.join(ROOT, 'src')}; run from a commat checkout")

    deadline = time.monotonic() + DEADLINE_S
    main_run = spawn(args, False, deadline)
    runs = [main_run] + ([] if args.trace else [spawn(args, True, deadline) for _ in range(SETUP_PROBES)])
    errors = [e for r in runs for e in r["errors"]]
    digests = {r["digest"] for r in runs}
    if len(digests) != 1:
        errors.append(f"set-up processes generated different inputs: {sorted(digests)}")
    for e in errors:
        sys.stderr.write(f"WRONG OUTPUT {e}\n")

    env = main_run["environment"]
    print(f"# workload {args.workload} seed {args.seed}: inputs sha256 {main_run['digest']}")
    print(f"# {env['machine']}; python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS threads {env['blas_threads']}")
    print(f"# {main_run['attempted']} jobs in {main_run['rounds']} rounds, {main_run['failed']} failed")
    if not args.trace:
        print("# set-up of each process: " + "; ".join(
            f"CPU {r['setup_cpu_s']:.3f} s, wall {r['setup_wall_s']:.3f} s, scaled {r['setup_s']:.3f} s" for r in runs))
        sp = main_run["speed"]
        print(f"# machine speed: reference() took {sp['reference_ms']:.3f} ms (mean of {sp['reference_runs']}), "
              f"scale {sp['scale']:.4f}; unscaled CPU time: job p50 {sp['cpu_job_p50_ms']:.3f} ms, "
              f"{sp['cpu_jobs_per_s']:.4f} jobs/s")

    if args.trace:
        metrics = {
            name: metric(value, _layer_unit(name)) for name, value in main_run["layers"].items()
        }
    else:
        metrics = {
            "setup_s": metric(statistics.median(r["setup_s"] for r in runs), "s"),
            "job_p50_ms": metric(main_run["job_p50_ms"], "ms"),
            "jobs_per_s": metric(main_run["jobs_per_s"], "jobs/s"),
            "peak_rss_mb": metric(main_run["peak_rss_mb"], "MB"),
        }
    print(json.dumps({
        "correct": not errors,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": metrics,
    }))


def _layer_unit(name):
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


if __name__ == "__main__":
    main()
