"""Reference figure: build_frame at d=8 under one BLAS thread and under the default.

    python3 bench/blas_threads.py

Each setting runs in its own process (the thread count is fixed when numpy
loads), once with the other cores idle and once with one spinning helper
process started beside it, and prints the minimum and median of the
REPEATS timings, in ms.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPEATS = 15


def child():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy as np

    import commat as cm
    import oracles as orc
    from worker import blas_threads

    d = 8
    rng = np.random.default_rng(0)
    basis = cm.bloch_basis(d)
    states = [cm.state_from_matrix(basis, orc.random_density(rng, d)) for _ in range(d * d)]
    povm = cm.validate_povm(orc.random_povm(rng, d, d * d))
    cm.build_frame(states, povm, basis, basis)
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        cm.build_frame(states, povm, basis, basis)
        times.append(1e3 * (time.perf_counter() - t))
    print(json.dumps({"blas_threads": blas_threads(), "min_ms": min(times),
                      "median_ms": statistics.median(times)}))


def main():
    if sys.argv[1:] == ["--child"]:
        child()
        return
    default_env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    settings = (("one thread", dict(default_env, **{k: "1" for k in THREAD_VARS})),
                ("default threads", default_env))
    for busy in (False, True):
        spinner = subprocess.Popen([sys.executable, "-c", "while True: pass"]) if busy else None
        try:
            for label, env in settings:
                out = subprocess.run([sys.executable, __file__, "--child"],
                                     env=env, capture_output=True, text=True, check=True, timeout=600)
                r = json.loads(out.stdout.strip().splitlines()[-1])
                print(f"build_frame d=8, {label} (BLAS reports {r['blas_threads']}), "
                      f"{'one core busy' if busy else 'other cores idle'}: "
                      f"min {r['min_ms']:.1f} ms, median {r['median_ms']:.1f} ms")
        finally:
            if spinner is not None:
                spinner.kill()
                spinner.wait()


if __name__ == "__main__":
    main()
