"""Benchmark the compiled rational backend (gmpy2) against the pure one.

Only the kernels that still run on rationals are timed: the q-series
behind the lambda ODE.  Assembly, the row solves, ``scan`` and the
global check run on plain ints and would time the same on either
backend.  The two interchangeable scalar backends are selected at import
time, so each measurement runs in a subprocess with LAMBDAEQ_BACKEND
set.  Usage:

    python benchmarks/backend_bench.py
"""

import json
import os
import subprocess
import sys
import time

WORKLOADS = {
    "ODE residual, order 50": "from lambdaeq import ode_residual; ode_residual(50)",
}

RUNNER = r"""
import json, sys, time
import lambdaeq
body = sys.argv[1]
repeats = int(sys.argv[2])
exec(body)  # warm caches once
best = None
for _ in range(repeats):
    t0 = time.perf_counter()
    exec(body)
    dt = time.perf_counter() - t0
    best = dt if best is None else min(best, dt)
print(json.dumps({"backend": lambdaeq.BACKEND, "seconds": best}))
"""


def measure(backend, body, repeats=3):
    env = dict(os.environ, LAMBDAEQ_BACKEND=backend)
    out = subprocess.run(
        [sys.executable, "-c", RUNNER, body, str(repeats)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    payload = json.loads(out.stdout)
    assert payload["backend"] == backend
    return payload["seconds"]


def main():
    backends = ["fractions"]
    try:
        import gmpy2  # noqa: F401

        backends.insert(0, "gmpy2")
    except ImportError:
        print("gmpy2 not installed; timing the pure backend only\n")

    width = max(len(name) for name in WORKLOADS)
    header = "%-*s" % (width, "workload")
    for b in backends:
        header += "  %12s" % b
    if len(backends) == 2:
        header += "  %8s" % "speedup"
    print(header)
    print("-" * len(header))
    for name, body in WORKLOADS.items():
        times = [measure(b, body) for b in backends]
        line = "%-*s" % (width, name)
        for t in times:
            line += "  %10.4fs" % t
        if len(times) == 2 and times[0] > 0:
            line += "  %7.1fx" % (times[1] / times[0])
        print(line)


if __name__ == "__main__":
    main()
