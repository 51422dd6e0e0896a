#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the lambdaeq command line.

Run from the repository root; the package is imported from ``src/``:

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every operation is one in-process call to ``lambdaeq.cli.main(argv)``
with stdout and stderr captured, from one thread.  Before each call the
package's functools memo caches are cleared, so every operation pays for
cold ``alpha_context``/``p_poly`` state exactly as a separate CLI
invocation does.  Each operation's exit code and stdout digest are
compared with ``expected.json`` (recorded by ``record.py``); ``build``
matrices are also checked against independent invariants.

A workload is an endless stream of cycles.  Every cycle holds the same
multiset of commands; the seed picks the order and, for ``interactive``,
arguments from pools of equally cheap commands.  The timed phase runs
whole cycles until ``--seconds`` have passed (at least one cycle), so
every run measures the same mix.  Times are reported in reference
seconds: wall time scaled by a speed probe taken around it (SpeedProbe).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half
the time untraced, then installs the spans of ``spans.py`` and runs the
other half traced, and prints the per-layer metrics per cycle together
with the tracing overhead.  The last stdout line is one JSON object;
details, metadata and spans go to ``perfbench/.out/``.  The exit code is
0 only when every operation succeeded and every check passed.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from spans import PER_LAYER, Tracer, lambdaeq_modules

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
EXPECTED_PATH = BENCH_DIR / "expected.json"
SETUP_REPEATS = 9
# Wall time of one speed probe on the reference machine; see SpeedProbe.
PROBE_REFERENCE_S = 0.008

REFERENCE_PRIMES = (5, 11, 13, 19, 23, 31, 47)
BUILD_PRIMES = (13, 17, 71, 43)      # m = 7, 9, 9, 11
FRESH = "{fresh}"                    # replaced by a new empty directory per operation
CACHE = "{cache}"                    # replaced by the directory that setup filled

FILL = [("matrix", str(p), "--cache-dir", CACHE) for p in REFERENCE_PRIMES]
LOADS = [
    ("matrix", str(p), "--format", fmt, "--cache-dir", CACHE)
    for p in REFERENCE_PRIMES
    for fmt in ("text", "structured", "typeset")
]
ODE = ("ode-check", "--order", "50")
SERIES = ("series", "lambda", "--order", "30")
ALPHA_POOL = [("alpha", str(p), str(k)) for p in REFERENCE_PRIMES for k in (1, 2, 3, 4, 6, 8, 12, 24)]
PVALS_POOL = [("pvals", str(s), str(m)) for s in range(4) for m in (3, 4, 5, 6, 7, 9, 15)]


def _build_cycle(rng):
    ops = [("matrix", str(p), "--format", "structured", "--cache-dir", FRESH) for p in BUILD_PRIMES]
    rng.shuffle(ops)
    return ops


def _four_to_one(cheap, dear):
    """Cycles of four `cheap` commands and one `dear` one, and their pool.

    The cheap group holds the median and the dear one p90, so neither
    percentile is a lone tail sample or sits between two groups.
    """
    def make(rng):
        ops = [cheap] * 4 + [dear]
        rng.shuffle(ops)
        return ops

    return make, [cheap, dear]


def _interactive_cycle(rng):
    # Of 37 commands, the 29 millisecond ones hold the median and the 6
    # ode-checks (the top 16%) hold p90: neither percentile sits on the
    # edge between two groups of different cost.
    ops = LOADS + [ODE] * 6 + [SERIES] * 2 + rng.sample(ALPHA_POOL, 4) + rng.sample(PVALS_POOL, 4)
    rng.shuffle(ops)
    return ops


# name -> (cycle generator, every command a cycle can hold, commands run at setup)
WORKLOADS = {
    "build": (_build_cycle, _build_cycle(random.Random(0)), []),
    "verify": (*_four_to_one(("verify", "13"), ("verify", "17")), []),
    "scan": (*_four_to_one(("scan", "--max-p", "53"), ("scan", "--max-p", "61")), []),
    "interactive": (
        _interactive_cycle,
        LOADS + [ODE, SERIES] + ALPHA_POOL + PVALS_POOL,
        FILL,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}


def key_of(template):
    return " ".join(template)


def import_lambdaeq():
    """Import the package from ROOT/src, or exit 2 if it is not there."""
    if not (SRC / "lambdaeq" / "__init__.py").is_file():
        print("error: %s/lambdaeq not found; run from a lambdaeq checkout" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import lambdaeq
    import lambdaeq.cli

    if Path(lambdaeq.__file__).resolve().parent != SRC / "lambdaeq":
        print("error: imported lambdaeq from %s, not %s" % (lambdaeq.__file__, SRC), file=sys.stderr)
        sys.exit(2)
    return lambdaeq


def memo_caches():
    """cache_clear of every functools cache in the loaded lambdaeq modules."""
    found = {}
    for module in lambdaeq_modules():
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                found[id(value)] = clear
    return list(found.values())


def percentile(sorted_values, share):
    """Nearest-rank percentile of a sorted, non-empty list."""
    return sorted_values[max(0, math.ceil(len(sorted_values) * share) - 1)]


class Runner:
    """Runs CLI operations, checks them and keeps the tally."""

    def __init__(self, expected, workdir):
        self.cli = sys.modules["lambdaeq.cli"]
        self.caches = memo_caches()
        self.expected = expected["ops"]
        self.reference = {int(p): m for p, m in expected["reference"].items()}
        self.workdir = workdir
        self.cache_dir = workdir / "cache"
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self._fresh = 0

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def call(self, argv):
        """One timed cli.main call: (seconds, exit code, stdout, stderr)."""
        for clear in self.caches:
            clear()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
        return time.perf_counter() - start, code, out.getvalue(), err.getvalue()

    def expand(self, template):
        """The argv of a command template, and the fresh directory it names."""
        fresh = None
        argv = []
        for arg in template:
            if arg == FRESH:
                self._fresh += 1
                fresh = self.workdir / ("fresh%d" % self._fresh)
                arg = str(fresh)
            elif arg == CACHE:
                arg = str(self.cache_dir)
            argv.append(arg)
        return argv, fresh

    def op(self, template):
        """Run and check one operation; returns its latency, or None if it failed."""
        argv, fresh = self.expand(template)
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(self.attempted)
        seconds, code, stdout, stderr = self.call(argv)
        if self.tracer is not None:
            self.tracer.end_op()
        problem = self.check(template, code, stdout, stderr, fresh)
        if fresh is not None:
            shutil.rmtree(fresh, ignore_errors=True)
        if problem:
            self.fail("%s: %s" % (" ".join(argv), problem))
            return None
        return seconds

    def check(self, template, code, stdout, stderr, fresh):
        want = self.expected.get(key_of(template))
        if want is None:
            return "no expectation recorded"
        if code != want["exit"]:
            return "exit code %r, expected %r; stderr: %s" % (code, want["exit"], stderr.strip()[-500:])
        if hashlib.sha256(stdout.encode()).hexdigest() != want["sha256"]:
            return "stdout differs from the recorded output"
        if fresh is not None:
            return self.check_built(stdout, fresh)
        return None

    def check_built(self, stdout, fresh):
        """Invariants of a freshly built matrix and of the cache file it wrote."""
        doc = json.loads(stdout)
        grid, m = doc["matrix"], doc["m"]
        if grid[0][0] != 1:
            return "a_00 = %r, not 1" % grid[0][0]
        if any(grid[i][h] for i in range(m + 1) for h in range(m + 1) if i + h > m):
            return "nonzero entry above the antidiagonal"
        if doc["p"] in self.reference and grid != self.reference[doc["p"]]:
            return "differs from the tabulated reference matrix"
        files = os.listdir(fresh)
        if len(files) != 1:
            return "cache holds %r, expected one file" % files
        with open(fresh / files[0]) as fh:
            if json.load(fh)["matrix"] != grid:
                return "cache file holds another matrix"
        return None


def cycles(workload, seed):
    make, _, _ = WORKLOADS[workload]
    rng = random.Random(seed)
    while True:
        yield make(rng)


def probe():
    """Wall time of a fixed piece of Fraction arithmetic, best of two."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 1200):
            acc += Fraction(k * 12345678901234567890123, k + 7)
        best = min(best, time.perf_counter() - start)
    return best


class SpeedProbe:
    """Converts wall seconds into reference seconds.

    On a small shared virtual machine the speed of one process drifts by
    up to +-20% within seconds, and a run can sit in a slow or a fast
    state throughout.  The probe sees most of that drift, so each
    measurement is bracketed by probes and scaled by PROBE_REFERENCE_S
    over their mean.  On the 2-core machine the benchmark was built on,
    runs of the same code spread (IQR over median) by 14-30% in wall
    seconds and by 2-9% in reference seconds.
    """

    def __init__(self):
        self.samples = [probe()]
        self.probed_at = time.perf_counter()

    def scale(self, seconds):
        """Reference seconds of a measurement that has just ended.

        Probes again only when 50 ms have passed since the last probe, so
        that millisecond operations are not dwarfed by probing.
        """
        before = self.samples[-1]
        if time.perf_counter() - self.probed_at > 0.05:
            self.samples.append(probe())
            self.probed_at = time.perf_counter()
        return seconds * 2 * PROBE_REFERENCE_S / (before + self.samples[-1])


def timed_phase(runner, speed, stream, seconds):
    """Whole cycles until `seconds` have passed.

    Returns each cycle's latencies as (wall seconds, reference seconds).
    """
    done = []
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        cycle = []
        for template in next(stream):
            latency = runner.op(template)
            if latency is not None:
                cycle.append((latency, speed.scale(latency)))
        done.append(cycle)
    return done


def ops_per_s(cycles_done):
    """Median over cycles of operations per busy reference second."""
    return statistics.median(len(c) / sum(s for _, s in c) for c in cycles_done)


def setup_once(workload, runner):
    """Cold import in a new interpreter plus the workload's own set-up."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import lambdaeq.cli"],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=60,
    )
    shutil.rmtree(runner.workdir, ignore_errors=True)
    runner.workdir.mkdir(parents=True)
    for template in WORKLOADS[workload][2]:
        runner.op(template)
    return time.perf_counter() - start


def metadata(lambdaeq, args):
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": getattr(lambdaeq, "BACKEND", "fractions"),
    }


def run_workload(args):
    lambdaeq = import_lambdaeq()
    with open(EXPECTED_PATH) as fh:
        expected = json.load(fh)
    OUT_DIR.mkdir(exist_ok=True)
    stem = "%s.seed%d.trace%d" % (args.workload, args.seed, args.trace)
    runner = Runner(expected, OUT_DIR / ("work-%s-%d" % (stem, os.getpid())))
    meta = metadata(lambdaeq, args)
    try:
        speed = SpeedProbe()
        setup = statistics.median(
            speed.scale(setup_once(args.workload, runner)) for _ in range(SETUP_REPEATS)
        )
        stream = cycles(args.workload, args.seed)
        if args.trace:
            plain = timed_phase(runner, speed, stream, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            runner.tracer = tracer
            mark = len(speed.samples)
            traced = timed_phase(runner, speed, stream, args.seconds / 2)
            runner.tracer = None
            values = tracer.metrics(
                len(traced), ops_per_s(plain), ops_per_s(traced),
                PROBE_REFERENCE_S / statistics.median(speed.samples[mark - 1:]),
            )
            units = dict(PER_LAYER)
            samples = {"untraced_cycles": len(plain), "traced_cycles": len(traced)}
        else:
            done = timed_phase(runner, speed, stream, args.seconds)
            latencies = sorted(s for cycle in done for _, s in cycle)
            values = {
                "setup_s": setup,
                "ops_per_s": ops_per_s(done),
                "op_p50_s": statistics.median(latencies),
                "op_p90_s": percentile(latencies, 0.9),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
            samples = {
                "ops": len(latencies),
                "cycles": len(done),
                "raw_op_p50_s": statistics.median(w for cycle in done for w, _ in cycle),
            }
        samples["probe_median_s"] = statistics.median(speed.samples)
    except (ZeroDivisionError, statistics.StatisticsError):
        runner.fail("no operation succeeded")
        values, units, samples = {}, {}, {}
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    correct = runner.failed == 0
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    record = dict(meta, samples=samples, errors=runner.errors, result=result)
    with open(OUT_DIR / (stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    if args.trace and values:
        tracer.dump(OUT_DIR / (stem + ".spans.json"), meta)
        if tracer.absent:
            print("absent layers: %s" % ", ".join(tracer.absent))
        for problem, times in sorted(tracer.hook_errors.items()):
            print("hook failed %d times: %s" % (times, problem))

    for message in runner.errors:
        print("FAILED %s" % message, file=sys.stderr)
    print("%s seed=%d backend=%s python=%s nproc=%s sha=%s samples=%s" % (
        args.workload, args.seed, meta["backend"], meta["python"], meta["nproc"],
        meta["git_sha"][:12], json.dumps(samples)))
    for name, metric in result["metrics"].items():
        print("  %-40s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("  %-40s %14.6g ratio" % ("fail_ratio", runner.failed / max(runner.attempted, 1)))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args):
    """Every workload in its own process; prints one table."""
    failed = False
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("%s: exit %d" % (workload, proc.returncode))
            failed = True
            if not lines:
                continue
        results[workload] = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
    print(json.dumps(results))
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
