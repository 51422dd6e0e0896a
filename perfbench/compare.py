#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the ``<workload>.seed<n>.trace<t>.json`` files that
run.py writes to ``perfbench/.out/`` (copy them away between the two
commits).  For every workload and metric it prints the median and
quartiles of each side and the change of the medians; an end-to-end
metric that got worse by more than its bound in BENCHMARK.json is marked
WORSE, and one whose base spread exceeds the bound is marked UNRESOLVED.
Results from different backends are never compared (exit 2).
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    runs = []
    for path in sorted(Path(directory).glob("*.trace[01].json")):
        with open(path) as fh:
            runs.append(json.load(fh))
    if not runs:
        sys.exit("no result files in %s" % directory)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = load(argv[0]), load(argv[1])
    backends = {r["backend"] for r in base + new}
    if len(backends) != 1:
        print("refusing to compare results from different backends: %s" % sorted(backends))
        return 2
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = dict(bounds, **{m["name"]: m for m in spec["per_layer"]})

    def table(runs):
        out = {}
        for r in runs:
            for name, metric in r["result"]["metrics"].items():
                out.setdefault((r["workload"], r["trace"], name), []).append(metric["value"])
        return out

    old_values, new_values = table(base), table(new)
    for key in sorted(old_values.keys() & new_values.keys()):
        workload, _, name = key
        b1, bm, b3 = quartiles(old_values[key])
        n1, nm, n3 = quartiles(new_values[key])
        change = (nm - bm) / bm if bm else 0.0
        verdict = ""
        if name in bounds:
            bound = bounds[name]["bound"]
            worse = change if bounds[name]["better"] == "lower" else -change
            if (b3 - b1) / bm > bound:
                verdict = "UNRESOLVED"
            elif worse > bound:
                verdict = "WORSE"
        elif name in better and better[name]["unit"] == "count" and bm != nm:
            verdict = "count changed"
        print("%-12s %-38s base %-11.5g [%.5g, %.5g]  new %-11.5g [%.5g, %.5g]  %+7.2f%%  %s" % (
            workload, name, bm, b1, b3, nm, n1, n3, 100 * change, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
