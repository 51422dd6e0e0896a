#!/usr/bin/env python3
"""Record the expected output of every command the benchmark can run.

    python3 perfbench/record.py

Runs each command of every workload's pool once, through the same
runner as run.py, and writes its exit code and stdout digest to
expected.json together with the tabulated reference matrices of
tests/test_modeq.py.  Run it only at a commit whose output is known to
be right: run.py treats any later difference as a failed operation.
"""

import hashlib
import json
import shutil
import sys

import run


def main():
    run.import_lambdaeq()
    sys.path.insert(0, str(run.ROOT / "tests"))
    from test_modeq import REFERENCE

    run.OUT_DIR.mkdir(exist_ok=True)
    runner = run.Runner({"ops": {}, "reference": {}}, run.OUT_DIR / "record")
    ops = {}
    try:
        for name, (_, pool, fill) in run.WORKLOADS.items():
            shutil.rmtree(runner.workdir, ignore_errors=True)
            runner.workdir.mkdir(parents=True)
            for template in fill + pool:
                argv, _ = runner.expand(template)
                seconds, code, stdout, stderr = runner.call(argv)
                if code != 0:
                    sys.exit("%s exited %r: %s" % (" ".join(argv), code, stderr))
                digest = hashlib.sha256(stdout.encode()).hexdigest()
                previous = ops.setdefault(run.key_of(template), {"exit": code, "sha256": digest})
                if previous["sha256"] != digest:
                    sys.exit("%s gave two different outputs" % " ".join(argv))
                print("%8.3fs  %s" % (seconds, run.key_of(template)))
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    doc = {
        "reference": {str(p): [list(row) for row in REFERENCE[p]] for p in sorted(REFERENCE)},
        "ops": ops,
    }
    with open(run.EXPECTED_PATH, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
