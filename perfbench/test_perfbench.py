"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The repository's own suite does not collect this file (its testpaths
are ``tests``); the traced-run tests start the benchmark twice per
workload and take about a minute.
"""

import json
import random
import shutil
import subprocess
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_what_run_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["paths"] == [BENCH.name]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(spans.PER_LAYER)
    assert set(spans.COUNT_METRICS) <= {name for name, _ in spans.PER_LAYER}


def test_every_command_has_an_expectation():
    expected = json.loads(run.EXPECTED_PATH.read_text())["ops"]
    for make, pool, fill in run.WORKLOADS.values():
        assert all(run.key_of(t) in expected for t in pool + fill)
        rng = random.Random(11)
        for _ in range(5):
            assert set(make(rng)) <= set(pool)


def test_cycles_follow_the_seed_and_keep_one_mix():
    first = list(islice(run.cycles("interactive", 5), 4))
    assert first == list(islice(run.cycles("interactive", 5), 4))
    assert first != list(islice(run.cycles("interactive", 6), 4))
    mixes = {frozenset(Counter(op[0] for op in cycle).items()) for cycle in first}
    assert len(mixes) == 1


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 0.9) == 90
    assert run.percentile(values, 0.5) == 50
    assert run.percentile([7.0], 0.9) == 7.0


@pytest.fixture
def runner(tmp_path):
    run.import_lambdaeq()
    expected = json.loads(run.EXPECTED_PATH.read_text())
    runner = run.Runner(expected, tmp_path / "work")
    runner.workdir.mkdir()
    return runner


def test_wrong_output_counts_as_failure(runner):
    assert runner.op(("alpha", "5", "2")) is not None
    runner.expected = dict(runner.expected)
    runner.expected["alpha 5 2"] = {"exit": 0, "sha256": "0" * 64}
    assert runner.op(("alpha", "5", "2")) is None
    assert (runner.attempted, runner.failed) == (2, 1)


def test_built_matrix_invariants_are_checked(runner, tmp_path):
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    good = {"p": 13, "m": 7, "matrix": runner.reference[13]}
    (fresh / "A13.json").write_text(json.dumps(good))
    assert runner.check_built(json.dumps(good), fresh) is None
    for i, h, value in ((0, 0, 2), (7, 1, 1), (1, 1, 0)):
        bad = json.loads(json.dumps(good))
        bad["matrix"][i][h] = value
        (fresh / "A13.json").write_text(json.dumps(bad))
        assert runner.check_built(json.dumps(bad), fresh) is not None


def test_missing_layers_are_reported_absent(monkeypatch):
    layers = (
        ("cli.main", "lambdaeq.cli", "NoSuchClass.main"),
        ("bpoly.gone", "lambdaeq.bpoly", "no_such_function"),
        ("gone.module", "lambdaeq.no_such_module", "f"),
    )
    monkeypatch.setattr(spans, "LAYERS", layers)
    tracer = spans.Tracer()
    tracer.install()
    assert tracer.absent == [name for name, _, _ in layers]
    metrics = tracer.metrics(1, 2.0, 1.0)
    assert metrics["cli.main.calls"] == 0 and metrics["trace.overhead_share"] == 0.5


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    root = tracer.names.index(spans.ROOT_LAYER)
    inner = tracer._wrap(tracer.names.index("modeq.block"), lambda: time.sleep(0.02), None)

    def body():
        time.sleep(0.02)
        inner()
        inner()

    outer = tracer._wrap(root, body, None)
    outer()
    outer()
    m = tracer.metrics(2, 1.0, 1.0)
    assert (m["cli.main.calls"], m["modeq.block.calls"]) == (1, 2)
    assert m["cli.main.total_s"] == pytest.approx(m["cli.main.s"] + m["modeq.block.total_s"])
    assert m["cli.main.s"] < m["modeq.block.s"]
    assert m["trace.coverage"] == pytest.approx(2 / 3, abs=0.1)


@pytest.mark.parametrize("workload", ["interactive", "build"])
def test_traced_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        results.append(last_json(proc))
    counts = [{k: r["metrics"][k]["value"] for k in spans.COUNT_METRICS} for r in results]
    assert counts[0] == counts[1]
    if workload == "interactive":
        assert counts[0]["bpoly.b_series.calls"] == 0
        assert counts[0]["cli.cache.hit_ratio"] == 1.0
    else:
        assert counts[0]["bpoly.b_series.distinct_ratio"] == 1.0
        assert results[0]["metrics"]["trace.coverage"]["value"] >= 0.9


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "build", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
