"""Command-line interface tests: output, exit codes, cache behaviour."""

import itertools
import json
import os
import re
import shlex
import time
from pathlib import Path

import pytest

from lambdaeq import assemble, from_doc, reduced, to_doc
from lambdaeq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_text(capsys):
    code, out, _ = run(capsys, "matrix", "5")
    assert code == 0
    assert "p = 5   m = 3   n = 4" in out
    assert "-26" in out


def test_matrix_rejects_even_input(capsys):
    code, _, err = run(capsys, "matrix", "4")
    assert code == 2
    assert "odd prime" in err


def test_matrix_rejects_composite(capsys):
    code, _, err = run(capsys, "matrix", "15")
    assert code == 2


def test_matrix_structured_to_file(tmp_path, capsys):
    target = tmp_path / "a13.json"
    code, out, _ = run(capsys, "matrix", "13", "--format", "structured", "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert (doc["p"], doc["m"], doc["n"]) == (13, 7, 4)
    assert doc["matrix"][1][3] == -60980
    assert doc["verification"]["symmetry"]["passed"] is True


def test_matrix_structured_round_trip(capsys):
    code, out, _ = run(capsys, "matrix", "11", "--format", "structured")
    assert code == 0
    assert from_doc(json.loads(out)) == assemble(11)


def test_matrix_typeset(capsys):
    code, out, _ = run(capsys, "matrix", "5", "--format", "typeset")
    assert code == 0
    assert "\\begin{array}" in out


def test_matrix_cache_round_trip(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code1, out1, _ = run(capsys, "matrix", "5", "--cache-dir", cache)
    assert code1 == 0
    files = os.listdir(cache)
    assert files == ["A5.schema1.json"]
    code2, out2, _ = run(capsys, "matrix", "5", "--cache-dir", cache)
    assert code2 == 0
    assert out2 == out1  # bit-identical to the cold run


def test_matrix_cache_never_trusted(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "A5.schema1.json"
    _, cold, _ = run(capsys, "matrix", "5")
    # poison the cache with a matrix that breaks the symmetry re-check
    doc = json.loads(json.dumps(to_doc(assemble(5))))
    doc["matrix"][2][1] = 99
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "matrix", "5", "--cache-dir", str(cache))
    assert code == 0
    assert out == cold
    assert json.loads(path.read_text())["matrix"][2][1] == -3  # rewritten


def test_matrix_cache_serves_a_symmetric_tampering_and_rebuilds_an_asymmetric_one(
    tmp_path, capsys
):
    # README: only the symmetries and the row-1 moments are re-checked, so a
    # symmetric change outside row 1 is served and the cache has to be trusted
    from test_modeq import REFERENCE

    cache = tmp_path / "cache"
    argv = ("matrix", "13", "--format", "structured", "--cache-dir", str(cache))
    code, fresh, _ = run(capsys, *argv)
    assert code == 0
    path = cache / "A13.schema1.json"
    doc = json.loads(path.read_text())
    grid = doc["matrix"]
    grid[2][2] += 1
    grid[2][3] -= 1
    grid[3][2] -= 1
    tampered = tuple(map(tuple, grid))
    assert tampered != REFERENCE[13]
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert tuple(map(tuple, json.loads(out)["matrix"])) == tampered

    grid[2][3] += 5  # breaks both symmetries: a miss
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == fresh
    assert tuple(map(tuple, json.loads(path.read_text())["matrix"])) == REFERENCE[13]


def test_matrix_cache_rebuilds_a_symmetric_entry_that_fails_the_row1_moments(tmp_path, capsys):
    from test_modeq import REFERENCE

    from lambdaeq import verify_symmetry

    cache = tmp_path / "cache"
    argv = ("matrix", "13", "--format", "structured", "--cache-dir", str(cache))
    _, fresh, _ = run(capsys, *argv)
    path = cache / "A13.schema1.json"
    doc = json.loads(path.read_text())
    grid = doc["matrix"]
    # a_{1,1} and a_{1,5} are horizontal partners, a_{1,5} and a_{5,1} transpose ones
    grid[1][1] += 1
    grid[1][5] += 1
    grid[5][1] += 1
    assert verify_symmetry(from_doc(doc)).passed
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv)
    assert code == 0 and err == ""
    assert out == fresh
    assert tuple(map(tuple, json.loads(out)["matrix"])) == REFERENCE[13]
    assert tuple(map(tuple, json.loads(path.read_text())["matrix"])) == REFERENCE[13]


def test_matrix_cache_refuses_another_primes_matrix(tmp_path, capsys):
    cache = tmp_path / "cache"
    _, cold, _ = run(capsys, "matrix", "13")
    code, _, _ = run(capsys, "matrix", "17", "--cache-dir", str(cache))
    assert code == 0
    path = cache / "A13.schema1.json"
    path.write_text((cache / "A17.schema1.json").read_text())
    code, out, _ = run(capsys, "matrix", "13", "--cache-dir", str(cache))
    assert code == 0
    assert out == cold
    assert json.loads(path.read_text())["p"] == 13  # rewritten


def test_matrix_cache_with_a_large_p_is_a_miss_without_a_primality_test(tmp_path, capsys):
    # trial division of 2^61 - 1 would run for minutes; p is compared first
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "A13.schema1.json"
    _, cold, _ = run(capsys, "matrix", "13")
    doc = to_doc(assemble(13))
    doc["p"] = 2**61 - 1
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out, _ = run(capsys, "matrix", "13", "--cache-dir", str(cache))
    assert time.perf_counter() - start < 2
    assert code == 0
    assert out == cold
    assert json.loads(path.read_text())["p"] == 13  # rewritten


@pytest.mark.parametrize("entry", [1.7, "-3318"])
def test_matrix_cache_refuses_non_integer_entries(tmp_path, capsys, entry):
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "A13.schema1.json"
    _, cold, _ = run(capsys, "matrix", "13")
    doc = to_doc(assemble(13))
    doc["matrix"][0][0] = entry
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "matrix", "13", "--cache-dir", str(cache))
    assert code == 0
    assert out == cold
    assert json.loads(path.read_text())["matrix"][0][0] == 1  # rewritten


@pytest.mark.parametrize(
    "key, value", [("schema_version", 1.0), ("schema_version", True), ("p", 13.0), ("m", 7.0)]
)
def test_matrix_cache_refuses_a_header_that_is_not_an_int(tmp_path, capsys, key, value):
    # json.loads reads 1.0 as a float equal to 1; the entry is a miss and is rebuilt
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "A13.schema1.json"
    _, cold, _ = run(capsys, "matrix", "13")
    doc = to_doc(assemble(13))
    doc[key] = value
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "matrix", "13", "--cache-dir", str(cache))
    assert code == 0
    assert out == cold
    assert type(json.loads(path.read_text())[key]) is int  # rewritten


# valid JSON that is not an object; "deep" nests past the recursion limit
NON_OBJECTS = {"list": "[1, 2]", "string": '"x"', "int": "3", "deep": "[" * 10**5 + "]" * 10**5}


@pytest.mark.parametrize("text", NON_OBJECTS.values(), ids=NON_OBJECTS.keys())
def test_matrix_cache_treats_a_non_object_document_as_a_miss(tmp_path, capsys, text):
    from test_modeq import REFERENCE

    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "A13.schema1.json"
    path.write_text(text)
    code, out, err = run(
        capsys, "matrix", "13", "--format", "structured", "--cache-dir", str(cache)
    )
    assert code == 0, err
    assert tuple(map(tuple, json.loads(out)["matrix"])) == REFERENCE[13]
    assert json.loads(path.read_text())["p"] == 13  # rewritten


def test_matrix_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "a13.txt"
    code, out, err = run(capsys, "matrix", "13", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "a13.txt" in err
    assert not target.exists()


def test_matrix_cache_dir_that_is_a_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "cache"
    blocker.write_text("not a directory")
    code, out, err = run(capsys, "matrix", "13", "--cache-dir", str(blocker))
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert blocker.read_text() == "not a directory"


def test_matrix_cache_write_that_fails_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    import lambdaeq.cli as cli

    monkeypatch.setattr(cli.json, "dump", full_disk)
    cache = tmp_path / "cache"
    code, out, err = run(capsys, "matrix", "13", "--cache-dir", str(cache))
    assert code == 2 and out == ""
    assert "No space left on device" in err
    assert os.listdir(cache) == []


def test_verify_selected_checks(capsys):
    code, out, _ = run(capsys, "verify", "19", "--checks", "symmetry,rowsums")
    assert code == 0
    assert "symmetry: PASS" in out
    assert "rowsums: PASS" in out


def test_verify_theorem_checks(capsys):
    code, out, _ = run(capsys, "verify", "23", "--checks", "theorem52")
    assert code == 0
    assert "row1-closed-forms: PASS" in out
    assert "negated matrix entries" in out
    assert "row2-pipeline: PASS" in out
    assert "bordered-det: PASS" in out


def test_verify_m3_builds_one_table_and_assembles_once(monkeypatch, capsys):
    import lambdaeq.modeq as modeq
    from lambdaeq import BTable

    counts = {"tables": 0, "assemble": 0}
    init = BTable.__init__
    build = modeq.assemble

    def counting_init(self, *args):
        counts["tables"] += 1
        init(self, *args)

    def counting_assemble(*args, **kwargs):
        counts["assemble"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(BTable, "__init__", counting_init)
    monkeypatch.setattr(modeq, "assemble", counting_assemble)
    code, out, _ = run(capsys, "verify", "23")
    assert code == 0
    for name in ("symmetry", "rowsums", "dets", "global", "row1-closed-forms",
                 "row2-pipeline", "bordered-det"):
        assert "%s: PASS" % name in out
    assert counts == {"tables": 1, "assemble": 1}


# the one index each command grows the power columns to: m = 7 at p = 13, and
# m = 3 at p = 23, which runs theorem52 too; the default global order is m^2 + 2m
POWER_TOPS = {
    ("verify", "13"): 63,
    ("verify", "23"): 15,
    ("verify", "13", "--checks", "global", "--order", "70"): 70,
    ("verify", "13", "--checks", "global", "--order", "49"): 49,
    ("verify", "13", "--checks", "symmetry,rowsums,dets"): 49,
    ("matrix", "13"): 49,
}


@pytest.mark.parametrize("argv", sorted(POWER_TOPS), ids=" ".join)
def test_the_power_columns_grow_once(argv, monkeypatch, capsys):
    from lambdaeq import BTable

    tops = []
    grow = BTable._grow_powers

    def spy(self, top):
        tops.append(top)
        return grow(self, top)

    monkeypatch.setattr(BTable, "_grow_powers", spy)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "FAIL" not in out
    assert tops == [POWER_TOPS[argv]]


def test_verify_theorem_checks_need_m3(capsys):
    code, _, err = run(capsys, "verify", "7", "--checks", "theorem52")
    assert code == 2


def test_verify_global_with_order(capsys):
    code, out, _ = run(capsys, "verify", "5", "--checks", "global", "--order", "20")
    assert code == 0
    assert "global: PASS" in out


def test_verify_default_checks(capsys):
    code, out, _ = run(capsys, "verify", "7")
    assert code == 0
    for name in ("symmetry", "rowsums", "dets", "global"):
        assert "%s: PASS" % name in out


@pytest.fixture
def no_table_work(monkeypatch):
    """modeq.BTable and modeq.assemble, patched to fail the test if called."""
    import lambdaeq.modeq as modeq

    def refuse(*args, **kwargs):
        raise AssertionError("table work before the input was refused")

    monkeypatch.setattr(modeq, "BTable", refuse)
    monkeypatch.setattr(modeq, "assemble", refuse)


def test_verify_unknown_check(no_table_work, capsys):
    code, out, err = run(capsys, "verify", "5", "--checks", "nonsense,symmetry,bogus")
    assert code == 2 and out == ""
    assert err == "error: unknown checks: nonsense, bogus\n"


def test_verify_refuses_the_order_budget_before_unknown_checks(no_table_work, capsys):
    code, out, err = run(capsys, "verify", "7", "--checks", "bogus,global", "--order", "99999")
    assert code == 2 and out == ""
    assert err.startswith("error: --order 99999 is above the budget 2500;")
    # a given order is sized whatever the plan, so without global too
    code, out, err = run(capsys, "verify", "7", "--checks", "bogus", "--order", "99999")
    assert code == 2 and out == ""
    assert err.startswith("error: --order 99999 is above the budget 2500;")


def test_verify_sizes_a_given_order_without_global(no_table_work, capsys):
    code, out, err = run(capsys, "verify", "13", "--checks", "dets", "--order", "5")
    assert code == 2 and out == ""
    assert err == "error: order must be >= m^2 = 49 to cover all solved equations\n"
    code, out, err = run(capsys, "verify", "13", "--checks", "dets", "--order", "99999")
    assert code == 2 and out == ""
    assert err.startswith("error: --order 99999 is above the budget 2500;")


def test_run_checks_refuses_an_order_below_m_squared_whatever_the_plan(no_table_work):
    from lambdaeq import PrimeParams, run_checks

    for names in (["dets"], ["symmetry", "rowsums"], ["global"], None):
        with pytest.raises(ValueError, match="order must be >= m\\^2 = 49"):
            run_checks(PrimeParams(13), names, 48)


def test_verify_help_lists_the_check_names(capsys):
    from lambdaeq import CHECK_NAMES

    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    listed = re.search(r"comma list from: (\S+) \(default: all applicable\)", text).group(1)
    assert listed.split(",") == list(CHECK_NAMES)


def test_verify_runs_a_repeated_check_once(monkeypatch, capsys):
    import lambdaeq.modeq as modeq

    calls = []
    check = modeq.verify_global_vanish

    def counting(*args):
        calls.append(args)
        return check(*args)

    monkeypatch.setattr(modeq, "verify_global_vanish", counting)
    code, out, _ = run(capsys, "verify", "13", "--checks", "global,global,dets, global")
    assert code == 0
    assert out == "global: PASS\ndets: PASS\n"
    assert len(calls) == 1


@pytest.mark.parametrize("checks", [",", "", " , ,"])
def test_verify_refuses_an_empty_check_selection(no_table_work, capsys, checks):
    code, out, err = run(capsys, "verify", "13", "--checks", checks)
    assert code == 2 and out == ""
    assert err.startswith("error: --checks %r selects no check" % checks)


# integer arguments that int() alone reads ("1_3" as 13, the Arabic-Indic digit
# three as 3), and the argument each is refused as
NON_ASCII_INTEGERS = {("matrix", "1_3"): "p", ("matrix", "\u0663"): "p", ("alpha", "5", "1_0"): "k"}


@pytest.mark.parametrize("argv", sorted(NON_ASCII_INTEGERS), ids=" ".join)
def test_integer_arguments_are_ascii_decimals(argv, capsys):
    from lambdaeq.modeq import render_text

    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("usage: lambdaeq %s" % argv[0])
    assert err.endswith(
        "error: argument %s: invalid int value: %r\n" % (NON_ASCII_INTEGERS[argv], argv[-1])
    )
    for p in ("13", "+13"):
        code, out, _ = run(capsys, "matrix", p)
        assert code == 0 and out == render_text(assemble(13)) + "\n"


def test_alpha_command(capsys):
    code, out, _ = run(capsys, "alpha", "5", "5")
    assert code == 0
    assert out.strip() == "11/5"


def test_alpha_rejects_bad_k(capsys):
    code, _, _ = run(capsys, "alpha", "5", "0")
    assert code == 2


def test_series_lambda(capsys):
    code, out, _ = run(capsys, "series", "lambda", "--order", "3")
    assert code == 0
    assert out.strip() == "16*q - 128*q^2 + 704*q^3 + O(q^4)"


def test_series_xy(capsys):
    code, out, _ = run(capsys, "series", "xy", "--p", "11", "--i", "1", "--h", "1", "--order", "2")
    assert code == 0
    assert out.startswith("1 - 6*q")


def test_series_xy_at_a_huge_prime_reads_one_column(capsys):
    # m ~ 1.25 * 10^11 here: a lone b(2h, 0) must not build the power family
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "series", "xy", "--p", "999999999989", "--i", "0", "--h", "1", "--order", "10"
    )
    assert time.perf_counter() - start < 2
    assert code == 0
    assert out == (
        "1 - 8*q + 32*q^2 - 96*q^3 + 256*q^4 - 624*q^5 + 1408*q^6 - 3008*q^7 + 6144*q^8"
        " - 12072*q^9 + 22976*q^10 + O(q^11)\n"
    )


@pytest.mark.parametrize("order", ["0", "-1"])
@pytest.mark.parametrize("kind", [["lambda"], ["xy", "--p", "7", "--i", "1", "--h", "0"]])
def test_series_refuses_an_order_below_one(kind, order, capsys):
    code, out, err = run(capsys, "series", *kind, "--order", order)
    assert code == 2 and out == ""
    assert err == "error: --order must be at least 1\n"


def test_series_order_one_works_for_both_kinds(capsys):
    code, out, _ = run(capsys, "series", "lambda", "--order", "1")
    assert code == 0 and out == "16*q + O(q^2)\n"
    code, out, _ = run(capsys, "series", "xy", "--p", "7", "--i", "1", "--h", "0", "--order", "1")
    assert code == 0 and out == "1 - q + O(q^2)\n"


def test_series_xy_needs_p(capsys):
    code, _, err = run(capsys, "series", "xy", "--order", "3")
    assert code == 2


@pytest.mark.parametrize(
    "flags", [["--p", "5", "--i", "3", "--h", "2"], ["--p", "5"], ["--i", "0"], ["--h", "1"]],
    ids=" ".join,
)
def test_series_lambda_refuses_the_flags_of_xy(flags, capsys):
    code, out, err = run(capsys, "series", "lambda", *flags, "--order", "4")
    assert code == 2 and out == ""
    assert err == "error: series lambda takes no %s\n" % ", ".join(flags[::2])


def test_series_xy_reads_missing_exponents_as_zero(capsys):
    code, out, _ = run(capsys, "series", "xy", "--p", "11", "--order", "10")
    assert code == 0 and out == "1 + O(q^11)\n"
    code, out, _ = run(capsys, "series", "xy", "--p", "7", "--i", "1", "--order", "1")
    assert code == 0 and out == "1 - q + O(q^2)\n"


def test_bpoly_methods_agree(capsys):
    code1, out1, _ = run(capsys, "bpoly", "5", "7", "--u", "3/2", "--v", "-1", "--method", "partition")
    code2, out2, _ = run(capsys, "bpoly", "5", "7", "--u", "3/2", "--v", "-1", "--method", "recurrence")
    assert code1 == code2 == 0
    assert out1 == out2


def test_bpoly_rejects_bad_rational(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bpoly", "5", "3", "--u", "half", "--v", "0"])
    assert exc.value.code == 2


def test_bpoly_partition_method_threshold(capsys):
    code, _, err = run(capsys, "bpoly", "5", "40", "--u", "1", "--v", "1", "--method", "partition")
    assert code == 2
    assert err == (
        "error: l=40 exceeds the enumeration threshold 30; the recurrence (b_series, "
        "bpoly --method recurrence) has no such limit\n"
    )
    code, out, _ = run(capsys, "bpoly", "5", "40", "--u", "1", "--v", "1")
    assert code == 0


def test_pvals(capsys):
    code, out, _ = run(capsys, "pvals", "1", "3")
    assert code == 0
    assert out.strip() == "3/2"


def test_pvals_budget_boundary(capsys):
    import lambdaeq.cli as cli

    top = cli.MAX_PVALS_SUM
    code, out, _ = run(capsys, "pvals", "1", str(top - 1))
    assert code == 0 and out.strip() == "%d/2" % (top - 1)
    for s, m in ((1, top), (1, 499)):
        code, out, err = run(capsys, "pvals", str(s), str(m))
        assert code == 2 and out == ""
        assert err.startswith("error: s + m = %d is above the budget %d;" % (s + m, top))
        assert "Traceback" not in err


def test_ode_check(capsys):
    code, out, _ = run(capsys, "ode-check", "--order", "16")
    assert code == 0
    assert "PASS" in out


def test_ode_check_rejects_tiny_order(capsys):
    code, _, _ = run(capsys, "ode-check", "--order", "4")
    assert code == 2


def test_scan(capsys):
    code, out, _ = run(capsys, "scan", "--max-p", "47")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("p=")]
    assert len(lines) == 14  # odd primes 3..47
    assert all(line.endswith("ok") for line in lines)
    assert "hold for every prime" in out


# stdout of `scan --max-p 61`
SCAN_61_SHA256 = "1a28847981d3e3219aada10c4b9968a9c8c8167d218b21d1283d9b0aeff1c609"


def test_scan_output_is_pinned(capsys):
    import hashlib

    code, out, _ = run(capsys, "scan", "--max-p", "61")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_61_SHA256


# stdout of `scan --max-p 53`, the benchmark's operation, and of
# `scan --max-p 400`, the budget edge, where m reaches 199
SCAN_SHA256 = {
    53: "b29fef0fac54761369854851fadb5b5e1d5f27bc2dddb0da87eba311880e69c6",
    400: "d7414ca0955a16260724ecf202fdad3967e43f1e9a3be10db3d7489f4e8e9ca4",
}


@pytest.mark.parametrize("max_p", sorted(SCAN_SHA256))
def test_scan_benchmark_and_budget_outputs_are_pinned(max_p, capsys):
    import hashlib

    code, out, _ = run(capsys, "scan", "--max-p", str(max_p))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_SHA256[max_p]


# stdout of large-m commands, whose matrices REFERENCE does not reach, and
# of the m = 3 verifies, the only ones that run the theorem52 checks
LARGE_M_SHA256 = {
    ("matrix", "53", "--format", "structured"):
        "cee0b2f3a989b7e7ee5d7b028dbcfcb5f8b13b745aa9871d3f9951d49d16f4ef",
    ("verify", "53"): "4a8b54ada1f9328827d9855564e03bd071126007248074299b496f65d53f41d8",
    ("verify", "5"): "64145b5fe2a10fb25e7318ef37677a2fc3db50ca53a98984bebbdd3f4903b6f7",
    ("verify", "11"): "08e6b5228db376109abef372c5ee126f1f59c400cbec2f1b6e490cba9ed8ad13",
    ("verify", "23"): "465f9974c35ebb7c3b827cb4fb7863a8cb96e084d0e6bc6b53b6d3aed13ec058",
    ("scan", "--max-p", "199"):
        "7492ca7d57c703e0d01952a3a2bbac49b8375851a496223fade4a9ce0acb2c64",
}


# stdout at m = 48, the MAX_M edge, where the power family is widest, and
# at p = 89 (m = 45, n = 4), where most power slots are too wide to share a
# packed int and grow as groups of one; each takes 15-20 s, so CI checks
# them on the installed entry point, not tier-1
MAX_M_SHA256 = {
    ("matrix", "383", "--format", "structured"):
        "ab424991e27dfc93add215e43307552ab08d2ee2caa718e9f978426976520dee",
    ("matrix", "89", "--format", "structured"):
        "e80192704a7b7174935f6435f0c0b01676c2a4930e43fa6a693d5bd04bf8093b",
}


@pytest.mark.parametrize("argv", sorted(LARGE_M_SHA256), ids=" ".join)
def test_large_m_output_is_pinned(argv, capsys):
    import hashlib

    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_M_SHA256[argv]


# stdout of the series, ODE and b-polynomial routes; the ode-check lines
# pin the certified order (q^53 for --order 50), not only the PASS
ROUTE_SHA256 = {
    ("ode-check", "--order", "10"):
        "4c8a9abba1a2b41a874fd4d2d8a17877b0b2bacab0e4dde1f86b35d807262547",
    ("ode-check", "--order", "50"):
        "a77c8feacb4c6e8e64d79b9c5a8b5286aae0b4852ea06283051f799917079111",
    ("ode-check", "--order", "200"):
        "ec28e8eb78e1aac6484074a6b4cc3f9c50ddec5e5f440e5669998dd51f50be9f",
    # the budget edge: "through q^1003"
    ("ode-check", "--order", "1000"):
        "67ae7c51229e32e35ceadc25f1067cb566c93694c39f7482aef5b6405ddec182",
    ("series", "lambda", "--order", "30"):
        "9c74eb604128fd398d2b8c0f281c9d3ad77f3bfbf7e39607efbca9431f082467",
    # the budget edge
    ("series", "lambda", "--order", "2000"):
        "8c61a3693da7f8f3985da1f2645dc9e4c9b48296c8541bcd8445111a24016a91",
    ("series", "xy", "--p", "13", "--i", "1", "--h", "2", "--order", "40"):
        "3e5cca8e41b3caf540ca2eda9f7bfe6774bcc95eaf6b9801f99b90c9792ba927",
    ("bpoly", "5", "6", "--u", "5/2", "--v=-1/3"):
        "720cce8e882aadd27341a26ac670bb823425feb55914d6f5c35a0b6827c9b2e5",
    ("bpoly", "5", "6", "--u", "5/2", "--v=-1/3", "--method", "partition"):
        "720cce8e882aadd27341a26ac670bb823425feb55914d6f5c35a0b6827c9b2e5",
    ("bpoly", "13", "40", "--u", "3", "--v", "1"):
        "a110b5600974156482040de3412b1cac401295e06f6b8e3660f4684ae78f8b4c",
    # u and v both 32-bit fractions, with distinct denominators
    ("bpoly", "5", "120", "--u", "4294967291/4294967279", "--v=-4294967231/4294967197"):
        "249407a5399152fd490404468ad65d2e88c506b52400733080e7178cd9485987",
}


@pytest.mark.parametrize("argv", sorted(ROUTE_SHA256), ids=" ".join)
def test_route_output_is_pinned(argv, capsys):
    import hashlib

    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ROUTE_SHA256[argv]


@pytest.mark.parametrize(
    "command, p",
    [
        ("bpoly 9 4 --u 1 --v 1", 9),
        ("bpoly 4 2 --u 1 --v 1", 4),
        ("alpha 9 2", 9),
        ("series xy --p 9 --order 3", 9),
    ],
)
def test_p_only_routes_refuse_non_primes(command, p, capsys):
    # the b routes read n off p without testing primality, so each
    # command tests it first
    code, out, err = run(capsys, *command.split())
    assert code == 2 and out == ""
    assert err == "error: p must be an odd prime, got %d\n" % p


def test_scan_reports_a_mismatch(monkeypatch, capsys):
    import lambdaeq.cli as cli

    scan_row1 = cli.scan_row1

    def perturbed(primes):
        for params, row in scan_row1(primes):
            yield params, (row[0] + 1,) + row[1:] if params.p == 13 else row

    monkeypatch.setattr(cli, "scan_row1", perturbed)
    code, out, _ = run(capsys, "scan", "--max-p", "23")
    assert code == 1
    lines = [l for l in out.splitlines() if l.startswith("p=")]
    assert [l.endswith("MISMATCH") for l in lines] == [l.startswith("p=13 ") for l in lines]
    assert out.splitlines()[-1].endswith("FAILED for 1 primes")


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_verify_failure_exit_code(monkeypatch, capsys):
    import lambdaeq.modeq as modeq
    from lambdaeq import CheckResult

    monkeypatch.setattr(
        modeq, "verify_symmetry", lambda matrix: CheckResult("symmetry", False, {})
    )
    code, out, _ = run(capsys, "verify", "5", "--checks", "symmetry")
    assert code == 1
    assert "symmetry: FAIL" in out


# stdout of failing verifies, with the closed form of the first row-1
# moment off by one: a failed check prints its details line, then its note
FAILING_SHA256 = {
    ("verify", "13", "--checks", "rowsums,symmetry"):
        "ea6ad7b2b0b4b66d5566316b7c9c897b58baac0ccc5ad83a0a7fd033ef114d23",
    # both m = 3 notes on pass, then rowsums' details and note
    ("verify", "5", "--checks", "theorem52,rowsums"):
        "8067a873c6da147e67d50ec45750bebffff52a2d072034166bcc2c3bc47dd2a3",
}


@pytest.mark.parametrize("argv", sorted(FAILING_SHA256), ids=" ".join)
def test_failing_verify_output_is_pinned(argv, monkeypatch, capsys):
    import hashlib

    import lambdaeq.modeq as modeq

    expectations = modeq._row1_moment_expectations

    def first_off_by_one(params):
        (num, den), *rest = expectations(params)
        return ((num + den, den), *rest)

    monkeypatch.setattr(modeq, "_row1_moment_expectations", first_off_by_one)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == FAILING_SHA256[argv]


def test_matrix_builtin_verification_failure_exit_code(tmp_path, monkeypatch, capsys):
    import lambdaeq.cli as cli
    from lambdaeq import CheckResult

    monkeypatch.setattr(
        cli, "verify_row_moments", lambda params, row: CheckResult("rowsums", False, {})
    )
    code, _, err = run(capsys, "matrix", "5")
    assert code == 1
    assert "rowsums" in err
    # a matrix that fails a built-in check is never cached
    cache = tmp_path / "cache"
    code, out, err = run(capsys, "matrix", "13", "--cache-dir", str(cache))
    assert code == 1 and out == ""
    assert err == "built-in verification failed: rowsums\n"
    assert os.listdir(cache) == []


def test_arithmetic_failure_exits_1_with_message(monkeypatch, capsys):
    from lambdaeq import BTable, IntegralityError

    def broken(self, column, u, v, top):
        raise IntegralityError("b_2(1, 0) is not an integer")

    monkeypatch.setattr(BTable, "_grow", broken)
    code, out, err = run(capsys, "matrix", "13")
    assert code == 1
    assert out == ""
    assert err.startswith("error: b_2(1, 0) is not an integer")


def test_singular_theorem52_block_exits_1_with_message(monkeypatch, capsys):
    import lambdaeq.modeq as modeq
    from test_modeq import singular_block_table

    monkeypatch.setattr(modeq, "BTable", lambda p: singular_block_table(p, "B(2,2)"))
    code, out, err = run(capsys, "verify", "23", "--checks", "theorem52")
    assert code == 1
    assert out == ""
    assert err.startswith("error: theorem52: block B(2,2) of p = 23 is singular")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def _corrupt_column(monkeypatch, point, index, delta=1):
    """Make every b-table return ``point``'s column with entry ``index`` off by ``delta``."""
    from lambdaeq import BTable

    column = BTable.column

    def corrupted(self, u, v, top):
        values = column(self, u, v, top)
        if (u, v) == point and len(values) > index:
            values = values[:]
            values[index] += delta
        return values

    monkeypatch.setattr(BTable, "column", corrupted)


def _corrupt_power(monkeypatch, h, index):
    """Make every b-table return the power column P^h with entry ``index`` off by one."""
    from lambdaeq import BTable

    powers = BTable.powers

    def corrupted(self, top):
        family = powers(self, top)[:]
        if len(family) > h and len(family[h]) > index:
            family[h] = family[h][:]
            family[h][index] += 1
        return family

    monkeypatch.setattr(BTable, "powers", corrupted)


def test_broken_block_factorization_exits_1_with_message(monkeypatch, capsys):
    # entry (l, h) = (2, 3) of C for p = 13: L comes from the scalar column
    # b(2, 0), row 0's series from the packed P^3, which adds a_{0,3} = -35
    _corrupt_power(monkeypatch, 3, 2)
    code, out, err = run(capsys, "verify", "13")
    assert code == 1
    assert out == ""
    assert err.startswith("error: before row 1 of A_13: coefficient 2 of K^-0 F ")
    assert err.endswith(" is -35, not 0\n")


@pytest.mark.parametrize("p", [11, 13, 17])  # m = 3, 7, 9
def test_every_broken_packed_entry_to_index_m_exits_1(p, monkeypatch, capsys):
    # P^h[l] + 1 breaks row 0's series against L: the gap check before row 1
    # reads coefficient l, moved by a_{0,h}, when l < m; when l = m, row 1's
    # solve fails at every entry of these three primes
    m = reduced(p)[0]
    row1 = re.compile(
        r"error: (a_\{1,\d+\} of A_%d solved to the non-integer |row 1 of A_%d has no integral)"
        % (p, p)
    )
    for h in range(1, m + 1):
        for l in range(m + 1):
            with monkeypatch.context() as patch:
                _corrupt_power(patch, h, l)
                code, out, err = run(capsys, "verify", str(p))
            assert code == 1 and out == "", (h, l)
            if l < m:
                assert err.startswith("error: before row 1 of A_%d: coefficient %d " % (p, l))
            else:
                assert row1.match(err), (h, err)


def test_scan_stops_at_the_first_prime_of_a_broken_class(monkeypatch, capsys):
    # b_2(2, 0): of the classes of --max-p 23, n = 2 reads it only into rows
    # l >= 2 of its L (p_top = 19, m = 5), which its first prime 3 (m = 1)
    # never solves with; the first prime of n = 4, 5, comes right after 3
    _corrupt_column(monkeypatch, (2, 0), 2)
    code, out, err = run(capsys, "scan", "--max-p", "23")
    assert code == 1
    assert [line.split()[0] for line in out.splitlines()] == ["p=3"]
    assert err.startswith("error: a_{1,1} of A_5 solved to the non-integer ")


def test_scan_shares_one_table_and_one_factorization_per_class(monkeypatch, capsys):
    import lambdaeq.modeq as modeq

    # one per class n = 2, 4, 1, each of the class's largest prime, and
    # each L' = T_K L, its product chain started at K = b(1, 1) to index m - 1
    built, factored = [], []
    make, lower = modeq.BTable, modeq._lower

    def recording_table(p):
        built.append(p)
        return make(p)

    def recording_lower(params, table, first=None):
        factored.append(params.p)
        assert first == table.column(1, 1, params.m - 1)[: params.m]
        return lower(params, table, first)

    monkeypatch.setattr(modeq, "BTable", recording_table)
    monkeypatch.setattr(modeq, "_lower", recording_lower)
    code, out, _ = run(capsys, "scan", "--max-p", "61")
    assert code == 0 and "hold for every prime" in out
    assert built == factored == [59, 61, 47]


# n = 4 reads K = b(1, 1) to index 30 (p_top = 61, m = 31): a fault at 0
# moves every column of its L' and the moments with it, at 1 and 2 the
# forward substitution of p = 5, and at 30 that of p = 61
@pytest.mark.parametrize("index, first_bad", [(0, None), (1, 5), (2, 5), (30, 61)])
def test_scan_reads_k_and_never_k_inverse(monkeypatch, capsys, index, first_bad):
    import hashlib

    with monkeypatch.context() as patch:
        _corrupt_column(patch, (-1, -1), index)
        code, out, err = run(capsys, "scan", "--max-p", "61")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_61_SHA256
    _corrupt_column(monkeypatch, (1, 1), index)
    code, out, err = run(capsys, "scan", "--max-p", "61")
    assert code == 1
    if first_bad is None:
        assert "MISMATCH" in out and err == ""
    else:
        assert err.startswith("error: a_{1,0} of A_%d solved to the non-integer " % first_bad)


# single faults of --max-p 61 that keep every division exact and the three
# moments, so only the palindrome a_{1,h} = a_{1,m-1-h} of row 1 reads them
MOMENT_BLIND_FAULTS = [((1, 1), i) for i in (12, 16, 17, 19, 21, 22, 23, 24, 25, 27, 28, 29)]
MOMENT_BLIND_FAULTS += [((2, 0), i) for i in (12, 24, 28)]


@pytest.mark.parametrize("delta", [1, -1])
def test_scan_fails_a_row_1_that_is_no_palindrome(monkeypatch, capsys, delta):
    for point, index in MOMENT_BLIND_FAULTS:
        with monkeypatch.context() as patch:
            _corrupt_column(patch, point, index, delta)
            code, out, err = run(capsys, "scan", "--max-p", "61")
        assert code == 1 and err == "", (point, index)
        assert "MISMATCH" in out and "FAILED for " in out.splitlines()[-1], (point, index)


@pytest.mark.parametrize("point, index, delta", [((1, 1), 30, 2**40), ((2, 0), 31, 2**93)])
def test_scan_misses_a_fault_in_the_last_moment_of_the_top_prime(
    monkeypatch, capsys, point, index, delta
):
    # the fault moves only y_30 of p = 61 (m = 31), the last entry of its
    # forward substitution, and keeps every division exact; row 1 then moves
    # by a multiple of (-1)^{m-1-h} C(m-1, h), itself a palindrome, and the
    # three moments read y_0..y_2 alone
    import hashlib

    _corrupt_column(monkeypatch, point, index, delta)
    code, out, err = run(capsys, "scan", "--max-p", "61")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_61_SHA256


def test_corrupted_block_head_fails_dets(monkeypatch, capsys):
    # column h = 3 of B(1,1) for p = 13: assembly never reads it, dets does
    _corrupt_column(monkeypatch, (7, 1), 2)
    code, out, err = run(capsys, "verify", "13")
    assert code == 1 and err == ""
    lines = out.splitlines()
    assert [line for line in lines if not line.startswith("  ")] == [
        "symmetry: PASS", "rowsums: PASS", "dets: FAIL", "global: PASS"
    ]
    details = json.loads(lines[lines.index("dets: FAIL") + 1].split("details: ", 1)[1])
    assert [b["i"] for b in details["blocks"] if not b["ok"]] == [1]


def test_corrupted_inverse_kernel_exits_1(monkeypatch, capsys):
    # assembly reads K^-1 = b(-1, -1) to index m^2 - m = 42 for p = 13; a
    # coefficient past that multiplies only the zeros below q^m of every
    # row's series, and test_verify_without_global_builds_only_what_assembly_needs
    # pins the column's length
    seen = set()
    for index in range(1, 43):
        with monkeypatch.context() as patch:
            _corrupt_column(patch, (-1, -1), index)
            code, out, err = run(capsys, "verify", "13")
        assert code == 1, index
        if err.startswith("error: before row "):
            seen.add("gap")
        elif err.startswith("error: ") and ("non-integer" in err or "no integral" in err):
            seen.add("integrality")
        else:
            assert err == "" and "global: FAIL" in out, (index, err)
    assert seen == {"gap", "integrality"}


@pytest.fixture
def tables(monkeypatch):
    """Every b-table the CLI builds, in order."""
    import lambdaeq.modeq as modeq

    built = []
    make = modeq.BTable

    def recording(p):
        built.append(make(p))
        return built[-1]

    monkeypatch.setattr(modeq, "BTable", recording)
    return built


def column_lengths(table):
    """Column lengths by point (u, v), and the power family's by "P^h"."""
    lengths = {"P^%d" % h: len(column) for h, column in enumerate(table._powers)}
    lengths.update((key, len(column)) for key, column in table._columns.items())
    return lengths


def factored_layout(m, power_top):
    """Column lengths of assembly's route for one prime, past its own reads.

    The power family P^h = b(2h, 0) reaches index power_top, the scalar
    column b(2, 0) that L is built from reaches m, and K^-1 = b(-1, -1)
    reaches m^2 - m.  No other point has a column.
    """
    layout = {"P^%d" % h: power_top + 1 for h in range(m + 1)}
    layout[(2, 0)] = m + 1
    layout[(-1, -1)] = m * m - m + 1
    return layout


def test_verify_order_grows_the_shared_table(tables, capsys):
    code, out, _ = run(capsys, "verify", "13", "--order", "300")
    assert code == 0
    assert "global: PASS" in out and "dets: PASS" in out
    assert len(tables) == 1
    m = 7
    # global extends P^h to its order and reads K = b(1, 1) to order - m;
    # dets reads the B(i,i) heads b(i+2h, i) to index m-i
    expected = factored_layout(m, 300)
    expected.update(
        {(i + 2 * h, i): m - i + 1 for i in range(1, m + 1) for h in range(m - i + 1)}
    )
    expected[(1, 1)] = 300 - m + 1
    assert column_lengths(tables[0]) == expected


def test_verify_order_below_m_squared_builds_no_table(tables, capsys):
    code, out, err = run(capsys, "verify", "13", "--order", "10")
    assert code == 2
    assert "order must be >= m^2 = 49" in err
    assert out == "" and tables == []


def test_verify_without_global_builds_only_what_assembly_needs(tables, capsys):
    code, _, _ = run(capsys, "verify", "13", "--checks", "symmetry")
    assert code == 0
    # only the power family to index m^2 = 49, b(2, 0) to m and b(-1, -1)
    assert column_lengths(tables[0]) == factored_layout(7, 49)


def test_matrix_refuses_oversize_prime_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "matrix", "1000003")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: p = 1000003: m = 250001 is above the budget 48;")
    assert "Traceback" not in err


def test_max_m_bounds_matrix_and_verify(tables, monkeypatch, capsys):
    import lambdaeq.cli as cli

    monkeypatch.setattr(cli, "MAX_M", 6)
    code, out, err = run(capsys, "verify", "13")
    assert code == 2 and out == "" and tables == []
    assert err.startswith("error: p = 13: m = 7 is above the budget 6;")
    code, _, _ = run(capsys, "matrix", "13")
    assert code == 2
    monkeypatch.setattr(cli, "MAX_M", 7)
    code, out, _ = run(capsys, "matrix", "13")
    assert code == 0 and "-60980" in out
    monkeypatch.setattr(cli, "MAX_M", 0)
    code, _, _ = run(capsys, "matrix", "5")
    assert code == 2
    # the budget is a constant, not a flag
    for command in ("matrix", "verify"):
        with pytest.raises(SystemExit) as exc:
            main([command, "13", "--max-m", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-m 7" in capsys.readouterr().err


def test_m_above_the_budget_is_refused_before_any_table(monkeypatch, capsys):
    from lambdaeq import BTable

    def no_table_work(*args, **kwargs):
        raise AssertionError("table work before the prime was refused")

    monkeypatch.setattr(BTable, "__init__", no_table_work)
    # p = 97 has m = 49, one above the budget
    for command in ("matrix", "verify"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, "97")
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == (
            "error: p = 97: m = 49 is above the budget 48; "
            "assembly grows like m^5 bignum multiply-adds\n"
        )


def test_verify_refuses_an_oversize_order_at_once(tables, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "5", "--checks", "global", "--order", "1000000")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == "" and tables == []
    assert err.startswith("error: --order 1000000 is above the budget 2500;")
    assert "Traceback" not in err


def test_order_budget_bounds_only_an_explicit_order(tables, monkeypatch, capsys):
    import lambdaeq.cli as cli

    # p = 5 has m = 3, so its default order is m^2 + 2m = 15
    monkeypatch.setattr(cli, "MAX_ORDER", 20)
    code, out, err = run(capsys, "verify", "5", "--checks", "global", "--order", "21")
    assert code == 2 and out == "" and tables == []
    assert err.startswith("error: --order 21 is above the budget 20;")
    code, out, _ = run(capsys, "verify", "5", "--checks", "global", "--order", "20")
    assert code == 0 and "global: PASS" in out
    # a given order is bounded without the global check too
    code, out, err = run(capsys, "verify", "5", "--checks", "symmetry", "--order", "21")
    assert code == 2 and out == "" and len(tables) == 1  # the global run's table
    assert err.startswith("error: --order 21 is above the budget 20;")
    code, out, _ = run(capsys, "verify", "5", "--checks", "symmetry", "--order", "20")
    assert code == 0 and out == "symmetry: PASS\n"


def test_order_budget_admits_every_default_order():
    import lambdaeq.cli as cli
    from lambdaeq import PrimeParams

    # the default order m^2 + 2m of the largest admitted m is within budget
    assert cli.MAX_M**2 + 2 * cli.MAX_M <= cli.MAX_ORDER
    # p = 383 has m = 48
    assert cli._sized_order(PrimeParams(383), None) == 2400


def test_scan_refuses_an_oversize_range_at_once(monkeypatch, capsys):
    import lambdaeq.cli as cli

    start = time.perf_counter()
    code, out, err = run(capsys, "scan", "--max-p", "1000000")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: --max-p 1000000 is above the budget 400;")
    assert "Traceback" not in err
    monkeypatch.setattr(cli, "MAX_SCAN_P", 43)
    code, out, err = run(capsys, "scan", "--max-p", "47")
    assert code == 2 and out == ""
    assert err.startswith("error: --max-p 47 is above the budget 43;")
    code, out, _ = run(capsys, "scan", "--max-p", "43")
    assert code == 0 and "hold for every prime" in out


def test_main_builds_no_parser(monkeypatch, capsys):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (("alpha", "5", "12"), ("pvals", "3", "7"), ("matrix", "5"),
                 ("series", "lambda", "--order", "5")):
        code, _, _ = run(capsys, *argv)
        assert code == 0
    with pytest.raises(SystemExit):
        main(["frobnicate"])
    assert built == []


def test_no_parse_state_leaks_between_calls(monkeypatch, capsys):
    import lambdaeq.modeq as modeq

    code, out, _ = run(capsys, "matrix", "13", "--format", "structured")
    assert code == 0 and json.loads(out)["p"] == 13
    code, out, _ = run(capsys, "matrix", "13")
    assert code == 0 and out.startswith("p = 13   m = 7   n = 4")

    orders = []
    check = modeq.verify_global_vanish

    def recording(matrix, order, table):
        orders.append(order)
        return check(matrix, order, table)

    monkeypatch.setattr(modeq, "verify_global_vanish", recording)
    for extra in (["--order", "20"], []):
        code, out, _ = run(capsys, "verify", "5", "--checks", "global", *extra)
        assert code == 0 and "global: PASS" in out
    assert orders == [20, 15]  # p = 5 has m = 3: default order m^2 + 2m

    with pytest.raises(SystemExit) as exc:
        main(["matrix", "--format", "nonsense", "13"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "alpha", "5", "5")
    assert code == 0 and out.strip() == "11/5"


# stdout of `matrix 13 --format structured`, fresh or from the cache
STRUCTURED_13_SHA256 = "a9940500f5be0a100b205f487fb5bb6cf8647b864c82c67aa7f15d7d2dbdb49b"


def test_structured_matrix_runs_each_builtin_check_once(tmp_path, monkeypatch, capsys):
    import hashlib

    import lambdaeq.cli as cli

    calls = {"symmetry": 0, "rowsums": 0}
    symmetry, rowsums = cli.verify_symmetry, cli.verify_row_moments

    def counting_symmetry(matrix):
        calls["symmetry"] += 1
        return symmetry(matrix)

    def counting_rowsums(params, row):
        calls["rowsums"] += 1
        return rowsums(params, row)

    monkeypatch.setattr(cli, "verify_symmetry", counting_symmetry)
    monkeypatch.setattr(cli, "verify_row_moments", counting_rowsums)
    cache = str(tmp_path / "cache")
    for extra in ([], ["--cache-dir", cache], ["--cache-dir", cache]):
        calls.update(symmetry=0, rowsums=0)
        code, out, _ = run(capsys, "matrix", "13", "--format", "structured", *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == STRUCTURED_13_SHA256
        # a warm load hands its symmetry check on instead of running it again
        assert calls == {"symmetry": 1, "rowsums": 1}


def test_matrix_refuses_a_huge_prime_before_the_primality_test(capsys):
    # 25 digits, odd and a multiple of 5: a primality test run first
    # would end at once with the wrong error rather than hang
    p = 10**24 + 5
    start = time.perf_counter()
    code, out, err = run(capsys, "matrix", str(p))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: p = %d: m = %d is above the budget 48;" % (p, (p + 1) // 2))
    assert "Traceback" not in err
    code, out, err = run(capsys, "verify", str(p))
    assert code == 2 and out == "" and "is above the budget 48;" in err
    # a small composite still gets the primality error
    code, _, err = run(capsys, "matrix", "15")
    assert code == 2 and err.startswith("error: p must be an odd prime, got 15")


def test_bpoly_takes_a_negative_fraction_after_a_space(capsys):
    for method in ("partition", "recurrence"):
        outputs = set()
        for spelling in (["--v", "-1/3"], ["--v=-1/3"]):
            code, out, err = run(capsys, "bpoly", "5", "6", "--u", "5/2", *spelling,
                                 "--method", method)
            assert code == 0, err
            outputs.add(out)
        assert outputs == {"2868\n"}
    code, out, _ = run(capsys, "bpoly", "5", "6", "--u", "-5/2", "--v", "-.5")
    assert code == 0 and out.strip()


def test_bpoly_refuses_an_exponent(capsys):
    # Fraction("1e999999999") would build a 10^9-digit power of ten, so
    # no exponent is read at all; small ones keep a failing check cheap
    for u, v in (("1e5", "0"), ("1", "-2E3")):
        with pytest.raises(SystemExit) as exc:
            main(["bpoly", "5", "3", "--u", u, "--v", v])
        assert exc.value.code == 2
        assert "not an exact rational a/b or decimal" in capsys.readouterr().err


# (argv, the budget constant it meets, refusal message when above)
BUDGETS = [
    (["ode-check", "--order", "{}"], "MAX_ODE_ORDER", "--order {} is above the budget {};"),
    (["series", "lambda", "--order", "{}"], "MAX_SERIES_ORDER", "--order {} is above the budget {};"),
    (["series", "xy", "--p", "11", "--order", "{}"], "MAX_SERIES_ORDER",
     "--order {} is above the budget {};"),
    (["series", "xy", "--p", "11", "--h", "{}", "--order", "3"], "MAX_XY_EXPONENT",
     "i + h = {} is above the budget {};"),
    (["bpoly", "5", "{}", "--u", "1", "--v", "1"], "MAX_BPOLY_L", "l = {} is above the budget {};"),
    (["alpha", "5", "{}"], "MAX_ALPHA_K", "k = {} is above the budget {};"),
    (["alpha", "{}", "1"], "MAX_PRIME", "p = {} is above the budget {};"),
    (["bpoly", "{}", "3", "--u", "1", "--v", "1"], "MAX_PRIME", "p = {} is above the budget {};"),
    (["series", "xy", "--p", "{}", "--order", "3"], "MAX_PRIME", "p = {} is above the budget {};"),
]


@pytest.mark.parametrize("argv, budget, message", BUDGETS, ids=lambda x: str(x))
def test_budget_refuses_a_huge_input_at_once(argv, budget, message, capsys):
    import lambdaeq.cli as cli

    # odd and a multiple of 101, so a p is refused for its size, and a
    # primality test run first would end at once with the wrong error
    value = 10**30 + 1
    start = time.perf_counter()
    code, out, err = run(capsys, *(a.format(value) for a in argv))
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: " + message.format(value, getattr(cli, budget)))
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, budget, message", BUDGETS, ids=lambda x: str(x))
def test_budget_boundary(argv, budget, message, monkeypatch, capsys):
    import lambdaeq.cli as cli

    # each admitted value is valid and cheap; one past it is refused
    admitted = {"MAX_ODE_ORDER": 12, "MAX_SERIES_ORDER": 4, "MAX_XY_EXPONENT": 2,
                "MAX_BPOLY_L": 4, "MAX_ALPHA_K": 12, "MAX_PRIME": 13}[budget]
    monkeypatch.setattr(cli, budget, admitted)
    code, out, err = run(capsys, *(a.format(admitted) for a in argv))
    assert code == 0 and out, err
    # a p one above is even, but its size is refused before its parity
    code, out, err = run(capsys, *(a.format(admitted + 1) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: " + message.format(admitted + 1, admitted))


def test_bpoly_bit_budget(monkeypatch, capsys):
    import lambdaeq.cli as cli

    top = cli.MAX_BPOLY_BITS
    edge = "%d/%d" % (2**top - 1, 2**top - 3)
    code, out, _ = run(capsys, "bpoly", "5", "3", "--u", edge, "--v", "-" + edge)
    assert code == 0 and out.strip()
    for u, v in (("%d" % 2**top, "1"), ("1", "1/%d" % 2**top), ("1", "-%d" % 2**top)):
        start = time.perf_counter()
        code, out, err = run(capsys, "bpoly", "5", "3", "--u", u, "--v", v)
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.startswith(
            "error: --u/--v have a %d-bit numerator or denominator, above the budget %d bits;"
            % (top + 1, top)
        )
    monkeypatch.setattr(cli, "MAX_BPOLY_BITS", 2)
    code, out, _ = run(capsys, "bpoly", "5", "3", "--u", "3/2", "--v", "-1/3")
    assert code == 0 and out.strip()
    code, out, err = run(capsys, "bpoly", "5", "3", "--u", "4/3", "--v", "1")
    assert code == 2 and out == "" and "3-bit numerator" in err


README_COMMANDS = [
    line
    for line in (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    if line.startswith("lambdaeq ")
]


def test_readme_lists_its_cli_examples():
    assert len(README_COMMANDS) == 13


def _readme_budgets():
    """{constant: limit} from README's budget table, e.g. {"cli.MAX_M": 48}."""
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if "| refused above |" in line)
    header = [cell.strip() for cell in lines[start].strip("|").split("|")]
    budgets = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2 :]):
        row = dict(zip(header, (cell.strip() for cell in line.strip("|").split("|"))))
        base, _, power = row["refused above"].partition("^")
        budgets[row["constant"].strip("`")] = int(base) ** int(power or 1)
    return budgets


def test_readme_budget_table_equals_the_constants():
    import lambdaeq.bpoly as bpoly
    import lambdaeq.cli as cli

    budgets = _readme_budgets()
    modules = {"cli": cli, "bpoly": bpoly}
    stated = {name: getattr(modules[name.split(".")[0]], name.split(".")[1]) for name in budgets}
    assert budgets == stated
    every_max = {"cli." + name for name in vars(cli) if name.startswith("MAX_")}
    assert set(budgets) == every_max | {"bpoly.ENUMERATION_THRESHOLD"}


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_cli_example_runs(line, tmp_path, capsys):
    # the cache and output paths of the examples go to a scratch directory
    paths = {"~/.cache/lambdaeq": str(tmp_path / "cache"), "a13.json": str(tmp_path / "a13.json")}
    argv = [paths.get(arg, arg) for arg in shlex.split(line, comments=True)[1:]]
    code, _, err = run(capsys, *argv)
    assert code == 0, err
