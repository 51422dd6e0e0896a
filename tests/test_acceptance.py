"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; all
comparisons are exact (integer or rational equality), never approximate.
"""

import json
import time
from fractions import Fraction

from lambdaeq import (
    PrimeParams,
    assemble,
    bordered_determinant,
    closed_form_row1,
    is_odd_prime,
    lambda_series,
    ode_residual,
    p_poly,
    row2_pipeline,
    scan_row1,
    verify_block_determinants,
    verify_global_vanish,
    verify_row_moments,
    verify_symmetry,
    xy_normalized_lemma,
)
from lambdaeq.cli import main
from math import comb, factorial

from oracles import binomial_moment, c_coeff, with_entry, xy_normalized_direct
from test_modeq import REFERENCE


def _report(number, label, ok, elapsed=None):
    suffix = "" if elapsed is None else "  (%.2fs)" % elapsed
    print("criterion %2d %-38s %s%s" % (number, label, "PASS" if ok else "FAIL", suffix))
    assert ok, "criterion %d failed: %s" % (number, label)


def test_criterion_01_reference_matrices_exact(tmp_path):
    start = time.perf_counter()
    ok = True
    for p in (5, 11, 19, 23, 31, 47, 13):
        out = tmp_path / ("a%d.json" % p)
        ok = ok and main(["matrix", str(p), "--format", "structured", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        ok = ok and tuple(tuple(row) for row in doc["matrix"]) == REFERENCE[p]
    _report(1, "tabulated matrices reproduced", ok, time.perf_counter() - start)


def test_criterion_02_partition_vs_eta_expansions():
    start = time.perf_counter()
    ok = True
    for p in (3, 5, 7, 11, 13):
        params = PrimeParams(p)
        order = 2 * params.m + 10
        for i in range(params.m + 1):
            for h in range(params.m + 1 - i):
                direct = xy_normalized_direct(params, i, h, order)
                lemma = xy_normalized_lemma(params, i, h, order)
                ok = ok and direct.coeffs[: order + 1] == lemma.coeffs[: order + 1]
    _report(2, "X^i Y^h expansion routes agree", ok, time.perf_counter() - start)


def test_criterion_03_row1_moments_all_primes_to_97():
    start = time.perf_counter()
    ok = True
    for p in range(3, 98, 2):
        if not is_odd_prime(p):
            continue
        ((params, row),) = scan_row1([p])
        # all three moments, the third in its corrected form
        ok = ok and verify_row_moments(params, row).passed
    # the sign-flipped third moment must fail against the reference matrices
    flipped_values = {}
    for p in (5, 11, 23):
        ((params, solved),) = scan_row1([p])
        check = verify_row_moments(params, solved)
        row = REFERENCE[p][1]
        actual = sum((1 + 2 * h) ** 2 * a for h, a in enumerate(row))
        flipped = int(check.details["third_alpha2_sign_flipped"]["value"])
        ok = ok and actual == int(check.details["third"]["actual"]) and actual != flipped
        flipped_values[p] = (flipped, actual)
    ok = ok and flipped_values[5] == (-360, -312)
    ok = ok and flipped_values[11] == (-216, -168)
    ok = ok and flipped_values[23] == (-84, -60)
    _report(3, "row-1 moment identities (p <= 97)", ok, time.perf_counter() - start)


def test_criterion_04_block_determinants():
    start = time.perf_counter()
    ok = all(
        verify_block_determinants(PrimeParams(p)).passed
        for p in (5, 11, 13, 19, 23, 31, 47)
    )
    _report(4, "block determinant formula", ok, time.perf_counter() - start)


def test_criterion_05_emergent_structure():
    start = time.perf_counter()
    ok = True
    for p in (5, 11, 19, 23, 31, 47, 13):
        matrix = assemble(p)  # integrality asserted inside assemble
        m = matrix.params.m
        ok = ok and verify_symmetry(matrix).passed
        ok = ok and all(
            matrix.entries[i][h] == 0
            for i in range(m + 1)
            for h in range(m + 1)
            if i + h > m
        )
        ok = ok and matrix.entries[0][0] == 1
    _report(5, "emergent symmetry, triangle, integrality", ok, time.perf_counter() - start)


def test_criterion_06_global_vanishing_and_detection():
    start = time.perf_counter()
    ok = True
    for p in (5, 11, 13, 23):
        matrix = assemble(p)
        m = matrix.params.m
        ok = ok and verify_global_vanish(matrix, m * m + 2 * m).passed
    perturbed = with_entry(assemble(5), 1, 1, -25)
    ok = ok and not verify_global_vanish(perturbed).passed
    _report(6, "master series vanishes; tamper detected", ok, time.perf_counter() - start)


def test_criterion_07_moment_polynomial_suite():
    start = time.perf_counter()
    ok = True
    for m in range(1, 11):
        ok = ok and p_poly(0, m) == 1
        ok = ok and p_poly(1, m) == Fraction(m, 2)
        ok = ok and p_poly(2, m) == Fraction(m * (3 * m + 1), 24)
        ok = ok and p_poly(3, m) == Fraction(m ** 2 * (m + 1), 48)
        ok = ok and p_poly(4, m) == Fraction(
            m * (-2 + 5 * m + 30 * m ** 2 + 15 * m ** 3), 5760
        )
    for m in range(1, 13):
        for N in range(m):
            ok = ok and binomial_moment(N, m) == 0
    for m in range(1, 11):
        for N in range(m, m + 5):
            ok = ok and binomial_moment(N, m) == (-1) ** (m - 1) * p_poly(N - m, m) * factorial(N)
    for s in range(5):
        for m in range(11):
            ok = ok and sum(c_coeff(s, r) * comb(m, r) for r in range(s + 1)) == p_poly(s, m)
    _report(7, "moment polynomial suite", ok, time.perf_counter() - start)


def test_criterion_08_second_row_and_bordered_determinant():
    start = time.perf_counter()
    ok = True
    for p in (5, 11, 23):
        pipeline = row2_pipeline(assemble(p))
        ok = ok and pipeline.passed
        ok = ok and pipeline.details["a20"] == "3" and pipeline.details["a21"] == "-3"
        n = PrimeParams(p).n
        border = bordered_determinant(p)
        ok = ok and border.passed
        ok = ok and int(border.details["det"]) == 3 * (-2 * n) ** 3 * 2 ** n
        closed = closed_form_row1(assemble(p))
        ok = ok and closed.passed and closed.details["sign_flipped"]
    _report(8, "second-row pipeline and closed forms", ok, time.perf_counter() - start)


def test_criterion_09_ode_residual():
    start = time.perf_counter()
    residual = ode_residual(50)
    ok = residual.is_zero() and residual.order >= 40
    control = ode_residual(50, 2 * lambda_series(50))
    ok = ok and not control.is_zero()
    _report(9, "lambda ODE residual exact through q^40+", ok, time.perf_counter() - start)


def test_criterion_10_performance(capsys):
    start = time.perf_counter()
    assemble(13)
    a13_time = time.perf_counter() - start
    start = time.perf_counter()
    code = main(["scan", "--max-p", "199"])
    scan_time = time.perf_counter() - start
    scan_out = capsys.readouterr().out
    ok = (
        code == 0
        and "hold for every prime" in scan_out
        and a13_time < 1.0
        and scan_time < 60.0
    )
    _report(
        10,
        "A_13 %.3fs (<1s), scan p<=199 %.1fs (<60s)" % (a13_time, scan_time),
        ok,
    )
