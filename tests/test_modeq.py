"""Matrix assembly and verification tests.

The frozen reference matrices below are the classically tabulated
A_p for p = 5, 11, 23, 31, 19, 47, 13; assembly must reproduce them
entry for entry, and every structural check must hold on them.
"""

import json
import re
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdaeq import (
    BTable,
    IntegralityError,
    ModularMatrix,
    PrimeParams,
    assemble,
    b_series,
    block,
    bordered_determinant,
    closed_form_row1,
    from_doc,
    is_odd_prime,
    render_text,
    render_typeset,
    row0,
    row2_pipeline,
    run_checks,
    scan_row1,
    to_doc,
    verify_block_determinants,
    verify_global_vanish,
    verify_row_moments,
    verify_symmetry,
)
from lambdaeq.modeq import integer_det
from lambdaeq.modeq import (
    _lower,
    _ratio_str,
    _row0_power,
    _row1_moment_expectations,
    _solve_leading,
    _solve_rows,
)
from oracles import (
    FactorizationError,
    Matrix,
    binomial_solve_leading,
    chained_row1_moment_expectations,
    fraction_row_moments,
    lagrange_row1,
    rowwise_factor,
    with_entry,
)


def column_lengths(table):
    """Column lengths by point (u, v), and the power family's by "P^h"."""
    lengths = {"P^%d" % h: len(column) for h, column in enumerate(table._powers)}
    lengths.update((key, len(column)) for key, column in table._columns.items())
    return lengths


A5 = ((1, -3, 3, -1), (-3, -26, -3, 0), (3, -3, 0, 0), (-1, 0, 0, 0))
A11 = ((1, -3, 3, -1), (-3, -10, -3, 0), (3, -3, 0, 0), (-1, 0, 0, 0))
A23 = ((1, -3, 3, -1), (-3, 2, -3, 0), (3, -3, 0, 0), (-1, 0, 0, 0))
A31 = (
    (1, -4, 6, -4, 1),
    (-4, 0, 0, -4, 0),
    (6, 0, 6, 0, 0),
    (-4, -4, 0, 0, 0),
    (1, 0, 0, 0, 0),
)
A19 = (
    (1, -5, 10, -10, 5, -1),
    (-5, -92, -62, -92, -5, 0),
    (10, -62, 62, -10, 0, 0),
    (-10, -92, -10, 0, 0, 0),
    (5, -5, 0, 0, 0, 0),
    (-1, 0, 0, 0, 0, 0),
)
A47 = (
    (1, -6, 15, -20, 15, -6, 1),
    (-6, -10, 0, 0, -10, -6, 0),
    (15, 0, -14, 0, 15, 0, 0),
    (-20, 0, 0, -20, 0, 0, 0),
    (15, -10, 15, 0, 0, 0, 0),
    (-6, -6, 0, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0, 0),
)
A13 = (
    (1, -7, 21, -35, 35, -21, 7, -1),
    (-7, -3318, -31721, -60980, -31721, -3318, -7, 0),
    (21, -31721, -11438, 11438, 31721, -21, 0, 0),
    (-35, -60980, 11438, -60980, -35, 0, 0, 0),
    (35, -31721, 31721, -35, 0, 0, 0, 0),
    (-21, -3318, -21, 0, 0, 0, 0, 0),
    (7, -7, 0, 0, 0, 0, 0, 0),
    (-1, 0, 0, 0, 0, 0, 0, 0),
)

REFERENCE = {5: A5, 11: A11, 23: A23, 31: A31, 19: A19, 47: A47, 13: A13}


def test_params_for_examples():
    assert PrimeParams(5).m == 3 and PrimeParams(5).n == 4
    assert PrimeParams(19).m == 5 and PrimeParams(19).n == 2
    assert PrimeParams(7).m == 1 and PrimeParams(7).n == 1
    assert PrimeParams(3).m == 1 and PrimeParams(3).n == 2


@pytest.mark.parametrize("bad", [4, 2, 9, 1, 0, -5, 15, 25, 13.0, "13"])
def test_params_for_rejects_non_odd_primes(bad):
    # non-ints included: is_odd_prime refuses them, with the same message
    with pytest.raises(ValueError, match=re.escape("p must be an odd prime, got %r" % (bad,))):
        PrimeParams(bad)


def test_prime_params_test_primality_once(monkeypatch):
    import lambdaeq.modeq as modeq

    calls = []

    def counting(p):
        calls.append(p)
        return is_odd_prime(p)

    monkeypatch.setattr(modeq, "is_odd_prime", counting)
    assert PrimeParams(13) == PrimeParams(13)
    assert calls == [13, 13]  # one test per construction
    assert (PrimeParams(13).m, PrimeParams(13).n) == (7, 4)
    # direct construction stays validated
    for bad in (2, 4, 9, 1, 0, -7, 15):
        with pytest.raises(ValueError, match="odd prime"):
            PrimeParams(bad)
    with pytest.raises(TypeError):  # m and n are derived, never passed
        PrimeParams(13, 7, 4)


def test_row0():
    assert row0(3) == (1, -3, 3, -1)
    assert row0(7) == (1, -7, 21, -35, 35, -21, 7, -1)
    assert row0(1) == (1, -1)
    with pytest.raises(ValueError):
        row0(0)


def test_block_p5_row1_matches_hand_table():
    # rows are b_0, b_1, b_2 at (1+2h, 1) for n = 4, alpha(2) = -3/2:
    # (1,1,1), (-4,-12,-20), (n^2 u^2/2 + 6) = (14, 78, 206)
    blk = block(PrimeParams(5), 1, 1)
    assert blk == ((1, 1, 1), (-4, -12, -20), (14, 78, 206))
    assert all(type(x) is int for row in blk for x in row)


def test_block_top_left_entry_is_one():
    for p in (5, 13, 23):
        assert block(PrimeParams(p), 1, 1)[0][0] == 1


def test_block_p5_determinant_hand_cofactor():
    # cofactor expansion of the hand table gives -512 = (-2n)^{m(m-1)/2}
    assert integer_det(block(PrimeParams(5), 1, 1)) == -512


def test_block_dimensions():
    params = PrimeParams(13)  # m = 7
    for i in range(1, 8):
        for r in range(i + 1):
            blk = block(params, i, r)
            assert len(blk) == 7 - i + 1
            assert all(len(row) == 7 - r + 1 for row in blk)
    with pytest.raises(ValueError):
        block(params, 0, 0)
    with pytest.raises(ValueError):
        block(params, 2, 3)


def test_solve_row_examples():
    examples = ((5, (-3, -26, -3, 0)), (23, (-3, 2, -3, 0)), (7, (-1, 0)))
    for p, row in examples:
        ((_, solved),) = scan_row1([p])
        assert solved == row
        assert all(type(x) is int for x in solved)


# the odd primes below 60: every n, and m up to 27 (p = 53)
SMALL_PRIMES = [p for p in range(3, 60) if is_odd_prime(p)]
assert {PrimeParams(p).n for p in SMALL_PRIMES} == {1, 2, 4}


def _leading_system(data):
    """A prime, a row index i, its table, C_i, and a random integer head x.

    C_i = [b_l(2h, 0)], l, h = 0..m-i, is the leading block of C that
    row i solves against.
    """
    params = PrimeParams(data.draw(st.sampled_from(SMALL_PRIMES), label="p"))
    i = data.draw(st.integers(1, params.m), label="i")
    size = params.m - i + 1
    x = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=size, max_size=size), label="x")
    table = BTable(params.p)
    columns = [table.column(2 * h, 0, size - 1)[:size] for h in range(size)]
    return params, i, table, Matrix(list(zip(*columns))), tuple(x)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_structured_solve_inverts_the_diagonal_block(data):
    params, i, table, c, x = _leading_system(data)
    scale = 2 ** (params.n * i)
    rhs = [scale * int(v) for v in c.mul_vec(x)]
    solved = _solve_leading(params, i, _lower(params, table), rhs)
    assert solved == x
    assert all(type(v) is int for v in solved)
    assert tuple(v / scale for v in c.solve(rhs)) == solved


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_structured_solve_refuses_rhs_outside_the_integral_image(data):
    params, i, table, c, x = _leading_system(data)
    lower = _lower(params, table)
    scale = 2 ** (params.n * i)
    off_lattice = [scale * int(v) for v in c.mul_vec(x)]
    off_lattice[-1] += 1
    with pytest.raises(IntegralityError):
        _solve_leading(params, i, lower, off_lattice)
    odd = [int(v) for v in c.mul_vec((1,) + x[1:])]
    with pytest.raises(IntegralityError):
        _solve_leading(params, i, lower, odd)


def _integrality_message(solve, *args):
    with pytest.raises(IntegralityError) as info:
        solve(*args)
    return str(info.value)


@pytest.mark.parametrize("p", SMALL_PRIMES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_taylor_shift_solve_matches_binomial_back_substitution(p, data):
    params = PrimeParams(p)
    m, n = params.m, params.n
    table = BTable(p)
    lower = _lower(params, table)
    c = list(zip(*[table.column(2 * h, 0, m)[: m + 1] for h in range(m + 1)]))
    for i in range(1, m + 1):
        size = m - i + 1
        x = data.draw(
            st.lists(st.integers(-10**6, 10**6), min_size=size, max_size=size), label="x"
        )
        image = [sum(map(mul, row[:size], x)) for row in c[:size]]
        rhs = [v << (n * i) for v in image]
        solved = _solve_leading(params, i, lower, rhs)
        assert solved == binomial_solve_leading(params, i, lower, rhs) == tuple(x)
        # C_i x' with an odd entry in x': its solution x'/2^{ni} is no integer
        odd = data.draw(st.integers(0, size - 1), label="odd")
        x[odd] = 2 * x[odd] + 1
        image = [sum(map(mul, row[:size], x)) for row in c[:size]]
        message = _integrality_message(_solve_leading, params, i, lower, image)
        assert message == _integrality_message(binomial_solve_leading, params, i, lower, image)
        assert message.startswith("a_{%d," % i)


def test_gap_error_names_the_row_the_index_and_the_value(monkeypatch):
    import lambdaeq.modeq as modeq

    # a_{i,0} += 1 adds 2^{ni} q^{mi} to K^-i F, so the loop finds its
    # coefficient mi nonzero before row i+1; every other row solves as usual
    solve = modeq._solve_leading
    for p, i in ((13, 1), (13, 4), (17, 8), (5, 2)):
        params = PrimeParams(p)
        m, n = params.m, params.n

        def perturbed(params, row, lower, rhs):
            head = solve(params, row, lower, rhs)
            return (head[0] + 1,) + head[1:] if row == i else head

        monkeypatch.setattr(modeq, "_solve_leading", perturbed)
        message = r"^before row %d of A_%d: coefficient %d of K\^-%d F .* is %d, not 0$" % (
            i + 1, p, m * i, i, 2 ** (n * i)
        )
        with pytest.raises(ArithmeticError, match=message):
            assemble(p)


def _direct_route(p):
    """A_p with every right-hand side summed from the per-(r+2h, r) columns.

    This is the route without the K^r P^h factorization: one table
    column for each point (r+2h, r), read as far as row i needs, and
    each B(i,i) solved by the test oracle ``Matrix.solve``, a rational
    elimination that shares nothing with assembly's C = L U.
    """
    params = PrimeParams(p)
    m, n = params.m, params.n
    table = BTable(params.p)
    grid = [row0(m)]
    for i in range(1, m + 1):
        size = m - i + 1
        rhs = [0] * size
        for r in range(i):
            shift = m * (i - r)
            for h in range(m - r + 1):
                column = table.column(r + 2 * h, r, shift + size - 1)
                for l in range(size):
                    rhs[l] -= 2 ** (n * r) * grid[r][h] * column[shift + l]
        head = [x / 2 ** (n * i) for x in Matrix(block(params, i, i, table)).solve(rhs)]
        assert all(x.denominator == 1 for x in head), (p, i)
        grid.append(tuple(int(x) for x in head) + (0,) * i)
    return tuple(grid)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_assemble_matches_the_direct_column_route(p):
    assert assemble(p).entries == _direct_route(p)


@pytest.mark.parametrize("p", sorted(REFERENCE))
def test_assemble_reproduces_reference(p):
    assert assemble(p).entries == REFERENCE[p]


def test_assemble_rejects_bad_input():
    with pytest.raises(ValueError):
        assemble(4)


def test_symmetry_holds_for_all_references():
    for p in REFERENCE:
        result = verify_symmetry(assemble(p))
        assert result.passed, result.details


def test_symmetry_detects_perturbation():
    bad = with_entry(assemble(5), 2, 1, 7)
    result = verify_symmetry(bad)
    assert not result.passed
    assert result.details["transpose_violations"] or result.details["horizontal_violations"]


def _row_moments(p):
    matrix = assemble(p)
    return verify_row_moments(matrix.params, matrix.entries[1])


def test_row_moments_values_a5():
    result = _row_moments(5)
    assert result.passed
    assert result.details["first"]["actual"] == "-32"
    assert result.details["third"]["actual"] == "-312"
    alt = result.details["third_alpha2_sign_flipped"]
    assert alt["value"] == "-360" and not alt["matches"]


def test_row_moments_a11_and_a23():
    r11 = _row_moments(11)
    assert r11.passed
    assert r11.details["second"]["actual"] == "-48"
    assert r11.details["third"]["actual"] == "-168"
    assert r11.details["third_alpha2_sign_flipped"]["value"] == "-216"
    r23 = _row_moments(23)
    assert r23.passed
    assert r23.details["third"]["actual"] == "-60"
    assert r23.details["third_alpha2_sign_flipped"]["value"] == "-84"


def test_row1_moment_forms_match_the_chained_fractions():
    primes = list(filter(is_odd_prime, range(1000)))
    # m < n at p = 3 and 5, so the common factor n^(m-2) 2^(m-n) is no integer
    assert {(PrimeParams(p).m, PrimeParams(p).n) for p in (3, 5)} == {(1, 2), (3, 4)}
    for p in primes:
        params = PrimeParams(p)
        got = _row1_moment_expectations(params)
        want = chained_row1_moment_expectations(params)
        assert all(type(num) is type(den) is int and den > 0 for num, den in got), p
        assert [Fraction(num, den) for num, den in got] == list(want), p
        assert [_ratio_str(num, den) for num, den in got] == [str(x) for x in want], p


def test_block_determinant_lemma_small():
    for p in (5, 13):
        result = verify_block_determinants(PrimeParams(p))
        assert result.passed, result.details
    # the corner cases by hand: i = m gives exponent 0, i = 1 gives -512 for p=5
    blocks = verify_block_determinants(PrimeParams(5)).details["blocks"]
    assert blocks[0]["det"] == "-512"
    assert blocks[-1]["det"] == "1"


@pytest.mark.parametrize("p, i, h, l", [(5, 1, 2, 1), (13, 1, 0, 3), (13, 3, 2, 4), (17, 6, 1, 2)])
def test_block_determinants_flag_a_corrupted_head_column(p, i, h, l):
    params = PrimeParams(p)
    table = BTable(params.p)
    table.column(i + 2 * h, i, params.m - i)[l] += 1  # the table's own list
    result = verify_block_determinants(params, table)
    assert not result.passed
    assert [b["i"] for b in result.details["blocks"] if not b["ok"]] == [i]


def test_global_vanish_a5():
    result = verify_global_vanish(assemble(5), 15)
    assert result.passed


def test_global_vanish_rejects_small_order():
    with pytest.raises(ValueError):
        verify_global_vanish(assemble(5), 8)


def test_global_vanish_detects_perturbation_with_index():
    # a_{i,h} += delta adds delta 2^{ni} q^{mi} K^i P^h to a series that
    # vanishes through the order, and K^i P^h starts with 1
    cases = {
        5: [(3, 3, 5)],  # deep in the zero triangle
        13: [(0, 0, 1), (1, 3, -2), (3, 5, 7), (7, 0, 1), (7, 7, -3)],
        17: [(2, 2, 5), (4, 6, -1), (9, 0, 3)],
    }
    for p, perturbations in cases.items():
        matrix = assemble(p)
        m, n = matrix.params.m, matrix.params.n
        for i, h, delta in perturbations:
            bad = with_entry(matrix, i, h, matrix.entries[i][h] + delta)
            result = verify_global_vanish(bad)
            assert not result.passed
            assert result.details["first_nonzero"] == {
                "power": m * i,
                "coefficient": str(2 ** (n * i) * delta),
            }, (p, i, h)


@lru_cache(maxsize=None)
def _assembled(p):
    return assemble(p)


@lru_cache(maxsize=None)
def _tables(p):
    """Two b-tables per prime, shared across examples: (global's, the direct route's)."""
    return BTable(p), BTable(p)


def _direct_master_series(matrix, order):
    """sum_{i,h} 2^{ni} a_{i,h} q^{mi} b(i+2h, i) through q^order.

    One direct table column per nonzero entry, with no K^r P^h
    factorization and no regrouping: the master series as the module
    docstring first writes it.
    """
    m, n = matrix.params.m, matrix.params.n
    table = _tables(matrix.params.p)[1]
    total = [0] * (order + 1)
    for i, row in enumerate(matrix.entries):
        top = order - m * i
        for h, a in enumerate(row):
            if a:
                column = table.column(i + 2 * h, i, top)
                coef = 2 ** (n * i) * a
                for t in range(top + 1):
                    total[m * i + t] += coef * column[t]
    return total


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_global_first_nonzero_matches_the_direct_column_sum(data):
    p = data.draw(st.sampled_from(SMALL_PRIMES), label="p")
    matrix = _assembled(p)
    m = matrix.params.m
    index = st.integers(0, m)
    delta = st.integers(-50, 50).filter(bool)
    perturbations = data.draw(
        st.lists(st.tuples(index, index, delta), min_size=1, max_size=3), label="perturbations"
    )
    if data.draw(st.booleans(), label="cancel"):
        # a partner in the same row cancels the leading 2^{ni} delta, so the
        # first nonzero coefficient moves past q^{mi} into the columns' tails
        i, h, d = perturbations[0]
        perturbations.append((i, data.draw(index.filter(lambda x: x != h), label="h'"), -d))
    bad = matrix
    for i, h, d in perturbations:
        bad = with_entry(bad, i, h, bad.entries[i][h] + d)
    order = m * m + data.draw(st.integers(0, 2 * m), label="order - m^2")
    result = verify_global_vanish(bad, order, _tables(p)[0])
    reported = result.details.get("first_nonzero")
    # the direct columns need only reach the reported power
    top = reported["power"] if reported else order
    direct = _direct_master_series(bad, top)
    power = next((t for t, c in enumerate(direct) if c), None)
    if reported is None:
        assert power is None
    else:
        assert reported == {"power": power, "coefficient": str(direct[power])}


def test_global_checks_the_coefficient_at_the_order_itself():
    # a_{m,h} += 1 first shows at q^{m^2}, the lowest order global accepts
    for p in (3, 5, 13, 17):
        matrix = assemble(p)
        m, n = matrix.params.m, matrix.params.n
        for h in (0, m):
            bad = with_entry(matrix, m, h, matrix.entries[m][h] + 1)
            result = verify_global_vanish(bad, m * m)
            assert result.details["first_nonzero"] == {
                "power": m * m,
                "coefficient": str(2 ** (n * m)),
            }, (p, h)


def test_solve_row1_matches_reference_and_passes_moments():
    for p in SMALL_PRIMES:
        ((params, row),) = scan_row1([p])
        if p in REFERENCE:
            assert row == REFERENCE[p][1]
        assert row == _assembled(p).entries[1]
        check = verify_row_moments(params, row)
        assert check.passed
        third = check.details["third"]["actual"]
        assert check.details["third_alpha2_sign_flipped"]["value"] != third


@pytest.mark.parametrize("p", [7, 11, 13])  # n = 1, 2, 4
def test_row0_power_matches_the_column_sum(p):
    # (-1)^m q^m E^m, E = (P - 1)/q, against sum_h (-1)^h C(m, h) b(2h, 0)
    params = PrimeParams(p)
    m = params.m
    reference = BTable(p)
    columns = [reference.column(2 * h, 0, 2 * m - 1) for h in range(m + 1)]
    column_sum = [
        sum((-1) ** h * comb(m, h) * column[t] for h, column in enumerate(columns))
        for t in range(2 * m)
    ]
    power = _row0_power(params, BTable(p))
    assert column_sum[:m] == [0] * m and power == column_sum[m:]
    assert all(type(c) is int for c in power)


def test_solve_row1_reads_no_column_past_index_m(monkeypatch):
    import lambdaeq.modeq as modeq

    built = []
    make = modeq.BTable

    def recording(p):
        built.append(make(p))
        return built[-1]

    monkeypatch.setattr(modeq, "BTable", recording)
    for p in (7, 11, 13, 53):
        ((params, _),) = scan_row1([p])
        m = params.m
        # P - 1 for row 0's power and L', and K for L'; no power family, no K^-1
        layout = {(2, 0): m + 1, (1, 1): m}
        assert column_lengths(built[-1]) == layout, p
    assert len(built) == 4


@pytest.mark.parametrize("p, later", [(13, 61), (11, 59), (7, 47)])  # n = 4, 2, 1
def test_tables_of_one_class_agree_below_the_smaller_prime(p, later):
    # k alpha_p(k) has no p-term below k = p, so the two tables agree through
    # index p - 1; at k = p it gains p sigma_1(1) = p, so b_p(u, v) of p is
    # that of the later prime plus -n u
    params = PrimeParams(p)
    n = params.n
    assert PrimeParams(later).n == n
    small, large = BTable(p), BTable(later)
    points = [(2 * h, 0) for h in range(PrimeParams(later).m + 1)] + [(-1, -1), (1, 1)]
    for u, v in points:
        a, b = small.column(u, v, p), large.column(u, v, p)
        assert a[:p] == b[:p], (u, v)
        assert a[p] - b[p] == -n * u, (u, v)
        assert (a[p] != b[p]) == (u != 0), (u, v)


def test_scan_row1_matches_the_per_prime_route():
    # the reference is the per-prime row loop of assemble, stopped after row 1:
    # a fresh table of p, row 0's series from its power family, its own L from
    # 1, K^-1 and the gap check, where scan_row1 solves against L' = T_K L
    primes = [p for p in range(3, 200) if is_odd_prime(p)]
    solved = list(scan_row1(primes))
    assert [params.p for params, _ in solved] == primes
    for params, row in solved:
        assert row == _solve_rows(params, BTable(params.p), 1)[1], params.p
    # any order: each class shares the table of its largest prime all the same
    mixed = [61, 5, 47, 13, 7, 59, 11]
    assert list(scan_row1(mixed)) == [next(scan_row1([p])) for p in mixed]


def test_scan_row1_matches_the_lagrange_oracle():
    # 2^n sum_h C(h, j) a_{1,h} = -(-1)^m [q^j] K^-1 P' E^(m-1-j): K^-1, its
    # own powers of E and no L, against K and L' = T_K L; m reaches 199
    primes = [p for p in range(3, 400) if is_odd_prime(p)]
    solved = list(scan_row1(primes))
    assert sum(params.m for params, _ in solved) == 4779
    for params, row in solved:
        assert row == lagrange_row1(params, BTable(params.p)), params.p


def test_closed_form_row1_negates_entries():
    for p, values in ((5, (3, 26, 3)), (11, (3, 10, 3)), (23, (3, -2, 3))):
        result = closed_form_row1(assemble(p))
        assert result.passed
        assert result.details["sign_flipped"] is True
        got = tuple(int(e["expression"]) for e in result.details["entries"])
        assert got == values


def test_closed_form_row1_requires_m3():
    with pytest.raises(ValueError):
        closed_form_row1(assemble(7))


def test_row2_pipeline():
    for p in (5, 11, 23):
        result = row2_pipeline(assemble(p))
        assert result.passed, result.details
        assert result.details["a20"] == "3" and result.details["a21"] == "-3"
        assert result.details["first_coordinate_zero"]
        assert not result.details["scale_claim_C_eq_4n_a20"]
        assert result.details["scale_found_C_eq_2n_4n_a20"]


def test_row2_pipeline_c_value_p23_hand_computation():
    # for p = 23: B(2,1) B(1,1)^{-1} B(1,0) a_0 = (-176, 408),
    # B(2,0) a_0 = (-176, 384), so C = 24 = 2n * 2^{2n} * a_{2,0}
    assert row2_pipeline(assemble(23)).details["C"] == "24"


def test_closed_form_row1_fails_on_a_perturbed_row1():
    # the closed forms are compared with the matrix they are given, so a
    # wrong a_{1,0} must fail even though the solve itself is sound
    for p in (5, 11, 23):
        matrix = assemble(p)
        result = closed_form_row1(with_entry(matrix, 1, 0, matrix.entries[1][0] + 1))
        assert not result.passed
        matches = [e["matches_negated_entry"] for e in result.details["entries"]]
        assert matches == [False, True, True]


def test_row2_pipeline_fails_on_a_perturbed_row2():
    for p in (5, 11, 23):
        matrix = assemble(p)
        result = row2_pipeline(with_entry(matrix, 2, 0, matrix.entries[2][0] + 1))
        assert not result.passed
        # the pipeline's own solve is unchanged; only the comparison fails
        assert result.details["a20"] == "3" and result.details["a21"] == "-3"


def test_each_check_carries_its_own_note():
    matrix = assemble(5)
    assert closed_form_row1(matrix).note == "the closed forms equal the negated matrix entries"
    assert row2_pipeline(matrix).note == "C = 2n * 2^{2n} * a_{2,0}, not 2^{2n} * a_{2,0}"
    # the corrected forms are noted only when they hold
    assert closed_form_row1(with_entry(matrix, 1, 0, 4)).note == ""
    assert row2_pipeline(with_entry(matrix, 2, 0, 4)).note == ""
    assert verify_symmetry(matrix).note == bordered_determinant(5).note == ""
    # rowsums names the sign-flipped variant, pass or fail
    row = matrix.entries[1]
    for result in (verify_row_moments(matrix.params, row),
                   verify_row_moments(matrix.params, (row[0] + 1,) + row[1:])):
        assert result.note == (
            "third moment uses the negated alpha_p(2) term; the sign-flipped variant "
            "-360 does not match %s" % result.details["third"]["actual"]
        )


def test_rowsums_note_says_when_the_sign_flipped_variant_matches():
    # a_{1,0} of A_13 moved by e2_alt - e2 = -196608 makes the third sum the
    # sign-flipped variant: the row fails, and the note agrees with the details
    params = PrimeParams(13)
    row = REFERENCE[13][1]
    result = verify_row_moments(params, (row[0] - 196608,) + row[1:])
    assert not result.passed
    assert result.details["third_alpha2_sign_flipped"] == {"value": "-6979584", "matches": True}
    assert result.note == (
        "third moment uses the negated alpha_p(2) term; the sign-flipped variant "
        "-6979584 matches -6979584"
    )
    assert result == fraction_row_moments(params, (row[0] - 196608,) + row[1:])


class _PackedC:
    """C read from a table's packed power family: the column at (2h, 0) is P^h."""

    def __init__(self, table, top):
        self.family = table.powers(top)

    def column(self, u, v, top):
        assert v == 0 and u % 2 == 0 and len(self.family[0]) > top
        return self.family[u // 2]


@pytest.mark.parametrize("entries", [4096, 50])
def test_flat_factor_matches_the_rowwise_route(entries):
    # L from the one flat column b(2, 0), as the powers (P - 1)^j, against the
    # forward differences of C, which the oracle proves have degree l in row
    # l; the oracle reads C from the scalar columns b(2h, 0) and from the
    # packed family, grown first to hold at least ``entries`` entries (past
    # index m for the small primes, as assembly grows it to index m^2); m
    # reaches 99 below 200
    for p in filter(is_odd_prime, range(3, 200)):
        params = PrimeParams(p)
        m = params.m
        table = BTable(p)
        packed = _PackedC(table, max(m, -(-entries // (m + 1)) - 1))
        lower = _lower(params, table)
        assert lower == rowwise_factor(params, table) == rowwise_factor(params, packed), p


# n = 1, 4, 2, 1, 4; m = 1, 7, 5, 6, 75; the faults as listed keep the id of p alone
@pytest.mark.parametrize(
    "p, scale",
    [pytest.param(p, scale, id=str(p) if scale == 1 else "%d-%d" % (p, scale))
     for scale in (1, 50) for p in (7, 13, 19, 47, 149)],
)
def test_flat_factor_fails_like_the_rowwise_route(p, scale):
    # an entry (l, h) of C, first and last rows and columns included, off by
    # delta * scale in the packed family and in the scalar column alike: the
    # oracle refuses it at row l, and the row loop, with L from the flat
    # column b(2, 0) and row 0's series from the packed family, refuses it
    # at the gap check before row 1, coefficient l, when h >= 1 and l < m
    params = PrimeParams(p)
    m = params.m

    def row1(table):
        return _solve_rows(params, table, 1)[1]

    intact = row1(BTable(p))
    bad_entries = [(0, 0, 1), (0, m, -1), (m, 0, 1), (m, m, 1), (m // 2, m, 3),
                   (m, m // 2, -2), (1, 1, 1), (0, 1, 1), (m, 1, 1)]
    for l, h, delta in bad_entries:
        table = BTable(p)
        # the table's own lists, the family grown first to the window's last index
        table.powers(2 * m - 1)[h][l] += delta * scale
        table.column(2 * h, 0, m)[l] += delta * scale
        with pytest.raises(FactorizationError, match=r"^C of A_%d: row l=%d " % (p, l)):
            rowwise_factor(params, table)
        if h == 0:
            # P^0 = 1 is read by neither route of the loop
            assert row1(table) == intact, (p, l, h)
        elif l < m:
            with pytest.raises(ArithmeticError, match=r"^before row 1 of A_%d: coefficient %d "
                               % (p, l)):
                row1(table)
        elif scale == 1:
            # at l = m only row 1's integrality checks read the fault, and an
            # even one can pass them: P^1[1] + 50 at p = 7 (m = 1) does, and
            # verify 7 then fails symmetry, rowsums and global instead
            with pytest.raises(IntegralityError, match=r"^(a_\{1,\d+\} of A_%d solved to the "
                               r"non-integer |row 1 of A_%d has no integral )" % (p, p)):
                row1(table)


def test_int_row_moments_match_the_fraction_route():
    # row 1 of every odd prime below 1000, and each of a_{1,0}, a_{1,1}, a_{1,2} moved by +-1
    for params, row in scan_row1(filter(is_odd_prime, range(3, 1000))):
        rows = [row] + [
            row[:h] + (row[h] + delta,) + row[h + 1 :]
            for h in range(min(3, len(row)))
            for delta in (1, -1)
        ]
        for variant in rows:
            got, want = verify_row_moments(params, variant), fraction_row_moments(params, variant)
            assert got == want, (params.p, variant[:3])


def test_run_checks_default_plan():
    # theorem52 joins the plan for m = 3, last, as its three checks
    assert [r.name for r in run_checks(PrimeParams(23))] == [
        "symmetry", "rowsums", "dets", "global",
        "row1-closed-forms", "row2-pipeline", "bordered-det",
    ]
    results = run_checks(PrimeParams(13))
    assert [r.name for r in results] == ["symmetry", "rowsums", "dets", "global"]
    assert all(r.passed for r in results)
    assert results[3].details["order"] == 7 * 7 + 2 * 7


def test_run_checks_runs_the_names_in_order():
    results = run_checks(PrimeParams(5), ["global", "theorem52", "rowsums"], 20)
    assert [r.name for r in results] == [
        "global", "row1-closed-forms", "row2-pipeline", "bordered-det", "rowsums"
    ]
    assert results[0].details == {"order": 20}
    assert all(r.passed for r in results)


@pytest.mark.parametrize(
    "p, names, message",
    [
        (53, ["bogus"], "unknown checks: bogus"),
        (53, ["dets", "bogus", "global", "nonsense"], "unknown checks: bogus, nonsense"),
        (7, ["theorem52"], re.escape("the theorem52 checks need m = 3 (p in {5, 11, 23})")),
    ],
    ids=["unknown", "two-unknown", "theorem52-at-m-1"],
)
def test_run_checks_refuses_a_bad_selection_before_any_table_work(monkeypatch, p, names, message):
    import lambdaeq.modeq as modeq

    def refuse(*args, **kwargs):
        raise AssertionError("table work before the selection was refused")

    monkeypatch.setattr(modeq, "BTable", refuse)
    monkeypatch.setattr(modeq, "assemble", refuse)
    with pytest.raises(ValueError, match="^%s$" % message):
        run_checks(PrimeParams(p), names)


def _theorem52_details(c, det, a11):
    """The details of row2_pipeline, bordered_determinant and closed_form_row1 for m = 3."""
    row2 = {
        "first_coordinate_zero": True,
        "C": c,
        "a20": "3",
        "a21": "-3",
        "scale_claim_C_eq_4n_a20": False,
        "scale_found_C_eq_2n_4n_a20": True,
    }
    bordered = {"det": det, "expected": det}
    closed = {
        "sign_flipped": True,
        "entries": [
            {"h": 0, "expression": "3", "entry": -3, "matches_negated_entry": True},
            {"h": 1, "expression": str(-a11), "entry": a11, "matches_negated_entry": True},
            {"h": 2, "expression": "3", "entry": -3, "matches_negated_entry": True},
        ],
    }
    return row2, bordered, closed


# recorded from the rational-elimination route that the Cramer route replaced
THEOREM52_DETAILS = {
    5: _theorem52_details("6144", "-24576", -26),
    11: _theorem52_details("192", "-768", -10),
    23: _theorem52_details("24", "-48", 2),
}


@pytest.mark.parametrize("p", sorted(THEOREM52_DETAILS))
def test_theorem52_details_are_pinned(p):
    matrix = assemble(p)
    results = (row2_pipeline(matrix), bordered_determinant(p), closed_form_row1(matrix))
    assert all(result.passed for result in results)
    assert tuple(result.details for result in results) == THEOREM52_DETAILS[p]


def singular_block_table(p, name):
    """A b-table of p whose block ``name`` of row2_pipeline has two equal columns.

    B(1,1) gets b_l(3, 1) := b_l(1, 1) for l = 1, 2, and B(2,2) gets
    b_1(4, 2) := b_1(2, 2); no other block of the pipeline reads them.
    """
    table = BTable(p)
    if name == "B(1,1)":
        table.column(3, 1, 2)[1:3] = table.column(1, 1, 2)[1:3]  # the table's own list
    else:
        table.column(4, 2, 1)[1] = table.column(2, 2, 1)[1]
    return table


@pytest.mark.parametrize("name", ["B(1,1)", "B(2,2)"])
def test_row2_pipeline_refuses_a_singular_block(name):
    table = singular_block_table(23, name)
    message = r"^theorem52: block %s of p = 23 is singular" % re.escape(name)
    with pytest.raises(ArithmeticError, match=message):
        row2_pipeline(assemble(23), table)


def test_m3_checks_share_the_verified_table():
    params = PrimeParams(23)
    table = BTable(params.p)
    matrix = assemble(23, table)
    assert row2_pipeline(matrix, table) == row2_pipeline(matrix)
    assert bordered_determinant(23, table) == bordered_determinant(23)
    with pytest.raises(ValueError):
        row2_pipeline(matrix, BTable(11))
    with pytest.raises(ValueError):
        bordered_determinant(23, BTable(5))


def test_bordered_determinant_values():
    assert bordered_determinant(5).details["det"] == "-24576"
    assert bordered_determinant(11).details["det"] == "-768"
    assert bordered_determinant(23).details["det"] == "-48"
    for p in (5, 11, 23):
        assert bordered_determinant(p).passed


def test_bordered_determinant_inner_identity():
    # the same matrix with third column b_l(1,1) has determinant (-2n)^3
    for p in (5, 11, 23):
        params = PrimeParams(p)
        cols = [b_series(p, 2, u, 1) for u in (3, 5, 1)]
        det = Matrix([[c[l] for c in cols] for l in range(3)]).det()
        assert det == (-2 * params.n) ** 3


def test_modular_matrix_validation():
    params = PrimeParams(5)
    with pytest.raises(ValueError):
        ModularMatrix(params, ((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        ModularMatrix(params, tuple((Fraction(1),) * 4 for _ in range(4)))
    # bool is an int subclass: render_text would print True and to_doc
    # write JSON true, a document from_doc refuses
    with pytest.raises(ValueError, match="plain integers"):
        ModularMatrix(PrimeParams(3), ((True, -1), (-1, 0)))


def test_serialization_round_trip():
    matrix = assemble(13)
    doc = json.loads(json.dumps(to_doc(matrix)))
    assert from_doc(doc) == matrix


def test_from_doc_validates():
    doc = to_doc(assemble(5))
    doc["schema_version"] = 99
    with pytest.raises(ValueError):
        from_doc(doc)
    doc = to_doc(assemble(5))
    doc["m"] = 4
    with pytest.raises(ValueError):
        from_doc(doc)


def _drop(key):
    return lambda doc: doc.pop(key)


def _set_row_1(doc):
    doc["matrix"][1] = 5


MALFORMED = {
    **{"no-" + key: (_drop(key), "has no " + key)
       for key in ("schema_version", "p", "m", "n", "matrix")},
    "matrix-an-int": (lambda doc: doc.update(matrix=5), "a list of lists"),
    "row-an-int": (_set_row_1, "a list of lists"),
    # a header value equal to the int but not an int is refused, not coerced
    "schema_version-true": (lambda doc: doc.update(schema_version=True), "schema_version True"),
    "schema_version-a-float": (lambda doc: doc.update(schema_version=1.0), "schema_version 1.0"),
    "p-a-float": (lambda doc: doc.update(p=5.0), "got 5.0"),
    "m-a-float": (lambda doc: doc.update(m=3.0), "inconsistent"),
    "n-a-float": (lambda doc: doc.update(n=4.0), "inconsistent"),
    "all-three": (lambda doc: doc.update(schema_version=True, m=3.0, n=4.0), "schema_version True"),
}


@pytest.mark.parametrize("edit, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_from_doc_refuses_a_malformed_document(edit, message):
    doc = json.loads(json.dumps(to_doc(assemble(5))))
    edit(doc)
    with pytest.raises(ValueError, match=message):
        from_doc(doc)


@pytest.mark.parametrize("doc", [[1, 2], "x", 3, None])
def test_from_doc_refuses_a_non_object(doc):
    with pytest.raises(ValueError, match="JSON object"):
        from_doc(doc)


@pytest.mark.parametrize("entry", [1.7, -3.0, "-3", True, None])
def test_from_doc_refuses_non_integer_entries(entry):
    doc = json.loads(json.dumps(to_doc(assemble(5))))
    doc["matrix"][1][0] = entry
    with pytest.raises(ValueError, match="entries must be plain integers"):
        from_doc(doc)


def test_render_text():
    text = render_text(assemble(5))
    assert text.splitlines()[0] == "p = 5   m = 3   n = 4"
    assert "-26" in text


def test_render_typeset():
    tex = render_typeset(assemble(23))
    assert "\\begin{array}{rrrr}" in tex
    assert "1 & -3 & 3 & -1" in tex
    assert "n = 1,\\ m = 3" in tex


def test_one_table_serves_assembly_dets_and_global():
    params = PrimeParams(19)
    table = BTable(params.p)
    matrix = assemble(19, table)
    assert matrix.entries == REFERENCE[19]
    grown = column_lengths(table)
    assert verify_block_determinants(params, table).passed
    # dets adds the heads b(i+2h, i), i >= 1, and leaves assembly's columns as they were
    after = column_lengths(table)
    assert {key: after[key] for key in grown} == grown
    assert all(i >= 1 and (u - i) % 2 == 0 for u, i in set(after) - set(grown))
    assert verify_global_vanish(matrix, table=table).passed
    fresh = verify_global_vanish(matrix)
    assert fresh.details == verify_global_vanish(matrix, table=table).details


def test_block_from_table_matches_rational_columns():
    params = PrimeParams(13)
    table = BTable(params.p)
    m = params.m
    for i, r in ((1, 0), (3, 1), (7, 7), (5, 2)):
        shift, top = m * (i - r), m * (i - r) + m - i
        columns = [b_series(13, top, r + 2 * h, r)[shift:] for h in range(m - r + 1)]
        blk = block(params, i, r, table)
        assert blk == tuple(zip(*columns))
        assert all(type(x) is int for row in blk for x in row)


def test_table_of_another_prime_is_refused():
    with pytest.raises(ValueError):
        assemble(13, BTable(17))
    with pytest.raises(ValueError):
        verify_global_vanish(assemble(5), table=BTable(11))
