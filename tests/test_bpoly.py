"""Tests for the partition polynomials b_l and the moment polynomials P_s.

The closed forms for b_1..b_7 used here were re-derived from the
partition-sum definition; two terms that are sometimes misquoted are
worth flagging: the alpha(3)-term of b_4 carries u^2 (both parts of the
partition 4 = 3 + 1 are odd), and the alpha(7)-term of the odd-only b_7
carries a factor u (from the partition with the single part 7).
"""

import random
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lambdaeq.bpoly as bpoly
from lambdaeq import (
    ENUMERATION_THRESHOLD,
    BTable,
    IntegralityError,
    PrimeParams,
    alpha,
    b_eval,
    b_series,
    is_odd_prime,
    k_alpha_prefix,
    p_poly,
    partition_weight,
    partitions_of,
)
from oracles import binomial_moment, c_coeff

PRIMES_WITH_N = [(3, 2), (5, 4), (7, 1), (11, 2), (13, 4), (23, 1)]


def closed_forms(p, n):
    """b_0..b_5 plus the odd-only b_6*, b_7* as explicit polynomials."""
    a2, a3, a4 = alpha(p, 2), alpha(p, 3), alpha(p, 4)
    a5, a7 = alpha(p, 5), alpha(p, 7)
    return {
        0: lambda u, v: Fraction(1),
        1: lambda u, v: -n * u,
        2: lambda u, v: Fraction(n ** 2 * u ** 2, 2) - n * v * a2,
        3: lambda u, v: -Fraction(n ** 3 * u ** 3, 6) + n ** 2 * u * v * a2 - n * u * a3,
        4: lambda u, v: (
            Fraction(n ** 4 * u ** 4, 24)
            - Fraction(n ** 3 * u ** 2 * v, 2) * a2
            + n ** 2 * u ** 2 * a3
            + Fraction(n ** 2 * v ** 2, 2) * a2 ** 2
            - n * v * a4
        ),
        5: lambda u, v: (
            -Fraction(n ** 5 * u ** 5, 120)
            + Fraction(n ** 4 * u ** 3 * v, 6) * a2
            - Fraction(n ** 3 * u ** 3, 2) * a3
            - Fraction(n ** 3 * u * v ** 2, 2) * a2 ** 2
            + n ** 2 * u * v * a4
            + n ** 2 * u * v * a3 * a2
            - n * u * a5
        ),
        # odd-only (v = 0) closed forms
        6: lambda u, v: (
            Fraction(n ** 6 * u ** 6, 720)
            + Fraction(n ** 4 * u ** 4, 6) * a3
            + Fraction(n ** 2 * u ** 2, 2) * a3 ** 2
            + n ** 2 * u ** 2 * a5
        ),
        7: lambda u, v: (
            -Fraction(n ** 7 * u ** 7, 5040)
            - Fraction(n ** 5 * u ** 5, 24) * a3
            - Fraction(n ** 3 * u ** 3, 2) * a5
            - Fraction(n ** 3 * u ** 3, 2) * a3 ** 2
            - n * u * a7
        ),
    }


def test_b0_is_one():
    for p, n in PRIMES_WITH_N:
        assert PrimeParams(p).n == n
        assert b_eval(p, 0, 17, -2) == 1
        assert b_series(p, 0, 17, -2) == [1]


def test_b1_example():
    assert b_eval(3, 1, 5, 1) == -10  # n = 2


def test_b2_hand_value():
    assert b_eval(5, 2, 1, 1) == 14  # n = 4: 16/2 - 4*(-3/2)


def test_closed_form_table_at_random_rational_points():
    rng = random.Random(1887)
    for p in (5, 11, 23):
        n = {5: 4, 11: 2, 23: 1}[p]
        table = closed_forms(p, n)
        for _ in range(10):
            u = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for l in range(6):
                assert b_eval(p, l, u, v) == table[l](u, v), (p, l, u, v)
            for l in (6, 7):  # odd-only forms: second variable zero
                assert b_eval(p, l, u, 0) == table[l](u, 0), (p, l, u)


def _partition_terms(p, l):
    terms = []
    for j in partitions_of(l):
        odd = sum(count for k, count in j.items() if k % 2)
        even = sum(count for k, count in j.items() if k % 2 == 0)
        terms.append((odd + even, odd, even, partition_weight(p, j)))
    return terms


def test_recurrence_matches_partition_sum_full_grid():
    # same grid the module contract names: l <= 25, u,v in {0,1,3,5,-2}^2,
    # p in {3,5,7,11,13}, whose n = 2, 4, 1, 2, 4 cover every legal n
    points = (0, 1, 3, 5, -2)
    for p in (3, 5, 7, 11, 13):
        terms = {l: _partition_terms(p, l) for l in range(26)}
        n = PrimeParams(p).n
        for u in points:
            for v in points:
                got = b_series(p, 25, u, v)
                for l in range(26):
                    expected = sum(
                        ((-n) ** norm) * (u ** jo) * (v ** je) * w
                        for norm, jo, je, w in terms[l]
                    )
                    assert got[l] == expected, (p, n, u, v, l)


def test_recurrence_matches_b_eval_directly():
    for p in (7, 5, 3):  # n = 1, 4, 2
        for u, v in ((0, 0), (1, 1), (3, 1), (Fraction(5, 2), Fraction(-1, 3))):
            series = b_series(p, 12, u, v)
            for l in range(13):
                assert series[l] == b_eval(p, l, u, v)


def test_recurrence_matches_b_eval_at_32_bit_rationals():
    rng = random.Random(2016)

    def rational():
        return Fraction(rng.randint(-(2**32) + 1, 2**32 - 1), rng.randint(1, 2**32 - 1))

    for p in (7, 5):  # n = 1, 4
        u, v = rational(), rational()
        series = b_series(p, ENUMERATION_THRESHOLD, u, v)
        for l in range(ENUMERATION_THRESHOLD + 1):
            assert series[l] == b_eval(p, l, u, v), (p, u, v, l)


def test_leading_term_by_divided_differences():
    # b_l(u, 0) is degree l in u with top coefficient (-n)^l / l!; the l-th
    # finite difference over u = 0..l therefore equals (-n)^l exactly.
    for p in (23, 11, 5):  # n = 1, 2, 4
        n = PrimeParams(p).n
        for l in range(9):
            diff = sum(
                (-1) ** (l - j) * comb(l, j) * b_eval(p, l, j, 0)
                for j in range(l + 1)
            )
            assert diff == (-n) ** l, (p, n, l)


def test_series_exp_zero_input():
    assert b_series(5, 2, 0, 0) == [1, 0, 0]


def test_enumeration_threshold_enforced():
    top = ENUMERATION_THRESHOLD
    with pytest.raises(ValueError, match="enumeration threshold"):
        b_eval(5, top + 1, 1, 1)
    assert b_eval(5, top, 1, 1) == b_series(5, top, 1, 1)[top]


def test_b_routes_reject_p_without_a_scale():
    # n comes from p alone, so a p with no reduction (p+1)/8 = m/n is refused
    for bad in (4, 2, 1, -3, 7.0):
        with pytest.raises(ValueError, match="p must be an odd prime"):
            b_eval(bad, 2, 1, 1)
        with pytest.raises(ValueError, match="p must be an odd prime"):
            b_series(bad, 2, 1, 1)
        with pytest.raises(ValueError, match="p must be an odd prime"):
            BTable(bad)


def test_p_poly_base_cases():
    for m in range(11):
        assert p_poly(0, m) == 1
    assert p_poly(1, 3) == Fraction(3, 2)
    assert p_poly(2, 3) == Fraction(5, 4)


def test_p_poly_satisfies_its_recurrence():
    # the defining recurrence and boundaries, independent of the closed form
    for m in range(40):
        assert p_poly(0, m) == 1
    for s in range(1, 15):
        assert p_poly(s, 0) == 0
        for m in range(1, 40):
            assert (m + s) * p_poly(s, m) == m * (p_poly(s - 1, m) + p_poly(s, m - 1)), (s, m)


def test_p_poly_has_no_depth_limit():
    # s + m = 601 is deeper than Python's recursion limit lets a recursive route go
    assert p_poly(1, 600) == 300


def test_p_poly_closed_form_table():
    for m in range(1, 11):
        assert p_poly(1, m) == Fraction(m, 2)
        assert p_poly(2, m) == Fraction(m * (3 * m + 1), 24)
        assert p_poly(3, m) == Fraction(m ** 2 * (m + 1), 48)
        assert p_poly(4, m) == Fraction(
            m * (-2 + 5 * m + 30 * m ** 2 + 15 * m ** 3), 8 * factorial(6)
        )


def test_c_coeff_values():
    assert c_coeff(0, 0) == 1
    assert c_coeff(1, 1) == Fraction(1, 2)
    assert c_coeff(1, 0) == 0
    assert c_coeff(2, 3) == 0


def test_c_expansion_reproduces_p_poly():
    for s in range(5):
        for m in range(11):
            total = sum(c_coeff(s, r) * comb(m, r) for r in range(s + 1))
            assert total == p_poly(s, m), (s, m)


def test_binomial_moment_examples():
    assert binomial_moment(2, 3) == 0  # 3 - 12 + 9
    assert binomial_moment(3, 3) == 6  # 3 - 24 + 27
    assert binomial_moment(0, 1) == 0  # 0^0 = 1 makes it -1 + 1


def test_binomial_moment_vanishes_below_degree():
    for m in range(1, 13):
        for N in range(m):
            assert binomial_moment(N, m) == 0, (N, m)


def test_binomial_moment_matches_p_poly():
    # p_poly is this same alternating sum divided by (s+m)!, so this pins
    # the normalisation only; the recurrence and c_coeff tests are the
    # independent checks of p_poly
    for m in range(1, 11):
        for N in range(m, m + 5):
            expected = (-1) ** (m - 1) * p_poly(N - m, m) * factorial(N)
            assert binomial_moment(N, m) == expected, (N, m)


# the integer table route, pinned against the rational and partition routes

ODD_PRIMES = [p for p in range(3, 200) if is_odd_prime(p)]
assert {PrimeParams(p).n for p in ODD_PRIMES} == {1, 2, 4}


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(ODD_PRIMES), r=st.integers(0, 12), h=st.integers(0, 12))
def test_table_matches_b_series_at_integer_points(p, r, h):
    table = BTable(p)
    column = table.column(r + 2 * h, r, 60)
    assert column[:61] == b_series(table.p, 60, r + 2 * h, r)
    assert all(type(b) is int for b in column)


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from(ODD_PRIMES),
    r=st.integers(0, 8),
    h=st.integers(0, 8),
    l=st.integers(0, ENUMERATION_THRESHOLD),
)
def test_table_matches_b_eval_at_integer_points(p, r, h, l):
    table = BTable(p)
    assert table.column(r + 2 * h, r, l)[l] == b_eval(table.p, l, r + 2 * h, r)


def _truncated_convolution(a, b, top):
    return [sum(a[j] * b[t - j] for j in range(t + 1)) for t in range(top + 1)]


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from(ODD_PRIMES), r=st.integers(0, 12), h=st.integers(0, 12))
def test_columns_factor_as_k_power_times_p_power(p, r, h):
    # the weights are linear in (u, v), so b(r+2h, r) = b(r, r) b(2h, 0) = K^r P^h
    table = BTable(p)
    product = _truncated_convolution(table.column(r, r, 40), table.column(2 * h, 0, 40), 40)
    assert product == table.column(r + 2 * h, r, 40)[:41]


@pytest.mark.parametrize("p", [23, 11, 13])  # n = 1, 2, 4
def test_table_v0_branch_matches_b_series(p):
    # at v = 0 the table skips the even-k weights; grow each column in two steps
    table = BTable(p)
    for h in (0, 1, 2, 5):
        assert table.column(2 * h, 0, 7) == b_series(table.p, 7, 2 * h, 0)
        assert table.column(2 * h, 0, 60) == b_series(table.p, 60, 2 * h, 0)


@pytest.mark.parametrize("p", [23, 11, 13])  # n = 1, 2, 4
def test_table_u0_columns_skip_the_odd_weights(p):
    # at u = 0 the odd-k terms vanish: b(0, 0) is 1 and zeros, and b(0, v)
    # keeps its even-k terms
    table = BTable(p)
    assert table.column(0, 0, 3) == [1, 0, 0, 0]
    assert table.column(0, 0, 80) == [1] + [0] * 80
    assert table.column(0, 2, 40) == b_series(table.p, 40, 0, 2)


def test_table_grows_columns_in_place():
    table = BTable(13)
    short = table.column(5, 1, 4)
    assert len(short) == 5
    longer = table.column(5, 1, 40)
    assert longer is short and len(longer) == 41
    assert table.column(5, 1, 10) is short  # a shorter request reuses the column
    assert longer == b_series(table.p, 40, 5, 1)


@pytest.mark.parametrize("p", [23, 11, 13])  # n = 1, 2, 4
def test_table_grown_in_two_steps_matches_one_grown_at_once(p):
    # the second step reaches past the weights of the first, which are sieved again
    points = [(2, 0), (1, 1), (-1, -1), (3, 1)]
    stepped, direct = BTable(p), BTable(p)
    n = stepped.n

    def split(top):
        # n k alpha_p(k) at odd k = 1, 3, ... and at even k = 2, 4, ..., k <= top
        weights = [n * x for x in k_alpha_prefix(p, top)]
        return weights[1::2], weights[2::2]

    for u, v in points:
        stepped.column(u, v, 40)
    assert (stepped._odd, stepped._even) == split(40)
    for u, v in points:
        assert stepped.column(u, v, 300) == direct.column(u, v, 300)
    assert (stepped._odd, stepped._even) == (direct._odd, direct._even) == split(300)


@pytest.mark.parametrize("p", [23, 11, 13])  # n = 1, 2, 4
@pytest.mark.parametrize("u, v", [(3, 1), (5, 1), (7, 3)])
def test_table_with_both_weight_lists_matches_b_series_from_index_0(p, u, v):
    # u != v and v != 0 read the odd and the even list; b_1 = w_1 has no even
    # term, so a slice from l - 2 = -1 that wrapped to the column's end would
    # add w_2 b_0 to it once the weights reach k = 2
    assert BTable(p).column(u, v, 30) == b_series(p, 30, u, v)


def test_table_raises_at_the_first_non_integer_coefficient():
    # p = 7 has n = 1, and b_2(1, 0) = n^2/2 = 1/2 is off the points (r+2h, r)
    table = BTable(7)
    assert b_series(table.p, 2, 1, 0)[2] == Fraction(1, 2)
    assert table.column(1, 0, 1) == [1, -1]
    with pytest.raises(IntegralityError, match="b_2"):
        table.column(1, 0, 2)


@pytest.mark.parametrize("u, v", [(Fraction(1, 2), 1), (3, Fraction(2, 3)), (1.0, 0)])
def test_table_refuses_non_integer_points(u, v):
    with pytest.raises(ValueError):
        BTable(5).column(u, v, 3)


def _scalar_powers(p, top):
    """P^0..P^m by the one-column recurrence, on a table of their own."""
    table = BTable(p)
    return [table.column(2 * h, 0, top)[: top + 1] for h in range(PrimeParams(p).m + 1)]


POWER_PRIMES = [p for p in filter(is_odd_prime, range(3, 220)) if PrimeParams(p).m <= 27]


@pytest.mark.parametrize("p", POWER_PRIMES)
def test_powers_match_the_scalar_columns_at_once_and_in_two_steps(p):
    m = PrimeParams(p).m
    top = m * m + 2 * m
    expected = _scalar_powers(p, top)
    at_once = BTable(p).powers(top)
    stepped = BTable(p)
    first = stepped.powers(m * m)
    assert [column[: m * m + 1] for column in first] == [c[: m * m + 1] for c in expected]
    second = stepped.powers(top)
    assert second is first  # the family grows in place
    assert at_once == second == expected
    assert all(type(x) is int for column in second for x in column)
    assert stepped.powers(m) is first  # a shorter read grows nothing
    assert [len(column) for column in first] == [top + 1] * (m + 1)


@pytest.mark.parametrize("cap", [16, 48, 200, 10**9])
@pytest.mark.parametrize("p", [7, 13, 43, 191])  # (m, n) = (1, 1), (7, 4), (11, 2), (24, 1)
def test_powers_are_exact_in_groups_of_every_size(p, cap, monkeypatch):
    # a cap of 16 bytes makes each slot of the growth to m^2 a group of one,
    # 48 and 200 split the slots into groups, 10^9 packs all m - 1 at once;
    # whatever the groups, P^m is the one power column on the scalar recurrence
    monkeypatch.setattr(bpoly, "_PACKED_BYTES", cap)
    grown, groups = [], []
    grow, grow_packed = BTable._grow, BTable._grow_packed

    def grow_spy(self, column, u, v, top):
        grown.append((u, v))
        grow(self, column, u, v, top)

    def packed_spy(self, columns, a, size, top):
        groups.append((top, a, len(columns)))
        grow_packed(self, columns, a, size, top)

    monkeypatch.setattr(BTable, "_grow", grow_spy)
    monkeypatch.setattr(BTable, "_grow_packed", packed_spy)
    m = PrimeParams(p).m
    table = BTable(p)
    table.powers(m)
    family = table.powers(m * m)
    assert set(grown) == {(2 * m, 0)}
    if cap == 16:
        assert [(a, count) for top, a, count in groups if top == m * m] == [
            (h, 1) for h in range(m - 1, 0, -1)
        ]
    assert family == _scalar_powers(p, m * m)


# primes where a slot narrower than the proof's width breaks the growth to m^2,
# and the narrowings that break it there: one byte short, the guard dropped, both
NARROW_BREAKS = {
    23: ("short", "both"),
    31: ("both",),
    43: ("both",),
    47: ("short", "guard", "both"),
    71: ("both",),
    79: ("both",),
}


@pytest.mark.parametrize("p", sorted(NARROW_BREAKS))
def test_power_slots_one_byte_short_of_the_bound_break(p, monkeypatch):
    # the proof's slot is bits + guard wide: the column above bounds |b_l(2h, 0)|
    # below 2^bits, and l < 2^guard; where a narrower slot carries, the growth
    # must raise or give other columns
    slot_bytes = bpoly._slot_bytes
    m = PrimeParams(p).m
    guard = (m * m).bit_length()
    widths = {
        "short": lambda bits: slot_bytes(bits) - 1,
        "guard": lambda bits: slot_bytes(bits - guard),
        "both": lambda bits: slot_bytes(bits - guard) - 1,
    }
    expected = _scalar_powers(p, m * m)
    for name in NARROW_BREAKS[p]:
        monkeypatch.setattr(bpoly, "_slot_bytes", widths[name])
        try:
            family = BTable(p).powers(m * m)
        except (OverflowError, IntegralityError):
            continue
        assert family != expected, name


def test_a_non_negative_odd_weight_raises_before_any_packing(monkeypatch):
    sieve = bpoly.k_alpha_prefix

    def forced(p, top):
        weights = sieve(p, top)
        weights[5] = 0  # the odd weight n 5 alpha_p(5) becomes 0
        return weights

    packed = []
    monkeypatch.setattr(bpoly, "k_alpha_prefix", forced)
    monkeypatch.setattr(BTable, "_grow_packed", lambda *args: packed.append(args))
    table = BTable(13)
    with pytest.raises(ArithmeticError, match="odd k = 5"):
        table.powers(49)
    assert packed == [] and table._powers == []
    with pytest.raises(ArithmeticError, match="odd k = 5"):
        table.column(2, 0, 10)


def test_a_lone_power_point_builds_no_family():
    # series xy reads one column b(2h, 0); m may be ~10^11 there
    table = BTable(10**12 - 11)
    assert table.column(2, 0, 10) == b_series(table.p, 10, 2, 0)
    assert table._powers == []


def test_p0_is_written_out_not_grown(monkeypatch):
    # P^0 = [1, 0, 0, ...] costs no recurrence step, so no divmod on zeros
    grown = []
    grow = BTable._grow

    def spy(self, column, u, v, top):
        grown.append((u, v))
        grow(self, column, u, v, top)

    monkeypatch.setattr(BTable, "_grow", spy)
    family = BTable(13).powers(49)
    assert family[0] == [1] + [0] * 49
    assert (0, 0) not in grown


def test_packed_step_raises_at_a_non_integer_coefficient():
    # weights n k alpha_p(k) = 1, 2 at k = 1, 3 give 3 b_3(2h, 0) = -2h (b_2 + 2) with
    # b_2(2h, 0) = 2h^2: no integer at h = 1 or 2, though the packed int of the
    # slots 3 |b_3| = 8, 40 divides by 3; -40 at h = 3, but no integer at h = 4
    table = BTable(13)
    table._odd = [1, 2]
    for a, h in ((1, 1), (3, 4)):
        columns = [[1], [1]]
        with pytest.raises(IntegralityError, match=r"^b_3\(%d, 0\) is not an integer" % (2 * h)):
            table._grow_packed(columns, a, 8, 3)
        assert columns == [[1], [1]]
    columns = [[1], [1]]
    table._grow_packed(columns, 3, 8, 2)
    assert columns == [[1, -6, 18], [1, -8, 32]]
