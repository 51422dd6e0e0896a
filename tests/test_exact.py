"""Exact linear-algebra tests.

``integer_det`` is the library's elimination.  It is checked against
the rational Gaussian ``det`` of the test oracle ``oracles.Matrix``,
whose determinant and solver are in turn checked against hand cofactor
expansions, residual recomputation, and transposition.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdaeq import IntegralityError
from lambdaeq.modeq import integer_det
from oracles import Matrix, SingularMatrixError


def test_det_identity():
    assert Matrix([[1, 0], [0, 1]]).det() == 1
    identity5 = [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 0, 1, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ]
    assert Matrix(identity5).det() == 1


def test_det_2x2_hand_cofactor():
    # (1)(-12) - (1)(-4) = -8, which is also (-2n)^1 for n = 4
    assert Matrix([[1, 1], [-4, -12]]).det() == -8


def test_det_rejects_nonsquare():
    with pytest.raises(ValueError):
        Matrix([[1, 2, 3], [4, 5, 6]]).det()


def _random_matrix(rng, n):
    return Matrix(
        [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def test_det_transpose_sampled_up_to_8():
    rng = random.Random(20240517)
    for n in range(1, 9):
        for _ in range(3):
            a = _random_matrix(rng, n)
            assert a.det() == Matrix(list(zip(*a.entries))).det()


@settings(max_examples=40)
@given(st.data())
def test_det_transpose_property(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    entries = data.draw(
        st.lists(
            st.lists(
                st.fractions(min_value=-5, max_value=5, max_denominator=6),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
    assert Matrix(entries).det() == Matrix(list(zip(*entries))).det()


@st.composite
def _int_grids(draw):
    """Square int grids of dimension 1..8, some with zero leading entries, some singular."""
    n = draw(st.integers(1, 8))
    # a few values, zero among them, so pivots are often missing
    value = st.sampled_from([0, 0, 1, -1, 2, -3, 5]) | st.integers(-10**6, 10**6)
    grid = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=n, max_size=n))
    # zero out the top of the leading column: the first pivot needs a row swap
    for r in range(draw(st.integers(0, n - 1))):
        grid[r][0] = 0
    if n > 1 and draw(st.booleans()):
        # make the last row a combination of two others: singular
        a, b = draw(st.integers(0, n - 2)), draw(st.integers(0, n - 2))
        s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        grid[n - 1] = [s * x + t * y for x, y in zip(grid[a], grid[b])]
    return grid


@settings(max_examples=300)
@given(_int_grids())
def test_integer_det_matches_rational_det(grid):
    d = integer_det(grid)
    assert type(d) is int
    assert d == Matrix(grid).det()


def test_integer_det_row_swaps_flip_the_sign():
    assert integer_det([[0, 1], [1, 0]]) == -1
    assert integer_det([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    assert integer_det([[0, 2, 1], [0, 4, 7], [3, 1, 1]]) == 3 * (2 * 7 - 1 * 4)
    assert integer_det([[1, 2], [2, 4]]) == 0
    assert integer_det([[0, 1], [0, 2]]) == 0
    assert integer_det([[-7]]) == -7


def test_integer_det_asserts_every_division():
    # on an int grid every Bareiss division is exact; off the integers the
    # first step already leaves a remainder, and it must not pass silently
    with pytest.raises(IntegralityError):
        integer_det([[Fraction(1, 2), 1], [1, 1]])
    with pytest.raises(ValueError):
        integer_det([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        integer_det([])


def test_solve_identity():
    assert Matrix([[1, 0], [0, 1]]).solve([3, 5]) == (3, 5)


def test_solve_diagonal():
    x = Matrix([[2, 0], [0, 4]]).solve([1, 1])
    assert x == (Fraction(1, 2), Fraction(1, 4))


def test_solve_residual_recomputation_oracle():
    rng = random.Random(987)
    solved = 0
    while solved < 5:
        a = _random_matrix(rng, 4)
        if a.det() == 0:
            continue
        b = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(4)]
        x = a.solve(b)
        residual = [lhs - rhs for lhs, rhs in zip(a.mul_vec(x), b)]
        assert all(r == 0 for r in residual)
        solved += 1


@settings(max_examples=30)
@given(st.data())
def test_solve_residual_property(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    entries = data.draw(
        st.lists(
            st.lists(
                st.fractions(min_value=-4, max_value=4, max_denominator=5),
                min_size=n,
                max_size=n,
            ),
            min_size=n,
            max_size=n,
        )
    )
    rhs = data.draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4, max_denominator=5),
            min_size=n,
            max_size=n,
        )
    )
    a = Matrix(entries)
    try:
        x = a.solve(rhs)
    except SingularMatrixError:
        assert a.det() == 0
        return
    assert all(lhs == r for lhs, r in zip(a.mul_vec(x), rhs))


def test_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        Matrix([[1, 2], [2, 4]]).solve([1, 1])


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        Matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        Matrix([])


def test_matrix_immutable_and_hashable():
    a = Matrix([[1, 2], [3, 4]])
    with pytest.raises(AttributeError):
        a.rows = 3
    assert a == Matrix([[1, 2], [3, 4]])
    assert hash(a) == hash(Matrix([[1, 2], [3, 4]]))
    assert a[1, 0] == 3
