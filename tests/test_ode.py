"""Tests for the formal verification of the lambda differential equation."""

import random

import pytest

from lambdaeq import Series, lambda_series, ode_residual, qseries
from lambdaeq.cli import main
from oracles import expanded_ode_residual


def test_residual_vanishes_to_certified_order():
    residual = ode_residual(50)
    assert residual.order >= 50
    assert residual.is_zero()
    assert residual.first_nonzero() is None
    assert all(type(c) is int for c in residual.coeffs)


def test_constant_coefficient_is_zero():
    # every term has q-valuation >= 4, so this holds structurally
    assert ode_residual(12)[0] == 0


def test_effective_order_tracks_valuations():
    # derivative factors have valuation 1, the lambda^2(1-lambda)^2 weight
    # valuation 2: products gain orders beyond the input truncation
    assert ode_residual(20).order > 20


def test_scaled_lambda_negative_control():
    doubled = 2 * lambda_series(50)
    residual = ode_residual(50, doubled)
    assert not residual.is_zero()
    power, coeff = residual.first_nonzero()
    assert coeff != 0 and power == 5


def test_other_series_fail_too():
    assert not ode_residual(15, Series([0, 1], 15)).is_zero()  # f = q is no solution


def test_order_floor():
    with pytest.raises(ValueError):
        ode_residual(9)


def _pinned(f, order=10):
    residual = ode_residual(order, f)
    expanded = expanded_ode_residual(f)
    assert residual.coeffs == expanded.coeffs
    assert residual.order == expanded.order
    return residual


# every order ode-check admits up to 60, and one far beyond
ORDERS = list(range(10, 61)) + [200]


@pytest.mark.parametrize("order", ORDERS)
def test_factored_residual_matches_the_expanded_form_on_lambda(order, capsys):
    lam = lambda_series(order)
    certified = _pinned(lam, order)
    assert certified.is_zero()
    # ode-check prints the expanded form's certified order
    assert main(["ode-check", "--order", str(order)]) == 0
    assert "through q^%d (input order %d)" % (certified.order, order) in capsys.readouterr().out


def test_factored_residual_matches_the_expanded_form_on_the_controls():
    for order in ORDERS:
        lam = lambda_series(order)
        for control in (2 * lam, lam * lam + lam, Series([0, 1], order)):
            assert not _pinned(control, order).is_zero()


def test_factored_residual_matches_the_expanded_form_on_random_series():
    rng = random.Random(19)
    for v in range(4):
        for _ in range(40):
            body = [rng.randint(-5, 5) for _ in range(rng.randint(1, 16))]
            _pinned(Series([0] * v + body))


def test_the_expanded_form_never_runs_the_square_kernel(monkeypatch):
    # the pins above compare the production squares against general products
    kernel = qseries._truncated_product

    def refuse_squares(a, b, top):
        if a is b:
            raise AssertionError("the oracle reached the square kernel")
        return kernel(a, b, top)

    monkeypatch.setattr(qseries, "_truncated_product", refuse_squares)
    expanded_ode_residual(lambda_series(30))
    with pytest.raises(AssertionError, match="square kernel"):
        ode_residual(30)
