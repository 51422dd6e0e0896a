"""Tests for the formal verification of the lambda differential equation."""

import pytest

from lambdaeq import lambda_series, ode_residual


def test_residual_vanishes_to_certified_order():
    result = ode_residual(50)
    assert result.effective_order >= 50
    assert result.vanishes
    assert result.first_nonzero() is None
    assert all(type(c) is int for c in result.residual.coeffs)


def test_constant_coefficient_is_zero():
    # every term has q-valuation >= 4, so this holds structurally
    assert ode_residual(12).residual[0] == 0


def test_effective_order_tracks_valuations():
    # derivative factors have valuation 1, the lambda^2(1-lambda)^2 weight
    # valuation 2: products gain orders beyond the input truncation
    result = ode_residual(20)
    assert result.effective_order > 20


def test_scaled_lambda_negative_control():
    doubled = 2 * lambda_series(50)
    result = ode_residual(50, doubled)
    assert not result.vanishes
    power, coeff = result.first_nonzero()
    assert coeff != 0 and power == 5


def test_other_series_fail_too():
    from lambdaeq import Series

    result = ode_residual(15, Series([0, 1], 15))  # f = q is no solution
    assert not result.vanishes


def test_order_floor():
    with pytest.raises(ValueError):
        ode_residual(9)
