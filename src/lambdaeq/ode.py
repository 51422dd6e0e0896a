"""Formal q-series verification of the differential equation of lambda.

With ' = d/dtau, the modular lambda function satisfies

    2 f'''/f'^3 - 3 f''^2/f'^4 = -(f^2 - f + 1) / (f^2 (1-f)^2).

In q = e^{i pi tau} the operator D = q d/dq absorbs every i*pi factor
(f' = i*pi*D f and so on; both sides scale by (i*pi)^4 after clearing
denominators), so the identity becomes the polynomial q-series statement

    2 (D^3 f)(D f) f^2 (1-f)^2 - 3 (D^2 f)^2 f^2 (1-f)^2
        + (f^2 - f + 1) (D f)^4 = 0.

With g = f(1-f), so that f^2 (1-f)^2 = g^2 and f^2 - f + 1 = 1 - g, the
same polynomial is g^2 (2 (D^3 f)(D f) - 3 (D^2 f)^2) + (1 - g) (D f)^4.
Since D^2 ((D f)^2) = 2 (D^2 f)^2 + 2 (D f)(D^3 f), the bracket equals
D^2 s - 5 (D^2 f)^2 for s = (D f)^2, and ``ode_residual`` evaluates

    g (g (D^2 s - 5 (D^2 f)^2) - s^2) + s^2,   g = f - f^2:

six products and no power, where the expanded form takes nine products
and the power (D f)^4.  Four of the six are squares, (D f)^2, (D^2 f)^2,
s^2 and f^2, which ``s * s`` hands the product kernel as squares; g is
written f - f^2 rather than f (1 - f) so that its product is one of
them.  Both forms give the same coefficients and the same certified
order: D^2 s is known as far as the product (D^3 f)(D f), and
s^2 = (D f)^4 bounds the order of both groupings.  Only this cleared
form is checked: it needs no Laurent series for the valuation -2
quotients, and it has no division, so the residual of the integral
lambda expansion is computed on plain ints.  The same
identity rescaled by 3/2-powers is the familiar Schwarzian-style
normalization 3 (f''/f'^2)^2 - 2 f'''/f'^3 = (1 - f + f^2)/(f^2(1-f)^2);
verifying one form verifies the other.
"""

from .qseries import lambda_series

__all__ = ["ode_residual"]


def ode_residual(order, f=None):
    """The residual ``Series`` of the cleared differential identity.

    ``f`` defaults to the lambda expansion through the given order;
    passing any other series (say 2*lambda) gives the negative control.
    The residual's own truncation order is the certified range: the
    valuation-aware products typically push it beyond the input order,
    and the identity holds there iff ``is_zero()``.
    """
    if order < 10:
        raise ValueError("order must be at least 10 for a meaningful check")
    if f is None:
        f = lambda_series(order)
    d1 = f.qderiv()
    d2 = d1.qderiv()
    s = d1 * d1
    bracket = s.qderiv().qderiv() - 5 * (d2 * d2)
    s2 = s * s
    g = f - f * f
    return g * (g * bracket - s2) + s2
