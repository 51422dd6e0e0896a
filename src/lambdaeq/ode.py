"""Formal q-series verification of the differential equation of lambda.

With ' = d/dtau, the modular lambda function satisfies

    2 f'''/f'^3 - 3 f''^2/f'^4 = -(f^2 - f + 1) / (f^2 (1-f)^2).

In q = e^{i pi tau} the operator D = q d/dq absorbs every i*pi factor
(f' = i*pi*D f and so on; both sides scale by (i*pi)^4 after clearing
denominators), so the identity becomes the polynomial q-series statement

    2 (D^3 f)(D f) f^2 (1-f)^2 - 3 (D^2 f)^2 f^2 (1-f)^2
        + (f^2 - f + 1) (D f)^4 = 0.

With g = f(1-f), so that f^2 (1-f)^2 = g^2 and f^2 - f + 1 = 1 - g, the
same polynomial is

    g^2 (2 (D^3 f)(D f) - 3 (D^2 f)^2) + (1 - g) (D f)^4,

which is how ``ode_residual`` evaluates it: six products and the power
(D f)^4, where the expanded form takes nine products and the power, with
the same coefficients and the same certified order (the two leading
terms of the bracket never cancel, so its valuation is that of each).
Only this cleared form is checked: it needs no Laurent series for the
valuation -2 quotients, and every coefficient comparison is exact.  The
lambda expansion has integer coefficients and the cleared form has no
division (the power divides only exactly), so the whole residual is
computed on plain ints.  The same identity rescaled by 3/2-powers is
the familiar Schwarzian-style normalization
3 (f''/f'^2)^2 - 2 f'''/f'^3 = (1 - f + f^2)/(f^2(1-f)^2); verifying
one form verifies the other.
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
    d3 = d2.qderiv()
    g = f * (1 - f)
    return g * g * (2 * (d3 * d1) - 3 * (d2 * d2)) + (1 - g) * d1 ** 4
