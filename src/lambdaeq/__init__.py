"""Modular equations for the lambda function, built in exact arithmetic.

For any odd prime p, with (p+1)/8 = m/n in lowest terms, the package
constructs the (m+1) x (m+1) integer matrix of the polynomial relation
between X = (lambda(t) lambda(pt))^{n/8} and
Y = ((1-lambda(t)) (1-lambda(pt)))^{n/8}, entirely in exact arithmetic
(plain ints on every hot path, ``fractions.Fraction`` where a value is
not integral), and verifies every structural identity along the way: the
partition expansion of the q-series coefficients, block determinants,
row-moment formulas, the emergent symmetries of the matrix, and the
nonlinear differential equation satisfied by lambda itself.
"""

from .arith import *
from .bpoly import *
from .modeq import *
from .ode import *
from .qseries import *

__version__ = "0.1.0"
