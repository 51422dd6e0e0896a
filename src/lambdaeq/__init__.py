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

from .arith import alpha, is_odd_prime, k_alpha, partition_weight, reduced, sigma1
from .bpoly import ENUMERATION_THRESHOLD, BTable, b_eval, b_series, p_poly
from .exact import IntegralityError, integer_det
from .modeq import (
    CHECK_NAMES,
    SCHEMA_VERSION,
    CheckResult,
    FactorizationError,
    ModularMatrix,
    PrimeParams,
    assemble,
    block,
    bordered_determinant,
    closed_form_row1,
    from_doc,
    global_order,
    render_text,
    render_typeset,
    row0,
    row2_pipeline,
    run_checks,
    scan_row1,
    solve_row1,
    to_doc,
    verify_block_determinants,
    verify_global_vanish,
    verify_row_moments,
    verify_symmetry,
)
from .ode import ode_residual
from .partitions import Partition, partitions_of
from .qseries import (
    Series,
    lambda_series,
    xy_normalized_lemma,
)

__version__ = "0.1.0"
