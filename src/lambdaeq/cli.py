"""Command-line interface.

Exit codes are stable across commands: 0 success, 1 a verification
failed (a check reported FAIL, or an exact step such as an integrality
or gap assertion raised ``ArithmeticError``), 2 invalid input,
including an ``--out`` file or ``--cache-dir`` that cannot be written
(``OSError``).  Every input whose cost grows without bound is
refused with exit 2 before any work; each budget is a ``MAX_*``
constant below, except the l of ``bpoly --method partition``, which
``bpoly.ENUMERATION_THRESHOLD`` bounds.  All configuration is by flags;
the only state on disk is the optional matrix cache.  A cached matrix
is served only if it is a JSON object whose header and entries are
JSON integers, its prime is the one asked for and it passes
``matrix``'s built-in checks, the two symmetries and the row-1 moments;
any other entry is rebuilt, and the rebuilt matrix is cached only once
it passes them.
Nothing else about a cached matrix is re-checked.

The argument parser is built once, at import, and is the only state
this module keeps between ``main`` calls: each call parses into a fresh
namespace.  The library it calls keeps no state between calls either.
"""

import argparse
import contextlib
import json
import os
import re
import sys
from fractions import Fraction

from .arith import alpha, is_odd_prime, reduced
from .bpoly import b_eval, b_series, p_poly
from .modeq import (
    CHECK_NAMES,
    SCHEMA_VERSION,
    PrimeParams,
    assemble,
    from_doc,
    global_order,
    render_text,
    render_typeset,
    run_checks,
    scan_row1,
    to_doc,
    verify_row_moments,
    verify_symmetry,
    xy_normalized_lemma,
)
from .ode import ode_residual
from .qseries import lambda_series

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2

# Each budget keeps the costliest admitted input within seconds to a minute;
# README's budget table times each one.  Assembly runs ~m^5/6 bignum
# multiply-adds on coefficients that lengthen with m (``modeq.assemble``).
MAX_M = 48

# Past the default order the global check runs ~(m+1) order^2 bignum
# multiply-adds; every admitted default order m^2 + 2m is at most 2400, below
# this, so no admitted order costs much more than a full verify at m = 48.
MAX_ORDER = 2500

# scan grows the columns P = b(2, 0) and K = b(1, 1) to the largest m = M of
# each class n, ~M^2/4 multiply-adds each, and builds L' from the products
# K ((P - 1)/q)^j, ~M^3/6 (``modeq.scan_row1``), so its time grows like
# max-p^3; each prime adds one power of (P - 1)/q and one solve, O(m^2).
MAX_SCAN_P = 400

# P_s(m) sums m + 1 integer powers j^(s+m), each up to (s+m) log2(m) bits
# long, and divides once by (s+m)!.
MAX_PVALS_SUM = 400

# ode-check takes six products of series of length order, four of them
# squares: ~order^2 multiply-adds.
MAX_ODE_ORDER = 1000

# series lambda takes two powers of sparse bases and one product, ~order^2
# multiply-adds; the coefficients of series xy lengthen with i + h.
MAX_SERIES_ORDER = 2000
MAX_XY_EXPONENT = 1000

# bpoly runs the recurrence scaled to ints, ~l^2/2 bignum products whose
# length grows with l and with the size of u and v.
MAX_BPOLY_L = 200
MAX_BPOLY_BITS = 32

# Primality (for the p of alpha, bpoly and series xy) and sigma_1 (for the k
# of alpha) are trial division up to the square root.
MAX_PRIME = 10**12
MAX_ALPHA_K = 10**12


def _int_arg(text):
    # int() alone also takes "1_3", non-ASCII digits and surrounding spaces
    digits = text[1:] if text[:1] in "+-" else text
    if digits.isascii() and digits.isdigit():
        with contextlib.suppress(ValueError):  # more digits than int() converts
            return int(text)
    raise argparse.ArgumentTypeError("invalid int value: %r" % (text,))


def _rational_arg(text):
    # Fraction("1e999999999") would build a power of ten with 10^9 digits
    if "e" in text.lower():
        raise argparse.ArgumentTypeError("not an exact rational a/b or decimal: %r" % (text,))
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, TypeError):
        raise argparse.ArgumentTypeError("not an exact rational: %r" % (text,))


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lambdaeq",
        description="Exact modular-equation matrices for the modular lambda function",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_matrix = sub.add_parser("matrix", help="compute and print the matrix A_p")
    p_matrix.add_argument("p", type=_int_arg)
    p_matrix.add_argument(
        "--format", choices=("text", "structured", "typeset"), default="text"
    )
    p_matrix.add_argument("--out", metavar="FILE")
    p_matrix.add_argument("--cache-dir", metavar="DIR")

    p_verify = sub.add_parser("verify", help="run verification checks for one prime")
    p_verify.add_argument("p", type=_int_arg)
    p_verify.add_argument(
        "--checks",
        metavar="LIST",
        help="comma list from: %s (default: all applicable)" % ",".join(CHECK_NAMES),
    )
    p_verify.add_argument(
        "--order",
        type=_int_arg,
        help="q-order for the global check (default m^2+2m; at most %d)" % MAX_ORDER,
    )

    p_series = sub.add_parser("series", help="print exact q-expansions")
    p_series.add_argument("kind", choices=("lambda", "xy"))
    p_series.add_argument("--p", type=_int_arg)
    # --i and --h mean 0 for xy when not given; series lambda takes neither, nor --p
    p_series.add_argument("--i", type=_int_arg)
    p_series.add_argument("--h", type=_int_arg)
    p_series.add_argument(
        "--order", type=_int_arg, required=True, help="at most %d" % MAX_SERIES_ORDER
    )

    p_bpoly = sub.add_parser("bpoly", help="evaluate b_l(u, v)")
    p_bpoly.add_argument("p", type=_int_arg)
    p_bpoly.add_argument("l", type=_int_arg, help="at most %d" % MAX_BPOLY_L)
    p_bpoly.add_argument("--u", type=_rational_arg, required=True)
    p_bpoly.add_argument("--v", type=_rational_arg, required=True)
    p_bpoly.add_argument(
        "--method", choices=("partition", "recurrence"), default="recurrence"
    )
    # bpoly has no option that starts with a digit, so a space-separated
    # negative rational such as "--v -1/3" is a value, not an option
    p_bpoly._negative_number_matcher = re.compile(r"-\.?\d")

    p_alpha = sub.add_parser("alpha", help="evaluate alpha_p(k)")
    p_alpha.add_argument("p", type=_int_arg)
    p_alpha.add_argument("k", type=_int_arg, help="at most %d" % MAX_ALPHA_K)

    p_pvals = sub.add_parser("pvals", help="evaluate the moment polynomial P_s(m)")
    p_pvals.add_argument("s", type=_int_arg)
    p_pvals.add_argument("m", type=_int_arg, help="at most %d - s" % MAX_PVALS_SUM)

    p_ode = sub.add_parser("ode-check", help="verify the lambda differential equation")
    p_ode.add_argument("--order", type=_int_arg, default=50, help="at most %d" % MAX_ODE_ORDER)

    p_scan = sub.add_parser("scan", help="row-1 moment identities for all odd primes <= max-p")
    p_scan.add_argument("--max-p", type=_int_arg, required=True, help="at most %d" % MAX_SCAN_P)

    return parser


_PARSER = _build_parser()


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _format_matrix(matrix, fmt, checks):
    if fmt == "text":
        return render_text(matrix)
    if fmt == "typeset":
        return render_typeset(matrix)
    verification = {
        res.name: {"passed": res.passed, "details": res.details} for res in checks
    }
    return json.dumps(to_doc(matrix, verification), indent=2, sort_keys=True)


def _load_cached_matrix(path, p):
    """The cached matrix of p, or None for a miss.

    An entry that does not parse (nested past the recursion limit
    included) or holds another prime's matrix is a miss.  The document's
    p is compared before ``from_doc`` tests its primality, which is trial
    division and would hang on a large p.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("p") != p:
            return None
        return from_doc(doc)
    except (OSError, ValueError, RecursionError):
        return None


def _store_cached_matrix(path, matrix):
    tmp = path + ".tmp.%d" % os.getpid()
    try:
        with open(tmp, "w") as fh:
            json.dump(to_doc(matrix), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        # a failed write (a full disk, say) leaves no temp file behind
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _refuse_above(label, value, budget, why):
    if value > budget:
        raise ValueError("%s %d is above the budget %d; %s" % (label, value, budget, why))


def _sized_prime(p):
    _refuse_above("p =", p, MAX_PRIME, "primality is tested by trial division up to sqrt(p)")
    return p


def _sized_params(p):
    """The prime's parameters; m above MAX_M is refused before any work.

    m is read off with ``reduced`` before the primality test, which is
    trial division up to sqrt(p) and would take minutes for p near 10^18.
    """
    _refuse_above(
        "p = %d: m =" % p, reduced(p)[0], MAX_M,
        "assembly grows like m^5 bignum multiply-adds",
    )
    return PrimeParams(p)


def _sized_order(params, order):
    """The global check's order; one above MAX_ORDER is refused."""
    order = global_order(params, order)
    _refuse_above(
        "--order", order, MAX_ORDER,
        "the global check grows like (m+1) order^2 bignum multiply-adds",
    )
    return order


def _builtin_checks(matrix):
    return verify_symmetry(matrix), verify_row_moments(matrix.params, matrix.entries[1])


def _cmd_matrix(args):
    _sized_params(args.p)
    matrix = checks = None
    if args.cache_dir:
        os.makedirs(args.cache_dir, exist_ok=True)
        cache_file = os.path.join(args.cache_dir, "A%d.schema%d.json" % (args.p, SCHEMA_VERSION))
        matrix = _load_cached_matrix(cache_file, args.p)
    if matrix is not None:
        checks = _builtin_checks(matrix)
    # a cached entry that fails a built-in check is a miss, like a missing one
    if checks is None or not all(check.passed for check in checks):
        matrix = assemble(args.p)
        checks = _builtin_checks(matrix)
        for check in checks:
            if not check.passed:
                print("built-in verification failed: %s" % check.name, file=sys.stderr)
                return EXIT_CHECK_FAILED
        if args.cache_dir:
            _store_cached_matrix(cache_file, matrix)
    _emit(_format_matrix(matrix, args.format, checks), args.out)
    return EXIT_OK


def _print_check(result):
    print("%s: %s" % (result.name, "PASS" if result.passed else "FAIL"))
    if not result.passed:
        print("  details: %s" % json.dumps(result.details, sort_keys=True))
    if result.note:
        print("  note: %s" % result.note)


def _cmd_verify(args):
    params = _sized_params(args.p)
    selected = None  # run_checks' default plan
    if args.checks is not None:
        # a repeated name runs once, where it first appears
        names = (c.strip() for c in args.checks.split(","))
        selected = list(dict.fromkeys(c for c in names if c))
        if not selected:
            raise ValueError("--checks %r selects no check" % (args.checks,))
    # a given order is sized before any b-table work, whatever the plan
    order = None if args.order is None else _sized_order(params, args.order)
    results = run_checks(params, selected, order)
    for res in results:
        _print_check(res)
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def _cmd_series(args):
    if args.order < 1:
        raise ValueError("--order must be at least 1")
    _refuse_above(
        "--order", args.order, MAX_SERIES_ORDER,
        "series products grow like order^2 bignum multiply-adds",
    )
    if args.kind == "lambda":
        given = [flag for flag in ("--p", "--i", "--h") if getattr(args, flag[2:]) is not None]
        if given:
            raise ValueError("series lambda takes no %s" % ", ".join(given))
        series = lambda_series(args.order)
    else:
        if args.p is None:
            raise ValueError("series xy needs --p")
        i, h = args.i or 0, args.h or 0
        _refuse_above(
            "i + h =", i + h, MAX_XY_EXPONENT,
            "the coefficients of X^i Y^h lengthen with i + h",
        )
        params = PrimeParams(_sized_prime(args.p))
        series = xy_normalized_lemma(params, i, h, args.order)
    print(series.to_text())
    return EXIT_OK


def _cmd_bpoly(args):
    _sized_prime(args.p)
    _refuse_above("l =", args.l, MAX_BPOLY_L, "the recurrence runs ~l^2/2 bignum products")
    bits = max(abs(x).bit_length() for r in (args.u, args.v) for x in r.as_integer_ratio())
    if bits > MAX_BPOLY_BITS:
        raise ValueError(
            "--u/--v have a %d-bit numerator or denominator, above the budget %d "
            "bits; b_l is about l times as long" % (bits, MAX_BPOLY_BITS)
        )
    params = PrimeParams(args.p)
    if args.method == "partition":
        value = b_eval(params.p, args.l, args.u, args.v)
    else:
        value = b_series(params.p, args.l, args.u, args.v)[args.l]
    print(value)
    return EXIT_OK


def _cmd_alpha(args):
    if args.k < 1:
        raise ValueError("k must be >= 1")
    _refuse_above("k =", args.k, MAX_ALPHA_K, "sigma_1 is summed by trial division up to sqrt(k)")
    params = PrimeParams(_sized_prime(args.p))
    print(alpha(params.p, args.k))
    return EXIT_OK


def _cmd_pvals(args):
    _refuse_above(
        "s + m =", args.s + args.m, MAX_PVALS_SUM, "P_s(m) sums m + 1 powers j^(s+m)"
    )
    print(p_poly(args.s, args.m))
    return EXIT_OK


def _cmd_ode_check(args):
    _refuse_above(
        "--order", args.order, MAX_ODE_ORDER,
        "the residual multiplies series of that length, ~order^2 bignum multiply-adds",
    )
    residual = ode_residual(args.order)
    bad = residual.first_nonzero()
    if bad is None:
        print(
            "lambda ODE residual vanishes identically through q^%d (input order %d): PASS"
            % (residual.order, args.order)
        )
        return EXIT_OK
    power, coeff = bad
    print("lambda ODE residual has nonzero coefficient %s at q^%d: FAIL" % (coeff, power))
    return EXIT_CHECK_FAILED


def _cmd_scan(args):
    if args.max_p < 3:
        raise ValueError("--max-p must be at least 3")
    _refuse_above("--max-p", args.max_p, MAX_SCAN_P, "scan time grows like max-p^3")
    failures = 0
    primes = [p for p in range(3, args.max_p + 1, 2) if is_odd_prime(p)]
    for params, row in scan_row1(primes):
        m = params.m
        check = verify_row_moments(params, row)
        # row 1 is also the palindrome a_{1,h} = a_{1,m-1-h}, which no solve imposes
        passed = check.passed and row[:m] == row[m - 1::-1]
        if not passed:
            failures += 1
        moments = [check.details[k]["actual"] for k in ("first", "second", "third")]
        print(
            "p=%-4d m=%-3d n=%d  moments=%s, %s, %s  %s"
            % (params.p, m, params.n, *moments, "ok" if passed else "MISMATCH")
        )
    print(
        "scan complete: row-1 moment identities %s"
        % ("hold for every prime" if failures == 0 else "FAILED for %d primes" % failures)
    )
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


_HANDLERS = {
    "matrix": _cmd_matrix,
    "verify": _cmd_verify,
    "series": _cmd_series,
    "bpoly": _cmd_bpoly,
    "alpha": _cmd_alpha,
    "pvals": _cmd_pvals,
    "ode-check": _cmd_ode_check,
    "scan": _cmd_scan,
}


def main(argv=None):
    args = _PARSER.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BAD_INPUT
    except ArithmeticError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
