"""Smoke test of the int-packing kernels for interpreters without pytest.

Run from the repository root with any Python >= 3.10:

    PYTHONPATH=src python tests/kernel_smoke.py

It checks ``qseries._truncated_product`` on squares (one object on both
sides) against the same call on an equal copy and against a pairwise
loop, on both routes and either side of the count and width edges, and
that each call takes the expected route.  It checks the packed power
columns ``bpoly.BTable.powers`` against the one-column recurrence at
p = 53, and at p = 43 with ``_PACKED_BYTES`` forced to 16, where every
column of the growth to m^2 is a packed group of one, and that a packed
step names the first non-integer slot even where the whole packed int
divides exactly.  It checks L of the row solves, built from the powers
(P - 1)^j by ``modeq._lower``, against the forward differences of the
oracle ``rowwise_factor`` of ``tests/oracles.py`` at p = 397 (m = 199)
and p = 149 (m = 75).  At the same primes it checks ``modeq.scan_row1``,
which solves against L' = T_K L, against row 1 of the K^-1 row loop
``modeq._solve_rows(params, table, 1)``, and that the row is the
palindrome a_{1,h} = a_{1,m-1-h} that ``scan`` demands.  Then it runs
``ode-check --order 10`` and ``--order 1000`` in process and compares
the sha256 of their stdout with the ``ROUTE_SHA256`` pins of
``tests/test_cli.py``, read with ``ast`` so that pytest need not be
installed.  It prints one line per check and exits 1 on the first
failure.  It is a smoke test, not part of the tier-1 suite, which needs
pytest and hypothesis.
"""

import ast
import contextlib
import hashlib
import io
import math
import os
import random
import sys

from lambdaeq import bpoly, cli, modeq, qseries, reduced
from lambdaeq.qseries import _KRONECKER_CUBE, _KRONECKER_MIN, _slot_bytes, _truncated_product
from oracles import rowwise_factor


def check(ok, what):
    print("%s: %s" % ("ok" if ok else "FAIL", what))
    if not ok:
        sys.exit(1)


def pairwise_product(a, b, top):
    out = [0] * (top + 1)
    for i in range(top + 1):
        for j in range(top + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def square_operand(rng, count, size):
    """count + 3 coefficients, signs and zeros mixed, whose square to
    q^(count-1) has exactly size-byte slots."""
    top = math.isqrt((1 << (8 * size - 2)) // count) + 1
    c = [rng.choice((-1, 0, 1)) * rng.randint(0, top) for _ in range(count + 3)]
    c[count // 2] = -top
    return tuple(c)  # a tuple longer than top + 1, as Series.coeffs


def kernel_checks():
    calls = []
    kronecker = qseries._kronecker

    def spy(a, b, size):
        calls.append(b is a)
        return kronecker(a, b, size)

    qseries._kronecker = spy
    rng = random.Random(27)
    # the count edge at narrow slots, the width edge at 200 coefficients
    # (58^3 < 1024 * 200 <= 59^3), and a loop square of 1,000 coefficients
    cases = [(_KRONECKER_MIN - 1, 4), (_KRONECKER_MIN, 4), (200, 58), (200, 59), (1000, 101)]
    for count, size in cases:
        c = square_operand(rng, count, size)
        top = count - 1
        check(_slot_bytes(c[:count], c[:count]) == size, "count %d: %d-byte slots" % (count, size))
        int_route = count >= _KRONECKER_MIN and size**3 < _KRONECKER_CUBE * count
        del calls[:]
        square = _truncated_product(c, c, top)
        product = _truncated_product(c, list(c), top)
        route = "int" if int_route else "loop"
        check(calls == ([True, False] if int_route else []), "count %d: %s route" % (count, route))
        check(square == product, "count %d: square equals the product of a copy" % count)
        check(square == pairwise_product(c, c, top), "count %d: square equals the pairwise loop" % count)
    qseries._kronecker = kronecker


def power_checks():
    groups = []
    grow_packed = bpoly.BTable._grow_packed

    def spy(self, columns, a, size, top):
        groups.append((top, len(columns)))
        return grow_packed(self, columns, a, size, top)

    bpoly.BTable._grow_packed = spy
    saved = bpoly._PACKED_BYTES
    for p, cap in ((53, saved), (43, 16)):
        bpoly._PACKED_BYTES = cap
        m = reduced(p)[0]
        top = m * m
        del groups[:]
        family = bpoly.BTable(p).powers(top)
        scalar = bpoly.BTable(p)
        columns = [scalar.column(2 * h, 0, top) for h in range(m + 1)]
        check(family == columns, "p = %d, cap %d: powers(m^2) equals the scalar columns" % (p, cap))
        if cap == 16:
            check(groups == [(top, 1)] * (m - 1), "p = %d, cap 16: %d groups of one" % (p, m - 1))
    bpoly._PACKED_BYTES = saved
    bpoly.BTable._grow_packed = grow_packed
    # odd weights 1, 2 make b_3(2h, 0) = -2h (2h^2 + 2)/3: an integer at h = 3, not
    # at h = 1, 2 or 4; at h = 1, 2 the whole packed int divides by 3 all the same
    table = bpoly.BTable(13)
    table._odd = [1, 2]
    for a, h in ((1, 1), (3, 4)):
        try:
            table._grow_packed([[1], [1]], a, 8, 3)
            message = ""
        except bpoly.IntegralityError as exc:
            message = str(exc)
        check(message.startswith("b_3(%d, 0) is not an integer" % (2 * h)),
              "packed step at h = %d, %d: b_3(%d, 0) is named" % (a, a + 1, 2 * h))


def factor_checks():
    for p in (397, 149):
        params = modeq.PrimeParams(p)
        lower = modeq._lower(params, bpoly.BTable(p))
        check(lower == rowwise_factor(params, bpoly.BTable(p)),
              "p = %d: _lower equals the rowwise oracle" % p)


def scan_checks():
    for p in (397, 149):
        params = modeq.PrimeParams(p)
        m = params.m
        loop = modeq._solve_rows(params, bpoly.BTable(p), 1)[1]
        solved, row = next(modeq.scan_row1([p]))
        check(solved == params and row == loop,
              "p = %d: scan_row1 equals row 1 of the K^-1 row loop" % p)
        check(row[:m] == row[m - 1::-1], "p = %d: row 1 is a palindrome, as scan demands" % p)


def route_pins():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "test_cli.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "ROUTE_SHA256":
            return ast.literal_eval(node.value)
    raise LookupError("ROUTE_SHA256 not found in %s" % path)


def ode_check_pins():
    pins = route_pins()
    for order in ("10", "1000"):
        argv = ("ode-check", "--order", order)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        check(code == 0 and digest == pins[argv], "%s: exit 0 and pinned sha256" % " ".join(argv))


if __name__ == "__main__":
    print("Python %s" % sys.version.split()[0])
    kernel_checks()
    power_checks()
    factor_checks()
    scan_checks()
    ode_check_pins()
