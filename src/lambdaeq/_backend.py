"""Exact rational scalar backend.

The hot paths (the b-table, the row solves, assembly, the global and
determinant checks, and the q-series ring on integral input) run on
plain ints.  Exact
rationals are left in the alpha weights, ``p_poly``/``c_coeff``,
``b_series``/``b_eval``, ``Matrix.det``/``solve`` and ``Series`` with a
non-unit constant term; no float ever enters.  Two interchangeable
scalar implementations are supported:

* ``gmpy2.mpq`` -- GMP-backed rationals from a compiled extension,
* ``fractions.Fraction`` -- the pure-Python stdlib fallback.

The choice is made once, at import time: gmpy2 when it is installed,
the stdlib otherwise.  Setting ``LAMBDAEQ_BACKEND=fractions`` (or
``gmpy2``) in the environment forces a backend, for instance to time
one against the other.  Both types normalize eagerly, parse ``"3/4"``
strings, interoperate with plain ints, and agree that ``0**0 == 1``, so
everything downstream is written against ordinary arithmetic on
``rational`` values.
"""

import os

_requested = os.environ.get("LAMBDAEQ_BACKEND", "").strip().lower()

if _requested in ("", "gmpy2"):
    try:
        from gmpy2 import mpq as rational

        BACKEND = "gmpy2"
    except ImportError:
        if _requested == "gmpy2":
            raise
        from fractions import Fraction as rational

        BACKEND = "fractions"
elif _requested in ("fractions", "fraction", "pure"):
    from fractions import Fraction as rational

    BACKEND = "fractions"
else:
    raise ImportError(
        "LAMBDAEQ_BACKEND must be 'gmpy2' or 'fractions', got %r" % _requested
    )

