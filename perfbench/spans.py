"""Spans around lambdaeq's public calls, installed at run time from outside the package.

``Tracer.install`` replaces each function in ``LAYERS`` by a wrapper that
records one span per call: layer, start, end, parent span and operation
id.  A module-level function is rebound under every name that refers to
it in every loaded ``lambdaeq`` module (so ``lambdaeq.modeq.b_series``,
``lambdaeq.qseries.b_series`` and the package re-export are all traced);
a method is rebound under every name of its class that refers to it
(``Series.__mul__`` and ``Series.__rmul__``).  A layer whose module,
class or function no longer exists is reported as absent, never as an
error, so the benchmark keeps running after the package is refactored.

Spans stay in memory and are written once, by ``Tracer.dump``.  Only one
thread may run traced code: the parent of a span is the span that was
open when it started.
"""

import functools
import inspect
import json
import sys
import time

# (layer name, module, attribute); "Class.method" names a method.
LAYERS = (
    ("cli.main", "lambdaeq.cli", "main"),
    ("cli.cache.load", "lambdaeq.cli", "_load_cached_matrix"),
    ("cli.cache.store", "lambdaeq.cli", "_store_cached_matrix"),
    ("arith.alpha", "lambdaeq.arith", "AlphaContext.alpha"),
    ("bpoly.b_series", "lambdaeq.bpoly", "b_series"),
    ("exact.Matrix.solve", "lambdaeq.exact", "Matrix.solve"),
    ("exact.Matrix.det", "lambdaeq.exact", "Matrix.det"),
    ("exact.Matrix.mul_vec", "lambdaeq.exact", "Matrix.mul_vec"),
    ("modeq.assemble", "lambdaeq.modeq", "assemble"),
    ("modeq.block", "lambdaeq.modeq", "block"),
    ("modeq.solve_row", "lambdaeq.modeq", "solve_row"),
    ("modeq.row1_stats", "lambdaeq.modeq", "row1_stats"),
    ("modeq.verify_symmetry", "lambdaeq.modeq", "verify_symmetry"),
    ("modeq.verify_row_moments", "lambdaeq.modeq", "verify_row_moments"),
    ("modeq.verify_block_determinants", "lambdaeq.modeq", "verify_block_determinants"),
    ("modeq.verify_global_vanish", "lambdaeq.modeq", "verify_global_vanish"),
    ("modeq.to_doc", "lambdaeq.modeq", "to_doc"),
    ("modeq.from_doc", "lambdaeq.modeq", "from_doc"),
    ("qseries.Series.mul", "lambdaeq.qseries", "Series.__mul__"),
    ("qseries.lambda_series", "lambdaeq.qseries", "lambda_series"),
    ("ode.ode_residual", "lambdaeq.ode", "ode_residual"),
)
ROOT_LAYER = "cli.main"

# Metrics that repeat exactly for a given workload: per-cycle counts and
# ratios of counts.  Everything else in ``PER_LAYER`` is a time.
COUNT_METRICS = tuple(
    ["%s.calls" % name for name, _, _ in LAYERS]
    + [
        "bpoly.b_series.coeffs",
        "bpoly.b_series.max_bits",
        "bpoly.b_series.distinct_ratio",
        "exact.Matrix.solve.max_dim",
        "cli.cache.hit_ratio",
    ]
)

# Every per-layer metric with its unit, in report order.  Times and
# counts are per cycle of the workload (see run.py).
PER_LAYER = tuple(
    [(f"{name}.{kind}", unit) for name, _, _ in LAYERS
     for kind, unit in (("s", "s"), ("total_s", "s"), ("calls", "count"))]
    + [
        ("bpoly.b_series.coeffs", "count"),
        ("bpoly.b_series.max_bits", "bits"),
        ("bpoly.b_series.distinct_ratio", "ratio"),
        ("exact.Matrix.solve.max_dim", "count"),
        ("cli.cache.hit_ratio", "ratio"),
        ("trace.coverage", "ratio"),
        ("trace.ops_per_s_untraced", "1/s"),
        ("trace.ops_per_s_traced", "1/s"),
        ("trace.overhead_share", "ratio"),
    ]
)


def lambdaeq_modules():
    """Every loaded module of the lambdaeq package."""
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "lambdaeq" or name.startswith("lambdaeq."))
    ]


class Tracer:
    """Span recorder plus the counters that the layer hooks fill."""

    def __init__(self):
        self.names = [name for name, _, _ in LAYERS]
        self.spans = []       # (layer index, start, end, parent span, op id)
        self.stack = []
        self.op = -1
        self.absent = []
        self.hook_errors = {}
        self.coeffs = 0
        self.max_bits = 0
        self.distinct = 0
        self._op_prefixes = {}    # (p, u, v) -> longest prefix in this op
        self.max_dim = 0
        self.cache_loads = 0
        self.cache_hits = 0

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every layer that exists; record the others as absent."""
        modules = lambdaeq_modules()
        hooks = {
            "bpoly.b_series": self._b_series_hook,
            "exact.Matrix.solve": self._solve_hook,
            "cli.cache.load": self._cache_load_hook,
        }
        for index, (name, module_name, attr) in enumerate(LAYERS):
            owner_name, _, func_name = attr.rpartition(".")
            module = sys.modules.get(module_name)
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(func_name) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(index, original, hooks.get(name))
            targets = [owner] if owner_name else modules
            for target in targets:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)

    def _wrap(self, index, func, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        if hook is not None:
            try:
                signature = inspect.signature(func)
            except (TypeError, ValueError):
                signature = None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (index, start, end, stack[-1] if stack else -1, self.op)
            if hook is not None:
                try:
                    hook(signature.bind(*args, **kwargs).arguments, result)
                except Exception as exc:  # a changed signature must not stop the run
                    key = "%s: %s" % (self.names[index], type(exc).__name__)
                    self.hook_errors[key] = self.hook_errors.get(key, 0) + 1
            return result

        return traced

    # -- hooks: counts taken where the work happens -------------------------

    def _b_series_hook(self, arguments, result):
        bc, _max_l, u, v = arguments.values()
        self.coeffs += len(result)
        bits = max(
            max(abs(c.numerator).bit_length(), c.denominator.bit_length()) for c in result
        )
        self.max_bits = max(self.max_bits, bits)
        key = (bc.alpha.p, u, v)
        self._op_prefixes[key] = max(self._op_prefixes.get(key, 0), len(result))

    def _solve_hook(self, arguments, result):
        self.max_dim = max(self.max_dim, next(iter(arguments.values())).rows)

    def _cache_load_hook(self, arguments, result):
        self.cache_loads += 1
        self.cache_hits += result is not None

    # -- operations ---------------------------------------------------------

    def begin_op(self, op_id):
        self.op = op_id

    def end_op(self):
        """Close the operation: distinct b-coefficients are counted per CLI call."""
        self.distinct += sum(self._op_prefixes.values())
        self._op_prefixes.clear()

    # -- report -------------------------------------------------------------

    def metrics(self, cycles, ops_per_s_untraced, ops_per_s_traced, time_scale=1.0):
        """Per-layer metrics, per cycle of the traced phase; times scaled by time_scale."""
        count = len(self.names)
        total = [0.0] * count
        own = [0.0] * count
        calls = [0] * count
        child_time = [0.0] * len(self.spans)
        for index, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        root = self.names.index(ROOT_LAYER)
        root_time = covered = 0.0
        for sid, (index, start, end, parent, _op) in enumerate(self.spans):
            duration = end - start
            total[index] += duration
            own[index] += duration - child_time[sid]
            calls[index] += 1
            if index == root:
                root_time += duration
                covered += child_time[sid]

        def per_cycle(value):
            if isinstance(value, int) and value % cycles == 0:
                return value // cycles
            return value / cycles

        out = {}
        for index, name in enumerate(self.names):
            out[name + ".s"] = own[index] * time_scale / cycles
            out[name + ".total_s"] = total[index] * time_scale / cycles
            out[name + ".calls"] = per_cycle(calls[index])
        out["bpoly.b_series.coeffs"] = per_cycle(self.coeffs)
        out["bpoly.b_series.max_bits"] = self.max_bits
        out["bpoly.b_series.distinct_ratio"] = (
            self.distinct / self.coeffs if self.coeffs else 0.0
        )
        out["exact.Matrix.solve.max_dim"] = self.max_dim
        out["cli.cache.hit_ratio"] = (
            self.cache_hits / self.cache_loads if self.cache_loads else 0.0
        )
        out["trace.coverage"] = covered / root_time if root_time else 0.0
        out["trace.ops_per_s_untraced"] = ops_per_s_untraced
        out["trace.ops_per_s_traced"] = ops_per_s_traced
        out["trace.overhead_share"] = 1.0 - ops_per_s_traced / ops_per_s_untraced
        return out

    def dump(self, path, meta):
        """Write every span, the absent layers and any hook failures."""
        doc = dict(meta)
        doc.update(
            {
                "layers": self.names,
                "absent": self.absent,
                "hook_errors": self.hook_errors,
                "span_fields": ["layer", "start", "end", "parent", "op"],
                "spans": self.spans,
            }
        )
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
