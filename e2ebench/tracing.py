"""Spans around the calls into each magspec layer, installed from outside.

`install()` replaces public functions of magspec by timing wrappers in the
namespaces their callers look them up in at run time (`harness.assemble`,
`analytic.bessel_zero`, `bounds.check_yang`, ...). No file under src/ is
edited. Each call records a span: name, start, end, parent span, the command
it belongs to, and a count read off the returned object.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time

# span name -> (self-time metric, summed-count metric, call-count metric,
#               the (module, attribute) pairs callers look it up as, or a
#               "module.prefix*" pattern over the module's __all__,
#               the count read off (result, args))
LAYERS = {
    "domain.build": ("domain.build_s", "domain.nodes", None,
                     [("harness", "build_domain")], lambda out, args: out.n),
    "operator.assemble": ("operator.assemble_s", "operator.nnz", None,
                          [("harness", "assemble")], lambda out, args: out.matrix.nnz),
    "eigensolve.solve": ("eigensolve.solve_s", "eigensolve.pairs", "eigensolve.calls",
                         [("harness", "lowest_eigenpairs")], lambda out, args: len(out[1])),
    "analytic.spectrum": ("analytic.spectrum_s", "analytic.eigenvalues", None,
                          [("analytic", "box_spectrum"), ("analytic", "disk_spectrum")],
                          lambda out, args: len(out)),
    "specfun.bessel_zero": ("specfun.bessel_zero_s", None, "specfun.bessel_zero_calls",
                            [("analytic", "bessel_zero"), ("eigfn", "bessel_zero"),
                             ("specfun", "bessel_zero")], None),
    "specfun.constants": ("specfun.constants_s", None, "specfun.constants_calls",
                          [("harness", "constants_table"), ("bounds", "constants_table"),
                           ("eigfn", "constants_table")], None),
    "bounds.check": ("bounds.check_s", "bounds.checks", None, "bounds.check_*",
                     lambda out, args: len(out) if isinstance(out, list) else 1),
    "eigfn.analysis": ("eigfn.analysis_s", None, "eigfn.calls", "eigfn.*", None),
    "harness.run": ("harness.self_s", None, None,
                    [("harness", "run_scenario"), ("harness", "convergence_study")], None),
    "harness.write": ("harness.write_s", "harness.report_bytes", None,
                      [("harness", "write_report"), ("harness", "write_spectrum_csv")],
                      lambda out, args: os.path.getsize(args[1])),
}


class Tracer:
    """In-memory span recorder; spans are lists [name, start, end, parent,
    command, count] with parent -1 for a command's root span."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._command = ""

    def wrap(self, fn, name: str, count=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._command, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(out, args)
            return out

        return traced

    @contextlib.contextmanager
    def command(self, name: str):
        """Root span of one magspec command."""
        self._command = name
        span = [f"command:{name}", time.perf_counter(), 0.0, -1, name, 0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._open.pop()

    def summary(self) -> dict:
        """Per-layer self times (span time minus child spans) and counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {metric: 0 for layer in LAYERS.values() for metric in layer[:3] if metric}
        for i, (name, start, end, parent, _, count) in enumerate(self.spans):
            if name not in LAYERS:
                continue
            time_metric, count_metric, calls_metric = LAYERS[name][:3]
            out[time_metric] += end - start - child[i]
            if count_metric:
                out[count_metric] += count
            if calls_metric and (parent < 0 or self.spans[parent][0] != name):
                out[calls_metric] += 1
        return out

    def records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "command", "count")
        return [dict(zip(keys, span)) for span in self.spans]


def _targets(where):
    """(module, attribute) pairs named by a boundary entry."""
    if isinstance(where, list):
        return where
    module, pattern = where.split(".")
    mod = importlib.import_module(f"magspec.{module}")
    prefix = pattern.rstrip("*")
    return [(module, attr) for attr in getattr(mod, "__all__", dir(mod))
            if attr.startswith(prefix) and inspect.isfunction(getattr(mod, attr, None))]


def install() -> Tracer:
    """Wrap every layer boundary of the imported magspec package."""
    tracer = Tracer()
    for name, (*_, where, count) in LAYERS.items():
        for module, attr in _targets(where):
            mod = importlib.import_module(f"magspec.{module}")
            fn = getattr(mod, attr, None)
            if fn is None:
                print(f"trace: magspec.{module}.{attr} not found; {name} is not traced",
                      file=sys.stderr)
                continue
            setattr(mod, attr, tracer.wrap(fn, name, count))
    return tracer
