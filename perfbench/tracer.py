"""Layer-boundary tracer for lobwave, kept entirely in the benchmark.

Each traced public function is wrapped once, and every reference to the
original function object in every ``lobwave.*`` module namespace is
replaced by the wrapper, so calls that cross modules (``modes`` calling
``specfun.basis_G1``, ``specfun`` calling ``numerics.quad_adaptive``) are
caught as well as calls made by the benchmark.  Every call records a
span: name, op, parent span, start and end.  A function's self time is
its span minus the time its child spans cover.

Two counters ride on the spans: integrand evaluations, by wrapping the
``f`` handed to ``quad_adaptive``, and RK steps, read from the
``IntegrationResult`` that ``integrate_linear_ode2`` returns.  A traced
name that no longer exists is reported as absent, never as an error.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (module, function) pairs traced at the layer boundaries.
TRACED = (
    ("cli", "main"),
    ("modes", "eval_G"),
    ("modes", "amplitudes_at"),
    ("modes", "maxwell_residual_firstorder"),
    ("modes", "heun_form_residual"),
    ("scattering", "reflection"),
    ("scattering", "amplitudes_analytic"),
    ("scattering", "envelope_crossing"),
    ("scattering", "reflection_numeric_oracle"),
    ("specfun", "basis_G1"),
    ("specfun", "recurrence_shift"),
    ("specfun", "wronskian_IK"),
    ("specfun", "log_gamma"),
    ("numerics", "quad_adaptive"),
    ("numerics", "integrate_linear_ode2"),
    ("numerics", "lsq_fit_two_waves"),
    ("geometry", "to_embedding"),
    ("geometry", "embedding_to_poincare"),
    ("geometry", "poincare_to_quasi"),
)

PACKAGE = "lobwave"
QUAD = "numerics.quad_adaptive"
ODE = "numerics.integrate_linear_ode2"

# span record fields
NAME, OP, PARENT, START, END = range(5)


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.op = -1
        self._stack = [-1]
        self._quad_depth = 0
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def __enter__(self):
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            try:
                home = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(home, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        self._restore.append((ns, key, original))
        return self

    def __exit__(self, *exc):
        for ns, key, original in reversed(self._restore):
            setattr(ns, key, original)
        self._restore.clear()
        return False

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, self.op, stack[-1], clock(), 0.0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()

        if name == QUAD:
            def traced_quad(f, *args, **kwargs):
                # count at the outermost level only: an infinite interval
                # recurses into quad_adaptive with a mapped integrand
                if self._quad_depth:
                    return traced(f, *args, **kwargs)

                def counted(t):
                    counters["integrand_evals"] += 1
                    return f(t)

                self._quad_depth += 1
                try:
                    return traced(counted, *args, **kwargs)
                finally:
                    self._quad_depth -= 1

            return functools.wraps(fn)(traced_quad)

        if name == ODE:
            def traced_ode(*args, **kwargs):
                result = traced(*args, **kwargs)
                counters["rk_steps_accepted"] += result.n_accepted
                counters["rk_steps_rejected"] += result.n_rejected
                return result

            return functools.wraps(fn)(traced_ode)

        return functools.wraps(fn)(traced)

    # -- summaries --------------------------------------------------------

    def totals(self):
        """{name: (calls, self_s)} over all recorded spans."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, span in enumerate(self.spans):
            calls[span[NAME]] += 1
            self_s[span[NAME]] += span[END] - span[START] - child[i]
        return {name: (calls[name], self_s[name]) for name in calls}

    def write_spans(self, path):
        """Write every span as CSV: id, parent, op, name, start_s, end_s."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[PARENT]},{s[OP]},{s[NAME]},"
                         f"{s[START] - t0:.9f},{s[END] - t0:.9f}\n")
