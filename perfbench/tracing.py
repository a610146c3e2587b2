"""Per-layer spans recorded from outside the package.

Each layer is one ``holodiff`` module.  `Tracer.install` replaces every
public function of a layer with a timing wrapper, at every name a caller
can look it up by: the defining module, and every other ``holodiff``
module that bound it with ``from .x import f`` (``cli`` binds
``sym_square`` and ``pair_vector`` that way, ``theta`` binds
``sample_points``).  ``report`` exposes its work through two classes, so
their public methods count as its functions.  Nothing under ``src/`` is
edited; `Tracer.uninstall` puts the original objects back.

Spans stay in memory as (request, parent, name, start, end, raised)
and are reduced to the per-layer table only after the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

LAYERS = ("curves", "bases", "pairindex", "linalg", "petri", "siegel",
          "jacobian", "theta", "report", "cli")

# Single functions whose cost an expected optimisation should move; see
# README.md for the end-to-end metric and workload each one maps to.
FUNCTION_METRICS = (
    ("theta.theta.ms_per_call", "ms"),
    ("theta.theta.calls", "count"),
    ("theta.fay_residual.self_ms", "ms"),
    ("jacobian.compute_periods.ms", "ms"),
    ("jacobian.abel_map.calls", "count"),
    ("jacobian.abel_map.ms_per_call", "ms"),
    ("linalg.signed_minor.calls", "count"),
    ("linalg.signed_minor.ms", "ms"),
    ("curves.sample_points.ms", "ms"),
)

PER_LAYER_METRICS = tuple(
    (f"{layer}.{kind}", unit)
    for layer in LAYERS
    for kind, unit in (("self_ms", "ms"), ("calls", "count"), ("raised", "count"))
) + FUNCTION_METRICS + (("trace_overhead_share", "ratio"),)


def _public_functions(module):
    """(owner, attribute, label, function) for each public function of a layer."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append((module, name, name, obj))
        elif (module.__name__ == "holodiff.report" and inspect.isclass(obj)
              and obj.__module__ == module.__name__):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    out.append((obj, meth, f"{name}.{meth}", fn))
    return out


class Tracer:
    """Span recorder for one benchmark run."""

    def __init__(self):
        self.spans = []
        self.request = -1
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (self.request, parent, name, t0, t1, raised)

        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"holodiff.{layer}"]
            for owner, attr, label, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{label}", fn))
                self._patches.append((owner, attr, fn))
        # Rebind names that other modules imported directly.
        for modname, module in list(sys.modules.items()):
            if modname.startswith("holodiff."):
                for attr, obj in vars(module).items():
                    if id(obj) in wrappers and (module, attr, obj) not in self._patches:
                        self._patches.append((module, attr, obj))
        for owner, attr, fn in self._patches:
            setattr(owner, attr, wrappers[id(fn)][1])

    def uninstall(self):
        for owner, attr, fn in self._patches:
            setattr(owner, attr, fn)
        self._patches = []

    def table(self, n_requests):
        """Per-function and per-layer totals, each divided by n_requests.

        A span's self time is its duration minus the time of its child
        spans.  The inclusive time of a function counts only spans with
        no enclosing span of the same function, so recursion through
        the wrapper is not counted twice.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[1] >= 0:
                child[s[1]] += s[4] - s[3]
        funcs = {}
        for idx, (_, parent, name, t0, t1, raised) in enumerate(spans):
            rec = funcs.setdefault(name, [0, 0.0, 0.0, 0])  # calls, incl, self, raised
            dur = t1 - t0
            rec[0] += 1
            rec[2] += dur - child[idx]
            rec[3] += raised
            p = parent
            while p >= 0 and spans[p][2] != name:
                p = spans[p][1]
            if p < 0:
                rec[1] += dur
        n = max(n_requests, 1)
        per_func = {
            name: {"calls": c / n, "ms": 1e3 * incl / n, "self_ms": 1e3 * slf / n,
                   "raised": r / n, "ms_per_call": 1e3 * incl / c if c else 0.0}
            for name, (c, incl, slf, r) in funcs.items()
        }
        per_layer = {layer: {"calls": 0.0, "self_ms": 0.0, "raised": 0.0} for layer in LAYERS}
        for name, rec in per_func.items():
            acc = per_layer[name.split(".", 1)[0]]
            for key in acc:
                acc[key] += rec[key]
        return per_func, per_layer


def layer_metrics(per_func, per_layer):
    """Every per-layer metric except trace_overhead_share, by name."""
    out = {}
    for layer, acc in per_layer.items():
        for kind in ("self_ms", "calls", "raised"):
            out[f"{layer}.{kind}"] = acc[kind]
    for name, _ in FUNCTION_METRICS:
        func, kind = name.rsplit(".", 1)
        out[name] = per_func.get(func, {}).get(kind, 0.0)
    return out
