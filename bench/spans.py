"""Span tracing from outside the program, and the per-layer metrics derived from it.

`Tracer.install()` replaces layer functions in the module namespaces where
their callers look them up (for example `ballgrad.constants.composite_nodes`)
with wrappers that record a span: name, start, end, parent span and
operation id. Spans live in flat arrays until the run ends; `write()` dumps
them as tab-separated text and `layer_metrics()` derives the per-layer
metrics. Nothing inside `src/` is changed.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

import numpy as np

from workloads import IDENTITY_CHECKS

# (module whose namespace is patched, attribute, span name)
WRAP_POINTS = [
    ("ballgrad.cli", "gauss_legendre", "quadrature.gauss_legendre"),
    ("ballgrad.constants", "gauss_legendre", "quadrature.gauss_legendre"),
    ("ballgrad.identities", "gauss_legendre", "quadrature.gauss_legendre"),
    ("ballgrad.constants", "composite_nodes", "quadrature.composite_nodes"),
    ("ballgrad.quadrature", "composite_nodes", "quadrature.composite_nodes"),
    ("ballgrad.identities", "integrate", "quadrature.integrate"),
    ("ballgrad.identities", "integrate_split", "quadrature.integrate"),
    ("ballgrad.constants", "series_cutoff", "gegenbauer.series_cutoff"),
    ("ballgrad.identities", "eval_recurrence", "gegenbauer.scalar"),
    ("ballgrad.identities", "legendre", "gegenbauer.scalar"),
    ("ballgrad.identities", "assoc_legendre", "gegenbauer.scalar"),
    ("ballgrad.identities", "pochhammer", "gegenbauer.scalar"),
    ("ballgrad.cli", "certify_convexity", "constants.certify_convexity"),
    ("ballgrad.cli", "certify_radial_max", "constants.certify_radial_max"),
    ("ballgrad.cli", "constant_direct", "constants.constant_direct"),
    ("ballgrad.cli", "constant_series", "constants.constant_series"),
    ("ballgrad.constants", "profile_curvature_kernel", "constants.profile_curvature_kernel"),
    ("ballgrad.constants", "profile_curvature_series", "constants.profile_curvature_series"),
    ("ballgrad.constants", "profile_parts", "constants.profile_parts"),
    ("ballgrad.constants", "constant_radial", "constants.constant_radial"),
    ("ballgrad.cli", "run_suite", "identities.run_suite"),
]

# span name -> function of the wrapped call's result giving the span's value
SPAN_VALUES = {
    "quadrature.composite_nodes": lambda result: len(result[0]),   # nodes returned
    "gegenbauer.series_cutoff": int,                                # series terms K
}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith("_s"):
        return "s"
    return "MB" if metric.endswith("_mb") else "count"


class Tracer:
    """In-memory span recorder. One per traced run; not thread-safe."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.value = array("d")
        self._stack = []
        self._patched = []
        self.op_id = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.value.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
        value = SPAN_VALUES.get(name)
        if value is not None:
            self.value[idx] = value(result)
        return result

    def _wrapper(self, fn, name):
        if name == "identities.run_suite":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                checks = kwargs.get("checks")
                label = f"identities.{next(iter(checks))}" if checks and len(checks) == 1 \
                    else name
                return self.span(label, fn, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        return wrapper

    def install(self):
        """Patch every wrap point; one wrapper per (function, span name)."""
        made = {}
        for module_name, attr, name in WRAP_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            key = (id(fn), name)
            if key not in made:
                made[key] = self._wrapper(fn, name)
            self._patched.append((module, attr, fn))
            setattr(module, attr, made[key])

    def uninstall(self):
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def clear(self):
        for arr in (self.name, self.start, self.end, self.parent, self.op, self.value):
            del arr[:]

    def write(self, path):
        """Write every span as one tab-separated line."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart\tend\tparent\top\tvalue\n")
            fh.writelines(
                f"{i}\t{names[nid]}\t{s!r}\t{e!r}\t{p}\t{o}\t{v:g}\n"
                for i, (nid, s, e, p, o, v) in enumerate(zip(
                    self.name, self.start, self.end, self.parent, self.op, self.value)))

    def layer_metrics(self, passes: int, cold_rule_s: float) -> dict:
        """Per-layer metrics per pass of the workload (cold_s and matrix_mb: per run)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        value = np.frombuffer(self.value)
        has_parent = parent >= 0
        child_time = np.zeros_like(dur)
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        self_time = dur - child_time

        def mask(span_name):
            nid = self._ids.get(span_name)
            return np.zeros(len(name), bool) if nid is None else name == nid

        def calls(span_name):
            return int(mask(span_name).sum()) / passes

        def busy(span_name):
            return float(dur[mask(span_name)].sum()) / passes

        def self_s(span_name):
            return float(self_time[mask(span_name)].sum()) / passes

        def total(span_name):
            return float(value[mask(span_name)].sum()) / passes

        # largest outer x inner float64 array of constant_direct: the two largest
        # node counts requested directly under one constant_direct span
        under = mask("quadrature.composite_nodes") & has_parent
        under[under] = mask("constants.constant_direct")[parent[under]]
        counts = {}
        for i in np.nonzero(under)[0]:
            counts.setdefault(parent[i], []).append(value[i])
        matrix_mb = max((float(np.prod(sorted(c)[-2:])) * 8 / 1e6
                         for c in counts.values() if len(c) >= 2), default=0.0)

        out = {
            "quadrature.gauss_legendre.cold_s": cold_rule_s,
            "quadrature.composite_nodes.calls": calls("quadrature.composite_nodes"),
            "quadrature.composite_nodes.busy_s": busy("quadrature.composite_nodes"),
            "quadrature.nodes": total("quadrature.composite_nodes"),
            "quadrature.integrate.calls": calls("quadrature.integrate"),
            "quadrature.integrate.busy_s": busy("quadrature.integrate"),
            "gegenbauer.series_cutoff.calls": calls("gegenbauer.series_cutoff"),
            "gegenbauer.series_cutoff.busy_s": busy("gegenbauer.series_cutoff"),
            "gegenbauer.series_terms": total("gegenbauer.series_cutoff"),
            "gegenbauer.scalar.calls": calls("gegenbauer.scalar"),
            "gegenbauer.scalar.busy_s": busy("gegenbauer.scalar"),
            "constants.profile_curvature_kernel.calls": calls("constants.profile_curvature_kernel"),
            "constants.profile_curvature_kernel.busy_s": busy("constants.profile_curvature_kernel"),
            "constants.certify_convexity.self_s": self_s("constants.certify_convexity"),
            "constants.profile_curvature_series.busy_s": busy("constants.profile_curvature_series"),
            "constants.profile_parts.calls": calls("constants.profile_parts"),
            "constants.profile_parts.busy_s": busy("constants.profile_parts"),
            "constants.certify_radial_max.self_s": self_s("constants.certify_radial_max"),
            "constants.constant_radial.busy_s": busy("constants.constant_radial"),
            "constants.constant_direct.calls": calls("constants.constant_direct"),
            "constants.constant_direct.busy_s": busy("constants.constant_direct"),
            "constants.constant_direct.matrix_mb": matrix_mb,
            "constants.constant_series.busy_s": busy("constants.constant_series"),
            **{f"identities.{c}.busy_s": busy(f"identities.{c}") for c in IDENTITY_CHECKS},
            "cli.main.calls": calls("cli.main"),
            "cli.main.self_s": self_s("cli.main"),
        }
        return {k: {"value": v, "unit": unit(k)} for k, v in out.items()}

