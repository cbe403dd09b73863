"""Outside-in layer tracing for the besselint benchmark.

The tracer times each layer without editing the program.  It rebinds the
public functions of every layer wherever the package holds a reference to
them: module globals such as ``catalog._kelvin.kelvin_ber_vec``,
``quad.integrate_finite`` (which the semi-infinite engines look up by
module name), the ``series`` functions the catalog reaches through
``se.<name>``, and each ``IdentityRecord.lhs`` / ``rhs``.  Every call
becomes one span (name, start, end, parent, operation id) kept in memory;
:meth:`Tracer.restore` puts every original binding back.

A span's parent is the innermost open span on the same thread.  A span
opened on a worker thread of ``run_all(jobs>1)`` with nothing open on its
own thread takes the innermost open span of the installing thread, i.e.
the ``run_all`` call that handed it the point.  Self time is a span's duration
minus the union of its children's intervals, so children running on two
threads at once are not subtracted twice.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

LAYER_MODULES = (
    "besselint",
    "besselint.specfun",
    "besselint.quad",
    "besselint.series",
    "besselint.catalog",
    "besselint.catalog._records",
    "besselint.catalog._kelvin",
    "besselint.catalog._products",
    "besselint.catalog._weber",
    "besselint.cli",
)

VEC_KERNELS = {  # name -> position of the array argument
    "kelvin_ber_vec": 1,
    "kelvin_bei_vec": 1,
    "hyp0f3_vec": 3,
    "hyp0f1_vec": 1,
}
SCALAR_KERNELS = ("bessel_j", "bessel_y", "bessel_i", "bessel_i_scaled",
                  "bessel_k", "bessel_k_scaled", "kelvin_ber", "kelvin_bei",
                  "hyp0f1", "hyp0f3", "hyp2f1")
QUAD_ENGINES = ("integrate_finite", "integrate_semiinf_decaying",
                "integrate_semiinf_oscillatory")
SERIES_FUNCTIONS = ("weber_triple", "weber_triple_m", "weber_j0jm_limit",
                    "product_jj_gauss", "product_jj_neumann", "hyp0f1_product",
                    "derivative_m")
DRIVERS = ("run_all", "verify", "verify_grid")
SIDE_ROUTES = {
    "closed-form": "closed_form",
    "series": "series",
    "quadrature:finite": "quad_finite",
    "quadrature:decaying": "quad_decaying",
    "quadrature:oscillatory": "quad_oscillatory",
}


class Span:
    __slots__ = ("name", "kind", "start", "end", "parent", "op", "thread",
                 "count", "converged", "in_quad", "outer_quad", "side", "nodes")

    def __init__(self, name, kind, start, parent, op, thread):
        self.name = name
        self.kind = kind
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.thread = thread
        self.count = 0          # array elements, terms or nodes
        self.converged = True
        self.in_quad = kind == "quad" or (parent is not None and parent.in_quad)
        self.outer_quad = kind == "quad" and not (parent is not None and parent.in_quad)
        self.side = self if kind == "side" else (parent.side if parent is not None else None)
        self.nodes = 0          # side spans: nodes of the outermost quad calls inside


class Tracer:
    """Install with :meth:`install`, run one pass, then :meth:`restore`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._root_stack: list[Span] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._records: list[tuple[object, str, object]] = []
        self._op_ids = itertools.count(1)   # next() is atomic across threads

    # -- span stack ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, kind: str, op: str | None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else None
        if op is None:
            op = parent.op if parent is not None else f"op{next(self._op_ids)}"
        span = Span(name, kind, 0, parent, op, threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack().pop()
        if span.outer_quad and span.side is not None:
            span.side.nodes += span.count

    def _wrap(self, fn, name: str, kind: str, array_arg: int | None = None,
              op_of=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name, kind, op_of(args) if op_of else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.converged = False
                tracer._close(span)
                raise
            if array_arg is not None:
                span.count = int(np.size(args[array_arg]))
            elif hasattr(result, "terms_or_nodes_used"):
                span.count = int(result.terms_or_nodes_used)
                span.converged = bool(result.converged)
            tracer._close(span)
            return result

        return traced

    # -- installation --------------------------------------------------

    def _rebind(self, home: str, attr: str, name: str, kind: str, **kw) -> None:
        original = getattr(importlib.import_module(home), attr)
        wrapper = self._wrap(original, name, kind, **kw)
        for modname in LAYER_MODULES:
            module = importlib.import_module(modname)
            for key, value in list(vars(module).items()):
                if value is original:
                    self._bindings.append((module, key, original))
                    setattr(module, key, wrapper)

    def install(self) -> None:
        from besselint import catalog

        self._root_stack = self._stack()
        for fn, pos in VEC_KERNELS.items():
            self._rebind("besselint.specfun", fn, f"specfun.{fn}", "vec", array_arg=pos)
        for fn in SCALAR_KERNELS:
            self._rebind("besselint.specfun", fn, f"specfun.{fn}", "scalar")
        for fn in QUAD_ENGINES:
            self._rebind("besselint.quad", fn, f"quad.{fn}", "quad")
        for fn in SERIES_FUNCTIONS:
            self._rebind("besselint.series", fn, f"series.{fn}", "series")
        for fn in DRIVERS:
            self._rebind("besselint.catalog", fn, "catalog.driver", "driver")
        self._rebind("besselint.cli", "main", "cli.main", "cli")
        for record in catalog.list_identities():
            for side, route in (("lhs", record.lhs_route), ("rhs", record.rhs_route)):
                original = getattr(record, side)
                ident = record.id
                wrapper = self._wrap(
                    original, f"catalog.side.{SIDE_ROUTES[route]}", "side",
                    op_of=lambda args, ident=ident: f"{ident} {sorted(args[0].items())}")
                self._records.append((record, side, original))
                object.__setattr__(record, side, wrapper)

    def restore(self) -> None:
        for module, key, original in reversed(self._bindings):
            setattr(module, key, original)
        for record, side, original in reversed(self._records):
            object.__setattr__(record, side, original)
        self._bindings.clear()
        self._records.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis ------------------------------------------------------

    def self_times_ns(self) -> dict[int, int]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[id(s.parent)].append(s)
        out = {}
        for s in self.spans:
            covered = 0
            cursor = s.start
            for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out[id(s)] = (s.end - s.start) - covered
        return out

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start_ns": s.start, "end_ns": s.end,
                    "parent": index.get(id(s.parent)) if s.parent is not None else None,
                    "op": s.op, "thread": s.thread, "count": s.count,
                    "converged": s.converged}) + "\n")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, named ``<module>.<function>.<stat>``."""
    self_ns = tracer.self_times_ns()
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    count = defaultdict(int)
    not_conv = defaultdict(int)
    for s in tracer.spans:
        key = "specfun.scalar" if s.kind == "scalar" else s.name
        calls[key] += 1
        self_s[key] += self_ns[id(s)] * 1e-9
        total_s[key] += (s.end - s.start) * 1e-9
        not_conv[key] += not s.converged
        if s.kind == "side":
            count[key] += s.nodes
        elif s.kind != "quad" or s.outer_quad:
            count[key] += s.count

    out = {}
    for fn in VEC_KERNELS:
        key = f"specfun.{fn}"
        out[f"{key}.calls"] = _metric(calls[key], "count")
        out[f"{key}.self_s"] = _metric(self_s[key], "s")
        out[f"{key}.points"] = _metric(count[key], "count")
    for stat, table, unit in (("calls", calls, "count"), ("self_s", self_s, "s"),
                              ("terms", count, "count"), ("not_converged", not_conv, "count")):
        out[f"specfun.scalar.{stat}"] = _metric(table["specfun.scalar"], unit)
    quad_calls = quad_ok = 0
    for fn in QUAD_ENGINES:
        key = f"quad.{fn}"
        out[f"{key}.calls"] = _metric(calls[key], "count")
        out[f"{key}.self_s"] = _metric(self_s[key], "s")
        out[f"{key}.nodes"] = _metric(count[key], "count")
        out[f"{key}.not_converged"] = _metric(not_conv[key], "count")
        quad_calls += calls[key]
        quad_ok += calls[key] - not_conv[key]
    # no quadrature call means no wasted quadrature work
    out["quad.converged_share"] = _metric(quad_ok / quad_calls if quad_calls else 1.0, "ratio")
    for fn in SERIES_FUNCTIONS:
        key = f"series.{fn}"
        out[f"{key}.calls"] = _metric(calls[key], "count")
        out[f"{key}.self_s"] = _metric(self_s[key], "s")
        out[f"{key}.terms"] = _metric(count[key], "count")
        out[f"{key}.not_converged"] = _metric(not_conv[key], "count")
    for route in SIDE_ROUTES.values():
        key = f"catalog.side.{route}"
        out[f"{key}.calls"] = _metric(calls[key], "count")
        out[f"{key}.total_s"] = _metric(total_s[key], "s")
        out[f"{key}.nodes"] = _metric(count[key], "count")
    out["catalog.driver.self_s"] = _metric(self_s["catalog.driver"], "s")
    out["cli.main.self_s"] = _metric(self_s["cli.main"], "s")
    return out


LAYER_OF_KIND = {"vec": "specfun.vec", "scalar": "specfun.scalar", "quad": "quad",
                 "series": "series", "side": "catalog", "driver": "catalog", "cli": "cli"}


def layer_shares(tracer: Tracer) -> dict:
    """Share of the summed self time of a traced pass spent in each layer."""
    self_ns = tracer.self_times_ns()
    totals = {layer: 0 for layer in dict.fromkeys(LAYER_OF_KIND.values())}
    for s in tracer.spans:
        totals[LAYER_OF_KIND[s.kind]] += self_ns[id(s)]
    whole = sum(totals.values()) or 1
    return {layer: ns / whole for layer, ns in totals.items()}
