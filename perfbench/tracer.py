"""Span tracing for the benchmark's in-process traced pass.

The program itself is not instrumented.  Instead, ``install`` replaces the
public functions of the ``torusprop`` modules with timing wrappers, in every
``torusprop.*`` namespace that binds them (``propkern`` and ``specproj``
import by name), and ``Tracer.restore`` puts the originals back.

Spans are kept in memory as ``{name, start, end, parent, thread, op}``.  The
parent stack is thread-local, and tasks submitted to the harness thread pool
inherit the submitting span as their parent, so worker-thread spans nest
under ``harness.run``.  A span's self time is its duration minus the part of
it covered by its child spans (children on several threads may overlap).
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: str | None
    attrs: dict = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.op: str | None = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def traced(self, name: str, fn, attrs=None):
        """``fn`` wrapped to record one span per call.  ``attrs(args, kwargs,
        result)`` may add counters to the span; it runs after the clock stops.
        A call that raises records its error on the span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = time.perf_counter()
                stack.pop()
                tracer._record(sid, name, start, end, parent,
                               {"error": f"{type(exc).__name__}: {exc}"})
                raise
            end = time.perf_counter()
            stack.pop()
            tracer._record(sid, name, start, end, parent,
                           attrs(args, kwargs, result) if attrs else {})
            return result

        return wrapper

    def _record(self, sid, name, start, end, parent, attrs) -> None:
        self.spans.append(Span(sid, name, start, end, parent,
                               threading.get_ident(), self.op, attrs))

    def counted(self, name: str, fn):
        """``fn`` wrapped to count its calls under ``name`` (no span)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def pool_class(self):
        """A ThreadPoolExecutor whose tasks run as ``harness.pool.task``
        spans, parented by the span that submitted them."""
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._stack()[-1] if tracer._stack() else None
                task = tracer.traced("harness.pool.task", fn)

                def in_worker(*a, **kw):
                    stack = tracer._stack()
                    saved = stack[:]
                    stack[:] = [] if parent is None else [parent]
                    try:
                        return task(*a, **kw)
                    finally:
                        stack[:] = saved

                return super().submit(in_worker, *args, **kwargs)

        return TracedPool

    # -- patching ----------------------------------------------------------

    def patch(self, module, attr: str, replacement) -> None:
        """Rebind ``module.attr`` to ``replacement`` in every torusprop
        module namespace that binds the same object."""
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "torusprop" or name.startswith("torusprop.")):
                continue
            if mod.__dict__.get(attr) is original:
                setattr(mod, attr, replacement)
                self._undo.append(functools.partial(setattr, mod, attr, original))

    def wrap(self, module, attr: str, attrs=None) -> None:
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        self.patch(module, attr, self.traced(name, getattr(module, attr), attrs))

    def set_item(self, mapping: dict, key, value) -> None:
        self._undo.append(functools.partial(mapping.__setitem__, key, mapping[key]))
        mapping[key] = value

    def set_attr(self, obj, attr: str, value) -> None:
        self._undo.append(functools.partial(setattr, obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _phase_errs(samples) -> list:
    return [abs(s.phase_err) for s in samples if math.isfinite(s.phase_err)]


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the benchmark reports on."""
    from torusprop import acceptance, harness, propkern, specproj, symplin, thetaq, torusgeo

    tracer.wrap(thetaq, "basis_matrix",
                lambda a, kw, r: {"sections": r.mantissa.size})

    def toeplitz_attrs(a, kw, r):
        n, dim = a[0].quad_order, a[0].dim
        verify = kw.get("verify", a[3] if len(a) > 3 else False)
        points = n * n + (4 * n * n if verify else 0)
        # the complex128 section matrix at the largest quadrature grid
        return {"quad_points": points, "section_bytes": (2 * n if verify else n) ** 2 * dim * 16}

    tracer.wrap(thetaq, "toeplitz_build", toeplitz_attrs)
    for attr in ("quantum_space", "gram_matrix", "bergman_diag"):
        tracer.wrap(thetaq, attr)
    tracer.set_attr(thetaq.HermitianOperator, "__post_init__",
                    tracer.traced("thetaq.HermitianOperator",
                                  thetaq.HermitianOperator.__post_init__))

    tracer.wrap(torusgeo, "integrate_flow")
    tracer.wrap(torusgeo, "return_times", lambda a, kw, r: {"roots": len(r)})
    tracer.wrap(torusgeo, "rho_graph_half")
    tracer.wrap(torusgeo, "rho_level_half")
    make_symbol = torusgeo.make_symbol

    def counting_make_symbol(name, principal, *args, **kwargs):
        return make_symbol(name, tracer.counted("torusgeo.symbol_evals", principal),
                           *args, **kwargs)

    tracer.patch(torusgeo, "make_symbol", counting_make_symbol)

    tracer.wrap(symplin, "holomorphic_determinant")
    tracer.wrap(symplin, "branch_sqrt_path")

    tracer.wrap(propkern, "graph_compare",
                lambda a, kw, r: {"rows": len(r),
                                  "max_abs_phase_err": max(_phase_errs(r), default=0.0)})
    tracer.wrap(propkern, "operator_for")
    tracer.wrap(propkern, "kernel_eval")

    for attr in ("build_fourier_pair", "projector_kernel_exact",
                 "projector_kernel_asymptotic", "projector_kernel_timequad"):
        tracer.wrap(specproj, attr)

    tracer.wrap(harness, "run")
    tracer.patch(harness, "ThreadPoolExecutor", tracer.pool_class())
    for cid, runner in list(acceptance.REGISTRY.items()):
        tracer.set_item(acceptance.REGISTRY, cid, tracer.traced(f"acceptance.{cid}", runner))


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list) -> dict:
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            for s in spans}


SELF_TIMED = ("thetaq.basis_matrix", "thetaq.toeplitz_build", "thetaq.HermitianOperator",
              "thetaq.quantum_space", "thetaq.gram_matrix", "thetaq.bergman_diag",
              "torusgeo.integrate_flow", "torusgeo.return_times", "torusgeo.rho_graph_half",
              "torusgeo.rho_level_half", "symplin.branch_sqrt_path", "propkern.graph_compare",
              "propkern.operator_for", "propkern.kernel_eval", "specproj.build_fourier_pair",
              "specproj.projector_kernel_exact", "specproj.projector_kernel_asymptotic",
              "specproj.projector_kernel_timequad", "harness.run")
CALL_COUNTED = ("thetaq.basis_matrix", "thetaq.toeplitz_build", "torusgeo.integrate_flow",
                "torusgeo.return_times", "symplin.holomorphic_determinant",
                "specproj.projector_kernel_exact")


def layer_metrics(spans: list, counts: dict) -> dict:
    """Per-layer values (name -> (value, unit)) from one pass's spans."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def total(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def duration(name):
        return sum(s.end - s.start for s in by_name[name])

    out = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (sum(selfs[s.id] for s in by_name[name]), "s")
    for name in CALL_COUNTED:
        out[f"{name}.calls"] = (len(by_name[name]), "count")
    sections = total("thetaq.basis_matrix", "sections")
    out["thetaq.basis_matrix.sections"] = (sections, "count")
    out["thetaq.basis_matrix.ns_per_section"] = (
        1e9 * out["thetaq.basis_matrix.self_s"][0] / sections if sections else 0.0, "ns")
    out["thetaq.toeplitz_build.quad_points"] = (total("thetaq.toeplitz_build", "quad_points"), "count")
    out["thetaq.toeplitz_build.section_bytes"] = (
        max((s.attrs.get("section_bytes", 0) for s in by_name["thetaq.toeplitz_build"]), default=0),
        "bytes-computed")
    out["torusgeo.integrate_flow.errors"] = (
        sum(1 for s in by_name["torusgeo.integrate_flow"] if "error" in s.attrs), "count")
    out["torusgeo.symbol_evals"] = (counts.get("torusgeo.symbol_evals", 0), "count")
    out["torusgeo.return_times.roots"] = (total("torusgeo.return_times", "roots"), "count")
    out["propkern.graph_compare.rows"] = (total("propkern.graph_compare", "rows"), "count")
    out["propkern.graph_compare.max_abs_phase_err"] = (
        max((s.attrs.get("max_abs_phase_err", 0.0) for s in by_name["propkern.graph_compare"]),
            default=0.0), "rad")
    run_s = duration("harness.run")
    out["harness.pool.busy_ratio"] = (duration("harness.pool.task") / run_s if run_s else 0.0,
                                      "ratio")
    for i in range(1, 13):
        out[f"acceptance.A{i}.s"] = (duration(f"acceptance.A{i}"), "s")
    return out
