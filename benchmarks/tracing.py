"""Layer spans for the traced benchmark run, recorded from outside the package.

``Tracer.install`` replaces each public layer function listed in ``LAYER_SPANS``
at every ``preb.*`` binding of that function object with a wrapper that records
a span (name, start, end, parent, op id); ``Tracer.uninstall`` puts the
originals back.  Spans stay in memory until the run ends.  A name that no
longer exists leaves its span unmeasured instead of failing the run, so the
benchmark keeps working while the package changes underneath it.

Self time of a span is its duration less the time covered by its children.
Time inside an op that no layer span covers is the pipeline's own time.
"""

from __future__ import annotations

import gzip
import importlib
import json
import logging
import statistics
import sys
import time
from collections import defaultdict

# (span name, module, attribute path); one span name may cover several functions
LAYER_SPANS = [
    ("chainmap", "preb.chainmap", "chain_map_tridiag"),
    ("chainmap.lanczos", "preb.chainmap", "star_to_chain"),
    ("chainmap.discretize", "preb.chainmap", "discretize_modes"),
    ("builder.assemble", "preb.builder", "assemble_hamiltonian"),
    ("builder.thermal", "preb.builder", "thermal_correlation"),
    ("propagator.step", "preb.propagator", "step_propagator"),
    ("propagator.drive", "preb.propagator", "drive_matrix"),
    ("propagator.radius", "preb.propagator", "stability_rate"),
    ("propagator.lyapunov", "preb.propagator", "solve_dlyap_direct"),
    ("propagator.lyapunov", "preb.propagator", "solve_dlyap_doubling"),
    ("dynamics.step_thermo", "preb.dynamics", "step_thermodynamics"),
    ("thermo.rates", "preb.thermo", "ness_rates"),
    ("thermo.classify", "preb.thermo", "classify_regime"),
    ("negf", "preb.negf", "landauer_currents"),
    ("negf.lead", "preb.negf", "LeadSelfEnergy.__init__"),
    ("sweeps.apply_axis", "preb.sweeps", "apply_axis"),
]
# the set-up eigendecomposition is a lazy property; it is forced right after
# assembly so that its cost shows under its own name, not inside the propagator
EIGH_SPAN = "builder.eigh"
# the integrand passed to each quadrature panel: counted, not timed
QUAD_TARGET = ("preb.negf", "_panel_quad")
NEGF_LOGGER = "preb.negf"
CAP_MESSAGE = "refinement cap"

# per-layer metric -> (span name, "total" or "self")
TIME_METRICS = {
    "chainmap.s": ("chainmap", "total"),
    "chainmap.lanczos_s": ("chainmap.lanczos", "total"),
    "chainmap.discretize_s": ("chainmap.discretize", "total"),
    "builder.assemble_s": ("builder.assemble", "total"),
    "builder.eigh_s": (EIGH_SPAN, "total"),
    "builder.thermal_s": ("builder.thermal", "total"),
    "propagator.step_s": ("propagator.step", "total"),
    "propagator.drive_s": ("propagator.drive", "total"),
    "propagator.radius_s": ("propagator.radius", "total"),
    "propagator.lyapunov_s": ("propagator.lyapunov", "total"),
    "dynamics.step_thermo_s": ("dynamics.step_thermo", "total"),
    "thermo.rates_s": ("thermo.rates", "self"),
    "negf.s": ("negf", "total"),
    "negf.lead_s": ("negf.lead", "total"),
}
# per-layer metric -> unit, for the counts kept per op (medians over ops)
COUNT_METRICS = {
    "chainmap.max_depth": "count",
    "chainmap.krylov_mib": "MiB",      # computed basis: modes x depth x 8 B
    "builder.n": "sites",
    "negf.omega_points": "count",
    "negf.cap_hits": "count",
    "sweeps.failed_points": "count",
}
UNITS = {**{metric: "s" for metric in TIME_METRICS}, **COUNT_METRICS,
         "chainmap.maps_per_point": "count", "pipeline.self_s": "s",
         "trace.coverage": "1", "trace.op_s": "s", "trace.overhead_s": "s"}
OP_SPAN = "op"


def _resolve(module: str, path: str):
    """(owner, attribute, object) for a dotted attribute path, or None if absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, parts[-1], None)
    return None if obj is None else (owner, parts[-1], obj)


def _bindings(owner, attr: str, obj) -> list:
    """Every (namespace, name) under ``preb`` that holds ``obj``, the owner first."""
    found = [(owner, attr)]
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "preb" or name.startswith("preb.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is obj and (mod, key) != (owner, attr):
                found.append((mod, key))
    return found


class _CapCounter(logging.Handler):
    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        if CAP_MESSAGE in record.getMessage():
            self.tracer.count("negf.cap_hits", 1)


class Tracer:
    """In-memory span recorder with per-op counters."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index, op id]
        self.counts: list[dict] = []      # per op id
        self.unmeasured: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._handler = None

    # -- recording -------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, len(self.counts) - 1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def begin_op(self) -> None:
        self.counts.append(defaultdict(float))
        self._open(OP_SPAN)

    def end_op(self) -> None:
        self._close(self._stack[0])

    def count(self, name: str, value: float) -> None:
        if self.counts:
            self.counts[-1][name] += value

    def count_max(self, name: str, value: float) -> None:
        if self.counts:
            op = self.counts[-1]
            op[name] = max(op[name], value)

    def span(self, name: str, fn):
        """Call ``fn()`` inside a span."""
        idx = self._open(name)
        try:
            return fn()
        finally:
            self._close(idx)

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._after(name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, name: str, args: tuple, result) -> None:
        try:
            self._count_result(name, args, result)
        except (TypeError, IndexError, AttributeError) as exc:
            # the function changed shape: its counters go unmeasured, the run goes on
            label = f"{name} counters ({type(exc).__name__}: {exc})"
            if label not in self.unmeasured:
                self.unmeasured.append(label)

    def _count_result(self, name: str, args: tuple, result) -> None:
        if name == "chainmap":
            self.count("chainmap.maps", 1)
            self.count_max("chainmap.max_depth", getattr(result, "depth", 0))
        elif name == "chainmap.lanczos":
            modes, depth = len(args[0]), len(result[0])
            self.count_max("chainmap.krylov_mib", modes * depth * 8 / 2 ** 20)
        elif name == "builder.assemble":
            self.count_max("builder.n", getattr(result, "n_sites", 0))
            if hasattr(type(result), "eigensystem"):
                self.span(EIGH_SPAN, lambda: result.eigensystem)

    def _wrap_quad(self, fn):
        tracer = self

        def counted_quad(f, *args, **kwargs):
            def counted(x):
                tracer.count("negf.omega_points", len(x))
                return f(x)
            return fn(counted, *args, **kwargs)

        counted_quad.__wrapped__ = fn
        return counted_quad

    def _patch(self, module: str, path: str, label: str, make) -> None:
        found = _resolve(module, path)
        if found is None:
            self.unmeasured.append(label)
            return
        owner, attr, obj = found
        wrapper = make(obj)
        for ns, key in _bindings(owner, attr, obj):
            self._patched.append((ns, key, obj))
            setattr(ns, key, wrapper)

    def install(self) -> None:
        for name, module, path in LAYER_SPANS:
            self._patch(module, path, f"{name} ({module}.{path})",
                        lambda fn, name=name: self._wrap(name, fn))
        self._patch(*QUAD_TARGET, f"negf.omega_points ({'.'.join(QUAD_TARGET)})",
                    self._wrap_quad)
        self._handler = _CapCounter(self)
        logging.getLogger(NEGF_LOGGER).addHandler(self._handler)

    def uninstall(self) -> None:
        for ns, key, obj in reversed(self._patched):
            setattr(ns, key, obj)
        self._patched.clear()
        if self._handler is not None:
            logging.getLogger(NEGF_LOGGER).removeHandler(self._handler)
            self._handler = None

    # -- analysis ----------------------------------------------------------------

    def per_op(self) -> list[dict]:
        """For each op: its duration, and total and self time per span name."""
        ops = [{"op_s": 0.0, "total": defaultdict(float), "self": defaultdict(float)}
               for _ in self.counts]
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if name == OP_SPAN:
                ops[op]["op_s"] = end - start
                ops[op]["uncovered_s"] = end - start - child_time[i]
                continue
            ops[op]["total"][name] += end - start
            ops[op]["self"][name] += end - start - child_time[i]
        return ops

    def layer_metrics(self, points_per_op: float) -> tuple[dict, dict]:
        """Per-layer metrics as medians over ops, and each layer's share of op time.

        A layer's share is the self time of its spans summed over ops; the
        pipeline's is the time no span covers.
        """
        ops = self.per_op()
        med = lambda values: statistics.median(values) if values else 0.0  # noqa: E731
        out = {metric: med([op[kind].get(span, 0.0) for op in ops])
               for metric, (span, kind) in TIME_METRICS.items()}
        out["pipeline.self_s"] = med([op["uncovered_s"] for op in ops])
        for key in COUNT_METRICS:
            out[key] = med([c[key] for c in self.counts])
        out["chainmap.maps_per_point"] = med([c["chainmap.maps"] / points_per_op
                                              for c in self.counts])
        op_total = sum(op["op_s"] for op in ops)
        shares = defaultdict(float)
        for op in ops:
            for span, t in op["self"].items():
                shares[span.split(".")[0]] += t
        shares = {layer: t / op_total for layer, t in sorted(shares.items())} if op_total else {}
        out["trace.coverage"] = sum(shares.values())
        if op_total:
            shares["pipeline"] = 1.0 - out["trace.coverage"]
        return out, shares

    def dump(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
