"""Spans and counts at the library's layer boundaries, from outside it.

``install`` wraps the public functions listed in ``WRAPPED``. Each
wrapper replaces the function under every name that any ``leakbound``
module binds to it (``bayesnet.composite_channel`` and
``bounds.composite_channel`` alike), and ``uninstall`` puts the originals
back. A wrapper appends one span (name, start, end, parent) to the
tracer's in-memory list and, after the call returns, derives counts from
the call's arguments and return value.

Everything runs in one thread, so a span's self time is its duration
minus the durations of its direct children, and a layer's self time is
the sum over its spans.
"""

from __future__ import annotations

import statistics
import sys
from collections import Counter
from functools import wraps
from time import perf_counter


def _joint(c: Counter, distinct: set, args, kwargs, out) -> None:
    net = args[0] if args else kwargs["net"]
    value = args[1] if len(args) > 1 else kwargs["source_value"]
    distinct.add((net.nodes, net.source, value))
    c["bayesnet.joint_states"] += len(out.support())


def _report(c: Counter, distinct: set, args, kwargs, out) -> None:
    c["bounds.peel_steps"] += len(out.trace)
    values = (out.coupling_bound_value, out.doeblin_bound_value, out.subadditivity_value)
    c["bounds.inapplicable"] += any(v is None for v in values)


def _solve(c: Counter, distinct: set, args, kwargs, out) -> None:
    c["lp.columns"] += len(args[0])
    c["lp.rows"] += len(args[2])


def _lp_result(c: Counter, distinct: set, args, kwargs, out) -> None:
    c["lp.witness_support"] += len(out.witness.mass)


def _coupling(c: Counter, distinct: set, args, kwargs, out) -> None:
    c["couplings.support"] += len(out.mass)


def _simul(c: Counter, distinct: set, args, kwargs, out) -> None:
    c["simultaneous.support"] += len(out.mass)


MEASURES = ("tau_max", "tau_max2", "doeblin", "tau_subset", "tau_pair",
            "tau_trip", "measure_set", "maximal_leakage", "total_variation")

# (module, function, counter); the span is named "<module>.<function>".
WRAPPED = (
    ("cli", "main", None),
    ("netfile", "parse_network", None),
    ("netfile", "parse_pmf_file", None),
    ("bayesnet", "validate", None),
    ("bayesnet", "composite_channel", None),
    ("bayesnet", "joint_distribution", _joint),
    ("bounds", "query_report", _report),
    ("lp", "solve_sparse", _solve),
    ("lp", "min_union_coupling", _lp_result),
    ("lp", "min_union_coupling_diag", _lp_result),
    ("couplings", "maximal_coupling_pair", _coupling),
    ("couplings", "build_n4_coupling", _coupling),
    ("couplings", "n4_condition", None),
    ("couplings", "verify_intersection_property", None),
    ("couplings", "union_mass", None),
    ("simultaneous", "build_simultaneous_coupling", _simul),
    ("simultaneous", "minimal_y_coupling", None),
    ("simultaneous", "coupling_feasibility", None),
    ("simultaneous", "y_union_mass", None),
    ("simultaneous", "f_quantity", None),
) + tuple(("measures", name, None) for name in MEASURES)

LAYERS = ("cli", "netfile", "bayesnet", "bounds", "lp", "couplings",
          "simultaneous", "measures")

PER_LAYER = (
    "bayesnet.composite_channel.calls",
    "bayesnet.joint_distribution.calls",
    "bayesnet.joint_distribution.distinct_ratio",
    "bayesnet.joint_states",
    "bayesnet.validate.self_s",
    "bayesnet.self_s",
    "bounds.query_report.calls",
    "bounds.peel_steps",
    "bounds.inapplicable",
    "bounds.self_s",
    "lp.solve_sparse.calls",
    "lp.columns",
    "lp.rows",
    "lp.solve_sparse.self_s",
    "lp.setup_self_s",
    "lp.witness_support",
    "couplings.build_n4_coupling.calls",
    "couplings.maximal_coupling_pair.calls",
    "couplings.support",
    "couplings.self_s",
    "simultaneous.build_simultaneous_coupling.calls",
    "simultaneous.support",
    "simultaneous.minimal_y_coupling.self_s",
    "simultaneous.self_s",
    "cli.calls",
    "cli.self_s",
    "netfile.self_s",
    "measures.calls",
    "measures.self_s",
    "trace.op_s",
    "trace.overhead_s",
)


def library_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "leakbound" or name.startswith("leakbound."))]


class Tracer:
    """Spans and counts for one pass; wrappers write here while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.distinct: set = set()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn, counter):
        spans, stack, counts, distinct = self.spans, self._stack, self.counts, self.distinct

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            counts[name + ".calls"] += 1
            if counter is not None:
                counter(counts, distinct, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        modules = library_modules()
        by_name = {mod.__name__: mod for mod in modules}
        for module, function, counter in WRAPPED:
            original = getattr(by_name[f"leakbound.{module}"], function)
            wrapper = self._wrap(f"{module}.{function}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self time summed per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - inner)
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the two trace.* ones."""
        selfs = self.self_times()
        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in selfs.items()
                                         if k.split(".")[0] == layer)
        joint_calls = c["bayesnet.joint_distribution.calls"]
        out.update({
            "bayesnet.composite_channel.calls": c["bayesnet.composite_channel.calls"],
            "bayesnet.joint_distribution.calls": joint_calls,
            "bayesnet.joint_distribution.distinct_ratio":
                len(self.distinct) / joint_calls if joint_calls else 0.0,
            "bayesnet.joint_states": c["bayesnet.joint_states"],
            "bayesnet.validate.self_s": selfs.get("bayesnet.validate", 0.0),
            "bounds.query_report.calls": c["bounds.query_report.calls"],
            "bounds.peel_steps": c["bounds.peel_steps"],
            "bounds.inapplicable": c["bounds.inapplicable"],
            "lp.solve_sparse.calls": c["lp.solve_sparse.calls"],
            "lp.columns": c["lp.columns"],
            "lp.rows": c["lp.rows"],
            "lp.solve_sparse.self_s": selfs.get("lp.solve_sparse", 0.0),
            "lp.setup_self_s": selfs.get("lp.min_union_coupling", 0.0)
                + selfs.get("lp.min_union_coupling_diag", 0.0),
            "lp.witness_support": c["lp.witness_support"],
            "couplings.build_n4_coupling.calls": c["couplings.build_n4_coupling.calls"],
            "couplings.maximal_coupling_pair.calls":
                c["couplings.maximal_coupling_pair.calls"],
            "couplings.support": c["couplings.support"],
            "simultaneous.build_simultaneous_coupling.calls":
                c["simultaneous.build_simultaneous_coupling.calls"],
            "simultaneous.support": c["simultaneous.support"],
            "simultaneous.minimal_y_coupling.self_s":
                selfs.get("simultaneous.minimal_y_coupling", 0.0),
            "cli.calls": c["cli.main.calls"],
            "measures.calls": sum(v for k, v in c.items()
                                  if k.startswith("measures.") and k.endswith(".calls")),
        })
        return out


def combine(passes: list[dict], op_times: list[float], plain_times: list[float]) -> dict:
    """Per-layer metrics of a traced run: counts from the first traced
    pass (a pass repeats the same operations), times as medians over
    passes, and the tracing overhead as traced minus untraced op time."""
    out = {}
    for key in (k for k in PER_LAYER if not k.startswith("trace.")):
        if key.endswith("_s"):
            out[key] = statistics.median(p[key] for p in passes)
        else:
            out[key] = passes[0][key]
    out["trace.op_s"] = statistics.median(op_times)
    out["trace.overhead_s"] = statistics.median(op_times) - statistics.median(plain_times)
    return out
