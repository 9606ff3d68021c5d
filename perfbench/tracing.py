"""Spans around the calls into each layer of ``partition_well``.

The tracer replaces public functions at the module attributes their callers
look up (``oracle.net_force``, ``oracle.find_root_bracketed``,
``fermion_medium.quad_semi_infinite``, ...) with timing wrappers, keeps the
spans in memory, and restores the originals afterwards.  Calls made inside a
module through its own globals are caught too, because a module's globals
are its attribute dictionary.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

from workloads import regime_window


class Tracer:
    """Collects spans (name, start, end, parent) from wrapped module attributes."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def wrap(self, module, attr: str, name: str, describe=None):
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = {"name": name,
                    "parent": self._stack[-1] if self._stack else None,
                    "start": time.perf_counter()}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span.update(describe(args, kwargs, result))
            return result

        setattr(module, attr, traced)
        self._saved.append((module, attr, original))

    def install(self, cli):
        """Wrap the layer boundaries the workloads cross."""
        from partition_well import (boson_medium, equilibrium, fermion_medium,
                                    hightemp, lowtemp, oracle)

        def window(args, kwargs, result):
            return {"window": regime_window(args[0].kind, args[1], args[2])}

        def evals(args, kwargs, result):
            return {"evals": result.evaluations}

        def variant(args, kwargs, result):
            return {"variant": args[2] if len(args) > 2 else
                    kwargs.get("variant", "quadrature")}

        self.wrap(cli, "main", "cli.main")
        self.wrap(oracle, "net_force", "oracle.net_force", window)
        self.wrap(oracle, "force_side", "oracle.force_side")
        self.wrap(oracle, "locate_minimum", "oracle.locate_minimum")
        self.wrap(oracle, "locate_inflections", "oracle.locate_inflections")
        self.wrap(oracle, "find_root_bracketed", "numerics.root.oracle", evals)
        self.wrap(equilibrium, "shift_finite_temperature", "equilibrium.shift")
        self.wrap(equilibrium, "find_root_bracketed", "numerics.root.equilibrium", evals)
        self.wrap(fermion_medium, "fermion_medium_net_force", "fermion_medium.net_force",
                  variant)
        self.wrap(fermion_medium, "find_root_bracketed", "numerics.root.fermion_medium", evals)
        self.wrap(fermion_medium, "quad_semi_infinite", "numerics.quad")
        self.wrap(boson_medium, "quad_semi_infinite", "numerics.quad")
        for attr in ("solve_scaled_alpha", "boson_medium_net_force", "quadratic_approximant"):
            self.wrap(boson_medium, attr, "boson_medium")
        self.wrap(hightemp, "net_force_asymptote", "hightemp")
        for attr in ("boson_two_level_net_force", "fermion_step_net_force",
                     "zero_temperature_forces"):
            self.wrap(lowtemp, attr, "lowtemp")

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


# per-layer metric names and units, in the order they are reported
LAYER_METRICS = (
    ("cli.self_s", "s"),
    ("oracle.net_force.calls", "count"),
    ("oracle.net_force.s", "s"),
    ("oracle.net_force.p50_s", "s"),
    ("oracle.net_force.low_s", "s"),
    ("oracle.net_force.medium_s", "s"),
    ("oracle.net_force.high_s", "s"),
    ("oracle.force_side.calls", "count"),
    ("oracle.force_side.s", "s"),
    ("oracle.locate_minimum.s", "s"),
    ("oracle.locate_minimum.net_force_calls", "count"),
    ("oracle.locate_inflections.s", "s"),
    ("oracle.locate_inflections.net_force_calls", "count"),
    ("equilibrium.shift.s", "s"),
    ("equilibrium.shift.force_side_calls", "count"),
    ("numerics.root.oracle.calls", "count"),
    ("numerics.root.oracle.evals", "count"),
    ("numerics.root.oracle.s", "s"),
    ("numerics.root.equilibrium.evals", "count"),
    ("numerics.root.fermion_medium.evals", "count"),
    ("numerics.quad.calls", "count"),
    ("numerics.quad.s", "s"),
    ("fermion_medium.quad_per_root_eval", "ratio"),
    ("fermion_medium.net_force.calls", "count"),
    ("fermion_medium.net_force.s", "s"),
    ("boson_medium.s", "s"),
    ("hightemp.s", "s"),
    ("lowtemp.s", "s"),
    ("trace.overhead_s", "s"),
)


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced round (all but ``trace.overhead_s``)."""
    duration = [s["end"] - s["start"] for s in spans]
    child_time = defaultdict(float)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s["name"]].append(i)
        if s["parent"] is not None:
            child_time[s["parent"]] += duration[i]

    def ancestors(i):
        p = spans[i]["parent"]
        while p is not None:
            yield spans[p]
            p = spans[p]["parent"]

    def inside(i, outer, **attrs):
        return any(a["name"] == outer and all(a.get(k) == v for k, v in attrs.items())
                   for a in ancestors(i))

    def total(name):
        return sum(duration[i] for i in by_name[name] if not inside(i, name))

    def count_within(name, outer, **attrs):
        return sum(1 for i in by_name[name] if inside(i, outer, **attrs))

    net = by_name["oracle.net_force"]
    m = {
        "cli.self_s": sum(duration[i] - child_time[i] for i in by_name["cli.main"]),
        "oracle.net_force.calls": len(net),
        "oracle.net_force.s": total("oracle.net_force"),
        "oracle.net_force.p50_s": statistics.median(duration[i] for i in net) if net else 0.0,
    }
    for window in ("low", "medium", "high"):
        m[f"oracle.net_force.{window}_s"] = sum(
            duration[i] for i in net if spans[i].get("window") == window)
    m.update({
        "oracle.force_side.calls": len(by_name["oracle.force_side"]),
        "oracle.force_side.s": total("oracle.force_side"),
        "oracle.locate_minimum.s": total("oracle.locate_minimum"),
        "oracle.locate_minimum.net_force_calls":
            count_within("oracle.net_force", "oracle.locate_minimum"),
        "oracle.locate_inflections.s": total("oracle.locate_inflections"),
        "oracle.locate_inflections.net_force_calls":
            count_within("oracle.net_force", "oracle.locate_inflections"),
        "equilibrium.shift.s": total("equilibrium.shift"),
        "equilibrium.shift.force_side_calls":
            count_within("oracle.force_side", "equilibrium.shift"),
        "numerics.root.oracle.calls": len(by_name["numerics.root.oracle"]),
        "numerics.root.oracle.evals": sum(spans[i].get("evals", 0)
                                          for i in by_name["numerics.root.oracle"]),
        "numerics.root.oracle.s": total("numerics.root.oracle"),
        "numerics.root.equilibrium.evals": sum(spans[i].get("evals", 0)
                                               for i in by_name["numerics.root.equilibrium"]),
        "numerics.root.fermion_medium.evals": sum(spans[i].get("evals", 0)
                                                  for i in by_name["numerics.root.fermion_medium"]),
        "numerics.quad.calls": len(by_name["numerics.quad"]),
        "numerics.quad.s": total("numerics.quad"),
        "fermion_medium.net_force.calls": len(by_name["fermion_medium.net_force"]),
        "fermion_medium.net_force.s": total("fermion_medium.net_force"),
        "boson_medium.s": total("boson_medium"),
        "hightemp.s": total("hightemp"),
        "lowtemp.s": total("lowtemp"),
    })
    # quadrature variant only: the other variants solve for alpha without quadrature
    quad_route = {"variant": "quadrature"}
    root_evals = sum(spans[i].get("evals", 0) for i in by_name["numerics.root.fermion_medium"]
                     if inside(i, "fermion_medium.net_force", **quad_route))
    quads = count_within("numerics.quad", "fermion_medium.net_force", **quad_route)
    m["fermion_medium.quad_per_root_eval"] = quads / root_evals if root_evals else 0.0
    return m
