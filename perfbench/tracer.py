"""Layer tracing from outside the program.

The tracer replaces public functions by timing wrappers in the module where
their caller looks them up, and restores them afterwards; nothing in the
program changes. Coarse boundaries record spans (name, start, end, parent,
operation). The per-direction solve and LAPACK boundaries run hundreds of
thousands of times per pass, so they only keep a count and a total time.
Every boundary adds its duration to the enclosing one, which gives self
times.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass

SPAN, COUNT = "span", "count"

# (boundary, module the caller looks the name up in, attribute, kind)
SITES = (
    ("cli.main", "satnav.cli", "main", SPAN),
    ("network.parse", "satnav.cli", "parse_network_file", SPAN),
    ("solver.expected_time_between", "satnav.cli", "expected_time_between", SPAN),
    ("solver.simulate", "satnav.cli", "simulate", SPAN),
    ("optimize.optimize_uniform", "satnav.optimize", "optimize_uniform", SPAN),
    ("optimize.evaluate", "satnav.optimize", "expected_time", SPAN),
    ("pointers.enumerate", "satnav.pointers", "enumerate_direction_space", SPAN),
    ("pointers.enumerate", "satnav.solver", "enumerate_direction_space", SPAN),
    ("pointers.enumerate", "satnav.optimize", "enumerate_direction_space", SPAN),
    ("solver.expected_time", "satnav.solver", "expected_time", SPAN),
    ("solver.expected_profile", "satnav.solver", "expected_profile", SPAN),
    ("network.shortest_paths", "satnav.pointers", "shortest_paths", SPAN),
    ("network.shortest_paths", "satnav.solver", "shortest_paths", SPAN),
    ("network.classify", "satnav.network", "classify", COUNT),
    ("network.classify", "satnav.pointers", "classify", COUNT),
    ("network.classify", "satnav.solver", "classify", COUNT),
    ("network.classify", "satnav.optimize", "classify", COUNT),
    ("solver.direction", "satnav.solver", "hitting_times_for_direction", COUNT),
    ("solver.lapack", "numpy.linalg", "solve", COUNT),
)


def _count_directions(counters, space):
    entries = getattr(space, "entries", None)
    if entries is not None:
        counters["pointers.directions"] = (
            counters.get("pointers.directions", 0) + len(entries))


def _count_walks(counters, sim):
    for key, attr in (("solver.walks", "n_walks"), ("solver.censored", "censored")):
        value = getattr(sim, attr, None)
        if value is not None:
            counters[key] = counters.get(key, 0) + value


def _read_diagnostics(counters, result):
    diag = getattr(result, "diagnostics", None)
    for key, attr in (("optimize.golden_iterations", "iterations"),
                      ("optimize.bracket_width", "residual")):
        value = getattr(diag, attr, None)
        if value is not None:
            counters[key] = value


RESULT_HOOKS = {
    "pointers.enumerate": _count_directions,
    "solver.simulate": _count_walks,
    "optimize.optimize_uniform": _read_diagnostics,
}


@dataclass
class Boundary:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Collects spans and per-boundary totals while installed."""

    def __init__(self, clock_origin: float):
        self.origin = clock_origin
        self.boundaries: dict[str, Boundary] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[dict] = []
        self.installed: set[str] = set()
        self.op = None
        self._stack: list[list] = []  # [child seconds, span id or None]
        self._patched: list[tuple] = []

    def __enter__(self):
        for boundary, module_name, attr, kind in SITES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(boundary, kind, original))
            self._patched.append((module, attr, original))
            self.installed.add(boundary)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, boundary, kind, fn):
        stats = self.boundaries.setdefault(boundary, Boundary())
        hook = RESULT_HOOKS.get(boundary)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = None
            parent = None
            if kind == SPAN:
                span_id = len(self.spans)
                parent = next((f[1] for f in reversed(stack) if f[1] is not None),
                              None)
                self.spans.append(None)  # reserve the id; filled on return
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span_id is not None:
                    self.spans[span_id] = {
                        "name": boundary, "id": span_id, "parent": parent,
                        "op": self.op, "start": start - self.origin,
                        "end": end - self.origin,
                    }
            if hook is not None:
                hook(self.counters, result)
            return result

        return wrapper


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (boundary it needs, unit, value from (boundaries, counters));
# a value of None means the program no longer exposes it
LAYER_METRICS = {
    "network.parse_s": ("network.parse", "s", lambda b, c: b["network.parse"].total_s),
    "network.shortest_paths.calls": (
        "network.shortest_paths", "count",
        lambda b, c: b["network.shortest_paths"].calls),
    "network.shortest_paths_s": (
        "network.shortest_paths", "s",
        lambda b, c: b["network.shortest_paths"].total_s),
    "network.classify.calls": (
        "network.classify", "count", lambda b, c: b["network.classify"].calls),
    "pointers.enumerate.calls": (
        "pointers.enumerate", "count", lambda b, c: b["pointers.enumerate"].calls),
    "pointers.enumerate_s": (
        "pointers.enumerate", "s", lambda b, c: b["pointers.enumerate"].total_s),
    "pointers.directions": (
        "pointers.enumerate", "count", lambda b, c: c.get("pointers.directions")),
    "solver.expected_profile.calls": (
        "solver.expected_profile", "count",
        lambda b, c: b["solver.expected_profile"].calls),
    "solver.expected_profile.self_s": (
        "solver.expected_profile", "s",
        lambda b, c: b["solver.expected_profile"].self_s),
    "solver.direction.calls": (
        "solver.direction", "count", lambda b, c: b["solver.direction"].calls),
    "solver.direction_s": (
        "solver.direction", "s", lambda b, c: b["solver.direction"].total_s),
    "solver.direction_us": (
        "solver.direction", "us",
        lambda b, c: 1e6 * _ratio(b["solver.direction"].total_s,
                                  b["solver.direction"].calls)),
    "solver.lapack.calls": (
        "solver.lapack", "count", lambda b, c: b["solver.lapack"].calls),
    "solver.lapack_s": ("solver.lapack", "s", lambda b, c: b["solver.lapack"].total_s),
    "solver.lapack_share": (
        "solver.direction", "ratio",
        lambda b, c: _ratio(b["solver.lapack"].total_s,
                            b["solver.direction"].total_s)),
    "solver.simulate_s": (
        "solver.simulate", "s", lambda b, c: b["solver.simulate"].total_s),
    "solver.walks_per_s": (
        "solver.simulate", "1/s",
        lambda b, c: _ratio(c.get("solver.walks", 0),
                            b["solver.simulate"].total_s)),
    "solver.censored": (
        "solver.simulate", "count", lambda b, c: c.get("solver.censored", 0)),
    "optimize.evaluations": (
        "optimize.evaluate", "count", lambda b, c: b["optimize.evaluate"].calls),
    "optimize.golden_iterations": (
        "optimize.optimize_uniform", "count",
        lambda b, c: c.get("optimize.golden_iterations")),
    "optimize.bracket_width": (
        "optimize.optimize_uniform", "trust",
        lambda b, c: c.get("optimize.bracket_width")),
    "optimize.self_s": (
        "optimize.optimize_uniform", "s",
        lambda b, c: b["optimize.optimize_uniform"].self_s),
    "cli.main_s": ("cli.main", "s", lambda b, c: b["cli.main"].total_s),
    "cli.self_s": ("cli.main", "s", lambda b, c: b["cli.main"].self_s),
}


def layer_metrics(tracer: Tracer, uses: frozenset[str]) -> dict[str, float]:
    """Per-layer values of one traced pass.

    A metric is left out when its boundary is gone from the program, or when
    the workload should pass through it but no call arrived (the program no
    longer calls that function). A boundary the workload never exercises
    reads 0.
    """
    boundaries = {name: tracer.boundaries.get(name, Boundary())
                  for name, *_ in SITES}
    values = {}
    for name, (boundary, _, value_of) in LAYER_METRICS.items():
        if boundary not in tracer.installed:
            continue
        value = value_of(boundaries, tracer.counters)
        if boundary in uses:
            if boundaries[boundary].calls == 0 or value is None:
                continue
        elif value is None:
            value = 0
        values[name] = value
    return values
