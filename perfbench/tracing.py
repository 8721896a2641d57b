"""Spans around calls into the gra package, recorded from outside it.

``install`` swaps module attributes that the package looks up at call time
(``gra._kernels.ACTIVE``, ``gra.engine.step``, ``gra.engine.state_fingerprint``,
``gra.engine.minimal_period``, ``gra.engine.evolve``, ``gra.analysis.classify``
and the ``evolve``/``classify`` names that ``gra.sweep`` imported) for timing
wrappers, and puts the originals back when asked.  Nothing under ``src/`` is
edited.  ``layer_metrics`` turns one repetition's spans into the per-layer
numbers the benchmark reports.
"""

import itertools
import math
import time
from collections import defaultdict

# dividers per division step up to which divide_all counts as "few": the
# sparse regime that O(dividers) division surgery targets
FEW_DIVIDERS = 2


class Tracer:
    """Spans kept in memory: (id, parent id, name, start ns, end ns, attrs)."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._open = [(0, None, None)]  # (id, name, start ns); 0 is the implicit root

    def begin(self, name):
        sid = next(self._ids)
        self._open.append((sid, name, time.perf_counter_ns()))
        return sid

    def end(self, sid, attrs=None):
        end = time.perf_counter_ns()
        top, name, start = self._open.pop()
        if top != sid:
            raise RuntimeError(f"span {sid} ended while span {top} was open")
        self.spans.append((sid, self._open[-1][0], name, start, end, attrs))

    def wrap(self, name, fn, attrs=None):
        """fn with a span around each call; attrs(args, result) -> dict."""

        def traced(*args, **kwargs):
            sid = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(sid)  # keeps the stack balanced for a caller that recovers
                raise
            self.end(sid, attrs(args, result) if attrs is not None else None)
            return result

        return traced


def _step_tables_attrs(args, result):
    neighbors, states = args[0], args[1]
    return {
        "order": int(states.shape[0]),
        "bytes": neighbors.nbytes + states.nbytes + result[0].nbytes + result[1].nbytes,
    }


def _divide_all_attrs(args, result):
    neighbors, states, div, n_div = args
    return {
        "order": int(states.shape[0]),
        "dividers": int(n_div),
        "bytes": neighbors.nbytes + states.nbytes + div.nbytes
        + result[0].nbytes + result[1].nbytes,
    }


def _evolve_attrs(args, trace):
    return {
        "steps": trace.steps,
        "division_steps": int((trace.increments > 0).sum()),
        "peak_order": int(trace.orders.max()),
        "vertex_steps": int(trace.orders[:-1].sum()),
    }


def install(tracer):
    """Wrap the package's layer boundaries; returns the list to pass to uninstall."""
    from gra import _kernels, analysis, engine, sweep

    be = _kernels.ACTIVE
    evolve = tracer.wrap("engine.evolve", engine.evolve, _evolve_attrs)
    classify = tracer.wrap("analysis.classify", analysis.classify)
    patches = [
        (_kernels, "ACTIVE", be._replace(
            step_tables=tracer.wrap("kernels.step_tables", be.step_tables, _step_tables_attrs),
            divide_all=tracer.wrap("kernels.divide_all", be.divide_all, _divide_all_attrs),
        )),
        (engine, "step", tracer.wrap("engine.step", engine.step)),
        (engine, "state_fingerprint",
         tracer.wrap("graph.state_fingerprint", engine.state_fingerprint)),
        (engine, "minimal_period", tracer.wrap("engine.minimal_period", engine.minimal_period)),
        (engine, "evolve", evolve),
        (sweep, "evolve", evolve),
        (analysis, "classify", classify),
        (sweep, "classify", classify),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    for mod, attr, new in patches:
        setattr(mod, attr, new)
    return saved


def uninstall(saved):
    for mod, attr, old in saved:
        setattr(mod, attr, old)


def tail_percentile(n):
    """Highest of 50, 90, 99, ... with at least ten of n samples beyond it."""
    best = 50.0
    for p in (90.0, 99.0, 99.9, 99.99, 99.999):
        if n * (100.0 - p) / 100.0 >= 10:
            best = p
    return best


def _percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list."""
    rank = math.ceil(p / 100.0 * len(sorted_values))
    return sorted_values[max(rank, 1) - 1]


def layer_metrics(spans):
    """Per-layer totals of one repetition; times from spans, counts from attrs.

    A span's self time is its duration minus its children's durations
    (one thread, so children never overlap).
    """
    child_ns = defaultdict(int)
    for sid, parent, name, start, end, attrs in spans:
        child_ns[parent] += end - start
    busy = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    step_us = []
    st_vertices = st_bytes = 0
    dv = {"dividers": 0, "bytes": 0, "few_ns": 0, "few_calls": 0,
          "many_ns": 0, "many_vertices": 0}
    ev = {"steps": 0, "division_steps": 0, "peak_order": 0}
    for sid, parent, name, start, end, attrs in spans:
        d = end - start
        busy[name] += d
        self_ns[name] += d - child_ns[sid]
        calls[name] += 1
        if name == "engine.step":
            step_us.append(d / 1e3)
        if attrs is None:  # a call that raised has no counts
            continue
        if name == "kernels.step_tables":
            st_vertices += attrs["order"]
            st_bytes += attrs["bytes"]
        elif name == "kernels.divide_all":
            dv["dividers"] += attrs["dividers"]
            dv["bytes"] += attrs["bytes"]
            if attrs["dividers"] <= FEW_DIVIDERS:
                dv["few_ns"] += d
                dv["few_calls"] += 1
            else:
                dv["many_ns"] += d
                dv["many_vertices"] += attrs["order"]
        elif name == "engine.evolve":
            ev["steps"] += attrs["steps"]
            ev["division_steps"] += attrs["division_steps"]
            ev["peak_order"] = max(ev["peak_order"], attrs["peak_order"])

    def ratio(a, b):
        return a / b if b else 0.0

    dv_calls = calls["kernels.divide_all"]
    step_us.sort()
    tail = tail_percentile(len(step_us))
    return {
        "kernels.step_tables.calls": calls["kernels.step_tables"],
        "kernels.step_tables.busy_s": busy["kernels.step_tables"] / 1e9,
        "kernels.step_tables.ns_per_vertex": ratio(busy["kernels.step_tables"], st_vertices),
        "kernels.step_tables.bytes_computed": st_bytes,
        "kernels.divide_all.calls": dv_calls,
        "kernels.divide_all.dividers": dv["dividers"],
        "kernels.divide_all.divider_share": ratio(dv["dividers"], st_vertices),
        "kernels.divide_all.few_share": ratio(dv["few_calls"], dv_calls),
        "kernels.divide_all.bytes_computed": dv["bytes"],
        "kernels.divide_all.few.busy_s": dv["few_ns"] / 1e9,
        "kernels.divide_all.few.us_per_call": ratio(dv["few_ns"] / 1e3, dv["few_calls"]),
        "kernels.divide_all.many.busy_s": dv["many_ns"] / 1e9,
        "kernels.divide_all.many.ns_per_vertex": ratio(dv["many_ns"], dv["many_vertices"]),
        "engine.step.calls": calls["engine.step"],
        "engine.step.self_s": self_ns["engine.step"] / 1e9,
        "engine.step.p50_us": _percentile(step_us, 50.0) if step_us else 0.0,
        "engine.step.tail_pct": tail,
        "engine.step.tail_us": _percentile(step_us, tail) if step_us else 0.0,
        "engine.evolve.self_s": self_ns["engine.evolve"] / 1e9,
        "engine.evolve.steps": ev["steps"],
        "engine.evolve.division_steps": ev["division_steps"],
        "engine.evolve.peak_order": ev["peak_order"],
        "engine.evolve.no_division_share": 1.0 - ratio(ev["division_steps"], ev["steps"]),
        "engine.minimal_period.calls": calls["engine.minimal_period"],
        "engine.minimal_period.busy_s": busy["engine.minimal_period"] / 1e9,
        "graph.state_fingerprint.calls": calls["graph.state_fingerprint"],
        "graph.state_fingerprint.busy_s": busy["graph.state_fingerprint"] / 1e9,
        "analysis.classify.calls": calls["analysis.classify"],
        "analysis.classify.busy_s": busy["analysis.classify"] / 1e9,
    }


def evolved_vertex_steps(spans):
    """Sum over evolve calls of the order before each step (the work count)."""
    return sum(a["vertex_steps"] for _, _, name, _, _, a in spans
               if name == "engine.evolve" and a is not None)
