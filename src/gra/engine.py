"""One synchronous rewrite step and long-horizon evolution.

A step, applied to the whole graph at once:

1. configuration of every vertex from the OLD states,
2. new states from the rule's next-state table,
3. division flags from the rule's division table (same configurations),
4. every flagged vertex divides; clones inherit the post-update state.

The division surgery runs over the flat neighbor table in O(order); the
dense-matrix reference in :mod:`gra.dense` is the semantic authority and
differential tests keep the two in lock step.
"""

import time as _time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .analysis import (
    STOP_CYCLE,
    STOP_MAX_ORDER,
    STOP_MAX_STEPS,
    STOP_WALL_CLOCK,
    EvolutionTrace,
    minimal_period,
)
from .errors import (
    EngineInvariantError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NonBinaryStateError,
)
from .graph import Graph, state_fingerprint
from .rules import Rule

# a constant-order window longer than this restarts the cycle search
CYCLE_WINDOW_CAP = 100_000


@dataclass(frozen=True)
class StepOutcome:
    graph: Graph
    divisions_performed: int


@dataclass(frozen=True)
class Budget:
    """Stop conditions for evolve; the first limit reached wins.

    wall_clock is in seconds and checked cooperatively before each step;
    None disables it (required for bit-reproducible runs).
    """

    max_steps: int
    max_order: int = 5_000_000
    wall_clock: Optional[float] = None


def step(g: Graph, rule: Rule) -> StepOutcome:
    """Apply one synchronous step of the rule to the whole graph."""
    new_states, div, n_div = _kernels.ACTIVE.step_tables(
        g.neighbors, g.states, rule.next_state, rule.divides
    )
    n_div = int(n_div)
    if n_div:
        out = _divide(g, new_states, div, n_div)
    else:
        # no topology change: share the immutable neighbor table
        out = Graph._wrap(g.neighbors, new_states)
    return StepOutcome(graph=out, divisions_performed=n_div)


def _divide(g: Graph, states: np.ndarray, d: np.ndarray, n_div: int) -> Graph:
    """g with the n_div vertices flagged in d divided; clones inherit states."""
    nb2, st2 = _kernels.ACTIVE.divide_all(g.neighbors, states, d, n_div)
    out = Graph._wrap(nb2, st2)
    if out.order != g.order + 2 * n_div:
        raise EngineInvariantError(f"order changed by {out.order - g.order} for {n_div} divisions")
    return out


def divide_vertex(g: Graph, v: int) -> Graph:
    """Divide a single vertex: replace it by a triangle of three clones on
    consecutive indices, each inheriting one former neighbor (ascending
    neighbor index to ascending clone index) and the current state of v.
    """
    if not 0 <= v < g.order:
        raise IndexOutOfRangeError(f"vertex {v} out of range for order {g.order}")
    d = np.zeros(g.order, dtype=np.uint8)
    d[v] = 1
    return apply_divisions(g, d)


def apply_divisions(g: Graph, d) -> Graph:
    """Perform every division flagged in d, lowest index first.

    Equivalent to repeatedly locating the first 1 in d, dividing there
    (which shifts later indices up by two and replaces the handled entry by
    three zeros, so clones never divide in the same pass) until d is null.
    Every entry of d must be 0 or 1.
    """
    d = np.asarray(d)
    if d.shape != (g.order,):
        raise LengthMismatchError(
            f"division vector length {d.shape} does not match order {g.order}"
        )
    if not np.isin(d, (0, 1)).all():
        raise NonBinaryStateError("division vector entries must be 0 or 1")
    d = d.astype(np.uint8)
    n_div = int(d.sum())
    if n_div == 0:
        return g
    return _divide(g, g.states.copy(), d, n_div)


def _advance_states(g: Graph, rule: Rule, k: int) -> np.ndarray:
    """States k steps ahead of g, asserting the topology stays frozen."""
    cur = g
    for _ in range(k):
        out = step(cur, rule)
        if out.divisions_performed:
            raise EngineInvariantError("division inside a confirmed cycle window")
        cur = out.graph
    return cur.states


def evolve(g0: Graph, rule: Rule, budget: Budget) -> EvolutionTrace:
    """Run the rule from g0 until a budget limit hits or a cycle is confirmed.

    Cycle search: state fingerprints are mapped to steps within the current
    constant-order window (any division restarts the window, since the
    order never decreases a cycle must have frozen topology).  A digest
    match only nominates a candidate period; it is confirmed by evolving
    that many further steps and comparing exact state vectors, then reduced
    to the minimal period.  Budget exhaustion is a normal outcome recorded
    in the trace.
    """
    g = g0
    orders = [g.order]
    digest = state_fingerprint(g)
    seen: dict[str, int] = {digest: 0}
    pending: Optional[tuple[int, int, bytes]] = None  # (due step, period, states)
    cycle_period: Optional[int] = None
    stop = None
    deadline = None
    if budget.wall_clock is not None:
        deadline = _time.monotonic() + budget.wall_clock

    t = 0
    while True:
        if t >= budget.max_steps:
            stop = STOP_MAX_STEPS
            break
        if deadline is not None and _time.monotonic() >= deadline:
            stop = STOP_WALL_CLOCK
            break
        out = step(g, rule)
        g = out.graph
        t += 1
        orders.append(g.order)

        if g.order > budget.max_order:
            stop = STOP_MAX_ORDER
            break
        digest = state_fingerprint(g)
        if out.divisions_performed:
            seen = {digest: t}
            pending = None
            continue

        if pending is not None:
            due, p, snap = pending
            if t == due:
                if g.states.tobytes() == snap:
                    cycle_period = minimal_period(
                        g.states,
                        lambda s0, k, _g=g, _r=rule: _advance_states(_g, _r, k),
                        p,
                    )
                    stop = STOP_CYCLE
                    break
                pending = None  # digest collision, keep scanning
        if pending is None and digest in seen:
            p = t - seen[digest]
            pending = (t + p, p, g.states.tobytes())
        if digest not in seen:
            seen[digest] = t
        if len(seen) > CYCLE_WINDOW_CAP:
            seen = {digest: t}
            pending = None

    return EvolutionTrace(
        orders=np.asarray(orders, dtype=np.int64),
        stop_reason=stop,
        cycle_period=cycle_period,
        final_graph=g,
    )
