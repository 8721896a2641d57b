"""One synchronous rewrite step and long-horizon evolution.

A step, applied to the whole graph at once:

1. configuration of every vertex from the OLD states,
2. new states from the rule's next-state table,
3. division flags from the rule's division table (same configurations),
4. every flagged vertex divides; clones inherit the post-update state.

The division kernel works on stable vertex ids (see :mod:`gra._kernels`):
it copies the tables once and patches O(dividers) rows.  The canonical
labels of a :class:`Graph` are the pre-order of the split forest: v, then
the subtrees of its newest split's clones 1 and 2, then those of its older
splits.  :func:`canonicalise` builds them from a split log (per division
step, the order before it and the ids that divided).  :func:`step`,
:func:`apply_divisions` and :func:`divide_vertex` canonicalise their
one-step log, so every graph they return is labelled as if each division
had shifted the vertices above it up by two.  :func:`evolve` runs on the
stable tables, since cycle search is valid under any fixed labelling, and
its trace canonicalises the final graph only when it is read.  The
dense-matrix reference in :mod:`gra.dense` is the semantic authority and
differential tests keep the two in lock step.
"""

import time as _time
from array import array
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
    """Apply one synchronous step of the rule to the whole graph.

    A StableGraph stays in stable ids; any other graph comes back under
    canonical labels.
    """
    new_states, div, n_div = _kernels.ACTIVE.step_tables(
        g.neighbors, g.states, rule.next_state, rule.divides
    )
    n_div = int(n_div)
    if isinstance(g, StableGraph):
        out = g.advanced(new_states, div, n_div)
    elif n_div:
        out = _divided(g, new_states, div, n_div)
    else:
        # no topology change: share the immutable neighbor table
        out = Graph._wrap(g.neighbors, new_states)
    return StepOutcome(graph=out, divisions_performed=n_div)


def self_rank(neighbors: np.ndarray) -> np.ndarray:
    """Per vertex, how many of its neighbors sit below it (canonical labels)."""
    ids = np.arange(neighbors.shape[0])
    # column by column: a sum over a length-3 axis is several times slower
    rank = (neighbors[:, 0] < ids).astype(np.uint8)
    rank += neighbors[:, 1] < ids
    rank += neighbors[:, 2] < ids
    return rank


@dataclass(frozen=True, eq=False)
class StableGraph(Graph):
    """A graph in stable vertex ids, as evolve holds it.

    rank holds each vertex's self-rank in the canonical order; dividers
    the ascending ids that divided in the step that made this graph, or
    None when none did.
    """

    rank: np.ndarray
    dividers: Optional[np.ndarray] = None

    @classmethod
    def of(cls, g: Graph) -> "StableGraph":
        """g's canonical labels taken as its stable ids."""
        return cls(g.neighbors, g.states, self_rank(g.neighbors))

    def advanced(self, states: np.ndarray, d: np.ndarray, n_div: int) -> "StableGraph":
        """The graph with new states and the n_div vertices flagged in d divided."""
        if not n_div:
            return StableGraph(self.neighbors, states, self.rank)
        nb, st, rank, dividers = _kernels.ACTIVE.divide_all(
            self.neighbors, states, d, n_div, rank=self.rank
        )
        if st.shape[0] != self.order + 2 * n_div:
            raise EngineInvariantError(
                f"order changed by {st.shape[0] - self.order} for {n_div} divisions"
            )
        return StableGraph(nb, st, rank, dividers)


class SplitLog:
    """Per division step, the order before it and the ids that divided.

    Kept in two flat int64 arrays, so a long sparse run costs 8 bytes a
    division step plus 8 a divider.
    """

    def __init__(self):
        self.orders = array("q")
        self.ids = array("q")

    def append(self, order: int, dividers: np.ndarray) -> None:
        self.orders.append(order)
        self.ids.frombytes(dividers.astype(np.int64, copy=False).tobytes())


def _divided(g: Graph, states: np.ndarray, d: np.ndarray, n_div: int) -> Graph:
    """g under canonical labels, with new states and the flagged vertices divided."""
    out = StableGraph.of(g).advanced(states, d, n_div)
    log = SplitLog()
    log.append(g.order, out.dividers)
    return canonicalise(out, log)


def canonical_positions(log: SplitLog, order: int) -> np.ndarray:
    """Canonical label of every stable id, from a split log ending at order.

    The labels are the pre-order of the split forest: v, then its newest
    split's clone-1 and clone-2 subtrees, then its older splits.  Two passes
    of one vectorised batch per division step.  Newest step first, each
    divider's subtree size takes in its clones' subtrees.  Then the roots
    take consecutive runs, and oldest step first, each divider gives back
    that split's clones; what is left of its size is how far its newer
    splits reach, so this split's clone 1 starts there, past v itself.
    """
    ids = np.frombuffer(log.ids, np.int64)
    starts = log.orders.tolist()
    if starts and starts[0] + 2 * ids.shape[0] != order:
        raise EngineInvariantError(f"split log does not add up to order {order}")
    steps = []  # (order before, order after, divider ids), oldest first
    done = 0
    for o, end in zip(starts, starts[1:] + [order]):
        steps.append((o, end, ids[done:done + (end - o) // 2]))
        done += (end - o) // 2

    size = np.ones(order, np.int64)
    for o, end, u in reversed(steps):
        size[u] += size[o:end:2] + size[o + 1:end:2]
    roots = starts[0] if starts else order
    pos = np.empty(order, np.int64)
    np.cumsum(size[:roots], out=pos[:roots])
    pos[:roots] -= size[:roots]
    for o, end, u in steps:
        size[u] -= size[o:end:2] + size[o + 1:end:2]
        first = pos[u] + size[u]
        pos[o:end:2] = first
        pos[o + 1:end:2] = first + size[o:end:2]
    return pos


def canonicalise(g: StableGraph, log: SplitLog) -> Graph:
    """g, whose divisions log holds, under its canonical labels.

    Rows are already in canonical order, so relabelling keeps them
    ascending.  Raises EngineInvariantError unless the positions are a
    permutation of the ids.
    """
    if not log.orders:
        return Graph._wrap(g.neighbors, g.states)
    pos = canonical_positions(log, g.order)
    counts = np.bincount(pos)  # sizes are positive, so no position is negative
    if counts.shape[0] != g.order or not counts.all():
        raise EngineInvariantError("canonical positions are not a permutation")
    nb = np.empty_like(g.neighbors)
    nb[pos] = pos[g.neighbors]
    st = np.empty_like(g.states)
    st[pos] = g.states
    return Graph._wrap(nb, st)


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
    return _divided(g, g.states, d, n_div)


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

    The loop holds the graph as a StableGraph and logs its divisions; the
    trace canonicalises the final graph when it is first read.
    """
    g = StableGraph.of(g0)
    log = SplitLog()
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
        if out.divisions_performed:
            log.append(g.order, out.graph.dividers)
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
        build_final_graph=lambda: canonicalise(g, log),
    )
