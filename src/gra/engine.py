"""One synchronous rewrite step and long-horizon evolution.

A step, applied to the whole graph at once:

1. configuration of every vertex from the OLD states,
2. new states from the rule's next-state table,
3. division flags from the rule's division table (same configurations),
4. every flagged vertex divides; clones inherit the post-update state.

The division kernel works on stable vertex ids (see :mod:`gra._kernels`):
it patches O(dividers) rows in place, in tables with room for the clones.
A public :func:`step` hands it a fresh copy of the graph's tables, so
every graph stays a value and one StableGraph can be stepped down two
branches.  :func:`evolve`, which owns its graph and never branches, hands
it tables of its own instead, grown geometrically, so a division step
copies no table; nor does it hash the states a division step made unless
the next step keeps the order, since only then can they start a cycle.  A
:class:`StableGraph` is a graph in those ids: its tables, each vertex's
self-rank, and its splits, the chain of division steps (order before, ids
that divided) since it was taken from canonical labels.  The canonical
labels of a :class:`Graph` are the pre-order of the split forest: v, then
the subtrees of its newest split's clones 1 and 2, then those of its older
splits; :meth:`StableGraph.canonical` builds them from the chain.
:func:`step`, :func:`apply_divisions` and :func:`divide_vertex` return a
Graph under canonical labels, as if each division had shifted the vertices
above it up by two; :func:`step` keeps a StableGraph in stable ids.
:func:`evolve` runs on a StableGraph, since cycle search is valid under any
fixed labelling, and its trace builds the final graph's canonical labels
only when it is read.  The dense-matrix reference in :mod:`gra.dense` is
the semantic authority and differential tests keep the two in lock step.
"""

import time as _time
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

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
    GraError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NonBinaryStateError,
    check_number,
)
from .graph import Graph, state_fingerprint
from .rules import Rule

# a constant-order window longer than this restarts the cycle search
CYCLE_WINDOW_CAP = 100_000


@dataclass(frozen=True)
class StepOutcome:
    """graph is None when the step was refused for passing max_order."""

    graph: Optional[Union[Graph, "StableGraph"]]
    divisions_performed: int


@dataclass(frozen=True)
class Budget:
    """Stop conditions for evolve; the first limit reached wins.

    max_order ends the run at the first step whose order would pass it;
    that order is recorded, but the graph of that order is never built.
    wall_clock is in seconds and checked cooperatively before each step;
    None disables it (required for bit-reproducible runs).  A value of the
    wrong type (a bool is none) or one that cannot bound a run (max_steps
    < 0, max_order < 1, wall_clock <= 0) raises GraError naming the field.
    """

    max_steps: int
    max_order: int = 5_000_000
    wall_clock: Optional[float] = None

    def __post_init__(self):
        check_number(self.max_steps, "max_steps", integer=True)
        check_number(self.max_order, "max_order", integer=True)
        if self.wall_clock is not None:
            check_number(self.wall_clock, "wall_clock")
        if self.max_steps < 0:
            raise GraError(f"max_steps must be at least 0, got {self.max_steps}")
        if self.max_order < 1:
            raise GraError(f"max_order must be at least 1, got {self.max_order}")
        if self.wall_clock is not None and not self.wall_clock > 0:
            raise GraError(f"wall_clock must be positive, got {self.wall_clock}")


def step(
    g: Union[Graph, "StableGraph"],
    rule: Rule,
    *,
    room: Optional[Callable] = None,
    max_order: Optional[int] = None,
) -> StepOutcome:
    """Apply one synchronous step of the rule to the whole graph.

    A StableGraph stays in stable ids; any other graph comes back under
    canonical labels.  room, for a StableGraph, is passed on to
    :meth:`StableGraph.advanced`.  If the step's order, g.order plus two
    per division, would pass max_order, no graph is built: the outcome's
    graph is None and divisions_performed still counts the divisions.
    """
    new_states, div, n_div = _kernels.ACTIVE.step_tables(g.neighbors, g.states, rule.number)
    n_div = int(n_div)
    if max_order is not None and g.order + 2 * n_div > max_order:
        return StepOutcome(graph=None, divisions_performed=n_div)
    if isinstance(g, StableGraph):
        out = g.advanced(new_states, div, n_div, room)
    elif n_div:
        out = StableGraph.of(g).advanced(new_states, div, n_div).canonical()
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
class StableGraph:
    """A graph in stable vertex ids, as evolve holds it.

    rank holds each vertex's self-rank in the canonical order.  splits is
    the chain of division steps since the graph was taken from canonical
    labels, newest first: (order before, divider ids, older splits), or
    None when there were none.
    """

    neighbors: np.ndarray
    states: np.ndarray
    rank: np.ndarray
    splits: Optional[tuple] = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return self.states.shape[0]

    @classmethod
    def of(cls, g: Graph) -> "StableGraph":
        """g's canonical labels taken as its stable ids."""
        return cls(g.neighbors, g.states, self_rank(g.neighbors))

    def advanced(
        self, states: np.ndarray, d: np.ndarray, n_div: int, room: Optional[Callable] = None
    ) -> "StableGraph":
        """The graph with new states and the n_div vertices flagged in d divided.

        The division kernel writes into neighbor and rank tables with room
        for the clones.  By default they are fresh copies of this graph's,
        so this graph is left as it was.  room(g, rows), if given, returns
        such tables of at least rows rows instead, and the kernel patches
        them in place.
        """
        if not n_div:
            return StableGraph(self.neighbors, states, self.rank, self.splits)
        nb, rank = (room or _tables_with_room)(self, self.order + 2 * n_div)
        nb, st, rank, dividers = _kernels.ACTIVE.divide_all(nb, states, d, n_div, rank=rank)
        if st.shape[0] != self.order + 2 * n_div:
            raise EngineInvariantError(
                f"order changed by {st.shape[0] - self.order} for {n_div} divisions"
            )
        return StableGraph(nb, st, rank, (self.order, dividers, self.splits))

    def canonical(self) -> Graph:
        """This graph under its canonical labels.

        Rows are already in canonical order, so relabelling keeps them
        ascending.  Raises EngineInvariantError unless the positions are a
        permutation of the ids.
        """
        if self.splits is None:
            return Graph._wrap(self.neighbors, self.states)
        pos = canonical_positions(self.splits, self.order)
        counts = np.bincount(pos)  # sizes are positive, so no position is negative
        if counts.shape[0] != self.order or not counts.all():
            raise EngineInvariantError("canonical positions are not a permutation")
        inv = np.empty_like(pos)  # the stable id at each canonical label
        inv[pos] = np.arange(self.order)
        return Graph._wrap(pos[self.neighbors.take(inv, axis=0)], self.states[inv])


def _tables_with_room(g: StableGraph, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Fresh neighbor and rank tables of the given rows, the first g.order of them g's."""
    nb = np.empty((rows, 3), np.int64)
    nb[: g.order] = g.neighbors
    rank = np.empty(rows, np.uint8)
    rank[: g.order] = g.rank
    return nb, rank


class _GrowingTables:
    """The neighbor and rank tables one evolve owns, which its graph lives in.

    Called as the room of :meth:`StableGraph.advanced` with the graph last
    made in them (or, the first time, any graph), it returns them, grown
    first if they hold fewer than rows rows.  The capacity grows to
    max(rows, min(max_order, 2 * capacity)), so a run copies its tables
    O(log order) times, and never past max_order rows unless asked for
    more; the pages of rows not yet written are not paged in.
    """

    def __init__(self, max_order: int):
        self.max_order = max_order
        self.capacity = 0

    def __call__(self, g: StableGraph, rows: int) -> tuple[np.ndarray, np.ndarray]:
        if rows > self.capacity:
            self.capacity = max(rows, min(self.max_order, 2 * self.capacity))
            self.neighbors, self.rank = _tables_with_room(g, self.capacity)
        return self.neighbors, self.rank


def canonical_positions(splits: Optional[tuple], order: int) -> np.ndarray:
    """Canonical label of every stable id, from a split chain ending at order.

    The labels are the pre-order of the split forest: v, then its newest
    split's clone-1 and clone-2 subtrees, then its older splits.  Two passes
    of one vectorised batch per split.  Newest split first, each divider's
    subtree size takes in its clones' subtrees.  Then the roots take
    consecutive runs, and oldest split first, each divider gives back that
    split's clones; what is left of its size is how far its newer splits
    reach, so this split's clone 1 starts there, past v itself.
    """
    size = np.ones(order, np.int64)
    steps = []  # (order before, order after, divider ids), newest first
    end = order
    while splits is not None:
        o, u, splits = splits
        if o + 2 * u.shape[0] != end:
            raise EngineInvariantError(f"splits do not add up to order {order}")
        size[u] += size[o:end:2] + size[o + 1:end:2]
        steps.append((o, end, u))
        end = o
    pos = np.empty(order, np.int64)  # the ids below end are the roots
    np.cumsum(size[:end], out=pos[:end])
    pos[:end] -= size[:end]
    for o, end, u in reversed(steps):
        size[u] -= size[o:end:2] + size[o + 1:end:2]
        first = pos[u] + size[u]
        pos[o:end:2] = first
        pos[o + 1:end:2] = first + size[o:end:2]
    return pos


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
    return StableGraph.of(g).advanced(g.states, d, n_div).canonical()


def _advance_states(g: StableGraph, rule: Rule, k: int) -> np.ndarray:
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
    in the trace.  On max-order, the last order recorded is the one that
    passed budget.max_order, and the final graph is the one before it:
    :func:`step` refuses the step without building its graph.

    The loop holds the graph as a StableGraph in neighbor and rank tables
    of its own, which each division step patches in place and which grow
    geometrically up to budget.max_order rows; the trace takes its
    canonical labels when the final graph is first read.  A window's first
    states are hashed only once the step after them keeps the order, so a
    division step hashes nothing.
    """
    g = StableGraph.of(g0)
    room = _GrowingTables(budget.max_order)
    orders = [g.order]
    seen: dict[str, int] = {}
    # the first graph of the window, not hashed yet: no states array is
    # written after its step returns, so holding the graph keeps its states
    anchor: Optional[tuple[StableGraph, int]] = (g, 0)
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
        out = step(g, rule, room=room, max_order=budget.max_order)
        t += 1
        orders.append(g.order + 2 * out.divisions_performed)
        if out.graph is None:
            stop = STOP_MAX_ORDER
            break
        g = out.graph

        if out.divisions_performed:
            anchor, pending = (g, t), None
            continue
        if anchor is not None:  # the window restarts at the anchor
            seen = {state_fingerprint(anchor[0]): anchor[1]}
            anchor = None
        digest = state_fingerprint(g)

        if pending is not None:
            due, p, snap = pending
            if t == due:
                if g.states.tobytes() == snap:
                    cycle_period = minimal_period(
                        g.states, lambda k: _advance_states(g, rule, k), p
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
        build_final_graph=g.canonical,
    )
