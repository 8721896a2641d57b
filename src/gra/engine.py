"""One synchronous rewrite step and long-horizon evolution.

A step, applied to the whole graph at once:

1. configuration of every vertex from the OLD states,
2. new states from the rule's next-state table,
3. division flags from the rule's division table (same configurations),
4. every flagged vertex divides; clones inherit the post-update state.

The division kernel works on stable vertex ids (see :mod:`gra._kernels`):
it patches O(dividers) rows in place, in tables with room for the clones.
A public :func:`step` hands it a fresh copy of the graph's tables, so
every graph stays a value.  :func:`evolve`, which owns its graph and never
branches, runs its own step loop and hands it tables of its own instead,
grown geometrically, so a division step copies no table; nor does it hash
the states a division step made unless the next step keeps the order,
since only then can they start a cycle.  A :class:`StableGraph` is a
graph in those ids: its tables, each vertex's self-rank, and its splits,
the chain of division steps (order before, ids that divided) since it was
taken from canonical labels.  The canonical labels of a :class:`Graph`
are the pre-order of the split forest: v, then the subtrees of its newest
split's clones 1 and 2, then those of its older splits;
:meth:`StableGraph.canonical` builds them from the chain.  :func:`step`,
:func:`apply_divisions` and :func:`divide_vertex` return a Graph under
canonical labels, as if each division had shifted the vertices above it up
by two.  :func:`evolve` runs on a StableGraph, since cycle search is valid
under any fixed labelling, and its trace builds the final graph's
canonical labels only when it is read.  The dense-matrix reference in
:mod:`gra.dense` is the semantic authority and differential tests keep the
two in lock step.
"""

import time as _time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .analysis import (
    STOP_CYCLE,
    STOP_MAX_ORDER,
    STOP_MAX_STEPS,
    STOP_WALL_CLOCK,
    EvolutionTrace,
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
        check_number(self.max_steps, "max_steps", integer=True, least=0)
        check_number(self.max_order, "max_order", integer=True, least=1)
        if self.wall_clock is not None:
            check_number(self.wall_clock, "wall_clock")
            if not self.wall_clock > 0:
                raise GraError(f"wall_clock must be positive, got {self.wall_clock}")


def step(g: Graph, rule: Rule) -> Graph:
    """The graph one synchronous step of the rule makes from g.

    It comes back under canonical labels, and g is left as it was; the step
    made (order - g.order) // 2 divisions.
    """
    new_states, div, n_div = _kernels.ACTIVE.step_tables(g.neighbors, g.states, rule.number)
    if n_div:
        return _divide_copy(g, new_states, div, n_div)
    # no topology change: share the immutable neighbor table
    return Graph._wrap(g.neighbors, new_states)


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

    def canonical(self) -> Graph:
        """This graph under its canonical labels.

        Rows are already in canonical order, so relabelling keeps them
        ascending.  Raises EngineInvariantError unless the positions are a
        permutation of the ids.
        """
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


def _divided(
    g: StableGraph, states: np.ndarray, d: np.ndarray, n_div: int, nb: np.ndarray, rank: np.ndarray
) -> StableGraph:
    """g with new states and the n_div vertices flagged in d divided.

    nb and rank are neighbor and rank tables with room for the clones,
    their first g.order rows g's; the division kernel patches them in
    place, and the graph it returns lives in them.
    """
    nb, st, rank, dividers = _kernels.ACTIVE.divide_all(nb, states, d, n_div, rank=rank)
    if st.shape[0] != g.order + 2 * n_div:
        raise EngineInvariantError(
            f"order changed by {st.shape[0] - g.order} for {n_div} divisions"
        )
    return StableGraph(nb, st, rank, (g.order, dividers, g.splits))


def _divide_copy(g: Graph, states: np.ndarray, d: np.ndarray, n_div: int) -> Graph:
    """g with new states and the n_div vertices flagged in d divided, under
    canonical labels.  The division kernel writes into fresh copies of g's
    tables, so g is left as it was."""
    stable = StableGraph.of(g)
    nb, rank = _tables_with_room(stable, g.order + 2 * n_div)
    return _divided(stable, states, d, n_div, nb, rank).canonical()


def minimal_period(g: Graph | StableGraph, rule: Rule, period_bound: int) -> Optional[int]:
    """The minimal period of g's states, if they return after period_bound steps.

    One forward scan from g, in g's own tables: the states return exactly at
    the multiples of their first return q, so the answer is q if q divides
    period_bound and None otherwise.  None too if a step before the first
    return divides (in evolve's closing scan that means a digest collision)
    or the states have not returned by period_bound."""
    states = g.states
    for q in range(1, period_bound + 1):
        states, _, n_div = _kernels.ACTIVE.step_tables(g.neighbors, states, rule.number)
        if n_div:
            return None
        if np.array_equal(states, g.states):
            return q if period_bound % q == 0 else None
    return None


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
    GraError names a v that is not an integer (a bool is none).
    """
    check_number(v, "vertex", integer=True)
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
    return _divide_copy(g, g.states, d, int(d.sum()))


def evolve(g0: Graph, rule: Rule, budget: Budget) -> EvolutionTrace:
    """Run the rule from g0 until a budget limit hits or a cycle is confirmed.

    Cycle search: state fingerprints are mapped to steps within the current
    constant-order window (any division restarts the window, since the
    order never decreases a cycle must have frozen topology).  A digest
    match at step t against step t - p, with t + p within max_steps, is
    its window's first repeated state unless it is a collision: one
    :func:`minimal_period` call scans forward from t, stepping the states
    in g's frozen tables up to their first exact return, and confirms the
    cycle when that return divides p or refuses the match.  A confirmed
    cycle's graph at t + p is its graph at t, so the trace adds p steps of
    the same order and stops there; the deadline, checked before each step
    of the loop, is not checked inside that scan.
    Budget exhaustion is a normal outcome recorded in the trace.  On
    max-order, the last order recorded is the one that passed
    budget.max_order, and the final graph is the one before it: the loop
    checks a step's order, g.order plus two per division, before it
    builds that step's graph.

    The loop steps the graph itself, as a StableGraph in neighbor and rank
    tables of its own, which each division step patches in place.  When a
    step needs more rows, the tables grow to max(rows, min(max_order,
    2 * capacity)) rows, so a run copies them O(log order) times and never
    past budget.max_order rows; the pages of rows not yet written are not
    paged in.  The trace takes the final graph's canonical labels when it
    is first read.  A window's first states are hashed only once the step
    after them keeps the order, so a division step hashes nothing.
    """
    g = StableGraph.of(g0)
    capacity = 0  # rows of the run's own tables, made at its first division
    orders = [g.order]
    seen: Optional[dict[str, int]] = None  # None until the window's first step
    cycle_period: Optional[int] = None
    stop = STOP_MAX_STEPS
    deadline = None if budget.wall_clock is None else _time.monotonic() + budget.wall_clock

    for t in range(1, budget.max_steps + 1):
        if deadline is not None and _time.monotonic() >= deadline:
            stop = STOP_WALL_CLOCK
            break
        states, div, n_div = _kernels.ACTIVE.step_tables(g.neighbors, g.states, rule.number)
        rows = g.order + 2 * n_div
        orders.append(rows)
        if rows > budget.max_order:
            stop = STOP_MAX_ORDER
            break
        if n_div:
            if rows > capacity:
                capacity = max(rows, min(budget.max_order, 2 * capacity))
                tables = _tables_with_room(g, capacity)
            g, seen = _divided(g, states, div, n_div, *tables), None
            continue
        if seen is None:  # a step that keeps the order writes no table of g
            seen = {state_fingerprint(g): t - 1}
        g = StableGraph(g.neighbors, states, g.rank, g.splits)
        digest = state_fingerprint(g)
        p = t - seen.setdefault(digest, t)
        if p and t + p <= budget.max_steps:
            cycle_period = minimal_period(g, rule, p)
            if cycle_period is not None:
                orders += [g.order] * p
                stop = STOP_CYCLE
                break
        if len(seen) > CYCLE_WINDOW_CAP:
            seen = {digest: t}

    return EvolutionTrace(
        orders=np.asarray(orders, dtype=np.int64),
        stop_reason=stop,
        cycle_period=cycle_period,
        build_final_graph=g.canonical,
    )
