"""Hot numeric kernels over the flat 3-neighbor representation.

A graph is held as ``neighbors`` (shape ``(order, 3)`` int64) plus
``states`` (shape ``(order,)`` uint8).  The engine evolves these tables
under stable vertex ids: a vertex keeps its id for life, and the canonical
labels of a :class:`gra.graph.Graph` are rebuilt from the chain of splits
a :class:`gra.engine.StableGraph` carries, only when a graph is read (see
:mod:`gra.engine`).  Every row lists its
neighbors in canonical order, and ``rank`` (shape ``(order,)`` uint8)
holds each vertex's self-rank r(v), the number of its neighbors that sit
below it in that order.  The two kernels below are the per-step inner
loops:

``step_tables``
    compute each vertex's configuration c (4*state + number of alive
    neighbors), read the new state and the division flag from the rule
    number itself (bits c and c + 8, by a shift and a mask; a gather from
    an 8-entry table with a uint8 index is several times slower), and
    count divisions.

``divide_all``
    perform every flagged division in one batch, in place: O(dividers)
    patches to neighbor and rank tables that have room for the clones
    (their first rows are the graph's), plus O(order) to grow the states.
    It returns views of the rows in use.  Whose tables those are is the
    caller's choice: a public step hands it a fresh copy, so the graph it
    stepped stays as it was, and evolve its own buffers, which it grows
    geometrically.  Divider v is replaced by a triangle of clones: clone 0
    keeps the id v, clones 1 and 2 are appended as o + 2i and o + 2i + 1
    (o the order, i the rank of v among the dividers).  Clone k inherits
    v's k-th neighbor t, and the slot of t that pointed at v is renamed to
    clone k; a neighbor that divides too hands over its own clone at that
    slot.  The three clones take v's place in the canonical order, so no
    other row changes order and no other self-rank changes.  t sits below
    the block exactly when k < r(v), so clone k's row is [t, a, b] then,
    and [a, b, t] otherwise (a < b its two partners), and its self-rank is
    1 + k then, and k otherwise.  Three small tables, one row per
    self-rank 0-3 and one column per clone, hold a's slot, t's slot and the
    clone's self-rank, so one ``take`` by r(v) gives all three clones'
    values.  Rows are gathered with ``take``, which is several times faster
    than 2-D fancy indexing; the clones' ranks are written past the old
    ones, and the new states are the old ones with the appended clones'
    concatenated.

Both are numpy.  The engine calls them through ``ACTIVE``, so a tracer
can wrap them by replacing that tuple.
"""

import importlib.util
from typing import Callable, NamedTuple

import numpy as np

# whether numba could be imported, found without importing it; only
# perfbench reads it, to record with every run
HAS_NUMBA = importlib.util.find_spec("numba") is not None


def step_tables(neighbors, states, number):
    conf = 4 * states + states[neighbors[:, 0]]  # at most 7, so uint8 holds it
    conf += states[neighbors[:, 1]]
    conf += states[neighbors[:, 2]]
    # the rule number is its own table: bit c is the next state for
    # configuration c, bit c + 8 its division flag
    new_states = np.uint8(number & 0xFF) >> conf
    new_states &= 1
    div = np.uint8(number >> 8) >> conf
    div &= 1
    return new_states, div, int(np.count_nonzero(div))


# clone k's two triangle partners a < b, as clone indices
_A = np.array([1, 0, 0])
_B = np.array([2, 2, 1])

# per self-rank r of a divider (the row index), per clone k (the column):
# the slot of a in clone k's row, the slot of its inherited neighbor t, and
# its self-rank.  t sits below the block exactly when k < r, so the row is
# [t, a, b] then (a in slot 1, t in slot 0, rank 1 + k), and [a, b, t]
# otherwise (a in slot 0, t in slot 2, rank k)
_LOW = np.arange(3) < np.arange(4)[:, None]
_A_SLOT = _LOW.astype(np.int64)
_T_SLOT = 2 * (1 - _A_SLOT)
_CLONE_RANK = (_LOW + np.arange(3)).astype(np.uint8)


def divide_all(neighbors, states, div, n_div, *, rank):
    """Divide every flagged vertex in place, in stable ids.

    div is uint8 with entries 0 or 1, and states (the new states) has one
    entry per vertex, so its length o is the order.  neighbors and rank are
    tables with room: at least o + 2 * n_div rows, of which the first o are
    the graph's.  They are patched in place.  Returns (neighbors, states,
    rank, dividers): views of the first o + 2 * n_div rows of the two
    tables, the states grown by the appended clones', and dividers the
    ascending ids that divided, in an array of their own.
    """
    o = states.shape[0]
    # a bool input takes flatnonzero's fast path; its result is a view of a
    # larger array, and the split chain keeps the ids, so copy them now
    u = np.flatnonzero(div.view(np.bool_)).copy()
    n = u.shape[0]
    m = o + 2 * n
    flat = neighbors.reshape(-1)
    clones = np.empty((n, 3), np.int64)
    clones[:, 0] = u
    clones[:, 1:] = np.arange(o, m).reshape(n, 2)

    # the slot of w pointing at u goes to u's clone k, where w is u's k-th
    # neighbor; each slot points at one vertex, so none is written twice,
    # and every slot is found before the first is written.  flat[1:][at]
    # and flat[2:][at] read the slots after at without an at + 1 array
    at = 3 * neighbors.take(u, axis=0)
    u_col = u[:, None]
    at += (flat[1:][at] == u_col) + 2 * (flat[2:][at] == u_col)
    flat[at] = clones
    t = neighbors.take(u, axis=0)  # after the writes: a dividing t is a clone now

    # clone k's slots and self-rank are read from the tables by u's self-rank
    r = rank.take(u).astype(np.intp)
    at = 3 * clones  # the first slot of each clone's row
    a_at = at + _A_SLOT.take(r, axis=0)
    flat[a_at] = clones.take(_A, axis=1)
    flat[1:][a_at] = clones.take(_B, axis=1)  # b follows a
    at += _T_SLOT.take(r, axis=0)
    flat[at] = t

    # clone 0 keeps u's id, so only clones 1 and 2 are appended
    clone_rank = _CLONE_RANK.take(r, axis=0)
    rank[o:m] = clone_rank[:, 1:].reshape(-1)
    rank[u] = clone_rank[:, 0]
    new_states = np.concatenate((states, np.repeat(states[u], 2)))
    return neighbors[:m], new_states, rank[:m], u


class Backend(NamedTuple):
    step_tables: Callable
    divide_all: Callable


ACTIVE = Backend(step_tables, divide_all)


def backend_name() -> str:
    return "numpy"
