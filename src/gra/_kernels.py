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

Both are numpy, and a large call runs as two halves on two threads: the
calling thread does the first half of each data-parallel phase and one
helper thread the second, and since numpy releases the GIL inside gathers,
scatters and ufunc loops, the halves overlap.  ``step_tables`` splits its
rows, each half writing its part of the new states and flags.
``divide_all`` finds the divider ids in two halves of the rows, then runs
three phases in two halves of the dividers, each phase ending in both
halves before the next starts: find every back-slot, write them, then
build the clones' rows and self-ranks, which read a divider's row only
after dividing neighbours in either half have patched it.  An unsplit call
runs the same phase code on whole arrays.

A pass over the rows splits from ``_SPLIT_ROWS`` (2^17) rows, and the
per-divider phases from ``_SPLIT_DIVIDERS`` (2^13) dividers, so a
large-order call with few dividers hands off no phase that has little to
do.  Handing a half over costs 15-30 us, and on captured rule-1026 inputs
(2 vCPUs, 2 MiB L2) a split ``step_tables`` breaks even at about 70,000
rows and split divider phases at about 8,000 dividers.  A process splits
only where it may use 2 CPUs or more, and never in a ``multiprocessing``
child: a sweep's pool workers already hold the CPUs.  The helper thread is
made at a process's first split call and kept by pid, so a forked child
makes its own rather than handing work to a thread it does not have.

The engine calls the kernels through ``ACTIVE``, so a tracer can wrap them
by replacing that tuple.
"""

import importlib.util
import multiprocessing
import os
import queue
import threading
from typing import Callable, NamedTuple

import numpy as np

# whether numba could be imported, found without importing it; only
# perfbench reads it, to record with every run
HAS_NUMBA = importlib.util.find_spec("numba") is not None

# a pass over the rows splits from this many rows, and the per-divider
# phases of divide_all from this many dividers (see the module docstring)
_SPLIT_ROWS = 1 << 17
_SPLIT_DIVIDERS = 1 << 13


class _Helper:
    """A thread that runs the second half of each split phase."""

    def __init__(self):
        # held while a half is out, so that a call from another thread
        # finds it taken and runs both halves itself
        self._lock = threading.Lock()
        self._halves = queue.SimpleQueue()
        self._results = queue.SimpleQueue()
        threading.Thread(target=self._serve, name="gra-kernel-half", daemon=True).start()

    def _serve(self):
        while True:
            phase, args = self._halves.get()
            try:
                self._results.put((phase(*args), None))
            except BaseException as exc:  # run re-raises it in the caller
                self._results.put((None, exc))

    def run(self, phase, first, second):
        """(phase(*first), phase(*second)), the second on the helper thread
        when it is free.  Both halves have ended before either's exception
        propagates.  A wait cut short (by a KeyboardInterrupt) leaves the
        lock held, so a late result is never read as another call's and
        the process no longer splits."""
        if not self._lock.acquire(blocking=False):
            return phase(*first), phase(*second)
        self._halves.put((phase, second))
        try:
            mine = phase(*first)
        finally:
            theirs, exc = self._results.get()
            self._lock.release()
        if exc is not None:
            raise exc
        return mine, theirs


# the helper of each process, by pid: a forked child inherits the parent's
# entry but not its thread, so it makes its own.  Two threads making a
# process's first split call at once may each make one, and both work
_helpers: dict = {}


def _helper():
    """This process's helper, made at its first split call, or None where
    two halves cannot overlap: the process may use only one CPU, or it is a
    multiprocessing child, such as a sweep's pool worker, whose siblings
    hold the other CPUs."""
    pid = os.getpid()
    if pid not in _helpers:
        if hasattr(os, "sched_getaffinity"):
            cpus = len(os.sched_getaffinity(0))
        else:
            cpus = os.cpu_count() or 1
        usable = cpus >= 2 and multiprocessing.parent_process() is None
        _helpers[pid] = _Helper() if usable else None
    return _helpers[pid]


def _cut(n, least):
    """Where n rows or dividers split into two halves, or 0 to keep them whole."""
    return n // 2 if n >= least and _helper() is not None else 0


def step_tables(neighbors, states, number):
    o = states.shape[0]
    h = _cut(o, _SPLIT_ROWS)
    if not h:
        return _update(neighbors, states, states, number)
    new_states = np.empty(o, np.uint8)
    div = np.empty(o, np.uint8)
    first, second = _helper().run(
        _update,
        (neighbors[:h], states[:h], states, number, new_states[:h], div[:h]),
        (neighbors[h:], states[h:], states, number, new_states[h:], div[h:]),
    )
    return new_states, div, first[2] + second[2]


def _update(neighbors, own, states, number, new_states=None, div=None):
    """(new states, division flags, their count) of the rows of neighbors,
    whose own states are own; written into new_states and div when they
    are given."""
    conf = 4 * own + states[neighbors[:, 0]]  # at most 7, so uint8 holds it
    conf += states[neighbors[:, 1]]
    conf += states[neighbors[:, 2]]
    # the rule number is its own table: bit c is the next state for
    # configuration c, bit c + 8 its division flag
    new_states = np.right_shift(np.uint8(number & 0xFF), conf, out=new_states)
    new_states &= 1
    div = np.right_shift(np.uint8(number >> 8), conf, out=div)
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
    # larger array, and the split chain keeps the ids, so copy them now (the
    # concatenation of two halves is a copy)
    flags = div.view(np.bool_)
    h = _cut(o, _SPLIT_ROWS)
    if not h:
        u = _dividers(flags).copy()
    else:
        u = np.concatenate(_helper().run(_dividers, (flags[:h],), (flags[h:], h)))
    n = u.shape[0]
    m = o + 2 * n
    flat = neighbors.reshape(-1)
    clones = np.empty((n, 3), np.int64)
    h = _cut(n, _SPLIT_DIVIDERS)
    if not h:
        at = _back_slots(u, clones, o, neighbors, flat)
        _write_slots(at, clones, flat)
        _clone_rows(u, clones, o, neighbors, flat, rank)
    else:
        # each phase ends in both halves before the next starts: every slot
        # is found before the first is written, and a divider's row, which
        # dividing neighbors in either half patch, is read after the writes
        run = _helper().run
        low, high = (u[:h], clones[:h], o), (u[h:], clones[h:], o + 2 * h)
        at = run(_back_slots, (*low, neighbors, flat), (*high, neighbors, flat))
        run(_write_slots, (at[0], clones[:h], flat), (at[1], clones[h:], flat))
        run(_clone_rows, (*low, neighbors, flat, rank), (*high, neighbors, flat, rank))
    new_states = np.concatenate((states, np.repeat(states[u], 2)))
    return neighbors[:m], new_states, rank[:m], u


def _dividers(flags, lo=0):
    """The ids of the flagged rows, flags being the rows from lo on."""
    u = np.flatnonzero(flags)
    if lo:
        u += lo
    return u


def _back_slots(u, clones, first, neighbors, flat):
    """Fill clones with the clone ids of dividers u: clone 0 keeps the
    divider's id, and clones 1 and 2 are appended from first on, two ids a
    divider; return the back-slots, the slot of each neighbor of a divider
    that points at it, in the order of its neighbors."""
    n = u.shape[0]
    clones[:, 0] = u
    clones[:, 1:] = np.arange(first, first + 2 * n).reshape(n, 2)
    # the slot of w pointing at u goes to u's clone k, where w is u's k-th
    # neighbor.  flat[1:][at] and flat[2:][at] read the slots after at
    # without an at + 1 array
    at = 3 * neighbors.take(u, axis=0)
    u_col = u[:, None]
    at += (flat[1:][at] == u_col) + 2 * (flat[2:][at] == u_col)
    return at


def _write_slots(at, clones, flat):
    """Point each back-slot at its clone; each slot points at one vertex, so
    none is written twice."""
    flat[at] = clones


def _clone_rows(u, clones, first, neighbors, flat, rank):
    """Write the clones' rows and self-ranks, those of clones 1 and 2 from
    rank row first on.  Clone 0's row replaces its divider's, so it is read
    only after every slot is written: a dividing t is a clone by then."""
    t = neighbors.take(u, axis=0)
    # clone k's slots and self-rank are read from the tables by u's self-rank
    r = rank.take(u).astype(np.intp)
    at = 3 * clones  # the first slot of each clone's row
    a_at = at + _A_SLOT.take(r, axis=0)
    flat[a_at] = clones.take(_A, axis=1)
    flat[1:][a_at] = clones.take(_B, axis=1)  # b follows a
    at += _T_SLOT.take(r, axis=0)
    flat[at] = t
    clone_rank = _CLONE_RANK.take(r, axis=0)
    rank[first : first + 2 * u.shape[0]] = clone_rank[:, 1:].reshape(-1)
    rank[u] = clone_rank[:, 0]


class Backend(NamedTuple):
    step_tables: Callable
    divide_all: Callable


ACTIVE = Backend(step_tables, divide_all)


def backend_name() -> str:
    return "numpy"
