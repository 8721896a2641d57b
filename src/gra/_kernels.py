"""Hot numeric kernels over the flat 3-neighbor representation.

A graph is held as ``neighbors`` (shape ``(order, 3)`` int64, every row
sorted ascending) plus ``states`` (shape ``(order,)`` uint8).  The two
kernels below are the per-step inner loops:

``step_tables``
    compute each vertex's configuration (4*state + number of alive
    neighbors), look up the new state and the division flag in the rule
    tables, and count divisions.

``divide_all``
    perform every flagged division in one batch.  A dividing vertex v is
    replaced by three clones on consecutive indices; the clones form a
    triangle and inherit v's former neighbors one each, ascending former
    neighbor index to ascending clone index.  Vertices above v shift up
    by two.  Processing the flags lowest-index-first with in-place
    shifting is equivalent to a single relabeling pass: the final index
    of old vertex v is v + 2*(dividers below v), so the whole surgery is
    done in O(order) regardless of how many vertices divide.

Two backends implement the same arithmetic.  The numba backend compiles
the explicit ``_loop_*`` kernels with @njit.  The numpy backend sums the
configurations in uint8 and divides in the index form of the paper's
matrix procedure: every row is repeated ``1 + 2*div`` times (the
duplication matrix), the back-slot of each divider's neighbours gets its
clone offset, and each clone row puts its inherited target t first when
t < p, the first clone's index, and last otherwise.  ``ACTIVE`` is chosen
once at import: numba when it is importable, numpy otherwise.  The
uncompiled loop kernels stay importable as the reference that
differential tests run against both.
"""

from typing import Callable, NamedTuple

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False


# --------------------------------------------------------------------------
# numpy backend
# --------------------------------------------------------------------------

def _np_step_tables(neighbors, states, next_table, div_table):
    conf = 4 * states + states[neighbors[:, 0]]  # at most 7, so uint8 holds it
    conf += states[neighbors[:, 1]]
    conf += states[neighbors[:, 2]]
    div = div_table[conf]
    return next_table[conf], div, int(np.count_nonzero(div))


def _np_divide_all(neighbors, states, div, n_div):
    reps = 1 + 2 * div
    newpos = np.cumsum(reps, dtype=np.int64) - reps
    target = newpos[neighbors]

    # the slot of v pointing at a divider u moves to u's clone k, where k is
    # v's rank in u's row; each slot points at one vertex, so none is hit twice
    u = np.flatnonzero(div)
    v = neighbors[u]
    back = (neighbors[v, 1] == u[:, None]) + 2 * (neighbors[v, 2] == u[:, None])
    target[v, back] += np.arange(3)

    # the relabeling is increasing and a clone offset stays below the next
    # vertex's index, so every duplicated row is already ascending
    new_neighbors = np.repeat(target, reps, axis=0)
    new_states = np.repeat(states, reps)

    # clone k of u at p + k: the triangle partners a < b plus its inherited
    # target t, which lies outside [p, p + 2]
    p = newpos[u][:, None]
    t = target[u]
    a, b = p + np.array([1, 0, 0]), p + np.array([2, 2, 1])
    low = t < p
    clones = (p + np.arange(3)).ravel()
    new_neighbors[clones, 0] = np.where(low, t, a).ravel()
    new_neighbors[clones, 1] = np.where(low, a, b).ravel()
    new_neighbors[clones, 2] = np.where(low, b, t).ravel()
    return new_neighbors, new_states


# --------------------------------------------------------------------------
# loop implementations (compiled by numba when available)
# --------------------------------------------------------------------------

def _loop_step_tables(neighbors, states, next_table, div_table):
    o = states.shape[0]
    new_states = np.empty(o, np.uint8)
    div = np.empty(o, np.uint8)
    n_div = 0
    for v in range(o):
        c = (
            4 * states[v]
            + states[neighbors[v, 0]]
            + states[neighbors[v, 1]]
            + states[neighbors[v, 2]]
        )
        new_states[v] = next_table[c]
        d = div_table[c]
        div[v] = d
        n_div += d
    return new_states, div, n_div


def _loop_divide_all(neighbors, states, div, n_div):
    o = states.shape[0]
    newpos = np.empty(o, np.int64)
    shift = 0
    for v in range(o):
        newpos[v] = v + shift
        if div[v] != 0:
            shift += 2
    o2 = o + shift
    new_neighbors = np.empty((o2, 3), np.int64)
    new_states = np.empty(o2, np.uint8)
    for v in range(o):
        p = newpos[v]
        if div[v] != 0:
            for k in range(3):
                u = neighbors[v, k]
                t = newpos[u]
                if div[u] != 0:
                    # clone slot of the mutual edge on u's side
                    if neighbors[u, 1] == v:
                        t += 1
                    elif neighbors[u, 2] == v:
                        t += 2
                # clone k: two triangle partners plus the inherited edge
                if k == 0:
                    x = p + 1
                    y = p + 2
                elif k == 1:
                    x = p + 0
                    y = p + 2
                else:
                    x = p + 0
                    y = p + 1
                if t < x:
                    new_neighbors[p + k, 0] = t
                    new_neighbors[p + k, 1] = x
                    new_neighbors[p + k, 2] = y
                elif t < y:
                    new_neighbors[p + k, 0] = x
                    new_neighbors[p + k, 1] = t
                    new_neighbors[p + k, 2] = y
                else:
                    new_neighbors[p + k, 0] = x
                    new_neighbors[p + k, 1] = y
                    new_neighbors[p + k, 2] = t
            new_states[p] = states[v]
            new_states[p + 1] = states[v]
            new_states[p + 2] = states[v]
        else:
            # ascending original neighbors map to ascending targets, so
            # the row stays sorted without an explicit sort
            for k in range(3):
                u = neighbors[v, k]
                t = newpos[u]
                if div[u] != 0:
                    if neighbors[u, 1] == v:
                        t += 1
                    elif neighbors[u, 2] == v:
                        t += 2
                new_neighbors[p, k] = t
            new_states[p] = states[v]
    return new_neighbors, new_states


class Backend(NamedTuple):
    name: str
    step_tables: Callable
    divide_all: Callable


NUMPY_BACKEND = Backend("numpy", _np_step_tables, _np_divide_all)

if HAS_NUMBA:
    NUMBA_BACKEND = Backend(
        "numba", njit(cache=True)(_loop_step_tables), njit(cache=True)(_loop_divide_all)
    )
    ACTIVE = NUMBA_BACKEND
else:
    NUMBA_BACKEND = None
    ACTIVE = NUMPY_BACKEND


def backend_name() -> str:
    return ACTIVE.name
