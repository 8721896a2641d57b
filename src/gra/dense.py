"""Dense-matrix reference implementation, used as a differential-test oracle.

Everything here is a literal transcription of the matrix procedure: the
configuration vector is 4*S + A.S, states and division flags come from the
rule tables, and each division physically triples one row and column of
the adjacency matrix.  It is deliberately independent of the flat-table
engine (different data structure, different algorithm, one division at a
time instead of a batch over stable ids) and is only meant for modest orders.
"""

from typing import Optional

import numpy as np

from .engine import StepOutcome
from .errors import IndexOutOfRangeError, LengthMismatchError, OracleCapExceededError
from .graph import Graph
from .rules import Rule

DEFAULT_ORACLE_CAP = 2_000


def dense_from_graph(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    return g.adjacency_matrix(), g.states.copy()


def graph_from_dense(adjacency: np.ndarray, states: np.ndarray) -> Graph:
    o = adjacency.shape[0]
    rows, cols = np.nonzero(adjacency)  # row-major, so each row's columns ascend
    degree = np.bincount(rows, minlength=o)
    bad = np.flatnonzero(degree != 3)
    if bad.size:
        v = int(bad[0])
        raise LengthMismatchError(f"dense row {v} has degree {int(degree[v])}")
    neighbors = cols.astype(np.int64, copy=False).reshape(o, 3)
    return Graph._wrap(neighbors, states.astype(np.uint8))


def reference_divide_dense(
    adjacency: np.ndarray, states: np.ndarray, v: int
) -> tuple[np.ndarray, np.ndarray]:
    """Divide vertex v by tripling its line and column.

    The tripled rows initially repeat v's former neighbor row; the ones are
    then spread so that the k-th former neighbor (ascending column index)
    stays attached to the k-th clone, and the 3x3 intersection becomes the
    triangle block with zeros on the diagonal and ones everywhere else.
    The state entry is tripled as-is.
    """
    o = adjacency.shape[0]
    if not 0 <= v < o:
        raise IndexOutOfRangeError(f"vertex {v} out of range for order {o}")
    reps = np.ones(o, dtype=np.int64)
    reps[v] = 3
    a2 = np.repeat(np.repeat(adjacency, reps, axis=0), reps, axis=1)
    s2 = np.repeat(states, reps)
    cols = np.flatnonzero(a2[v])  # exactly three ones, ascending
    for k in range(3):
        a2[v + k, :] = 0
        a2[:, v + k] = 0
    for k in range(3):
        a2[v + k, cols[k]] = 1
        a2[cols[k], v + k] = 1
    block = np.ones((3, 3), dtype=adjacency.dtype) - np.eye(3, dtype=adjacency.dtype)
    a2[v : v + 3, v : v + 3] = block
    return a2, s2


def reference_apply_divisions_dense(
    adjacency: np.ndarray, states: np.ndarray, division: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Process the division vector literally: find the first 1, divide that
    vertex, turn the entry into a 0 and triple it, repeat until null."""
    a, s = adjacency, states
    d = division.astype(np.int64).copy()
    if d.shape[0] != a.shape[0]:
        raise LengthMismatchError("division vector length does not match order")
    while True:
        nz = np.flatnonzero(d)
        if len(nz) == 0:
            return a, s
        v = int(nz[0])
        a, s = reference_divide_dense(a, s, v)
        d[v] = 0
        reps = np.ones(len(d), dtype=np.int64)
        reps[v] = 3
        d = np.repeat(d, reps)


def reference_step_dense(
    g: Graph, rule: Rule, cap: Optional[int] = DEFAULT_ORACLE_CAP
) -> StepOutcome:
    """Same observable result as engine.step, computed on dense matrices."""
    if cap is not None and g.order > cap:
        raise OracleCapExceededError(f"order {g.order} exceeds oracle cap {cap}")
    a, s = dense_from_graph(g)
    s64 = s.astype(np.int64)
    conf = 4 * s64 + a.astype(np.int64) @ s64
    new_s = rule.next_state[conf].astype(np.uint8)
    division = rule.divides[conf].astype(np.int64)
    n_div = int(division.sum())
    a2, s2 = reference_apply_divisions_dense(a, new_s, division)
    return StepOutcome(graph=graph_from_dense(a2, s2), divisions_performed=n_div)
