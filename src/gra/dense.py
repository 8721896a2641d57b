"""Dense-matrix reference implementation, used as a differential-test oracle.

The configuration vector is 4*S + A.S, states and division flags come from
the rule tables, and all of a step's divisions are one duplication product
E A E^T (each divider's row and column tripled) followed by masks that leave
each clone one inherited edge and give each divider its triangle.  It is
deliberately independent of the flat-table engine (dense masks in canonical
labels instead of patches to stable-id tables): it imports only the graph,
rule and error modules, never gra.engine or gra._kernels.  It is only meant
for modest orders.
"""

import numpy as np

from .errors import IndexOutOfRangeError, LengthMismatchError, OracleCapExceededError
from .graph import Graph
from .rules import Rule

DEFAULT_ORACLE_CAP = 2_000


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
    """Every division at once: new row i is clone c_i (0-2) of old row src_i,
    src = repeat(arange(o), 1 + 2d) being E in index form.  With R the rank
    (cumsum(A, 1) - 1) * A * d[:, None] of u in divider v's row, A'_ij =
    A[src_i, src_j] [c_i = R[src_i, src_j]] [c_j = R[src_j, src_i]], or-ed
    with each divider's triangle [src_i = src_j] [c_i != c_j]."""
    o = adjacency.shape[0]
    d = division.astype(bool)
    if d.shape[0] != o:
        raise LengthMismatchError("division vector length does not match order")
    reps = 1 + 2 * d.astype(np.int64)
    src = np.repeat(np.arange(o), reps)
    clone = (np.arange(src.size) - np.searchsorted(src, src)).astype(np.int8)
    a = adjacency != 0
    rank = (np.cumsum(a, axis=1, dtype=np.int8) - 1) * a * d[:, None]
    r = rank[src][:, src]
    a2 = a[src][:, src] & (clone[:, None] == r) & (clone == r.T)
    a2 |= (src[:, None] == src) & (clone[:, None] != clone)
    return a2.astype(adjacency.dtype), np.repeat(states, reps)


def reference_step_dense(g: Graph, rule: Rule) -> Graph:
    """The graph engine.step makes, computed on dense matrices;
    OracleCapExceededError for a graph above DEFAULT_ORACLE_CAP vertices."""
    if g.order > DEFAULT_ORACLE_CAP:
        raise OracleCapExceededError(f"order {g.order} exceeds oracle cap {DEFAULT_ORACLE_CAP}")
    a = g.adjacency_matrix()
    s64 = g.states.astype(np.int64)
    conf = 4 * s64 + a.astype(np.int64) @ s64
    new_s = rule.next_state[conf].astype(np.uint8)
    division = rule.divides[conf].astype(np.int64)
    return graph_from_dense(*reference_apply_divisions_dense(a, new_s, division))
