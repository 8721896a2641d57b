"""Shared strategies and small utilities for the test suite."""

import contextlib

import numpy as np
import pytest
from hypothesis import strategies as st

from gra import _kernels
from gra.generate import random_regular_graph
from gra.graph import Graph
from gra.rules import decode


@st.composite
def graphs(draw, min_order=4, max_order=32):
    order = draw(st.sampled_from(range(min_order, max_order + 1, 2)))
    seed = draw(st.integers(0, 2**31 - 1))
    alive = draw(st.floats(0.0, 1.0))
    return random_regular_graph(order, seed=seed, alive_probability=alive)


rule_numbers = st.integers(0, 65535)
rules = rule_numbers.map(decode)


def vertex_signatures(g: Graph):
    return [
        (int(g.states[v]), tuple(sorted(int(g.states[u]) for u in g.neighbors[v])))
        for v in range(g.order)
    ]


def isomorphic(g1: Graph, g2: Graph) -> bool:
    """State-respecting graph isomorphism by backtracking; small orders only."""
    if g1.order != g2.order:
        return False
    s1, s2 = vertex_signatures(g1), vertex_signatures(g2)
    if sorted(s1) != sorted(s2):
        return False
    n = g1.order
    adj1 = [set(map(int, g1.neighbors[v])) for v in range(n)]
    adj2 = [set(map(int, g2.neighbors[v])) for v in range(n)]
    mapping = [-1] * n
    used = [False] * n
    order_v = sorted(range(n), key=lambda v: (s1[v], v))

    def feasible(v, w):
        if s1[v] != s2[w]:
            return False
        for u in adj1[v]:
            m = mapping[u]
            if m != -1 and m not in adj2[w]:
                return False
        return True

    def rec(i):
        if i == n:
            return True
        v = order_v[i]
        for w in range(n):
            if not used[w] and feasible(v, w):
                mapping[v] = w
                used[w] = True
                if rec(i + 1):
                    return True
                mapping[v] = -1
                used[w] = False
        return False

    return rec(0)


def random_states(order, rng):
    return (rng.random(order) < 0.5).astype(np.uint8)


# The state update as an explicit loop over the vertices, kept as the
# reference for the numpy step_tables: the same arithmetic, vertex by vertex.
def loop_step_tables(neighbors, states, number):
    o = states.shape[0]
    new_states = np.empty(o, np.uint8)
    div = np.empty(o, np.uint8)
    lo = number & 0xFF
    hi = number >> 8
    n_div = 0
    for v in range(o):
        c = (
            4 * states[v]
            + states[neighbors[v, 0]]
            + states[neighbors[v, 1]]
            + states[neighbors[v, 2]]
        )
        new_states[v] = (lo >> c) & 1
        d = (hi >> c) & 1
        div[v] = d
        n_div += int(d)
    return new_states, div, n_div


# The relabelling division kernel, kept as the reference for canonical
# labels: the final index of old vertex v is v + 2*(dividers below v), and
# a divider's clones sit on three consecutive indices.
def reference_divide_all(neighbors, states, div, n_div):
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


@contextlib.contextmanager
def forced_split():
    """The kernels split every call of 4 rows or 2 dividers or more into two
    halves on two threads; gives the helper thread.  Skips where this
    process does not split."""
    helper = _kernels._helper()
    if helper is None:
        pytest.skip("the kernels split only where the process may use 2 CPUs")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_SPLIT_ROWS", 4)
        mp.setattr(_kernels, "_SPLIT_DIVIDERS", 2)
        yield helper
