"""Generators for valid 3-regular test and benchmark graphs."""

import numpy as np

from .graph import Graph, build_graph


def ring_chord_graph(order: int, alive_probability: float = 0.5, seed: int = 0) -> Graph:
    """Deterministic circulant graph: ring edges plus a chord to the
    antipodal vertex.  Valid for every even order >= 4 (order 4 gives K4).

    Built directly as a neighbor table so multi-million-vertex graphs are
    cheap; states are drawn from the seeded generator.
    """
    if order < 4 or order % 2:
        raise ValueError("order must be even and >= 4")
    idx = np.arange(order, dtype=np.int64)
    neighbors = np.stack(
        (((idx - 1) % order), ((idx + 1) % order), ((idx + order // 2) % order)), axis=1
    )
    neighbors.sort(axis=1)
    rng = np.random.default_rng(seed)
    states = (rng.random(order) < alive_probability).astype(np.uint8)
    return Graph._wrap(neighbors, states)


def random_regular_graph(
    order: int, seed: int = 0, alive_probability: float = 0.5, swaps: int | None = None
) -> Graph:
    """Random simple 3-regular graph via double edge swaps on a circulant base.

    A swap replaces edges (a, b), (c, d) by (a, d), (c, b) when the result
    stays simple, preserving 3-regularity.  Intended for correctness tests
    at modest orders; use ring_chord_graph for large benchmark graphs.
    """
    if order < 4 or order % 2:
        raise ValueError("order must be even and >= 4")
    rng = np.random.default_rng(seed)
    base = ring_chord_graph(order)
    edges = set(base.edges())
    n_swaps = swaps if swaps is not None else 3 * order
    edge_list = list(edges)
    for _ in range(n_swaps):
        i, j = rng.integers(0, len(edge_list), size=2)
        if i == j:
            continue
        old_i, old_j = edge_list[i], edge_list[j]
        a, b = old_i
        c, d = old_j
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4:
            continue
        e1 = (a, d) if a < d else (d, a)
        e2 = (c, b) if c < b else (b, c)
        if e1 in edges or e2 in edges:
            continue
        edges.discard(old_i)
        edges.discard(old_j)
        edges.add(e1)
        edges.add(e2)
        edge_list[i] = e1
        edge_list[j] = e2
    states = (rng.random(order) < alive_probability).astype(np.uint8)
    return build_graph(sorted(edges), states)
