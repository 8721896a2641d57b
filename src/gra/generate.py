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


def random_regular_graph(order: int, seed: int = 0, alive_probability: float = 0.5) -> Graph:
    """Uniformly random simple 3-regular graph by the pairing model
    (Bollobás, European J. Combin. 1, 1980): stubs 3v, 3v+1 and 3v+2
    belong to vertex v, a random permutation of the stubs cut into pairs
    gives the edges, and a pairing with a loop or a repeated edge is
    drawn again.  Each simple cubic graph comes from (3!)**order
    pairings, so the result is uniform.  A pairing is simple with
    probability tending to exp(-2): about e**2 = 7.4 draws per graph,
    up to about 11 at orders below 30.
    """
    if order < 4 or order % 2:
        raise ValueError("order must be even and >= 4")
    rng = np.random.default_rng(seed)
    while True:
        u, v = np.sort(rng.permutation(3 * order).reshape(-1, 2) // 3, axis=1).T
        if (u < v).all() and np.unique(u * order + v).size == len(u):
            break
    states = (rng.random(order) < alive_probability).astype(np.uint8)
    return build_graph(zip(u, v), states)
