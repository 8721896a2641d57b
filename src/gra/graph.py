"""Binary-state 3-regular graphs on dense vertex labels 0..order-1.

The engine representation is a flat neighbor table: row v of ``neighbors``
lists v's three neighbors in ascending order.  A per-vertex ``states``
vector holds the binary value (1 alive, 0 dead).  Graphs are immutable
once constructed; every operation returns a new value.  The labels of an
evolved graph are the canonical ones, in which each division shifts the
vertices above the divider up by two.  While it evolves, the engine holds
the tables in stable ids instead, in a :class:`gra.engine.StableGraph`,
which is not a Graph and gives one through its ``canonical`` method.
"""

import hashlib
import struct
from dataclasses import dataclass
from functools import cache
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicateEdgeError,
    GraphValidationError,
    IndexOutOfRangeError,
    NonBinaryStateError,
    NotThreeRegularError,
    SelfLoopError,
)

Edge = tuple[int, int]


@dataclass(frozen=True, eq=False)
class Graph:
    """3-regular undirected graph with binary vertex states.

    Fields:
        neighbors: (order, 3) int64 array, each row sorted ascending.
        states:    (order,) uint8 array of 0/1 values.

    Equality compares labels, so two graphs are equal only when they are
    the same labelled graph.
    """

    neighbors: np.ndarray
    states: np.ndarray

    @property
    def order(self) -> int:
        return self.states.shape[0]

    def __eq__(self, other) -> bool:
        """Labeled equality: same order, adjacency and states."""
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.neighbors, other.neighbors) and np.array_equal(
            self.states, other.states
        )

    def __repr__(self) -> str:
        alive = int(self.states.sum())
        return f"Graph(order={self.order}, alive={alive})"

    @classmethod
    def _wrap(cls, neighbors: np.ndarray, states: np.ndarray) -> "Graph":
        """Internal fast constructor; trusts kernel-produced arrays."""
        neighbors.flags.writeable = False
        states.flags.writeable = False
        return cls(neighbors=neighbors, states=states)

    def edges(self) -> list[Edge]:
        """All edges as (u, v) pairs with u < v, sorted."""
        out = []
        nb = self.neighbors
        for v in range(self.order):
            for k in range(3):
                u = int(nb[v, k])
                if v < u:
                    out.append((v, u))
        return out

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric 0/1 matrix (int8)."""
        o = self.order
        a = np.zeros((o, o), dtype=np.int8)
        rows = np.repeat(np.arange(o), 3)
        a[rows, self.neighbors.ravel()] = 1
        return a

    def validate(self) -> None:
        """Check every structural invariant; raise GraphValidationError on failure."""
        nb, st = self.neighbors, self.states
        o = self.order
        if o < 4:
            raise GraphValidationError(f"order {o} < 4")
        if o % 2 != 0:
            raise NotThreeRegularError(f"odd order {o} cannot be 3-regular")
        if nb.shape != (o, 3):
            raise GraphValidationError(f"neighbor table shape {nb.shape} != ({o}, 3)")
        if nb.min() < 0 or nb.max() >= o:
            raise IndexOutOfRangeError("neighbor index out of range")
        if not ((st == 0) | (st == 1)).all():
            raise NonBinaryStateError("states must be 0 or 1")
        if (nb[:, 0] >= nb[:, 1]).any() or (nb[:, 1] >= nb[:, 2]).any():
            raise GraphValidationError("neighbor rows must be strictly ascending")
        if (nb == np.arange(o)[:, None]).any():
            raise SelfLoopError("self-loop in neighbor table")
        # symmetry: v must appear in the row of each of its neighbors
        back = (nb[nb] == np.arange(o)[:, None, None]).any(axis=2)
        if not back.all():
            raise GraphValidationError("neighbor table is not symmetric")


def build_graph(edge_list: Iterable[Edge], states: Sequence[int]) -> Graph:
    """Build and validate a Graph from an unordered edge list and a state list.

    Raises NotThreeRegularError, NonBinaryStateError, SelfLoopError,
    DuplicateEdgeError or IndexOutOfRangeError on invalid input.
    """
    states_arr = np.asarray(states)
    order = states_arr.shape[0]
    if states_arr.ndim != 1:
        raise NonBinaryStateError("states must be a flat sequence")
    if not np.isin(states_arr, (0, 1)).all():
        raise NonBinaryStateError("states must contain only 0 and 1")
    if order < 4:
        raise GraphValidationError(f"order {order} < 4 (smallest 3-regular graph is K4)")

    seen: set[Edge] = set()
    adj: list[list[int]] = [[] for _ in range(order)]
    for u, v in edge_list:
        u, v = int(u), int(v)
        if not (0 <= u < order and 0 <= v < order):
            raise IndexOutOfRangeError(f"edge ({u}, {v}) out of range for order {order}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {key}")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)

    for v in range(order):
        if len(adj[v]) != 3:
            raise NotThreeRegularError(f"vertex {v} has degree {len(adj[v])}, expected 3")

    neighbors = np.array([sorted(row) for row in adj], dtype=np.int64)
    g = Graph._wrap(neighbors, states_arr.astype(np.uint8))
    g.validate()
    return g


def configuration_vector(g: Graph) -> np.ndarray:
    """Per-vertex configuration: 4*state + number of alive neighbors (0..7)."""
    s = g.states.astype(np.int64)
    return 4 * s + s[g.neighbors].sum(axis=1)


def configuration_census(g: Graph) -> np.ndarray:
    """Counts of each configuration value 0..7; sums to the order."""
    return np.bincount(configuration_vector(g), minlength=8)


def complement_states(g: Graph) -> Graph:
    """Same adjacency, every state flipped."""
    return Graph._wrap(g.neighbors, (1 - g.states).astype(np.uint8))


def state_fingerprint(g: Graph) -> str:
    """Stable 128-bit hex digest of (order, states) under the engine labeling.

    Adjacency is deliberately excluded: within a cycle-detection window the
    topology is frozen, and candidate cycles are confirmed by exact state
    comparison anyway.
    """
    return _digest(g, g.states.tobytes())


def graph_digest(g: Graph) -> str:
    """Hex digest covering adjacency and states; identifies a labeled graph."""
    return _digest(g, np.ascontiguousarray(g.neighbors).tobytes(), g.states.tobytes())


def _digest(g: Graph, *parts: bytes) -> str:
    """128-bit blake2b hex of g's order followed by parts."""
    h = hashlib.blake2b(struct.pack("<q", g.order), digest_size=16)
    for part in parts:
        h.update(part)
    return h.hexdigest()


# --------------------------------------------------------------------------
# graph data files
#
# Grammar (one item per line, '#' starts a comment, blank lines ignored):
#   <u> <v>                   edge between vertices u and v, 0-indexed
#   states <s0> <s1> ... <sk> one line, binary state per vertex
# The order of the graph is the length of the states line.
# --------------------------------------------------------------------------

def parse_graph_text(text: str) -> Graph:
    edges: list[Edge] = []
    states: list[int] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "states":
            if states is not None:
                raise GraphValidationError(f"line {lineno}: duplicate states line")
            states = [int(p) for p in parts[1:]]
        else:
            if len(parts) != 2:
                raise GraphValidationError(f"line {lineno}: expected 'u v' or 'states ...'")
            edges.append((int(parts[0]), int(parts[1])))
    if states is None:
        raise GraphValidationError("missing states line")
    return build_graph(edges, states)


def graph_to_edge_text(g: Graph) -> str:
    """Render a graph in the data-file grammar; round-trips through parse_graph_text."""
    lines = [f"{u} {v}" for u, v in g.edges()]
    lines.append("states " + " ".join(str(int(s)) for s in g.states))
    return "\n".join(lines) + "\n"


def load_graph(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph_text(fh.read())


# --------------------------------------------------------------------------
# built-in initial graphs
# --------------------------------------------------------------------------

_K4_EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def k4_one_alive() -> Graph:
    """Complete graph on four vertices with exactly vertex 0 alive."""
    return build_graph(_K4_EDGES, (1, 0, 0, 0))


@cache
def canonical_g0() -> Graph:
    """The frozen 16-vertex starting graph used by the shipped sweeps.

    Loaded from a versioned data file and never changed silently (a golden
    digest test pins it).  Properties, all verified by tests:

    * connected, 3-regular, 8 dead and 8 alive vertices;
    * uniform configuration census: exactly two vertices in each of the
      eight configurations, so it contains every configuration and so does
      its state complement;
    * exactly color symmetric: flipping every state and relabeling
      v -> (v + 8) mod 16 reproduces the same labeled graph.
    """
    text = resources.files("gra.data").joinpath("g0.graph").read_text("utf-8")
    return parse_graph_text(text)


BUILTIN_GRAPHS = {
    "k4-one-alive": k4_one_alive,
    "paper-g0": canonical_g0,
    "g0": canonical_g0,
}


def resolve_initial_graph(name_or_path: str) -> Graph:
    """Map a builtin name or a file path to a Graph."""
    if name_or_path in BUILTIN_GRAPHS:
        return BUILTIN_GRAPHS[name_or_path]()
    return load_graph(name_or_path)
