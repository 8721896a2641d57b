import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gra.errors import (
    DuplicateEdgeError,
    GraphValidationError,
    IndexOutOfRangeError,
    NonBinaryStateError,
    NotThreeRegularError,
    SelfLoopError,
)
from gra.graph import (
    Graph,
    build_graph,
    canonical_g0,
    complement_states,
    configuration_census,
    configuration_vector,
    graph_digest,
    graph_to_edge_text,
    k4_one_alive,
    parse_graph_text,
    state_fingerprint,
)
from gra.engine import step
from gra.generate import ring_chord_graph
from gra.rules import decode, single_division_subset

from helpers import graphs

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
PRISM_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]

# pinned golden digest of the frozen starting graph data file
G0_DIGEST = "b7b1345936a880e58933fe1584edc6f7"


class TestBuildGraph:
    def test_k4_one_alive(self):
        g = build_graph(K4_EDGES, (1, 0, 0, 0))
        assert g.order == 4
        assert np.array_equal(g.states, [1, 0, 0, 0])
        assert np.array_equal(g.neighbors[0], [1, 2, 3])

    def test_all_dead_is_valid(self):
        g = build_graph(K4_EDGES, (0, 0, 0, 0))
        assert int(g.states.sum()) == 0

    def test_missing_edge_not_three_regular(self):
        with pytest.raises(NotThreeRegularError):
            build_graph(K4_EDGES[:-1], (1, 0, 0, 0))

    def test_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_graph(K4_EDGES[:-1] + [(3, 3)], (1, 0, 0, 0))

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            build_graph(K4_EDGES + [(3, 2)], (1, 0, 0, 0))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            build_graph(K4_EDGES[:-1] + [(2, 4)], (1, 0, 0, 0))

    def test_non_binary_state(self):
        with pytest.raises(NonBinaryStateError):
            build_graph(K4_EDGES, (2, 0, 0, 0))

    def test_states_that_are_not_flat_refused(self):
        for states in ([(1, 0), (0, 0)], 5):
            with pytest.raises(NonBinaryStateError, match="^states must be a flat sequence$"):
                build_graph(K4_EDGES, states)

    def test_too_small(self):
        with pytest.raises(GraphValidationError):
            build_graph([], ())

    def test_odd_order_rejected(self):
        # 3-regularity is impossible on an odd vertex count
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 4), (3, 4)]
        with pytest.raises(NotThreeRegularError):
            build_graph(edges, (0, 0, 0, 0, 0))

    @pytest.mark.parametrize("edge", [(0, 1.5), (0, 1, 2), ("0", "1")])
    def test_edge_that_is_not_an_integer_pair_refused(self, edge):
        with pytest.raises(GraphValidationError, match="pairs of integers"):
            build_graph([edge] + K4_EDGES[1:], (1, 0, 0, 0))

    @pytest.mark.parametrize(
        "first, error, message",
        [
            # a bool is not an integer, mixed with ints or alone, numpy's or Python's
            ((True, False), GraphValidationError, "edges must be pairs of integers"),
            ((np.True_, 2), GraphValidationError, "edges must be pairs of integers"),
            # an integer beyond int64 is out of range, not a non-integer
            ((0, 2**63), IndexOutOfRangeError, "edge (0, 9223372036854775808) out of range for order 4"),
            ((0, 2**70), IndexOutOfRangeError, f"edge (0, {2**70}) out of range for order 4"),
        ],
        ids=["bools", "numpy-bool", "2**63", "2**70"],
    )
    def test_endpoint_refused_by_its_type_or_its_size(self, first, error, message):
        with pytest.raises(error) as raised:
            build_graph([first] + K4_EDGES[1:], (1, 0, 0, 0))
        assert str(raised.value) == message

    def test_integer_array_of_edges(self):
        edges = np.array(PRISM_EDGES, dtype=np.int32)
        assert build_graph(edges, (1, 0, 0, 0, 0, 1)) == build_graph(PRISM_EDGES, (1, 0, 0, 0, 0, 1))

    @given(graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_any_edge_order_builds_the_same_valid_graph(self, g, rnd):
        # the table is valid by construction, whatever the order of the list
        edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in g.edges()]
        rnd.shuffle(edges)
        h = build_graph(edges, g.states)
        h.validate()
        assert h == g


def _with(a, index, value):
    a = a.copy()
    a[index] = value
    return a


class TestGraphValue:
    def test_equal_only_to_graphs(self):
        g = k4_one_alive()
        assert (g == 5) is False
        assert g != "K4"

    def test_repr_gives_order_and_alive_count(self):
        assert repr(k4_one_alive()) == "Graph(order=4, alive=1)"


class TestValidate:
    """Graph.validate refuses each broken invariant with its own class.

    Each case breaks one invariant of the prism, whose row 0 is (1, 2, 3),
    and passes every check before the one it targets, so no check covers
    for another."""

    @pytest.mark.parametrize(
        "corrupt, error, message",
        [
            (lambda nb, st: (nb[:2], st[:2]), GraphValidationError, "^order 2 < 4$"),
            (lambda nb, st: (nb[:5], st[:5]), NotThreeRegularError, "^odd order 5"),
            (lambda nb, st: (nb[:, :2], st), GraphValidationError, "^neighbor table shape"),
            (lambda nb, st: (_with(nb, (0, 2), 6), st), IndexOutOfRangeError, "out of range"),
            (lambda nb, st: (nb, _with(st, 0, 2)), NonBinaryStateError, "0 or 1"),
            (lambda nb, st: (_with(nb, 0, [2, 1, 3]), st), GraphValidationError, "ascending"),
            (lambda nb, st: (_with(nb, 0, [0, 2, 3]), st), SelfLoopError, "self-loop"),
            (lambda nb, st: (_with(nb, 0, [1, 2, 4]), st), GraphValidationError, "not symmetric"),
        ],
        ids=["too-small", "odd-order", "shape", "index", "state", "ascending", "self-loop",
             "asymmetric"],
    )
    def test_each_broken_invariant_is_refused(self, corrupt, error, message):
        g = build_graph(PRISM_EDGES, (1, 0, 0, 1, 1, 0))
        g.validate()
        nb, st = corrupt(g.neighbors.copy(), g.states.copy())
        with pytest.raises(error, match=message) as caught:
            Graph(neighbors=nb, states=st).validate()
        assert type(caught.value) is error


class TestConfigurationVector:
    def test_k4_one_alive(self):
        assert np.array_equal(configuration_vector(k4_one_alive()), [4, 1, 1, 1])

    def test_all_dead(self):
        g = build_graph(K4_EDGES, (0, 0, 0, 0))
        assert np.array_equal(configuration_vector(g), [0, 0, 0, 0])

    def test_saturated(self):
        g = build_graph(K4_EDGES, (1, 1, 1, 1))
        assert np.array_equal(configuration_vector(g), [7, 7, 7, 7])

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_range(self, g):
        c = configuration_vector(g)
        assert c.min() >= 0 and c.max() <= 7


class TestCensus:
    def test_k4_one_alive(self):
        census = configuration_census(k4_one_alive())
        assert np.array_equal(census, [0, 3, 0, 0, 1, 0, 0, 0])

    def test_all_dead(self):
        g = build_graph(K4_EDGES, (0, 0, 0, 0))
        assert np.array_equal(configuration_census(g), [4, 0, 0, 0, 0, 0, 0, 0])

    def test_sums_to_order(self):
        g = canonical_g0()
        assert configuration_census(g).sum() == g.order


class TestCanonicalG0:
    def test_valid(self):
        g = canonical_g0()
        g.validate()

    def test_all_eight_configurations(self):
        assert (configuration_census(canonical_g0()) >= 1).all()

    def test_both_colors_present(self):
        g = canonical_g0()
        alive = int(g.states.sum())
        assert 0 < alive < g.order

    def test_complement_has_all_configurations(self):
        assert (configuration_census(complement_states(canonical_g0())) >= 1).all()

    def test_color_symmetric(self):
        # flipping states and relabeling v -> (v + half) mod order gives the
        # identical labeled graph; this is what justifies sweeping only the
        # dead-cell half of the single-division rule family
        g = canonical_g0()
        half = g.order // 2
        perm = (np.arange(g.order) + half) % g.order
        inv = np.argsort(perm)
        comp = complement_states(g)
        relabeled_nb = np.sort(inv[comp.neighbors[perm]], axis=1)
        relabeled_st = comp.states[perm]
        assert np.array_equal(relabeled_nb, g.neighbors)
        assert np.array_equal(relabeled_st, g.states)

    def test_frozen_digest(self):
        # the starting graph is versioned data; a silent change would make
        # every shipped sweep result incomparable
        assert graph_digest(canonical_g0()) == G0_DIGEST

    def test_one_step_changes_the_graph(self):
        # the identity rule keeps every configuration in place; any other
        # rule acts on at least one configuration present in g0
        g = canonical_g0()
        identity = 0b11110000
        assert step(g, decode(identity)) == g
        for n in list(single_division_subset())[::37] + [1, 2, 97, 255, 5000, 65535]:
            if n == identity:
                continue
            assert step(g, decode(n)) != g, f"rule {n} fixed g0"


class TestComplement:
    def test_fig_graph(self):
        comp = complement_states(k4_one_alive())
        assert np.array_equal(comp.states, [0, 1, 1, 1])
        assert np.array_equal(comp.neighbors, k4_one_alive().neighbors)

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_involution(self, g):
        assert complement_states(complement_states(g)) == g

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_configuration_identity(self, g):
        assert np.array_equal(
            configuration_vector(complement_states(g)), 7 - configuration_vector(g)
        )


class TestFingerprint:
    def test_deterministic(self):
        assert state_fingerprint(k4_one_alive()) == state_fingerprint(k4_one_alive())

    def test_states_matter(self):
        g = k4_one_alive()
        assert state_fingerprint(g) != state_fingerprint(complement_states(g))

    def test_fixed_point_same_digest(self):
        g = step(k4_one_alive(), decode(0))
        g2 = step(g, decode(0))
        assert state_fingerprint(g) == state_fingerprint(g2)

    # the digest hashes packed bits: these cases pin what packing must keep

    @pytest.mark.parametrize("order", [10, 22])
    def test_last_vertex_counts_when_order_is_not_a_multiple_of_8(self, order):
        states = np.zeros(order, dtype=np.uint8)
        flipped = states.copy()
        flipped[-1] = 1
        assert state_fingerprint(with_states(states)) != state_fingerprint(with_states(flipped))

    def test_order_tells_equal_packed_bytes_apart(self):
        short, long = np.zeros(10, dtype=np.uint8), np.zeros(16, dtype=np.uint8)
        short[:3] = long[:3] = 1
        assert np.array_equal(np.packbits(short), np.packbits(long))
        assert state_fingerprint(with_states(short)) != state_fingerprint(with_states(long))

    @given(
        st.sampled_from(range(4, 42, 2)).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 1), min_size=n, max_size=n),
                st.lists(st.integers(0, n - 1), min_size=1, max_size=3),
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_digests_equal_exactly_when_states_equal(self, case):
        states, flips = case
        other = list(states)
        # counted from the end, where the last packed byte is padded; a vertex
        # flipped twice is back, so equal states are drawn too
        for v in flips:
            other[-1 - v] ^= 1
        same = state_fingerprint(with_states(states)) == state_fingerprint(with_states(other))
        assert same == (other == states)


def with_states(states):
    """A ring-chord graph of len(states) vertices carrying the given states."""
    return build_graph(ring_chord_graph(len(states)).edges(), states)


class TestGraphFiles:
    def test_round_trip(self):
        g = canonical_g0()
        text = graph_to_edge_text(g)
        g2 = parse_graph_text(text)
        assert g2 == g

    def test_comments_and_blanks_ignored(self):
        text = "# K4\n\n0 1\n0 2\n0 3\n1 2 # inline\n1 3\n2 3\nstates 1 0 0 0\n"
        assert parse_graph_text(text) == k4_one_alive()

    def test_missing_states_line(self):
        with pytest.raises(GraphValidationError):
            parse_graph_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("0 1\n0 x\n0 3\n1 2\n1 3\n2 3\nstates 1 0 0 0\n", 2),
            ("# K4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\nstates 1 0 two 0\n", 8),
        ],
        ids=["edge", "states"],
    )
    def test_token_that_is_not_an_integer_names_its_line(self, text, lineno):
        with pytest.raises(GraphValidationError, match=f"^line {lineno}: not an integer"):
            parse_graph_text(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\nstates 1 0 0 0\nstates 1 0 0 0\n",
             "^line 8: duplicate states line$"),
            ("0 1\n0 2\n0 3 1\n1 2\n1 3\n2 3\nstates 1 0 0 0\n",
             "^line 3: expected 'u v' or 'states ...'$"),
        ],
        ids=["duplicate-states", "three-tokens"],
    )
    def test_malformed_line_names_its_line(self, text, message):
        with pytest.raises(GraphValidationError, match=message):
            parse_graph_text(text)

    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random(self, g):
        assert parse_graph_text(graph_to_edge_text(g)) == g
