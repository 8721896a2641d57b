import numpy as np
import pytest
from hypothesis import given, settings

from gra.errors import (
    DuplicateEdgeError,
    GraphValidationError,
    IndexOutOfRangeError,
    NonBinaryStateError,
    NotThreeRegularError,
    SelfLoopError,
)
from gra.graph import (
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
from gra.rules import decode, single_division_subset

from helpers import graphs

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

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

    def test_too_small(self):
        with pytest.raises(GraphValidationError):
            build_graph([], ())

    def test_odd_order_rejected(self):
        # 3-regularity is impossible on an odd vertex count
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 4), (3, 4)]
        with pytest.raises(NotThreeRegularError):
            build_graph(edges, (0, 0, 0, 0, 0))


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
        out = step(g, decode(identity))
        assert out.graph == g
        for n in list(single_division_subset())[::37] + [1, 2, 97, 255, 5000, 65535]:
            if n == identity:
                continue
            assert step(g, decode(n)).graph != g, f"rule {n} fixed g0"


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
        g = step(k4_one_alive(), decode(0)).graph
        g2 = step(g, decode(0)).graph
        assert state_fingerprint(g) == state_fingerprint(g2)


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

    @given(graphs())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_random(self, g):
        assert parse_graph_text(graph_to_edge_text(g)) == g
