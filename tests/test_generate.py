import pytest

from gra.errors import GraError
from gra.generate import random_regular_graph, ring_chord_graph
from gra.graph import graph_digest


class TestRandomRegularGraph:
    @pytest.mark.parametrize("order", range(4, 41, 2))
    def test_simple_cubic_graph(self, order):
        g = random_regular_graph(order, seed=order)
        g.validate()  # 3-regular, no loop, no repeated edge
        assert g.order == order

    def test_same_seed_same_graph(self):
        a = random_regular_graph(30, seed=7, alive_probability=0.3)
        assert a == random_regular_graph(30, seed=7, alive_probability=0.3)
        assert a != random_regular_graph(30, seed=8, alive_probability=0.3)

    @pytest.mark.parametrize("order", [-2, 0, 2, 5, 11])
    def test_bad_order_refused(self, order):
        with pytest.raises(ValueError, match="^order must be even and >= 4$"):
            random_regular_graph(order)


class TestRingChordGraph:
    @pytest.mark.parametrize(
        "order, seed, digest",
        [
            (4, 0, "adb08d9fce9cfa2e2de1d03efbe97c61"),
            (8, 3, "be025ca1124ea96a9a4e25f4e8af3220"),
            (64, 1, "89481a8ff5ccd5680057733934164d5d"),
            (1000, 7, "2bebf75b1924b45dfccdd7e617acf7f4"),
        ],
    )
    def test_graph_is_pinned(self, order, seed, digest):
        # states drawn alive with probability 0.5 from the seeded generator
        assert graph_digest(ring_chord_graph(order, seed=seed)) == digest

    @pytest.mark.parametrize("order", [2, 5])
    def test_bad_order_refused(self, order):
        with pytest.raises(ValueError, match="^order must be even and >= 4$"):
            ring_chord_graph(order)


@pytest.mark.parametrize("generate", [random_regular_graph, ring_chord_graph])
@pytest.mark.parametrize("order", [8.0, True, "8"])
def test_order_that_is_not_an_integer_refused(generate, order):
    with pytest.raises(GraError, match="^order must be an integer"):
        generate(order)
