import pytest

from gra.generate import random_regular_graph


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
