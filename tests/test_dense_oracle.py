"""Differential tests: the flat-table engine against the dense-matrix oracle.

The oracle is a literal matrix transcription (tripled rows and columns,
one division at a time), so agreement here pins the batch surgery to the
normative semantics.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from gra.dense import (
    graph_from_dense,
    reference_apply_divisions_dense,
    reference_divide_dense,
    reference_step_dense,
)
from gra.engine import apply_divisions, divide_vertex, step
from gra.errors import LengthMismatchError, OracleCapExceededError
from gra.generate import ring_chord_graph
from gra.graph import k4_one_alive
from gra.rules import decode

from helpers import graphs, rules


class TestGraphFromDense:
    def test_names_first_row_of_wrong_degree(self):
        g = k4_one_alive()
        a = g.adjacency_matrix()
        a[1, 2] = a[2, 1] = 0
        with pytest.raises(LengthMismatchError, match=r"^dense row 1 has degree 2$"):
            graph_from_dense(a, g.states)
        b = divide_vertex(g, 1).adjacency_matrix()
        b[2, 5] = b[5, 2] = 1
        with pytest.raises(LengthMismatchError, match=r"^dense row 2 has degree 4$"):
            graph_from_dense(b, np.zeros(6, dtype=np.uint8))


class TestDenseDivide:
    def test_golden_matrix(self):
        g = k4_one_alive()
        a2, s2 = reference_divide_dense(g.adjacency_matrix(), g.states.copy(), 1)
        fast = divide_vertex(g, 1)
        assert np.array_equal(a2, fast.adjacency_matrix())
        assert np.array_equal(s2, fast.states)

    @given(graphs(max_order=20))
    @settings(max_examples=40, deadline=None)
    def test_single_division_agrees(self, g):
        v = g.order // 2
        a2, s2 = reference_divide_dense(g.adjacency_matrix(), g.states.copy(), v)
        fast = divide_vertex(g, v)
        assert np.array_equal(a2, fast.adjacency_matrix())
        assert np.array_equal(s2, fast.states)

    def test_divide_twice_agrees(self):
        g = k4_one_alive()
        a, s = g.adjacency_matrix(), g.states.copy()
        a, s = reference_divide_dense(a, s, 1)
        a, s = reference_divide_dense(a, s, 1)
        fast = divide_vertex(divide_vertex(g, 1), 1)
        assert np.array_equal(a, fast.adjacency_matrix())
        assert np.array_equal(s, fast.states)


class TestDenseApplyDivisions:
    @given(graphs(max_order=16))
    @settings(max_examples=40, deadline=None)
    def test_batch_agrees_with_first_one_loop(self, g):
        rng = np.random.default_rng(g.order + int(g.states.sum()) * 31)
        d = (rng.random(g.order) < 0.4).astype(np.uint8)
        a2, s2 = reference_apply_divisions_dense(
            g.adjacency_matrix(), g.states.copy(), d.copy()
        )
        fast = apply_divisions(g, d)
        assert np.array_equal(a2, fast.adjacency_matrix())
        assert np.array_equal(s2, fast.states)


class TestDenseStep:
    def test_k4_under_765(self):
        g = k4_one_alive()
        ref = reference_step_dense(g, decode(765))
        fast = step(g, decode(765))
        assert ref.graph == fast.graph
        assert ref.divisions_performed == fast.divisions_performed

    @given(graphs(), rules)
    @settings(max_examples=80, deadline=None)
    def test_random_agreement(self, g, rule):
        assert reference_step_dense(g, rule).graph == step(g, rule).graph

    def test_four_steps_of_765(self):
        g = k4_one_alive()
        r = decode(765)
        for _ in range(4):
            ref = reference_step_dense(g, r)
            fast = step(g, r)
            assert ref.graph == fast.graph
            g = fast.graph

    def test_cap(self):
        g = ring_chord_graph(3000)
        with pytest.raises(OracleCapExceededError):
            reference_step_dense(g, decode(765))
