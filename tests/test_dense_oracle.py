"""Differential tests: the flat-table engine against the dense-matrix oracle.

The oracle works on dense matrices (all of a step's divisions as one
duplication product plus masks), and its batch is pinned here to the literal
procedure that triples one row and column at a time, so agreement pins the
engine's surgery to the normative semantics.
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
from gra.errors import IndexOutOfRangeError, LengthMismatchError, OracleCapExceededError
from gra.generate import random_regular_graph, ring_chord_graph
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

    @pytest.mark.parametrize("v", [-1, 4])
    def test_vertex_out_of_range_refused(self, v):
        g = k4_one_alive()
        with pytest.raises(IndexOutOfRangeError, match=f"^vertex {v} out of range for order 4$"):
            reference_divide_dense(g.adjacency_matrix(), g.states, v)

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


def divide_first_one_loop(a, s, d):
    """The literal procedure: divide at the first 1, turn it into three 0s, repeat."""
    while (ones := np.flatnonzero(d)).size:
        v = int(ones[0])
        a, s = reference_divide_dense(a, s, v)
        d = np.concatenate([d[:v], np.zeros(3, d.dtype), d[v + 1 :]])
    return a, s


def assert_closed_form_is_the_loop(a, s, d):
    want_a, want_s = divide_first_one_loop(a, s, d)
    got_a, got_s = reference_apply_divisions_dense(a, s, d)
    assert got_a.dtype == want_a.dtype and got_s.dtype == want_s.dtype
    assert np.array_equal(got_a, want_a)
    assert np.array_equal(got_s, want_s)


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

    @pytest.mark.parametrize("share", [0.0, 0.05, 0.3, 0.6, 1.0, "one"])
    def test_closed_form_equals_first_one_loop(self, share):
        rng = np.random.default_rng(1717)
        for _ in range(60):
            order = int(rng.integers(2, 61)) * 2
            g = random_regular_graph(
                order, seed=int(rng.integers(2**31)), alive_probability=float(rng.random())
            )
            if share == "one":
                d = np.zeros(order, np.int64)
                d[rng.integers(order)] = 1
            else:
                d = (rng.random(order) < share).astype(np.int64)
            assert_closed_form_is_the_loop(g.adjacency_matrix(), g.states, d)

    def test_mutual_pair(self):
        # every pair of K4 is adjacent, so each divider's clone meets a clone
        g = k4_one_alive()
        for d in ([0, 1, 1, 0], [1, 0, 0, 1], [1, 1, 1, 0]):
            d = np.array(d, np.int64)
            assert_closed_form_is_the_loop(g.adjacency_matrix(), g.states, d)
            a2, s2 = reference_apply_divisions_dense(g.adjacency_matrix(), g.states, d)
            assert graph_from_dense(a2, s2) == apply_divisions(g, d.astype(np.uint8))

    def test_empty_vector(self):
        a, s = reference_apply_divisions_dense(
            np.zeros((0, 0), np.int8), np.zeros(0, np.uint8), np.zeros(0, np.int64)
        )
        assert a.shape == (0, 0) and s.shape == (0,)

    def test_length_mismatch_refused(self):
        g = k4_one_alive()
        with pytest.raises(LengthMismatchError, match="division vector length"):
            reference_apply_divisions_dense(g.adjacency_matrix(), g.states, np.zeros(5))


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
