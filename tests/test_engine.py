import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gra
from gra import _kernels, engine
from gra.analysis import ClassifyThresholds
from gra.engine import (
    Budget,
    StableGraph,
    _tables_with_room,
    apply_divisions,
    canonical_positions,
    divide_vertex,
    evolve,
    self_rank,
    step,
)
from gra.errors import (
    EngineInvariantError,
    GraError,
    IndexOutOfRangeError,
    LengthMismatchError,
    NonBinaryStateError,
)
from gra.generate import ring_chord_graph
from gra.graph import (
    Graph,
    build_graph,
    canonical_g0,
    complement_states,
    configuration_census,
    configuration_vector,
    k4_one_alive,
)
from gra.rules import complement_rule, decode
from gra.sweep import SweepConfig, run_sweep

from helpers import graphs, isomorphic, loop_step_tables, reference_divide_all, rules

# golden 6x6 result of dividing vertex 1 of the one-alive K4
DIVIDED_K4_ADJACENCY = np.array(
    [
        [0, 1, 0, 0, 1, 1],
        [1, 0, 1, 1, 0, 0],
        [0, 1, 0, 1, 1, 0],
        [0, 1, 1, 0, 0, 1],
        [1, 0, 1, 0, 0, 1],
        [1, 0, 0, 1, 1, 0],
    ],
    dtype=np.int8,
)
DIVIDED_K4_STATES = np.array([1, 0, 0, 0, 0, 0], dtype=np.uint8)


class TestDivideVertex:
    def test_golden_matrix(self):
        g = divide_vertex(k4_one_alive(), 1)
        assert np.array_equal(g.adjacency_matrix(), DIVIDED_K4_ADJACENCY)
        assert np.array_equal(g.states, DIVIDED_K4_STATES)

    @pytest.mark.parametrize("v", [0, 1, 2, 3])
    def test_any_vertex_of_k4_stays_valid(self, v):
        g = divide_vertex(k4_one_alive(), v)
        assert g.order == 6
        g.validate()
        a = g.adjacency_matrix()
        assert np.array_equal(a, a.T)
        assert not a.diagonal().any()

    def test_divide_twice(self):
        g = divide_vertex(divide_vertex(k4_one_alive(), 1), 1)
        assert g.order == 8
        g.validate()

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            divide_vertex(k4_one_alive(), 4)

    def test_clones_inherit_current_state(self):
        g = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], (0, 1, 0, 0))
        out = divide_vertex(g, 1)
        assert np.array_equal(out.states, [0, 1, 1, 1, 0, 0])


class TestApplyDivisions:
    def test_null_vector_is_identity(self):
        g = k4_one_alive()
        assert apply_divisions(g, np.zeros(4, dtype=np.uint8)) == g

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            apply_divisions(k4_one_alive(), np.zeros(5, dtype=np.uint8))

    @pytest.mark.parametrize("d", [[0, 2, 0, 0], [0, 0.5, 0, 0], [0, -1, 0, 0]])
    def test_rejects_entries_other_than_zero_or_one(self, d):
        with pytest.raises(NonBinaryStateError):
            apply_divisions(k4_one_alive(), d)

    def test_three_divisions_match_sequential(self):
        g = k4_one_alive()
        batched = apply_divisions(g, np.array([0, 1, 1, 1], dtype=np.uint8))
        assert batched.order == 10
        batched.validate()
        # lowest-index-first with shifting: original vertices 1, 2, 3 sit at
        # 1, 2+2, 3+4 when their turn comes
        seq = divide_vertex(divide_vertex(divide_vertex(g, 1), 4), 7)
        assert batched == seq

    @given(graphs(max_order=12))
    @settings(max_examples=25, deadline=None)
    def test_processing_order_invariance(self, g):
        # dividing in any vertex order gives isomorphic results
        rng = np.random.default_rng(g.order * 7919 + int(g.states.sum()))
        d = (rng.random(g.order) < 0.3).astype(np.uint8)
        if d.sum() == 0 or d.sum() > 3:
            picks = rng.choice(g.order, size=3, replace=False)
            d = np.zeros(g.order, dtype=np.uint8)
            d[picks] = 1
        reference = apply_divisions(g, d)
        chosen = np.flatnonzero(d)
        for perm in itertools.permutations(chosen.tolist()):
            cur = g
            done: list[int] = []
            for orig in perm:
                shift = 2 * sum(1 for w in done if w < orig)
                cur = divide_vertex(cur, orig + shift)
                done.append(orig)
            assert isomorphic(cur, reference)


class TestStep:
    def test_k4_under_765(self):
        # configurations (4,1,1,1): vertex 0 stays alive, the rest die and
        # divide, growing the order from 4 to 10
        out = step(k4_one_alive(), decode(765))
        assert out.divisions_performed == 3
        assert out.graph.order == 10
        assert out.graph.states[0] == 1
        out.graph.validate()

    def test_rule_zero_kills_everything(self):
        g = canonical_g0()
        out = step(g, decode(0))
        assert not out.graph.states.any()
        assert out.divisions_performed == 0
        assert np.array_equal(out.graph.neighbors, g.neighbors)

    def test_all_dead_under_256_triples(self):
        g = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], (0, 0, 0, 0))
        out = step(g, decode(256))
        assert out.graph.order == 12
        assert not out.graph.states.any()
        out.graph.validate()

    @given(graphs(), rules)
    @settings(max_examples=80, deadline=None)
    def test_invariants_preserved(self, g, rule):
        out = step(g, rule)
        out.graph.validate()
        assert out.graph.order - g.order == 2 * out.divisions_performed
        assert out.graph.order >= g.order

    @given(graphs(), rules)
    @settings(max_examples=60, deadline=None)
    def test_divisions_match_division_vector(self, g, rule):
        conf = configuration_vector(g)
        expected = int(rule.divides[conf].sum())
        assert step(g, rule).divisions_performed == expected

    @given(graphs(), rules)
    @settings(max_examples=80, deadline=None)
    def test_color_symmetry_commutation(self, g, rule):
        lhs = step(complement_states(g), complement_rule(rule)).graph
        rhs = complement_states(step(g, rule).graph)
        assert lhs == rhs


def assert_divide_all_agrees(g, states, div):
    """The kernel's output, canonicalised, equals the relabelling reference."""
    n_div = int(div.sum())
    ref_nb, ref_st = reference_divide_all(g.neighbors, states.copy(), div, n_div)
    Graph._wrap(ref_nb, ref_st).validate()
    # tables with three spare rows past the room the clones need
    m = g.order + 2 * n_div
    room_nb, room_rank = _tables_with_room(StableGraph.of(g), m + 3)
    room_nb[g.order:], room_rank[g.order:] = -1, 255
    nb, st_, rank, dividers = _kernels.ACTIVE.divide_all(
        room_nb, states.copy(), div, n_div, rank=room_rank
    )
    assert np.shares_memory(nb, room_nb) and np.shares_memory(rank, room_rank)
    assert (room_nb[m:] == -1).all() and (room_rank[m:] == 255).all()
    assert np.array_equal(dividers, np.flatnonzero(div))
    splits = (g.order, dividers, None)
    out = StableGraph(nb, st_, rank, splits).canonical()
    assert np.array_equal(out.neighbors, ref_nb) and out.neighbors.dtype == ref_nb.dtype
    assert np.array_equal(out.states, ref_st) and out.states.dtype == ref_st.dtype
    # the returned self-ranks are those of the canonical graph
    pos = canonical_positions(splits, out.order)
    assert np.array_equal(rank, self_rank(ref_nb)[pos]) and rank.dtype == np.uint8


class TestBackendEquivalence:
    """The kernels give the same arrays as their references: the explicit
    loop for step_tables, the relabelling kernel for divide_all."""

    @given(graphs(), rules)
    @settings(max_examples=80, deadline=None)
    def test_step_tables_agree(self, g, rule):
        ref = loop_step_tables(g.neighbors, g.states, rule.number)
        out = _kernels.step_tables(g.neighbors, g.states, rule.number)
        assert np.array_equal(out[0], ref[0])
        assert np.array_equal(out[1], ref[1])
        assert int(out[2]) == int(ref[2])

    @given(graphs(), rules)
    @settings(max_examples=80, deadline=None)
    def test_divide_all_agrees_on_rule_divisions(self, g, rule):
        new_states, div, n_div = _kernels.step_tables(
            g.neighbors, g.states, rule.number
        )
        if n_div:
            assert_divide_all_agrees(g, new_states, div)

    @given(graphs(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_divide_all_agrees_on_one_divider(self, g, data):
        div = np.zeros(g.order, dtype=np.uint8)
        div[data.draw(st.integers(0, g.order - 1))] = 1
        assert_divide_all_agrees(g, g.states, div)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_divide_all_agrees_when_every_vertex_divides(self, g):
        assert_divide_all_agrees(g, g.states, np.ones(g.order, dtype=np.uint8))

    def test_kernels_agree_at_realistic_order(self):
        # rule 1026 from paper-g0 gives a graph far past the hypothesis orders
        rule = decode(1026)
        g = canonical_g0()
        for _ in range(100):  # it passes 10,000 at step 51
            if g.order >= 10_000:
                break
            g = step(g, rule).graph
        assert g.order >= 10_000
        ref = loop_step_tables(g.neighbors, g.states, rule.number)
        out = _kernels.step_tables(g.neighbors, g.states, rule.number)
        assert np.array_equal(out[0], ref[0]) and out[0].dtype == ref[0].dtype
        assert np.array_equal(out[1], ref[1]) and out[1].dtype == ref[1].dtype
        assert int(out[2]) == int(ref[2])
        assert_divide_all_agrees(g, ref[0], ref[1])
        # a mutual pair: u's highest neighbour w divides too
        u = g.order // 2
        pair = np.zeros(g.order, dtype=np.uint8)
        pair[[u, g.neighbors[u, 2]]] = 1
        assert_divide_all_agrees(g, g.states, pair)
        rng = np.random.default_rng(1026)
        assert_divide_all_agrees(g, g.states, (rng.random(g.order) < 0.19).astype(np.uint8))
        assert_divide_all_agrees(g, g.states, np.ones(g.order, dtype=np.uint8))


class TestKernelNames:
    """perfbench's worker reads these on every repetition."""

    def test_backend_is_numpy(self):
        assert _kernels.backend_name() == "numpy"
        assert gra.backend_name() == "numpy"

    def test_numba_probe_is_a_bool(self):
        assert isinstance(_kernels.HAS_NUMBA, bool)


class TestRuleBits:
    """step_tables reads the rule number's bits; decode's tables are the check."""

    def test_bits_match_the_decoded_tables(self):
        g = ring_chord_graph(64)
        assert configuration_census(g).all()  # every configuration occurs
        conf = configuration_vector(g)
        kernels = [loop_step_tables, _kernels.step_tables]
        # every value of each byte, each time beside a different other byte
        for b in range(256):
            for number in (b | (255 - b) << 8, (255 - b) | b << 8):
                rule = decode(number)
                for kernel in kernels:
                    new_states, div, n_div = kernel(g.neighbors, g.states, number)
                    assert new_states.dtype == np.uint8 and div.dtype == np.uint8
                    assert np.array_equal(new_states, rule.next_state[conf]), number
                    assert np.array_equal(div, rule.divides[conf]), number
                    assert int(n_div) == int(rule.divides[conf].sum()), number

    def test_dividers_own_their_data(self):
        # the split chain keeps them for the life of the graph
        g = canonical_g0()
        div = np.zeros(g.order, dtype=np.uint8)
        div[[1, 5]] = 1
        nb, rank = _tables_with_room(StableGraph.of(g), g.order + 4)
        *_, dividers = _kernels.ACTIVE.divide_all(nb, g.states, div, 2, rank=rank)
        assert dividers.tolist() == [1, 5]
        assert dividers.base is None
        stable = step(StableGraph.of(g), decode(1026)).graph
        assert stable.splits[1].base is None


class TestEvolve:
    def test_rule_zero_halts_at_period_one(self):
        trace = evolve(k4_one_alive(), decode(0), Budget(max_steps=50))
        assert trace.stop_reason == "cycle-found"
        assert trace.cycle_period == 1
        assert trace.orders[0] == 4
        assert (trace.increments == 0).all()

    def test_rule_256_triples_from_t1(self):
        trace = evolve(canonical_g0(), decode(256), Budget(max_steps=10, max_order=10**9))
        assert trace.steps == 10
        for t in range(1, 10):
            assert trace.orders[t + 1] == 3 * trace.orders[t]
            # every vertex divides, so each increment doubles the order
            assert trace.increments[t] == 2 * trace.orders[t]

    def test_max_steps_budget(self):
        trace = evolve(canonical_g0(), decode(2222), Budget(max_steps=37))
        assert trace.stop_reason == "max-steps"
        assert trace.steps == 37
        assert len(trace.orders) == 38
        assert len(trace.increments) == 37
        assert trace.cycle_period is None

    def test_max_order_budget(self):
        trace = evolve(canonical_g0(), decode(256), Budget(max_steps=10_000, max_order=1_000))
        assert trace.stop_reason == "max-order"
        assert trace.final_order > 1_000
        assert trace.orders[-2] <= 1_000

    def test_wall_clock_budget(self):
        trace = evolve(
            canonical_g0(), decode(2222), Budget(max_steps=10**9, max_order=10**9, wall_clock=0.2)
        )
        assert trace.stop_reason == "wall-clock"

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"max_steps": -1}, "max_steps"),
            ({"max_steps": 5, "max_order": 0}, "max_order"),
            ({"max_steps": 5, "wall_clock": 0.0}, "wall_clock"),
            ({"max_steps": 5, "wall_clock": -1.0}, "wall_clock"),
            ({"max_steps": 5, "wall_clock": float("nan")}, "wall_clock"),
            ({"max_steps": 2.5}, "max_steps"),
            ({"max_steps": True}, "max_steps"),
            ({"max_steps": 5, "max_order": 1e6}, "max_order"),
            ({"max_steps": 5, "wall_clock": "60"}, "wall_clock"),
        ],
        ids=["max_steps-negative", "max_order-zero", "wall_clock-zero",
             "wall_clock-negative", "wall_clock-nan", "max_steps-float", "max_steps-bool",
             "max_order-float", "wall_clock-string"],
    )
    def test_budget_that_cannot_bound_a_run_refused(self, kwargs, field):
        with pytest.raises(GraError, match=f"^{field} must be "):
            Budget(**kwargs)

    def test_zero_step_budget_is_valid(self):
        trace = evolve(canonical_g0(), decode(2222), Budget(max_steps=0, max_order=1))
        assert trace.steps == 0 and trace.stop_reason == "max-steps"

    def test_increments_even_nonnegative(self):
        trace = evolve(canonical_g0(), decode(770), Budget(max_steps=200))
        assert (trace.increments >= 0).all()
        assert (trace.increments % 2 == 0).all()
        assert np.array_equal(np.diff(trace.orders), trace.increments)

    def test_blinker_period_two(self):
        # all-alive K4 under a rule that flips everything each step
        flip = sum(1 << c for c in range(4))  # dead -> alive, alive -> dead
        g = build_graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], (1, 1, 1, 1))
        trace = evolve(g, decode(flip), Budget(max_steps=50))
        assert trace.stop_reason == "cycle-found"
        assert trace.cycle_period == 2

    def test_final_graph_matches_orders(self):
        # on max-steps the final graph is the one of the last order recorded
        trace = evolve(canonical_g0(), decode(300), Budget(max_steps=8))
        assert trace.stop_reason == "max-steps"
        assert trace.final_graph.order == trace.final_order
        # on max-order the order that passed the budget is recorded, and the
        # final graph is the last one built, within it
        budget = Budget(max_steps=25)
        trace = evolve(canonical_g0(), decode(300), budget)
        assert trace.stop_reason == "max-order"
        assert trace.final_order == 6_908_740
        assert trace.final_graph.order == trace.orders[-2] <= budget.max_order


# rules that divide in every configuration: vertices split again and again,
# and neighbours divide together
all_divide_rules = st.integers(0xFF00, 0xFFFF).map(decode)


def public_step_evolve(g, rule, budget):
    """evolve's contract from public steps and exact state comparison:
    (orders, stop reason, cycle period, final graph).  The first step
    whose order passes budget.max_order ends the run: its order is
    recorded, and the final graph is the one from before it."""
    orders = [g.order]
    seen = {g.states.tobytes(): 0}
    due = period = None
    for t in range(1, budget.max_steps + 1):
        out = step(g, rule)
        orders.append(out.graph.order)
        if out.graph.order > budget.max_order:
            return orders, "max-order", None, g
        g = out.graph
        key = g.states.tobytes()
        if out.divisions_performed:
            seen, due = {key: t}, None
            continue
        if t == due:
            return orders, "cycle-found", period, g
        if due is None and key in seen:
            period = t - seen[key]
            due = t + period
        seen.setdefault(key, t)
    return orders, "max-steps", None, g


class TestStableIds:
    """evolve runs on stable ids; what it reports equals public steps."""

    @given(graphs(), st.one_of(rules, all_divide_rules), st.integers(0, 6))
    @settings(max_examples=120, deadline=None)
    def test_evolve_matches_public_steps(self, g, rule, k):
        budget = Budget(max_steps=k)
        trace = evolve(g, rule, budget)
        orders, stop, period, final = public_step_evolve(g, rule, budget)
        assert trace.final_graph == final
        assert trace.orders.tolist() == orders
        assert trace.stop_reason == stop
        assert trace.cycle_period == period

    @given(graphs(), st.one_of(rules, all_divide_rules), st.integers(0, 8), st.integers(1, 400))
    @settings(max_examples=150, deadline=None)
    def test_evolve_stops_on_max_order_like_public_steps(self, g, rule, k, max_order):
        # max_order may sit below g0's order: the first step then passes it
        budget = Budget(max_steps=k, max_order=max_order)
        trace = evolve(g, rule, budget)
        orders, stop, period, final = public_step_evolve(g, rule, budget)
        assert trace.orders.tolist() == orders
        assert trace.stop_reason == stop
        assert trace.cycle_period == period
        assert trace.final_graph == final

    @pytest.mark.parametrize(
        "number, max_order", [(0xFF96, 1_000), (0xFF96, 5_000), (1026, 3_000)]
    )
    def test_evolve_never_builds_past_max_order(self, monkeypatch, number, max_order):
        rows = []  # of every table divide_all returns, and every capacity grown to

        def divide_all(*args, **kwargs):
            out = kernel(*args, **kwargs)
            rows.append(out[1].shape[0])
            return out

        def recording(g, capacity):
            rows.append(capacity)
            return tables_with_room(g, capacity)

        kernel, tables_with_room = _kernels.ACTIVE.divide_all, engine._tables_with_room
        monkeypatch.setattr(_kernels, "ACTIVE", _kernels.ACTIVE._replace(divide_all=divide_all))
        monkeypatch.setattr(engine, "_tables_with_room", recording)
        trace = evolve(canonical_g0(), decode(number), Budget(max_steps=500, max_order=max_order))
        assert trace.stop_reason == "max-order" and trace.final_order > max_order
        assert rows and max(rows) <= max_order
        assert trace.final_graph.order == trace.orders[-2]

    @pytest.mark.parametrize(
        "number, steps, outgrows",
        [
            (0xFF00 | 0x96, 5, True),  # every configuration divides: the order triples
            (2222, 300, False),  # 1-2 dividers a step: capacity doubles now and then
        ],
    )
    def test_evolve_grows_its_tables_like_public_steps(
        self, monkeypatch, number, steps, outgrows
    ):
        grown = []  # (order before the step, rows asked for)

        def recording(g, rows):
            grown.append((g.order, rows))
            return tables_with_room(g, rows)

        tables_with_room = engine._tables_with_room
        monkeypatch.setattr(engine, "_tables_with_room", recording)
        g, rule = canonical_g0(), decode(number)
        budget = Budget(max_steps=steps)
        trace = evolve(g, rule, budget)
        monkeypatch.undo()
        orders, stop, period, final = public_step_evolve(g, rule, budget)
        assert trace.final_graph == final
        assert trace.orders.tolist() == orders
        assert (trace.stop_reason, trace.cycle_period) == (stop, period)

        # each growth: capacity max(order after the step, 2 * capacity)
        capacity = 0
        for order, rows in grown:
            m = next(o for o in orders if o > order)
            assert rows == max(m, 2 * capacity)
            if capacity:  # the first growth copies g0's tables into m rows
                assert (rows == m) == outgrows
            capacity = rows
        division_steps = int((trace.increments > 0).sum())
        assert (len(grown) == division_steps) == outgrows

    def test_cycle_from_the_states_a_division_made(self):
        # rule 48135 divides once, at step 1, and the states that division
        # made blink with period 2: the cycle starts at the first states of
        # the window, which evolve hashes only once step 2 keeps the order
        g, rule = k4_one_alive(), decode(48135)
        budget = Budget(max_steps=50)
        trace = evolve(g, rule, budget)
        orders, stop, period, final = public_step_evolve(g, rule, budget)
        assert trace.orders.tolist() == orders == [4, 6, 6, 6, 6, 6]
        assert (trace.stop_reason, trace.cycle_period) == (stop, period) == ("cycle-found", 2)
        assert trace.final_graph == final

    @pytest.mark.parametrize("in_evolve_tables", [False, True])
    def test_public_step_leaves_a_dividing_graph_as_it_was(self, in_evolve_tables):
        # a stable graph from public steps, or one living in the tables evolve grows
        rule = decode(1026)
        room = engine._GrowingTables(1_000) if in_evolve_tables else None
        g = StableGraph.of(canonical_g0())
        for _ in range(4):  # orders 18, 20, 22, 22; step 5 divides
            g = step(g, rule, room=room).graph
        tables = (g.neighbors, g.rank, g.states)
        before = [a.tobytes() for a in tables]
        first = step(g, rule)
        assert first.divisions_performed
        assert [a.tobytes() for a in tables] == before
        assert step(g, rule).graph.canonical() == first.graph.canonical()

    def test_labels_are_built_only_when_read(self, monkeypatch, tmp_path):
        calls = []

        def refuse(self):
            calls.append(self)
            raise AssertionError("canonicalised")

        monkeypatch.setattr(StableGraph, "canonical", refuse)
        trace = evolve(canonical_g0(), decode(2222), Budget(max_steps=300))
        assert trace.final_order > trace.orders[0]
        config = SweepConfig(
            rule_numbers=[256, 2222],
            initial="paper-g0",
            budget=Budget(max_steps=120, max_order=20_000),
            thresholds=ClassifyThresholds(),
        )
        report = run_sweep(config, tmp_path / "journal.jsonl")
        assert [rec["error"] for rec in report.records] == [None, None]
        assert calls == []

    def test_final_graph_is_canonicalised_once(self, monkeypatch):
        calls = []

        def counted(self):
            calls.append(self)
            return canonical(self)

        canonical = StableGraph.canonical
        monkeypatch.setattr(StableGraph, "canonical", counted)
        trace = evolve(canonical_g0(), decode(2222), Budget(max_steps=300))
        first = trace.final_graph
        assert trace.final_graph is first
        assert len(calls) == 1

    def test_final_graph_read_frees_the_stable_graph(self):
        trace = evolve(canonical_g0(), decode(2222), Budget(max_steps=300))
        stable = weakref.ref(trace.build_final_graph.__self__)
        trace.final_graph
        gc.collect()
        assert stable() is None
        assert trace.final_graph.order == trace.final_order

    def test_canonicalise_refuses_a_non_permutation(self):
        g = k4_one_alive()
        d = np.array([0, 1, 1, 0], dtype=np.uint8)
        divided = StableGraph.of(g).advanced(g.states, d, 2)

        def with_splits(*dividers):
            return dataclasses.replace(divided, splits=(4, np.array(dividers), None))

        assert divided.canonical() == apply_divisions(g, d)
        # vertex 1 recorded as dividing twice in one step: two ids share labels
        with pytest.raises(EngineInvariantError, match="not a permutation"):
            with_splits(1, 1).canonical()
        # the splits end at order 6, the tables have 8 rows
        with pytest.raises(EngineInvariantError, match="do not add up"):
            with_splits(1).canonical()

    @given(graphs(), rules, rules, st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_one_stable_graph_steps_down_two_branches(self, g, a, b, k):
        # k steps of rule a, then each branch k more steps of its own rule
        stable, public = StableGraph.of(g), g
        for _ in range(k):
            stable, public = step(stable, a).graph, step(public, a).graph
        for rule in (a, b):
            branch, expected = stable, public
            for _ in range(k):
                branch, expected = step(branch, rule).graph, step(expected, rule).graph
            assert branch.canonical() == expected
        assert stable.canonical() == public
