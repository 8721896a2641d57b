import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gra import engine
from gra.analysis import (
    ClassifyThresholds,
    EvolutionTrace,
    GrowthCategory,
    Periodicity,
    classify,
    fit_growth,
    increment_periodicity,
    increment_support,
    minimal_period,
    zero_growth_intervals,
)
from gra.engine import Budget, evolve
from gra.errors import DegenerateWindowError, GraError
from gra.export import as_record
from gra.graph import build_graph
from gra.rules import decode

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
PRISM_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]


def make_trace(orders, stop_reason="max-steps", cycle_period=None):
    orders = np.asarray(orders, dtype=np.int64)
    return EvolutionTrace(
        orders=orders,
        stop_reason=stop_reason,
        cycle_period=cycle_period,
    )


def trace_from_increments(increments, start=16):
    orders = np.concatenate(([start], start + np.cumsum(increments)))
    return make_trace(orders)


def cyclic_advance(sequence):
    """advance() for minimal_period over a cyclic list of state vectors."""
    return lambda k: sequence[k % len(sequence)]


def distinct_states(n):
    return [np.array([(t >> b) & 1 for b in range(3)], dtype=np.uint8) for t in range(n)]


class TestDetectCycle:
    """Cycles are found one way: evolve nominates a period by digest,
    confirms it on exact states, and minimal_period reduces it."""

    def test_fixed_point(self):
        seq = distinct_states(1)
        assert minimal_period(seq[0], cyclic_advance(seq), 6) == 1

    def test_blinker(self):
        seq = distinct_states(2)
        assert minimal_period(seq[0], cyclic_advance(seq), 4) == 2

    def test_minimality(self):
        # a return after 12 steps reduces to the true period 6, not below
        seq = distinct_states(6)
        assert minimal_period(seq[0], cyclic_advance(seq), 12) == 6

    def test_preperiod_then_cycle(self):
        # one alive vertex on the triangular prism: a 2-step transient, then
        # a 6-cycle, nominated at t=8 and confirmed at t=14
        g = build_graph(PRISM_EDGES, (1, 0, 0, 0, 0, 0))
        trace = evolve(g, decode(135), Budget(max_steps=100))
        assert trace.stop_reason == "cycle-found"
        assert trace.cycle_period == 6
        assert trace.steps == 2 + 2 * 6

    def test_window_cap_restarts_search(self, monkeypatch):
        # the same prism run; a window holding more than the cap restarts
        g = build_graph(PRISM_EDGES, (1, 0, 0, 0, 0, 0))
        monkeypatch.setattr(engine, "CYCLE_WINDOW_CAP", 3)
        trace = evolve(g, decode(135), Budget(max_steps=100))
        assert trace.stop_reason == "max-steps"
        assert trace.cycle_period is None
        monkeypatch.setattr(engine, "CYCLE_WINDOW_CAP", 6)
        trace = evolve(g, decode(135), Budget(max_steps=100))
        assert trace.stop_reason == "cycle-found"
        assert trace.cycle_period == 6
        assert trace.steps == 18

    def test_no_cycle(self):
        # the blinker repeats at t=2, but confirmation is due at t=4
        g = build_graph(K4_EDGES, (1, 1, 1, 1))
        trace = evolve(g, decode(0b1111), Budget(max_steps=3))
        assert trace.stop_reason == "max-steps"
        assert trace.cycle_period is None

    def test_empty(self):
        g = build_graph(K4_EDGES, (1, 0, 0, 0))
        trace = evolve(g, decode(0), Budget(max_steps=0))
        assert trace.steps == 0
        assert trace.cycle_period is None


class TestMinimalPeriod:
    @given(st.integers(1, 12), st.integers(1, 12))
    def test_bound_reduces_to_the_period(self, m, k):
        # m distinct states in a cycle, first confirmed after k full turns;
        # only divisors of the bound are worth advancing to
        seq = [np.array([t], dtype=np.uint8) for t in range(m)]
        asked = []

        def advance(q):
            asked.append(q)
            return seq[q % m]

        assert minimal_period(seq[0], advance, k * m) == m
        assert all(k * m % q == 0 for q in asked)

    def test_bound_that_is_no_period_gives_none(self):
        # a 3-cycle never returns after 4 steps, nor after 1 or 2
        seq = [np.array([t], dtype=np.uint8) for t in range(3)]
        assert minimal_period(seq[0], lambda q: seq[q % 3], 4) is None

    def test_advance_that_leaves_the_cycle_gives_none(self):
        # advance returns None when a step inside the scan divides
        assert minimal_period(np.array([0], dtype=np.uint8), lambda q: None, 6) is None


class TestFinalGraph:
    def test_failed_read_keeps_the_builder(self):
        g = build_graph(K4_EDGES, (1, 0, 0, 0))
        reads = []

        def build():
            reads.append(len(reads))
            if len(reads) == 1:
                raise RuntimeError("first read fails")
            return g

        trace = EvolutionTrace(orders=np.array([4]), stop_reason="max-steps", build_final_graph=build)
        with pytest.raises(RuntimeError):
            trace.final_graph
        assert trace.build_final_graph is build
        assert trace.final_graph is g
        assert trace.build_final_graph is None
        assert trace.final_graph is g
        assert reads == [0, 1]


class TestFitGrowth:
    def test_exact_linear(self):
        orders = [5 + 3 * t for t in range(101)]
        fits = fit_growth(orders)
        assert math.isclose(fits.linear.params["intercept"], 5.0, abs_tol=1e-9)
        assert math.isclose(fits.linear.params["slope"], 3.0, abs_tol=1e-9)
        assert fits.linear.adjusted_r2 >= 1 - 1e-9

    def test_exact_exponential(self):
        orders = [2 * 3**t for t in range(21)]
        fits = fit_growth(orders, window=(1, 21))
        assert math.isclose(fits.exponential.params["base"], 3.0, rel_tol=1e-9)
        assert math.isclose(fits.exponential.params["coefficient"], 2.0, rel_tol=1e-9)
        assert fits.exponential.adjusted_r2 >= 1 - 1e-9

    def test_exact_power(self):
        orders = [3 * t**2 for t in range(41)]
        fits = fit_growth(orders, window=(1, 41))
        assert fits.power is not None
        assert math.isclose(fits.power.params["exponent"], 2.0, rel_tol=1e-9)
        assert math.isclose(fits.power.params["coefficient"], 3.0, rel_tol=1e-9)
        assert fits.power.adjusted_r2 >= 1 - 1e-9

    def test_constant_series(self):
        fits = fit_growth([7] * 50)
        assert fits.linear.params["slope"] == 0.0
        assert fits.linear.adjusted_r2 == 1.0

    def test_window_too_short(self):
        with pytest.raises(DegenerateWindowError):
            fit_growth([4, 6, 8, 10, 12])

    def test_non_positive_order_refused(self):
        with pytest.raises(DegenerateWindowError, match="^orders must be positive$"):
            fit_growth([0, *range(4, 24, 2)], window=(0, 11))

    @pytest.mark.parametrize(
        "n, window",
        [(5, (0, 20)), (29, (-5, 20)), (29, (10, 30))],
        ids=["past-end", "negative-start", "one-past-end"],
    )
    def test_window_outside_the_series_refused(self, n, window):
        with pytest.raises(DegenerateWindowError, match=r"^fit window \["):
            fit_growth(range(1, n + 1), window=window)

    def test_best_prefers_simpler_on_tie(self):
        orders = [5 + 3 * t for t in range(101)]
        fits = fit_growth(orders)
        assert fits.best().model == "linear"


class TestIncrementPeriodicity:
    def test_constant(self):
        assert increment_periodicity([2] * 30) == Periodicity(period=1, preperiod=0)

    def test_seven_step_pattern(self):
        pattern = [2, 0, 0, 2, 0, 0, 0]
        out = increment_periodicity(pattern * 12)
        assert out == Periodicity(period=7, preperiod=0)

    def test_preperiod(self):
        seq = [6, 4, 6] + [2, 0] * 40
        out = increment_periodicity(seq)
        assert out.period == 2
        assert out.preperiod == 3

    def test_aperiodic(self):
        phi = (1 + 5**0.5) / 2
        seq = [2 if (t * phi) % 1 < 0.5 else 4 for t in range(2000)]
        assert increment_periodicity(seq) is None

    def test_rejects_accidental_constant_tail(self):
        rng = np.random.default_rng(5)
        seq = list(rng.choice([0, 2, 4], size=2000)) + [2] * 9
        assert increment_periodicity(seq) is None


class TestZeroGrowthIntervals:
    def test_hand_count(self):
        assert zero_growth_intervals([0, 0, 2, 0, 2]) == {2: 1, 1: 1}

    def test_all_nonzero(self):
        assert zero_growth_intervals([2, 4, 2]) == {}

    def test_trailing_run_counts(self):
        assert zero_growth_intervals([0, 2, 0, 0]) == {1: 1, 2: 1}

    def test_empty(self):
        assert zero_growth_intervals([]) == {}


class TestIncrementSupport:
    def test_values(self):
        assert increment_support([0, 2, 2, 4, 0]) == {0, 2, 4}

    def test_window(self):
        assert increment_support([0, 2, 2, 4, 0], window=(1, 3)) == {2}

    def test_empty_window(self):
        assert increment_support([0, 2, 4], window=(1, 1)) == set()


class TestClassify:
    def test_halted(self):
        trace = make_trace([4] * 10, stop_reason="cycle-found", cycle_period=1)
        cls = classify(trace)
        assert cls.category is GrowthCategory.HALTED
        assert cls.cycle_period == 1
        assert (trace.increments == 0).all()

    def test_linear_strict(self):
        trace = trace_from_increments([2] * 300)
        cls = classify(trace)
        assert cls.category is GrowthCategory.LINEAR_STRICT
        assert cls.increment_period == 1

    def test_linear_periodic(self):
        trace = trace_from_increments([2, 0, 0, 2, 0, 0, 0] * 60)
        cls = classify(trace)
        assert cls.category is GrowthCategory.LINEAR_PERIODIC
        assert cls.increment_period == 7

    def test_linear_chaotic(self):
        # Sturmian increments: aperiodic but with bounded deviation from a
        # perfect line, so the linear fit stays essentially exact
        phi = (1 + 5**0.5) / 2
        incs = [2 if (t * phi) % 1 < 0.5 else 4 for t in range(3000)]
        trace = trace_from_increments(incs)
        cls = classify(trace)
        assert cls.category is GrowthCategory.LINEAR_CHAOTIC
        assert cls.fit.linear.adjusted_r2 >= 0.999

    def test_quadratic(self):
        orders = [max(4, round(0.06 * t**2)) for t in range(601)]
        orders = np.asarray(orders)
        orders += orders % 2  # keep increments even
        cls = classify(make_trace(np.maximum.accumulate(orders)))
        assert cls.category is GrowthCategory.QUADRATIC
        assert 1.9 <= cls.fit.power.params["exponent"] <= 2.1

    def test_exponential(self):
        trace = make_trace([4 * 3**t for t in range(14)])
        cls = classify(trace)
        assert cls.category is GrowthCategory.EXPONENTIAL

    def test_unclassified_on_plateaued_ramps(self):
        incs = ([2] * 150 + [0] * 150) * 4
        trace = trace_from_increments(incs)
        cls = classify(trace)
        assert cls.category is GrowthCategory.UNCLASSIFIED

    def test_deterministic(self):
        trace = trace_from_increments([2, 0, 4] * 100)
        a = classify(trace)
        b = classify(trace)
        assert a.category is b.category
        assert as_record(a) == as_record(b)

    def test_thresholds_recorded(self):
        th = ClassifyThresholds(theta_linear=0.9)
        trace = trace_from_increments([2] * 300)
        assert classify(trace, th).thresholds.theta_linear == 0.9


class TestClassifyThresholds:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"periodicity_cap": 1.5}, "periodicity_cap must be an integer"),
            ({"periodicity_cap": 0}, "periodicity_cap must be at least 1"),
            ({"window_fraction": "0.5"}, "window_fraction must be a number"),
            ({"window_fraction": 5}, "window_fraction must be in (0, 1]"),
            ({"window_fraction": 0}, "window_fraction must be in (0, 1]"),
            ({"window_fraction": -1}, "window_fraction must be in (0, 1]"),
            ({"theta_linear": True}, "theta_linear must be a number"),
            ({"quadratic_exponent_band": (1.7,)}, "quadratic_exponent_band must be two numbers"),
            ({"quadratic_exponent_band": (1.7, "2.5")}, "quadratic_exponent_band must be a number"),
            ({"quadratic_exponent_band": (2.5, 1.7)}, "quadratic_exponent_band must be [lo, hi]"),
            ({"theta_linear": math.nan}, "theta_linear must be a number"),
            ({"theta_power": 1.5}, "theta_power must be at most 1"),
            (
                {"quadratic_exponent_band": (1.7, math.nan)},
                "quadratic_exponent_band must be a number",
            ),
            ({"tie_epsilon": -5.0}, "tie_epsilon must be finite and at least 0"),
            ({"tie_epsilon": math.inf}, "tie_epsilon must be finite and at least 0"),
        ],
        ids=["cap-float", "cap-zero", "window-string", "window-five", "window-zero",
             "window-negative", "theta-bool", "band-one-number", "band-string", "band-reversed",
             "theta-nan", "theta-above-one", "band-nan", "tie-negative", "tie-infinite"],
    )
    def test_bad_value_refused(self, kwargs, message):
        with pytest.raises(GraError, match=f"^{re.escape(message)}"):
            ClassifyThresholds(**kwargs)

    def test_band_stored_as_tuple(self):
        th = ClassifyThresholds(quadratic_exponent_band=[1.5, 3])
        assert th.quadratic_exponent_band == (1.5, 3)
        assert th == ClassifyThresholds(quadratic_exponent_band=(1.5, 3))
