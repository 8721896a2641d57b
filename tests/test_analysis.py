import math
import re

import numpy as np
import pytest

from gra import engine
from gra.analysis import (
    ClassifyThresholds,
    EvolutionTrace,
    GrowthCategory,
    classify,
    fit_growth,
    increment_periodicity,
    increment_support,
    zero_growth_intervals,
)
from gra import _kernels
from gra.engine import Budget, evolve, minimal_period, step
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


# next state 1 on configurations 0-3 (a dead vertex), 0 on 4-7: every
# vertex flips on every step, so any graph blinks with period 2
FLIP = decode(0b1111)


def prism_on_its_cycle():
    """The one-alive prism after its 2-step transient under rule 135: its
    states first return after 6 steps."""
    g = build_graph(PRISM_EDGES, (1, 0, 0, 0, 0, 0))
    for _ in range(2):
        g = step(g, decode(135))
    return g


class TestDetectCycle:
    """Cycles are found one way: evolve nominates a period by digest, and
    minimal_period confirms it on exact states in one forward scan."""

    def test_fixed_point(self):
        g = build_graph(K4_EDGES, (0, 0, 0, 0))
        assert minimal_period(g, decode(0), 6) == 1

    def test_blinker(self):
        g = build_graph(K4_EDGES, (1, 1, 1, 1))
        assert minimal_period(g, FLIP, 4) == 2

    def test_minimality(self):
        # a return after 12 steps reduces to the true period 6, not below
        assert minimal_period(prism_on_its_cycle(), decode(135), 12) == 6

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
    def test_bound_reduces_to_the_period(self):
        g = prism_on_its_cycle()
        for k in range(1, 5):
            assert minimal_period(g, decode(135), 6 * k) == 6

    def test_bound_that_is_no_period_gives_none(self):
        # the blinker returns after 2 steps, which divides no odd bound; the
        # prism has not returned by 3 or 4 steps and returns after 6, not 8
        blinker = build_graph(K4_EDGES, (1, 1, 1, 1))
        assert minimal_period(blinker, FLIP, 3) is None
        for bound in (3, 4, 8):
            assert minimal_period(prism_on_its_cycle(), decode(135), bound) is None

    def test_a_division_before_the_first_return_gives_none(self):
        # the flip rule that also divides a dead vertex with dead neighbours:
        # the states would return at step 2, but that step divides
        g = build_graph(K4_EDGES, (1, 1, 1, 1))
        assert minimal_period(g, decode(0b1111 | 1 << 8), 4) is None
        # rule 256 keeps the dead K4 dead, but divides every vertex at step 1
        assert minimal_period(build_graph(K4_EDGES, (0, 0, 0, 0)), decode(256), 1) is None

    @pytest.mark.parametrize(
        "case, bound, steps",
        [("fixed", 6, 1), ("blinker", 4, 2), ("blinker", 3, 2), ("prism", 12, 6),
         ("prism", 4, 4)],
    )
    def test_scan_stops_at_the_first_return(self, monkeypatch, case, bound, steps):
        g, rule = {
            "fixed": (build_graph(K4_EDGES, (0, 0, 0, 0)), decode(0)),
            "blinker": (build_graph(K4_EDGES, (1, 1, 1, 1)), FLIP),
            "prism": (prism_on_its_cycle(), decode(135)),
        }[case]
        be = _kernels.ACTIVE
        calls = []

        def counted(*args):
            calls.append(args)
            return be.step_tables(*args)

        monkeypatch.setattr(_kernels, "ACTIVE", be._replace(step_tables=counted))
        minimal_period(g, rule, bound)
        assert len(calls) == steps


class TestFinalGraph:
    def test_recorded_series_has_none(self):
        assert make_trace([4, 6, 8]).final_graph is None

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
        assert increment_periodicity([2] * 30) == 1

    def test_seven_step_pattern(self):
        pattern = [2, 0, 0, 2, 0, 0, 0]
        assert increment_periodicity(pattern * 12) == 7

    def test_preperiod(self):
        seq = [6, 4, 6] + [2, 0] * 40
        assert increment_periodicity(seq) == 2

    def test_aperiodic(self):
        phi = (1 + 5**0.5) / 2
        seq = [2 if (t * phi) % 1 < 0.5 else 4 for t in range(2000)]
        assert increment_periodicity(seq) is None

    def test_rejects_accidental_constant_tail(self):
        rng = np.random.default_rng(5)
        seq = list(rng.choice([0, 2, 4], size=2000)) + [2] * 9
        assert increment_periodicity(seq) is None

    @pytest.mark.parametrize("cap", [0, -3, 1.5, True])
    def test_cap_that_classify_thresholds_refuse_is_refused(self, cap):
        with pytest.raises(GraError, match="^cap must be"):
            increment_periodicity([2] * 30, cap)


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

    @pytest.mark.parametrize(
        "incs", [[2] * 300, [6, 4] + [2] * 300], ids=["constant", "after-preperiod"]
    )
    def test_linear_strict(self, incs):
        cls = classify(trace_from_increments(incs))
        assert cls.category is GrowthCategory.LINEAR_STRICT
        assert cls.increment_period == 1

    @pytest.mark.parametrize(
        "incs, period",
        [([2, 0, 0, 2, 0, 0, 0] * 60, 7), ([6, 4, 6] + [2, 0] * 150, 2)],
        ids=["seven-step", "after-preperiod"],
    )
    def test_linear_periodic(self, incs, period):
        cls = classify(trace_from_increments(incs))
        assert cls.category is GrowthCategory.LINEAR_PERIODIC
        assert cls.increment_period == period

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
