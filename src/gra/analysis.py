"""Evolution traces, cycle periods, growth-model fitting and classification."""

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateWindowError
from .graph import Graph

STOP_CYCLE = "cycle-found"
STOP_MAX_STEPS = "max-steps"
STOP_MAX_ORDER = "max-order"
STOP_WALL_CLOCK = "wall-clock"


@dataclass
class EvolutionTrace:
    """Per-step record of one evolution.

    orders has length steps+1 (orders[t] is the order at time t).
    cycle_period is set only when evolve confirmed an exact state cycle
    (stop_reason "cycle-found").  build_final_graph makes the last graph
    built, under canonical labels; it runs on the first read of
    final_graph, which is None for recorded series, and is dropped once it
    has returned, so a read trace no longer holds what it built from.  On
    "max-order" the last graph built is the one at step steps - 1, of order
    orders[-2]: evolve records the order that passed the budget without
    building its graph.  On any other stop it is of order final_order.
    """

    orders: np.ndarray
    stop_reason: str
    cycle_period: Optional[int] = None
    build_final_graph: Optional[Callable[[], Graph]] = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def final_graph(self) -> Optional[Graph]:
        if self.build_final_graph is None:
            return None
        graph = self.build_final_graph()
        self.build_final_graph = None
        return graph

    @property
    def increments(self) -> np.ndarray:
        """Length steps; increments[t] = orders[t+1] - orders[t]."""
        return np.diff(self.orders)

    @property
    def steps(self) -> int:
        return len(self.orders) - 1

    @property
    def final_order(self) -> int:
        return int(self.orders[-1])


class GrowthCategory(str, enum.Enum):
    HALTED = "Halted"
    LINEAR_STRICT = "LinearStrict"
    LINEAR_PERIODIC = "LinearPeriodic"
    LINEAR_CHAOTIC = "LinearChaotic"
    QUADRATIC = "Quadratic"
    EXPONENTIAL = "Exponential"
    UNCLASSIFIED = "Unclassified"


@dataclass(frozen=True)
class ClassifyThresholds:
    """Knobs of the classification decision procedure.

    Recorded in every report so results stay interpretable if they change.
    """

    theta_linear: float = 0.999
    theta_power: float = 0.999
    theta_exponential: float = 0.999
    quadratic_exponent_band: tuple[float, float] = (1.7, 2.5)
    window_fraction: float = 0.75  # trailing share of steps used for fits
    periodicity_cap: int = 128
    # adjusted-R2 margin under which fits count as tied and the simpler
    # model wins; wide enough that a power fit with exponent ~1 cannot
    # edge out the linear model on genuinely linear data
    tie_epsilon: float = 1e-4


@dataclass
class GrowthClassification:
    category: GrowthCategory
    cycle_period: Optional[int] = None
    increment_period: Optional[int] = None
    fit: Optional["GrowthFits"] = None
    thresholds: ClassifyThresholds = field(default_factory=ClassifyThresholds)


# --------------------------------------------------------------------------
# cycle period
# --------------------------------------------------------------------------

def minimal_period(initial_states: np.ndarray, advance, period_bound: int) -> int:
    """Reduce a known return time to the minimal period.

    ``advance(k)`` must return the state vector k steps after
    initial_states.  Requires advance(period_bound) == initial_states.
    """
    q = period_bound
    n = period_bound
    f = 2
    factors = []
    while f * f <= n:
        while n % f == 0:
            factors.append(f)
            n //= f
        f += 1
    if n > 1:
        factors.append(n)
    for f in set(factors):
        while q % f == 0 and np.array_equal(advance(q // f), initial_states):
            q //= f
    return q


# --------------------------------------------------------------------------
# growth-model fits
# --------------------------------------------------------------------------

@dataclass
class ModelFit:
    model: str
    params: dict[str, float]
    adjusted_r2: float


@dataclass
class GrowthFits:
    linear: ModelFit
    power: Optional[ModelFit]
    exponential: ModelFit
    window: tuple[int, int]

    def best(self, tie_epsilon: float = ClassifyThresholds.tie_epsilon) -> ModelFit:
        """Highest adjusted R2; near-ties go to the simpler model
        (linear over power over exponential)."""
        ranked = [self.linear]
        if self.power is not None:
            ranked.append(self.power)
        ranked.append(self.exponential)
        best = ranked[0]
        for cand in ranked[1:]:
            if cand.adjusted_r2 > best.adjusted_r2 + tie_epsilon:
                best = cand
        return best


def _lstsq_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    xm = x.mean()
    ym = y.mean()
    den = ((x - xm) ** 2).sum()
    if den == 0.0:
        return float(ym), 0.0
    b = float(((x - xm) * (y - ym)).sum() / den)
    return float(ym - b * xm), b


def _adjusted_r2(y: np.ndarray, pred: np.ndarray, n_params: int = 2) -> float:
    n = len(y)
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        # constant data: a perfect fit scores 1, anything else 0
        return 1.0 if ss_res <= 1e-12 * max(1.0, abs(float(y[0]))) * n else 0.0
    r2 = 1.0 - ss_res / ss_tot
    dof = n - n_params
    if dof <= 0:
        return r2
    return 1.0 - (1.0 - r2) * (n - 1) / dof


def fit_growth(
    orders: Sequence[int], window: Optional[tuple[int, int]] = None
) -> GrowthFits:
    """Least-squares fits of the order series against three growth models.

    linear       o = a + b*t           (direct least squares)
    power        o = c * t**k          (least squares on log t / log o, t >= 1)
    exponential  o = c * beta**t       (least squares on t / log o)

    Adjusted R2 is computed in the original data space for all three so the
    models are comparable.  ``window`` is a half-open (start, stop) range of
    time steps; the whole series by default.  Raises DegenerateWindowError
    when fewer than 10 points are available.
    """
    o = np.asarray(orders, dtype=np.float64)
    if window is None:
        window = (0, len(o))
    start, stop = window
    if stop - start < 10:
        raise DegenerateWindowError(f"fit window [{start}, {stop}) has fewer than 10 points")
    t = np.arange(start, stop, dtype=np.float64)
    y = o[start:stop]
    if (y <= 0).any():
        raise DegenerateWindowError("orders must be positive")

    a, b = _lstsq_line(t, y)
    linear = ModelFit("linear", {"intercept": a, "slope": b}, _adjusted_r2(y, a + b * t))

    log_y = np.log(y)
    la, lb = _lstsq_line(t, log_y)
    c_exp, beta = math.exp(la), math.exp(lb)
    exponential = ModelFit(
        "exponential",
        {"coefficient": c_exp, "base": beta},
        _adjusted_r2(y, c_exp * np.power(beta, t)),
    )

    power: Optional[ModelFit] = None
    mask = t >= 1
    if int(mask.sum()) >= 10:
        lt = np.log(t[mask])
        pa, pk = _lstsq_line(lt, np.log(y[mask]))
        c_pow = math.exp(pa)
        power = ModelFit(
            "power",
            {"coefficient": c_pow, "exponent": pk},
            _adjusted_r2(y[mask], c_pow * np.power(t[mask], pk)),
        )

    return GrowthFits(linear=linear, power=power, exponential=exponential, window=(start, stop))


# --------------------------------------------------------------------------
# increment statistics
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Periodicity:
    period: int
    preperiod: int


def increment_periodicity(
    increments: Sequence[int], cap: int = ClassifyThresholds.periodicity_cap
) -> Optional[Periodicity]:
    """Smallest eventual period of the increment sequence, with its shortest
    preperiod, confirmed over the whole observed suffix.

    A period p is accepted only when the periodic suffix spans at least
    three full periods and at least half of the observed sequence; the
    second condition keeps an accidentally constant tail of a long aperiodic
    sequence from passing as eventual periodicity.  Returns None if no
    period up to the cap fits.
    """
    a = np.asarray(increments)
    n = len(a)
    max_p = min(cap, n // 3)
    for p in range(1, max_p + 1):
        mism = np.flatnonzero(a[: n - p] != a[p:])
        preperiod = int(mism[-1]) + 1 if len(mism) else 0
        if n - preperiod >= max(3 * p, (n + 1) // 2):
            return Periodicity(period=p, preperiod=preperiod)
    return None


def zero_growth_intervals(increments: Sequence[int]) -> dict[int, int]:
    """Histogram of maximal run lengths of zero increments."""
    hist: dict[int, int] = {}
    run = 0
    for inc in increments:
        if inc == 0:
            run += 1
        elif run:
            hist[run] = hist.get(run, 0) + 1
            run = 0
    if run:
        hist[run] = hist.get(run, 0) + 1
    return hist


def increment_support(
    increments: Sequence[int], window: Optional[tuple[int, int]] = None
) -> set[int]:
    """Distinct increment values inside the window."""
    a = np.asarray(increments)
    if window is not None:
        a = a[window[0] : window[1]]
    return {int(v) for v in np.unique(a)}


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------

def classify(
    trace: EvolutionTrace, thresholds: Optional[ClassifyThresholds] = None
) -> GrowthClassification:
    """Assign a growth category to an evolution trace.

    Decision order: a confirmed state cycle means Halted.  Otherwise the
    increment sequence decides the linear family: eventually constant is
    LinearStrict, eventually periodic is LinearPeriodic.  Otherwise the
    three growth models are fitted on the trailing window and the winner
    (by adjusted R2, near-ties to the simpler model) must clear its
    threshold: linear -> LinearChaotic, power with exponent in the
    quadratic band -> Quadratic, exponential -> Exponential.  Anything
    else is Unclassified.
    """
    th = thresholds or ClassifyThresholds()

    if trace.stop_reason == STOP_CYCLE and trace.cycle_period is not None:
        return GrowthClassification(
            category=GrowthCategory.HALTED, cycle_period=trace.cycle_period, thresholds=th
        )

    periodicity = increment_periodicity(trace.increments, cap=th.periodicity_cap)
    if periodicity is not None:
        if periodicity.period == 1:
            return GrowthClassification(
                category=GrowthCategory.LINEAR_STRICT,
                increment_period=1,
                thresholds=th,
            )
        return GrowthClassification(
            category=GrowthCategory.LINEAR_PERIODIC,
            increment_period=periodicity.period,
            thresholds=th,
        )

    steps = trace.steps
    start = int(math.floor(steps * (1.0 - th.window_fraction)))
    try:
        fits = fit_growth(trace.orders, window=(start, steps + 1))
    except DegenerateWindowError:
        return GrowthClassification(category=GrowthCategory.UNCLASSIFIED, thresholds=th)

    best = fits.best(th.tie_epsilon)
    category = GrowthCategory.UNCLASSIFIED
    if best.model == "linear" and best.adjusted_r2 >= th.theta_linear:
        category = GrowthCategory.LINEAR_CHAOTIC
    elif best.model == "power" and best.adjusted_r2 >= th.theta_power:
        lo, hi = th.quadratic_exponent_band
        if lo <= best.params["exponent"] <= hi:
            category = GrowthCategory.QUADRATIC
    elif best.model == "exponential" and best.adjusted_r2 >= th.theta_exponential:
        category = GrowthCategory.EXPONENTIAL

    return GrowthClassification(category=category, fit=fits, thresholds=th)
