"""Graph-rewriting automata on binary-state 3-regular graphs.

The engine evolves a graph under a 16-bit rule: each step recolors every
vertex from its configuration (own state plus alive-neighbor count) and
divides flagged vertices into triangles of clones, preserving
3-regularity.  Growth analysis classifies long-horizon behavior and the
sweep runner explores whole rule families.
"""

from .analysis import (
    ClassifyThresholds,
    EvolutionTrace,
    GrowthCategory,
    GrowthClassification,
    classify,
    fit_growth,
    increment_periodicity,
    increment_support,
    zero_growth_intervals,
)
from .dense import reference_divide_dense, reference_step_dense
from .engine import Budget, apply_divisions, divide_vertex, evolve, step
from .graph import (
    Graph,
    build_graph,
    canonical_g0,
    complement_states,
    configuration_census,
    configuration_vector,
    graph_digest,
    k4_one_alive,
    load_graph,
    state_fingerprint,
)
from .rules import Rule, complement_rule, decode, encode, single_division_subset
from .sweep import SweepConfig, SweepReport, run_sweep

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "ClassifyThresholds",
    "EvolutionTrace",
    "Graph",
    "GrowthCategory",
    "GrowthClassification",
    "Rule",
    "SweepConfig",
    "SweepReport",
    "apply_divisions",
    "build_graph",
    "canonical_g0",
    "classify",
    "complement_rule",
    "complement_states",
    "configuration_census",
    "configuration_vector",
    "decode",
    "divide_vertex",
    "encode",
    "evolve",
    "fit_growth",
    "graph_digest",
    "increment_periodicity",
    "increment_support",
    "k4_one_alive",
    "load_graph",
    "reference_divide_dense",
    "reference_step_dense",
    "run_sweep",
    "single_division_subset",
    "state_fingerprint",
    "step",
    "zero_growth_intervals",
]
