"""The benchmark's tracer wraps names the package looks up at call time.

perfbench/tracing.py swaps module attributes for timing wrappers; if one of
them is renamed or bound at import time instead, `perfbench/run.py --trace 1`
crashes or reports empty layers.  This runs each layer once under the tracer.
"""

from pathlib import Path

from gra import analysis, engine
from gra.graph import canonical_g0
from gra.rules import decode
from gra.sweep import SweepConfig, run_sweep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SPAN_NAMES = {
    "kernels.step_tables",
    "kernels.divide_all",
    "engine.step",
    "graph.state_fingerprint",
    "engine.minimal_period",
    "engine.evolve",
    "analysis.classify",
}


def test_every_traced_layer_records_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        chaotic = engine.evolve(canonical_g0(), decode(2222), engine.Budget(max_steps=30))
        halted = engine.evolve(canonical_g0(), decode(0), engine.Budget(max_steps=100))
        # evolve runs its own step loop, so public step is traced on its own
        engine.step(canonical_g0(), decode(2222))
        analysis.classify(chaotic)
        config = SweepConfig(rule_numbers=[0, 2222], initial="paper-g0",
                             budget=engine.Budget(max_steps=30))
        report = run_sweep(config)
    finally:
        tracing.uninstall(saved)
    assert halted.stop_reason == "cycle-found"
    assert [rec["rule"] for rec in report.records] == [0, 2222]
    names = {span[2] for span in tracer.spans}
    assert SPAN_NAMES <= names, SPAN_NAMES - names
    # the sweep's own lookups went through the wrappers too
    sweep_spans = [span for span in tracer.spans if span[2] == "engine.evolve"]
    assert len(sweep_spans) == 4
