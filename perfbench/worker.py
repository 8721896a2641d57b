#!/usr/bin/env python3
"""One repetition of one benchmark workload, in a fresh process.

    python3 perfbench/worker.py <workload> <kind> <seed>

kind is one of
  plain   the user's command, untraced (what the end-to-end metrics time);
  traced  the same rules run serially in this process with timing wrappers
          on the package's layer boundaries (see tracing.py);
  serial  smoke-sweep only: untraced with one worker, recording each rule's
          completion time, the base for per-rule busy times and for the
          sweep's trace overhead.

Prints one JSON record as its last stdout line.  ``ready`` in the record is
time.monotonic() when imports and inputs are done, so the spawner's clock
gives interpreter start to inputs ready.
"""

import hashlib
import json
import random
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from gra import _kernels, analysis, engine, sweep  # noqa: E402
from gra.graph import canonical_g0, graph_digest  # noqa: E402
from gra.rules import decode  # noqa: E402

# Horizons are shortened from the paper's runs so that one repetition takes a
# few seconds and a run can report the median of several (see README.md).
SINGLE_RUNS = {
    # `gra classify --rule 2222 --steps 6000`: sparse division, order <= 3,844
    "linear-chaotic": (2222, engine.Budget(max_steps=6_000)),
    # `gra simulate 1026 --max-order 1000000`: many dividers, order > 1M
    "exponential": (1026, engine.Budget(max_steps=1000, max_order=1_000_000)),
}
SWEEP_PRESET = "single-division-smoke"
SWEEP_WORKERS = 2
WORKLOADS = (*SINGLE_RUNS, "smoke-sweep")


def sweep_rules(preset_rules, seed):
    """A fixed quarter of the preset's rules, in a seed-shuffled order.

    The quarter is chosen by hash, so every next-state table and division
    configuration is represented; run_sweep sorts the rules, so the order
    must not change any output.
    """
    rules = [
        n for n in preset_rules
        if hashlib.blake2b(n.to_bytes(2, "little"), digest_size=8).digest()[0] % 4 == 0
    ]
    random.Random(seed).shuffle(rules)
    return rules


def _digest(obj):
    blob = json.dumps(obj, sort_keys=True).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _cpu_s():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib():
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(me, kids) / 1024.0  # ru_maxrss is KiB on Linux


def run_single(workload):
    number, budget = SINGLE_RUNS[workload]
    g0, rule = canonical_g0(), decode(number)
    ready = time.monotonic()
    cpu0, t0 = _cpu_s(), time.perf_counter()
    error = None
    try:
        trace = engine.evolve(g0, rule, budget)
        cls = analysis.classify(trace)
    except Exception as exc:  # counted as a failed rule, reported below
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    out = {"ready": ready, "wall_s": wall, "cpu_s": cpu, "attempted": 1,
           "failed": int(error is not None), "error": error, "observed": None}
    if error is None:
        observed = {
            "rule": number,
            "steps": trace.steps,
            "stop_reason": trace.stop_reason,
            "final_order": trace.final_order,
            "category": cls.category.value,
            "vertex_steps": int(trace.orders[:-1].sum()),
        }
        if workload == "linear-chaotic":
            observed["slope"] = round(cls.fit.linear.params["slope"], 4)
            observed["graph_digest"] = graph_digest(trace.final_graph)
        else:
            observed["orders_digest"] = hashlib.blake2b(
                trace.orders.astype("<i8").tobytes(), digest_size=16).hexdigest()
        out["observed"] = observed
    return out


def run_smoke_sweep(kind, seed, tracer):
    workers = SWEEP_WORKERS if kind == "plain" else 1
    preset_rules = sweep.load_preset(SWEEP_PRESET).rule_numbers
    config = sweep.load_preset(
        SWEEP_PRESET, {"rules": sweep_rules(preset_rules, seed), "workers": workers})
    config.initial_graph()
    out_dir = OUT / f"sweep-{kind}-{seed}-{time.monotonic_ns()}"
    out_dir.mkdir(parents=True)
    journal, report_path = out_dir / "journal.jsonl", out_dir / "report.json"
    stamps = []
    total = len(config.rule_numbers)
    ready = time.monotonic()

    rule_span = None

    def progress(rec):
        nonlocal rule_span
        stamps.append(time.perf_counter())
        if tracer is not None:
            tracer.end(rule_span)
            if len(stamps) < total:
                rule_span = tracer.begin("sweep.rule")

    try:
        cpu0, t0 = _cpu_s(), time.perf_counter()
        if tracer is not None:
            root_span = tracer.begin("sweep.run_sweep")
            rule_span = tracer.begin("sweep.rule")
        report = sweep.run_sweep(config, journal, progress)
        if tracer is not None:
            tracer.end(root_span)
        t_write = time.perf_counter()
        with open(report_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        t1 = time.perf_counter()
        wall, cpu = t1 - t0, _cpu_s() - cpu0

        with open(report_path, encoding="utf-8") as fh:
            written = json.load(fh)
        with open(journal, encoding="utf-8") as fh:
            journal_lines = sum(1 for _ in fh)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    records = report.records
    failed = sum(rec["error"] is not None for rec in records)
    observed = {
        "rules": len(records),
        "census": report.category_counts(),
        "records_digest": _digest([
            [r["rule"], r["category"], r["cycle_period"], r["increment_period"],
             r["final_order"], r["steps"], r["stop_reason"]] for r in records
        ]),
        # what `gra sweep` leaves on disk agrees with the returned report
        "files_consistent": written["aggregates"]["category_counts"]
        == report.category_counts() and journal_lines == len(records) + 1,
    }
    return {
        "ready": ready, "wall_s": wall, "cpu_s": cpu, "attempted": len(records),
        "failed": failed, "error": None, "observed": observed,
        "done_s": [s - t0 for s in stamps], "report_write_s": t1 - t_write,
        "workers": workers,
    }


def run_rep(workload, kind, seed):
    tracer = saved = None
    if kind == "traced":
        import tracing

        tracer = tracing.Tracer()
        saved = tracing.install(tracer)
    try:
        if workload == "smoke-sweep":
            rec = run_smoke_sweep(kind, seed, tracer)
        else:
            rec = run_single(workload)
    finally:
        if saved is not None:
            tracing.uninstall(saved)
    rec.update(
        workload=workload, kind=kind, peak_rss_mib=_peak_rss_mib(),
        env={"backend": _kernels.backend_name(), "numba_importable": _kernels.HAS_NUMBA,
             "numpy": np.__version__},
    )
    if tracer is not None:
        rec["layers"] = tracing.layer_metrics(tracer.spans)
        if rec["observed"] is not None:
            rec["observed"]["vertex_steps"] = tracing.evolved_vertex_steps(tracer.spans)
        rec["spans"] = tracer.spans
    return rec


def main(argv):
    if len(argv) != 3 or argv[0] not in WORKLOADS or argv[1] not in ("plain", "traced", "serial"):
        print(__doc__, file=sys.stderr)
        return 2
    workload, kind, seed = argv[0], argv[1], int(argv[2])
    if kind == "serial" and workload != "smoke-sweep":
        print("serial applies to smoke-sweep only", file=sys.stderr)
        return 2
    print(json.dumps(run_rep(workload, kind, seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
