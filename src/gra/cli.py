"""Command-line surface: simulate, sweep, export, classify, intervals.

Exit codes: 0 success (budget stops included), 1 usage error, 2 I/O error,
3 internal invariant violation (for sweep, also any rule whose run raised).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .analysis import STOP_MAX_STEPS, EvolutionTrace, classify, zero_growth_intervals
from .engine import Budget, evolve
from .errors import EngineInvariantError, GraError
from .export import (
    EXPORT_FORMATS,
    as_record,
    dump_json,
    export_graph,
    format_for_path,
    parse_series_csv,
    trace_to_csv,
)
from .graph import graph_digest, resolve_initial_graph
from .rules import decode, parse_rule_number
from .sweep import format_census_table, load_config, load_preset, run_sweep

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INTERNAL = 3


def _simulate(args) -> int:
    rule = decode(parse_rule_number(args.rule))
    g0 = resolve_initial_graph(args.initial)
    budget = Budget(
        max_steps=args.steps, max_order=args.max_order, wall_clock=args.wall_clock
    )
    trace = evolve(g0, rule, budget)
    cls = classify(trace)
    if args.csv:
        Path(args.csv).write_text(trace_to_csv(trace), encoding="utf-8")
    if args.trace_json:
        doc = {
            "rule": rule.number,
            "initial": args.initial,
            "initial_digest": graph_digest(g0),
            "steps": trace.steps,
            "final_order": trace.final_order,
            "stop_reason": trace.stop_reason,
            "cycle_period": trace.cycle_period,
            "classification": as_record(cls),
        }
        Path(args.trace_json).write_text(dump_json(doc), encoding="utf-8")
    if args.export:
        fmt = format_for_path(args.export, args.export_format)
        export_graph(trace.final_graph, fmt, args.export)
    summary = (
        f"rule={rule.number} steps={trace.steps} "
        f"order={int(trace.orders[0])}->{trace.final_order} "
        f"stop={trace.stop_reason} category={cls.category.value}"
    )
    if cls.cycle_period is not None:
        summary += f" period={cls.cycle_period}"
    print(summary)
    return EXIT_OK


def _sweep(args) -> int:
    overrides = {
        "workers": args.workers,
        "max_steps": args.max_steps,
        "max_order": args.max_order,
        "initial": args.initial,
    }
    if args.preset:
        config = load_preset(args.preset, overrides)
    elif args.config:
        config = load_config(args.config, overrides)
    else:
        raise GraError("sweep needs --preset or --config")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    journal = out_dir / "journal.jsonl"
    report_path = out_dir / "report.json"

    # rules run in ascending order and a rerun continues the journal, so a
    # record's rank among the rules is how many are done
    rank = {n: i for i, n in enumerate(sorted(config.rule_numbers), start=1)}
    total = len(rank)

    def progress(rec):
        done = rank[rec["rule"]]
        if args.verbose and (done % 64 == 0 or done == total):
            print(f"  {done}/{total} rules", file=sys.stderr)

    report = run_sweep(config, journal, progress)
    report_path.write_text(report.to_json(), encoding="utf-8")
    print(format_census_table(report))
    print(f"report: {report_path}")
    failed = [rec for rec in report.records if rec["error"] is not None]
    for rec in failed:
        print(f"rule {rec['rule']} failed: {rec['error']}", file=sys.stderr)
    return EXIT_INTERNAL if failed else EXIT_OK


def _export(args) -> int:
    g = resolve_initial_graph(args.input)
    fmt = format_for_path(args.output, args.format)
    export_graph(g, fmt, args.output)
    print(f"wrote {fmt} to {args.output}")
    return EXIT_OK


def _read_series(path) -> EvolutionTrace:
    """A recorded series as a trace.  It carries no state history, so cycles
    cannot be confirmed from it; its verdict is growth-pattern only."""
    with open(path, "r", encoding="utf-8") as fh:
        orders = parse_series_csv(fh.read())
    return EvolutionTrace(orders=np.asarray(orders, dtype=np.int64), stop_reason=STOP_MAX_STEPS)


def _classify(args) -> int:
    if args.csv:
        cls = classify(_read_series(args.csv))
    else:
        if args.rule is None:
            raise GraError("classify needs --csv or --rule")
        rule = decode(parse_rule_number(args.rule))
        g0 = resolve_initial_graph(args.initial)
        budget = Budget(max_steps=args.steps, max_order=args.max_order)
        trace = evolve(g0, rule, budget)
        cls = classify(trace)
    return _print_json(as_record(cls), args.json)


def _intervals(args) -> int:
    hist = zero_growth_intervals(_read_series(args.csv).increments)
    return _print_json({str(k): v for k, v in sorted(hist.items())}, args.json)


def _print_json(doc, path) -> int:
    """Print doc as JSON and, when path is set, write the same text there."""
    text = dump_json(doc)
    if path:
        Path(path).write_text(text, encoding="utf-8")
    print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gra",
        description="Graph-rewriting automata on binary-state 3-regular graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="evolve one rule and export the results")
    p.add_argument("rule", help="rule number, decimal or prefixed binary (0b...)")
    p.add_argument("--steps", type=int, default=1000, help="step budget")
    p.add_argument("--initial", default="paper-g0", help="builtin name or graph file")
    p.add_argument("--max-order", type=int, default=Budget.max_order)
    p.add_argument("--wall-clock", type=float, default=None, help="seconds")
    p.add_argument("--csv", help="write t,order,increment series here")
    p.add_argument("--trace-json", help="write the JSON trace summary here")
    p.add_argument(
        "--export", help="write the final graph here (on max-order, the last one within it)"
    )
    p.add_argument("--export-format", choices=EXPORT_FORMATS)
    p.set_defaults(func=_simulate)

    p = sub.add_parser("sweep", help="run many rules and aggregate a census")
    p.add_argument("--config", help="JSON sweep config file")
    p.add_argument("--preset", help="shipped preset name (e.g. single-division-1024)")
    p.add_argument("--out", required=True, help="output directory; a rerun continues it")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--max-order", type=int, default=None)
    p.add_argument("--initial", default=None)
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_sweep)

    p = sub.add_parser("export", help="convert a graph to dot/graphml/edge-list")
    p.add_argument("input", help="builtin name or graph file")
    p.add_argument("output")
    p.add_argument("--format", choices=EXPORT_FORMATS)
    p.set_defaults(func=_export)

    p = sub.add_parser("classify", help="classify a growth series or a fresh run")
    p.add_argument("--csv", help="recorded t,order,increment series")
    p.add_argument("--rule", help="rule number to run instead of reading a CSV")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--initial", default="paper-g0")
    p.add_argument("--max-order", type=int, default=Budget.max_order)
    p.add_argument("--json", help="also write the classification here")
    p.set_defaults(func=_classify)

    p = sub.add_parser("intervals", help="zero-growth interval histogram of a series")
    p.add_argument("--csv", required=True)
    p.add_argument("--json", help="also write the histogram here")
    p.set_defaults(func=_intervals)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except GraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
