"""Batch exploration of many rules from a shared starting graph.

Rules are embarrassingly parallel: each worker runs one full evolution
plus classification.  Results are merged by rule number, so the report is
identical for any worker count.  A journal file gets one JSON line per
completed rule, flushed in ascending rule order, which makes interrupted
sweeps resumable and clean reruns byte-identical.
"""

import hashlib
import json
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .analysis import ClassifyThresholds, GrowthCategory, classify
from .engine import Budget, evolve
from .errors import ConfigMismatchError, GraError
from .export import dump_json
from .graph import Graph, graph_digest, resolve_initial_graph
from .rules import decode, parse_rule_number, single_division_subset

CATEGORY_ORDER = [c.value for c in GrowthCategory]

# Reference census for the canonical 1024-rule single-division sweep, used
# for the side-by-side diff that sweep reports print.  Reproduction is
# contingent on the starting graph, so mismatches are reported, not hidden.
BASELINE_CATEGORY_COUNTS = {
    "Halted": 422,
    "LinearStrict": 73,
    "LinearPeriodic": 19,
    "LinearChaotic": 3,
    "Quadratic": 1,
    "Exponential": 374,
    "Unclassified": 132,
}
BASELINE_PERIOD_CENSUS = {1: 310, 2: 102, 3: 2, 6: 6, 8: 2}


@dataclass
class SweepConfig:
    rule_numbers: list[int]
    initial: str  # builtin name or path, echoed in reports
    budget: Budget
    thresholds: ClassifyThresholds = field(default_factory=ClassifyThresholds)
    workers: int = 1
    compare_baseline: Optional[bool] = None  # None = auto

    def __post_init__(self):
        if not self.rule_numbers:
            raise GraError("empty sweep: no rule numbers")
        for n in self.rule_numbers:
            if not 0 <= n < 65536:
                raise GraError(f"rule number {n} outside [0, 65535]")
        if self.budget.max_steps <= 0 or self.budget.max_order <= 0:
            raise GraError("budgets must be positive")

    def initial_graph(self) -> Graph:
        return resolve_initial_graph(self.initial)

    def fingerprint(self) -> str:
        """Digest of everything that affects per-rule results.

        Worker count and output paths are excluded on purpose: they must
        not change results, and reports have to be byte-identical across
        worker counts.
        """
        payload = {
            "rules": sorted(self.rule_numbers),
            "initial_digest": graph_digest(self.initial_graph()),
            "budget": self.budget.to_dict(),
            "thresholds": self.thresholds.to_dict(),
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.blake2b(blob, digest_size=16).hexdigest()

    def echo(self) -> dict:
        return {
            "rule_count": len(self.rule_numbers),
            "initial": self.initial,
            "initial_digest": graph_digest(self.initial_graph()),
            "budget": self.budget.to_dict(),
            "thresholds": self.thresholds.to_dict(),
        }


@dataclass
class SweepReport:
    config: SweepConfig
    records: list[dict]  # sorted by rule number

    def category_counts(self) -> dict[str, int]:
        counts = {name: 0 for name in CATEGORY_ORDER}
        for rec in self.records:
            counts[rec["category"]] = counts.get(rec["category"], 0) + 1
        return counts

    def period_census(self) -> dict[int, int]:
        """Cycle-period histogram over the Halted rules."""
        census: dict[int, int] = {}
        for rec in self.records:
            if rec["category"] == GrowthCategory.HALTED.value:
                p = rec["cycle_period"]
                census[p] = census.get(p, 0) + 1
        return dict(sorted(census.items()))

    def baseline_enabled(self) -> bool:
        if self.config.compare_baseline is not None:
            return self.config.compare_baseline
        return sorted(self.config.rule_numbers) == single_division_subset()

    def baseline_diff(self) -> Optional[dict]:
        if not self.baseline_enabled():
            return None
        cats = self.category_counts()
        diff_c = {
            name: {
                "observed": cats.get(name, 0),
                "reference": BASELINE_CATEGORY_COUNTS.get(name, 0),
                "delta": cats.get(name, 0) - BASELINE_CATEGORY_COUNTS.get(name, 0),
            }
            for name in CATEGORY_ORDER
        }
        periods = self.period_census()
        keys = sorted(set(periods) | set(BASELINE_PERIOD_CENSUS))
        diff_p = {
            str(p): {
                "observed": periods.get(p, 0),
                "reference": BASELINE_PERIOD_CENSUS.get(p, 0),
                "delta": periods.get(p, 0) - BASELINE_PERIOD_CENSUS.get(p, 0),
            }
            for p in keys
        }
        return {"categories": diff_c, "periods": diff_p}

    def to_document(self) -> dict:
        return {
            "config": self.config.echo(),
            "config_fingerprint": self.config.fingerprint(),
            "rules": self.records,
            "aggregates": {
                "category_counts": self.category_counts(),
                "period_census": {str(k): v for k, v in self.period_census().items()},
            },
            "baseline_diff": self.baseline_diff(),
        }

    def to_json(self) -> str:
        return dump_json(self.to_document())


def _rule_record(rule_number: int, g0: Graph, budget: Budget, thresholds: ClassifyThresholds) -> dict:
    trace = evolve(g0, decode(rule_number), budget)
    cls = classify(trace, thresholds)
    return {
        "rule": rule_number,
        "category": cls.category.value,
        "cycle_period": cls.cycle_period,
        "increment_period": cls.increment_period,
        "fit": cls.fit.to_dict() if cls.fit is not None else None,
        "final_order": trace.final_order,
        "steps": trace.steps,
        "stop_reason": trace.stop_reason,
        "error": None,
    }


def _worker(args) -> dict:
    rule_number, g0, budget, thresholds = args
    try:
        return _rule_record(rule_number, g0, budget, thresholds)
    except Exception as exc:  # recorded, never aborts the sweep
        return {
            "rule": rule_number,
            "category": GrowthCategory.UNCLASSIFIED.value,
            "cycle_period": None,
            "increment_period": None,
            "fit": None,
            "final_order": None,
            "steps": None,
            "stop_reason": None,
            "error": f"{type(exc).__name__}: {exc}",
        }


def _journal_line(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _run_rules(
    config: SweepConfig,
    rule_numbers: list[int],
    journal_fh=None,
    progress=None,
) -> list[dict]:
    """Evolve+classify the given rules; flush journal lines in ascending
    rule order as soon as the next pending rule completes."""
    g0 = config.initial_graph()
    todo = sorted(rule_numbers)
    results: dict[int, dict] = {}
    flushed = 0

    def flush():
        nonlocal flushed
        while flushed < len(todo) and todo[flushed] in results:
            if journal_fh is not None:
                journal_fh.write(_journal_line(results[todo[flushed]]))
                journal_fh.flush()
            flushed += 1

    if config.workers <= 1:
        for n in todo:
            results[n] = _worker((n, g0, config.budget, config.thresholds))
            if progress is not None:
                progress(results[n])
            flush()
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            futures = {
                pool.submit(_worker, (n, g0, config.budget, config.thresholds)): n
                for n in todo
            }
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for fut in done:
                    rec = fut.result()
                    results[rec["rule"]] = rec
                    if progress is not None:
                        progress(rec)
                flush()
    flush()
    return [results[n] for n in todo]


def run_sweep(
    config: SweepConfig, journal_path=None, progress=None
) -> SweepReport:
    """Run every configured rule from the shared initial graph.

    When journal_path is given, a header line plus one record line per rule
    are written as the sweep advances (ascending rule order)."""
    journal_fh = None
    try:
        if journal_path is not None:
            journal_fh = open(journal_path, "w", encoding="utf-8")
            journal_fh.write(
                _journal_line(
                    {"kind": "header", "fingerprint": config.fingerprint(), "config": config.echo()}
                )
            )
            journal_fh.flush()
        records = _run_rules(config, config.rule_numbers, journal_fh, progress)
    finally:
        if journal_fh is not None:
            journal_fh.close()
    return SweepReport(config=config, records=records)


def read_journal(journal_path) -> tuple[Optional[str], list[dict]]:
    """Parse a journal file into (header fingerprint, rule records)."""
    fingerprint = None
    records = []
    with open(journal_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if obj.get("kind") == "header":
                fingerprint = obj["fingerprint"]
            else:
                records.append(obj)
    return fingerprint, records


def resume_sweep(journal_path, config: SweepConfig, progress=None) -> SweepReport:
    """Complete a partial sweep; the final report matches an uninterrupted run.

    The journal must come from a config with the same rules, initial graph,
    budgets and thresholds, otherwise ConfigMismatchError is raised."""
    fingerprint, existing = read_journal(journal_path)
    if fingerprint != config.fingerprint():
        raise ConfigMismatchError(
            "journal was produced by a different configuration "
            f"({fingerprint} != {config.fingerprint()})"
        )
    done = {rec["rule"] for rec in existing}
    missing = [n for n in sorted(config.rule_numbers) if n not in done]
    if missing:
        with open(journal_path, "a", encoding="utf-8") as fh:
            new_records = _run_rules(config, missing, fh, progress)
    else:
        new_records = []
    by_rule = {rec["rule"]: rec for rec in existing}
    by_rule.update({rec["rule"]: rec for rec in new_records})
    records = [by_rule[n] for n in sorted(config.rule_numbers)]
    return SweepReport(config=config, records=records)


# --------------------------------------------------------------------------
# config files and shipped presets
# --------------------------------------------------------------------------

def _parse_rules_field(value) -> list[int]:
    if value == "single-division-subset":
        return single_division_subset()
    if isinstance(value, list):
        out = []
        for item in value:
            out.append(parse_rule_number(item) if isinstance(item, str) else int(item))
        return out
    raise GraError(f"bad rules field: {value!r}")


def config_from_dict(doc: dict, overrides: Optional[dict] = None) -> SweepConfig:
    """Build a SweepConfig from a parsed config document.

    overrides (CLI flags) win over file values key by key."""
    doc = dict(doc)
    if overrides:
        for key, value in overrides.items():
            if value is not None:
                if key in ("max_steps", "max_order", "wall_clock"):
                    doc.setdefault("budget", {})
                    doc["budget"] = dict(doc["budget"])
                    doc["budget"][key] = value
                else:
                    doc[key] = value
    budget_doc = doc.get("budget", {})
    if "max_steps" not in budget_doc:
        raise GraError("config must set budget.max_steps")
    budget = Budget(
        max_steps=int(budget_doc["max_steps"]),
        max_order=int(budget_doc.get("max_order", 5_000_000)),
        wall_clock=budget_doc.get("wall_clock"),
    )
    thresholds = ClassifyThresholds.from_dict(doc.get("thresholds", {}))
    return SweepConfig(
        rule_numbers=_parse_rules_field(doc.get("rules", "single-division-subset")),
        initial=doc.get("initial", "paper-g0"),
        budget=budget,
        thresholds=thresholds,
        workers=int(doc.get("workers", 1)),
        compare_baseline=doc.get("compare_baseline"),
    )


def load_config(path, overrides: Optional[dict] = None) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return config_from_dict(doc, overrides)


def load_preset(name: str, overrides: Optional[dict] = None) -> SweepConfig:
    ref = resources.files("gra.data").joinpath("presets").joinpath(f"{name}.json")
    if not ref.is_file():
        raise GraError(f"unknown preset {name!r}")
    return config_from_dict(json.loads(ref.read_text("utf-8")), overrides)


def format_census_table(report: SweepReport) -> str:
    """Printable category census, with the reference diff when enabled."""
    lines = []
    counts = report.category_counts()
    diff = report.baseline_diff()
    if diff is None:
        lines.append(f"{'category':<16}{'count':>8}")
        for name in CATEGORY_ORDER:
            lines.append(f"{name:<16}{counts[name]:>8}")
        lines.append(f"{'total':<16}{sum(counts.values()):>8}")
    else:
        lines.append(f"{'category':<16}{'observed':>10}{'reference':>11}{'delta':>8}")
        for name in CATEGORY_ORDER:
            d = diff["categories"][name]
            lines.append(
                f"{name:<16}{d['observed']:>10}{d['reference']:>11}{d['delta']:>+8}"
            )
        lines.append(f"{'total':<16}{sum(counts.values()):>10}{1024:>11}")
        lines.append("")
        lines.append(f"{'cycle period':<16}{'observed':>10}{'reference':>11}{'delta':>8}")
        for key, d in diff["periods"].items():
            lines.append(
                f"{key:<16}{d['observed']:>10}{d['reference']:>11}{d['delta']:>+8}"
            )
    return "\n".join(lines)
