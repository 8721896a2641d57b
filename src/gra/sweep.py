"""Batch exploration of many rules from a shared starting graph.

Rules are embarrassingly parallel: each rule is one full evolution plus
classification, and a pool task carries a chunk of consecutive rules, so
the starting graph is sent to a worker once per chunk.  Results are
merged by rule number, so the report is identical for any worker count.
A journal file gets a header line plus one JSON line per completed rule,
flushed in ascending rule order.  A sweep always continues the journal it
is given, so rerunning a killed sweep finishes it, and the finished
journal is byte-identical to that of an uninterrupted run.
"""

import functools
import hashlib
import io
import json
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from typing import Optional

from .analysis import (
    FIT_POINTS,
    ClassifyThresholds,
    GrowthCategory,
    GrowthFits,
    classify,
    fit_window,
)
from .engine import Budget, evolve
from .errors import ConfigMismatchError, GraError, WorkerDiedError, check_number
from .export import as_record, dump_json
from .graph import Graph, graph_digest, resolve_initial_graph
from .rules import check_rule_number, decode, parse_rule_number, single_division_subset

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
    """What a sweep runs.  Building one checks every value and resolves
    initial (a builtin name or a graph file) once: that graph is the one
    the rules start from and the one reports describe."""

    rule_numbers: list[int]
    initial: str  # builtin name or path, echoed in reports
    budget: Budget
    thresholds: ClassifyThresholds = field(default_factory=ClassifyThresholds)
    workers: int = 1

    def __post_init__(self):
        if not self.rule_numbers:
            raise GraError("empty sweep: no rule numbers")
        for n in self.rule_numbers:
            check_rule_number(n, "rules entry")
        repeated = sorted(n for n, k in Counter(self.rule_numbers).items() if k > 1)
        if repeated:
            raise GraError(f"rule number(s) listed twice: {', '.join(map(str, repeated))}")
        steps = self.budget.max_steps
        if steps < 1:
            raise GraError("a sweep needs steps: budget.max_steps must be positive")
        start, stop = fit_window(steps, self.thresholds.window_fraction)
        if steps + 1 >= FIT_POINTS and stop - start < FIT_POINTS:
            raise GraError(
                f"thresholds.window_fraction {self.thresholds.window_fraction!r} leaves "
                f"{stop - start} points in the fit window of a {steps}-step run; "
                f"a fit needs {FIT_POINTS}"
            )
        if not isinstance(self.initial, str):
            raise GraError(f"initial must be a string, got {self.initial!r}")
        check_number(self.workers, "workers", integer=True)
        if self.workers < 1:
            raise GraError(f"workers must be at least 1, got {self.workers}")
        self._initial_graph = resolve_initial_graph(self.initial)
        if self.budget.max_order < self._initial_graph.order:
            # orders never shrink, so every rule would stop on max-order at step 1
            raise GraError(
                f"budget.max_order {self.budget.max_order} is below the order "
                f"{self._initial_graph.order} of initial {self.initial!r}"
            )

    def initial_graph(self) -> Graph:
        return self._initial_graph

    def fingerprint(self) -> str:
        """Digest of everything that affects per-rule results.

        Worker count and output paths are excluded on purpose: they must
        not change results, and reports have to be byte-identical across
        worker counts.
        """
        echo = self.echo()
        payload = {key: echo[key] for key in ("initial_digest", "budget", "thresholds")}
        payload["rules"] = sorted(self.rule_numbers)
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.blake2b(blob, digest_size=16).hexdigest()

    def echo(self) -> dict:
        return {
            "rule_count": len(self.rule_numbers),
            "initial": self.initial,
            "initial_digest": graph_digest(self.initial_graph()),
            "budget": as_record(self.budget),
            "thresholds": as_record(self.thresholds),
        }


@dataclass
class RuleRecord:
    """One journal line: a rule's classification and how its run ended.

    A run that raised keeps the defaults and records the exception in error.
    """

    rule: int
    category: GrowthCategory = GrowthCategory.UNCLASSIFIED
    cycle_period: Optional[int] = None
    increment_period: Optional[int] = None
    fit: Optional[GrowthFits] = None
    final_order: Optional[int] = None
    steps: Optional[int] = None
    stop_reason: Optional[str] = None
    error: Optional[str] = None


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
        return sorted(self.config.rule_numbers) == single_division_subset()

    def baseline_diff(self) -> Optional[dict]:
        if not self.baseline_enabled():
            return None
        periods = self.period_census()
        period_keys = sorted({*periods, *BASELINE_PERIOD_CENSUS})
        return {
            "categories": _diff(self.category_counts(), BASELINE_CATEGORY_COUNTS, CATEGORY_ORDER),
            "periods": _diff(periods, BASELINE_PERIOD_CENSUS, period_keys),
        }

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


def _diff(observed: dict, reference: dict, keys) -> dict:
    """Observed, reference and delta count per key, keyed by str(key)."""
    return {
        str(k): {
            "observed": observed.get(k, 0),
            "reference": reference.get(k, 0),
            "delta": observed.get(k, 0) - reference.get(k, 0),
        }
        for k in keys
    }


def _worker(g0, budget, thresholds, rule_number) -> dict:
    try:
        trace = evolve(g0, decode(rule_number), budget)
        cls = classify(trace, thresholds)
    except Exception as exc:  # recorded, never aborts the sweep
        return as_record(RuleRecord(rule=rule_number, error=f"{type(exc).__name__}: {exc}"))
    return as_record(RuleRecord(
        rule=rule_number,
        category=cls.category,
        cycle_period=cls.cycle_period,
        increment_period=cls.increment_period,
        fit=cls.fit,
        final_order=trace.final_order,
        steps=trace.steps,
        stop_reason=trace.stop_reason,
    ))


def _journal_line(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode()


def _chunksize(rules: int, workers: int) -> int:
    """Rules per pool task: at least 4 tasks per worker, so the work still
    spreads evenly, and at most 8 rules, so one slow chunk barely delays
    the end of the sweep and a kill loses few rules."""
    return max(1, min(8, rules // (4 * workers)))


def _run_rules(config: SweepConfig, todo: list[int], journal_fh, records: list, progress=None):
    """Evolve+classify the rules in todo (ascending), appending each record
    to records.  The pool gets no more workers than there are rules, and
    fewer than two runs serially.  Both map and the pool's map yield in rule
    order, so each journal line is written and flushed as its result
    arrives, and a kill loses only the chunks in flight."""
    run = functools.partial(_worker, config.initial_graph(), config.budget, config.thresholds)
    workers = min(config.workers, len(todo))
    with ExitStack() as stack:
        if workers < 2:
            completed = map(run, todo)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            completed = pool.map(run, todo, chunksize=_chunksize(len(todo), workers))
        for rec in completed:
            records.append(rec)
            if progress is not None:
                progress(rec)
            journal_fh.write(_journal_line(rec))
            journal_fh.flush()


def _json_line(line: bytes, number: int):
    """One journal line's value; ConfigMismatchError naming the line when it
    is not JSON."""
    try:
        return json.loads(line)
    except ValueError:  # a JSONDecodeError or a UnicodeDecodeError
        raise ConfigMismatchError(f"journal line {number} is not JSON") from None


def _parse_journal(data: bytes) -> tuple[Optional[str], list[dict], int]:
    """(header fingerprint, rule records, byte length) of the complete lines.

    Only newline-terminated lines count: an unterminated last line is what
    a killed sweep leaves behind, and it is ignored.  The fingerprint is
    None when data holds no complete line.  ConfigMismatchError is raised
    when a line is not JSON, the first line is not a header object with a
    string fingerprint, or a later line is not a record object with an
    integer rule."""
    size = data.rfind(b"\n") + 1
    lines = data[:size].splitlines()
    if not lines:
        return None, [], 0
    header, *records = (_json_line(line, i) for i, line in enumerate(lines, start=1))
    if not (
        isinstance(header, dict)
        and header.get("kind") == "header"
        and isinstance(header.get("fingerprint"), str)
    ):
        raise ConfigMismatchError("journal does not start with a header line")
    if not all(isinstance(rec, dict) and type(rec.get("rule")) is int for rec in records):
        raise ConfigMismatchError("journal holds a line that is not a rule record")
    return header["fingerprint"], records, size


def run_sweep(config: SweepConfig, journal_path=None, progress=None) -> SweepReport:
    """Run every configured rule from the shared initial graph.

    With a journal_path whose file is missing or holds no complete line,
    a header line is written and every rule runs.  Otherwise the sweep
    continues that journal: an unterminated last line is cut off, the
    rules already recorded are taken from it, and only the rest run and
    get appended (ascending rule order).  A journal from another config
    raises ConfigMismatchError and is left untouched: its fingerprint
    differs, a line is not JSON, its first line is not a header, or its
    records are not the first rules of this sweep in ascending order.
    Without a journal_path the same steps run against an in-memory
    journal.  progress is called once per rule that runs, in ascending
    rule order, so never on a rerun of a finished sweep.  A worker process
    that dies raises WorkerDiedError; the journal keeps every record that
    arrived before it."""
    todo = sorted(config.rule_numbers)
    expected = config.fingerprint()
    with (io.BytesIO() if journal_path is None else open(journal_path, "a+b")) as fh:
        fh.seek(0)
        fingerprint, done, size = _parse_journal(fh.read())
        if fingerprint not in (None, expected):
            raise ConfigMismatchError(
                f"journal was produced by a different configuration ({fingerprint} != {expected})"
            )
        if [rec["rule"] for rec in done] != todo[: len(done)]:
            raise ConfigMismatchError(
                "journal records are not the first rules of this sweep in ascending order"
            )
        fh.truncate(size)
        if fingerprint is None:
            header = {"kind": "header", "fingerprint": expected, "config": config.echo()}
            fh.write(_journal_line(header))
        records = list(done)
        try:
            _run_rules(config, todo[len(done):], fh, records, progress)
        except BrokenProcessPool:
            raise WorkerDiedError(
                f"a sweep worker process died; the journal holds {len(records)} of "
                f"{len(todo)} rules, and rerunning the sweep continues it"
            ) from None
    return SweepReport(config=config, records=records)


# --------------------------------------------------------------------------
# config files and shipped presets
# --------------------------------------------------------------------------

def _merged(value, name: str, known, overrides: dict) -> dict:
    """The JSON object value with overrides merged over it; GraError naming
    name when value is not an object or the merge names a key outside known."""
    if not isinstance(value, dict):
        raise GraError(f"{name} must be an object, got {value!r}")
    doc = {**value, **overrides}
    unknown = sorted(set(doc) - set(known))
    if unknown:
        raise GraError(f"unknown {name} key(s): {', '.join(unknown)}")
    return doc


def _section(cls, value, name: str, overrides: dict):
    """cls from the config section value with overrides merged over it; a
    refusal names the section: name, or name.field when cls refuses that
    field's value."""
    doc = _merged(value, name, {f.name for f in fields(cls)}, overrides)
    for f in fields(cls):
        if f.default is MISSING and f.name not in doc:
            raise GraError(f"config must set {name}.{f.name}")
    try:
        return cls(**doc)
    except GraError as exc:
        raise GraError(f"{name}.{exc}") from None


def _parse_rules_field(value) -> list:
    if value == "single-division-subset":
        return single_division_subset()
    if isinstance(value, list):
        return [parse_rule_number(item) if isinstance(item, str) else item for item in value]
    raise GraError(f"bad rules field: {value!r}")


def config_from_dict(doc: dict, overrides: Optional[dict] = None) -> SweepConfig:
    """Build a SweepConfig from a parsed config document.

    overrides (CLI flags) win over file values key by key; None sets
    nothing.  The top-level keys are rules, initial, budget, thresholds and
    workers; budget and thresholds keys are the fields of Budget and
    ClassifyThresholds.  Any other key raises GraError naming it.  Values
    are checked by SweepConfig, Budget and ClassifyThresholds themselves,
    and a value they refuse raises GraError naming its key."""
    budget_keys = {f.name for f in fields(Budget)}
    flags = {key: value for key, value in (overrides or {}).items() if value is not None}
    budget_flags = {key: flags.pop(key) for key in budget_keys & set(flags)}
    doc = _merged(doc, "config", ("rules", "initial", "budget", "thresholds", "workers"), flags)
    return SweepConfig(
        rule_numbers=_parse_rules_field(doc.get("rules", "single-division-subset")),
        initial=doc.get("initial", "paper-g0"),
        budget=_section(Budget, doc.get("budget", {}), "budget", budget_flags),
        thresholds=_section(ClassifyThresholds, doc.get("thresholds", {}), "thresholds", {}),
        workers=doc.get("workers", 1),
    )


def load_config(path, overrides: Optional[dict] = None) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise GraError(f"config file {path} is not JSON: {exc}") from None
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
        lines += _diff_rows("category", diff["categories"])
        reference = sum(BASELINE_CATEGORY_COUNTS.values())
        lines.append(f"{'total':<16}{sum(counts.values()):>10}{reference:>11}")
        lines.append("")
        lines += _diff_rows("cycle period", diff["periods"])
    return "\n".join(lines)


def _diff_rows(title: str, table: dict) -> list[str]:
    """A header plus one observed/reference/delta row per key of a _diff table."""
    rows = [f"{title:<16}{'observed':>10}{'reference':>11}{'delta':>8}"]
    for key, d in table.items():
        rows.append(f"{key:<16}{d['observed']:>10}{d['reference']:>11}{d['delta']:>+8}")
    return rows
