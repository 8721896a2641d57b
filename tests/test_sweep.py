import itertools
import json
import re
import time

import pytest

from gra.analysis import ClassifyThresholds
from gra.engine import Budget
from gra.errors import ConfigMismatchError, GraError
from gra.graph import graph_to_edge_text, k4_one_alive, resolve_initial_graph
from gra import sweep
from gra.rules import single_division_subset
from gra.sweep import (
    SweepConfig,
    SweepReport,
    config_from_dict,
    format_census_table,
    load_preset,
    run_sweep,
)

SMALL_RULES = [0, 256, 260, 300, 770, 2222, 2238, 4321, 60000]


def small_config(workers=1, **kw):
    defaults = dict(
        rule_numbers=list(SMALL_RULES),
        initial="paper-g0",
        budget=Budget(max_steps=120, max_order=20_000),
        thresholds=ClassifyThresholds(),
        workers=workers,
    )
    defaults.update(kw)
    return SweepConfig(**defaults)


class TestRunSweep:
    def test_rule_zero_halts(self):
        report = run_sweep(small_config(rule_numbers=[0]))
        assert len(report.records) == 1
        rec = report.records[0]
        assert rec["category"] == "Halted"
        assert rec["cycle_period"] == 1

    def test_rule_256_exponential(self):
        report = run_sweep(
            small_config(rule_numbers=[256], budget=Budget(max_steps=12, max_order=10**9))
        )
        rec = report.records[0]
        assert rec["category"] == "Exponential"
        assert rec["steps"] == 12

    def test_counts_sum_to_rule_count(self):
        report = run_sweep(small_config())
        counts = report.category_counts()
        assert sum(counts.values()) == len(SMALL_RULES)

    def test_records_sorted_by_rule(self):
        report = run_sweep(small_config())
        rule_nums = [rec["rule"] for rec in report.records]
        assert rule_nums == sorted(SMALL_RULES)

    def test_empty_sweep_rejected(self):
        with pytest.raises(GraError):
            small_config(rule_numbers=[])

    def test_duplicate_rules_rejected(self):
        with pytest.raises(GraError, match="listed twice: 0$"):
            small_config(rule_numbers=[0, 0, 256])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"workers": 0}, "workers must be at least 1"),
            ({"workers": -3}, "workers must be at least 1"),
            ({"workers": 2.0}, "workers must be an integer"),
            ({"rule_numbers": [256.0]}, "rules entry must be an integer, got 256.0"),
            ({"rule_numbers": [0, True]}, "rules entry must be an integer, got True"),
            ({"initial": 5}, "initial must be a string"),
            (
                {"budget": Budget(max_steps=5, max_order=15)},
                "budget.max_order 15 is below the order 16 of initial 'paper-g0'",
            ),
        ],
        ids=["workers-zero", "workers-negative", "workers-float", "rule-float", "rule-bool",
             "initial-number", "max_order-below-initial"],
    )
    def test_bad_value_refused(self, kwargs, message):
        with pytest.raises(GraError, match=f"^{re.escape(message)}"):
            small_config(**kwargs)

    def test_max_order_at_the_initial_order_runs(self):
        # paper-g0 has order 16; a budget that holds it refuses only growth
        report = run_sweep(small_config(rule_numbers=[0, 256], budget=Budget(5, max_order=16)))
        assert [r["stop_reason"] for r in report.records] == ["cycle-found", "max-order"]

    def test_initial_file_read_once(self, tmp_path, monkeypatch):
        # one read, so the header, the rules run and initial_digest agree
        path = tmp_path / "k4.graph"
        path.write_text(graph_to_edge_text(k4_one_alive()))
        calls = []

        def counted(name_or_path):
            calls.append(name_or_path)
            return resolve_initial_graph(name_or_path)

        monkeypatch.setattr("gra.sweep.resolve_initial_graph", counted)
        config = small_config(rule_numbers=[0, 256], initial=str(path))
        run_sweep(config).to_json()
        assert calls == [str(path)]

    def test_matches_standalone_evolution(self):
        from gra.analysis import classify
        from gra.engine import evolve
        from gra.graph import canonical_g0
        from gra.rules import decode

        config = small_config()
        report = run_sweep(config)
        for rec in report.records:
            trace = evolve(canonical_g0(), decode(rec["rule"]), config.budget)
            cls = classify(trace, config.thresholds)
            assert rec["category"] == cls.category.value
            assert rec["final_order"] == trace.final_order
            assert rec["stop_reason"] == trace.stop_reason


class TestDeterminism:
    def test_worker_count_does_not_change_report(self, tmp_path):
        j1 = tmp_path / "j1.jsonl"
        j2 = tmp_path / "j2.jsonl"
        r1 = run_sweep(small_config(workers=1), journal_path=j1)
        r2 = run_sweep(small_config(workers=3), journal_path=j2)
        assert r1.to_json() == r2.to_json()
        assert j1.read_bytes() == j2.read_bytes()

    def test_rerun_identical(self, tmp_path):
        r1 = run_sweep(small_config(), journal_path=tmp_path / "a.jsonl")
        r2 = run_sweep(small_config(), journal_path=tmp_path / "b.jsonl")
        assert r1.to_json() == r2.to_json()
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_progress_sees_rules_in_ascending_order(self):
        seen = []
        run_sweep(small_config(workers=2), progress=lambda rec: seen.append(rec["rule"]))
        assert seen == sorted(SMALL_RULES)


class SerialPool:
    """Stands in for ProcessPoolExecutor: records the workers and the chunk
    size asked for and runs the jobs in this process, so no worker is ever
    started."""

    asked = []
    chunks = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        self.chunks.append(chunksize)
        return map(fn, jobs)


class TestPoolSize:
    @pytest.fixture
    def asked(self, monkeypatch):
        monkeypatch.setattr(sweep, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(SerialPool, "asked", [])
        monkeypatch.setattr(SerialPool, "chunks", [])
        return SerialPool.asked

    def test_pool_is_no_larger_than_the_rules(self, asked, tmp_path):
        config = small_config(workers=64, rule_numbers=[0, 256, 2222])
        report = run_sweep(config, journal_path=tmp_path / "j.jsonl")
        assert asked == [3]
        assert report.to_json() == run_sweep(small_config(rule_numbers=[0, 256, 2222])).to_json()

    def test_one_rule_runs_without_a_pool(self, asked):
        run_sweep(small_config(workers=4, rule_numbers=[0]))
        assert asked == []

    def test_finished_sweep_starts_no_pool(self, asked, tmp_path):
        config = small_config(workers=1, rule_numbers=[0, 256])
        journal = tmp_path / "j.jsonl"
        first = run_sweep(config, journal_path=journal)
        again = run_sweep(small_config(workers=4, rule_numbers=[0, 256]), journal_path=journal)
        assert asked == []
        assert again.to_json() == first.to_json()

    @pytest.mark.parametrize(
        "rules, workers, chunk",
        [(256, 2, 8), (9, 2, 1), (64, 4, 4), (1024, 2, 8), (15, 2, 1), (16, 2, 2)],
    )
    def test_tasks_carry_at_most_eight_rules_and_each_worker_four_tasks(
        self, asked, rules, workers, chunk
    ):
        config = small_config(
            workers=workers,
            rule_numbers=single_division_subset()[:rules],
            budget=Budget(max_steps=2, max_order=20_000),
        )
        report = run_sweep(config)
        assert asked == [workers]
        assert SerialPool.chunks == [chunk]
        assert [rec["rule"] for rec in report.records] == single_division_subset()[:rules]


class TestChunkedPool:
    """A real 2-worker pool over 64 rules, so that every task carries 8."""

    @staticmethod
    def config(workers):
        return small_config(
            workers=workers,
            rule_numbers=single_division_subset()[::16],
            budget=Budget(max_steps=30, max_order=2_000),
        )

    def test_matches_one_worker(self, tmp_path):
        assert sweep._chunksize(64, 2) == 8
        serial = run_sweep(self.config(1), journal_path=tmp_path / "serial.jsonl")
        pooled = run_sweep(self.config(2), journal_path=tmp_path / "pooled.jsonl")
        assert len(pooled.records) == 64
        assert pooled.to_json() == serial.to_json()
        assert (tmp_path / "pooled.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()

    def test_journal_cut_inside_a_task_resumes_to_clean_bytes(self, tmp_path):
        clean_journal = tmp_path / "clean.jsonl"
        clean = run_sweep(self.config(1), journal_path=clean_journal)
        # 12 records end halfway through the second task of 8, and the cut
        # leaves half of the 13th line
        lines = clean_journal.read_bytes().splitlines(keepends=True)
        partial = tmp_path / "partial.jsonl"
        partial.write_bytes(b"".join(lines[: 1 + 12]) + lines[13][:20])
        resumed = run_sweep(self.config(2), journal_path=partial)
        assert resumed.to_json() == clean.to_json()
        assert partial.read_bytes() == clean_journal.read_bytes()


class TestResume:
    def test_interrupted_resume_matches_clean_run(self, tmp_path):
        config = small_config()
        clean_journal = tmp_path / "clean.jsonl"
        clean = run_sweep(config, journal_path=clean_journal)

        # simulate an interruption by truncating the journal after 4 rules
        partial = tmp_path / "partial.jsonl"
        lines = clean_journal.read_text().splitlines(keepends=True)
        partial.write_text("".join(lines[: 1 + 4]))

        resumed = run_sweep(config, journal_path=partial)
        assert resumed.to_json() == clean.to_json()
        assert partial.read_bytes() == clean_journal.read_bytes()

    def test_journal_cut_mid_line_resumes_to_clean_bytes(self, tmp_path):
        config = small_config()
        clean_journal = tmp_path / "clean.jsonl"
        clean = run_sweep(config, journal_path=clean_journal)

        # a kill while a record line is being written leaves half of it
        lines = clean_journal.read_bytes().splitlines(keepends=True)
        partial = tmp_path / "partial.jsonl"
        partial.write_bytes(b"".join(lines[:4]) + lines[4][: len(lines[4]) // 2])

        assert [json.loads(line) for line in lines[1:4]] == clean.records[:3]
        resumed = run_sweep(config, journal_path=partial)
        assert resumed.to_json() == clean.to_json()
        assert partial.read_bytes() == clean_journal.read_bytes()

    def test_budget_change_rejected(self, tmp_path):
        config = small_config()
        journal = tmp_path / "j.jsonl"
        run_sweep(config, journal_path=journal)
        before = journal.read_bytes()
        altered = small_config(budget=Budget(max_steps=121, max_order=20_000))
        with pytest.raises(ConfigMismatchError):
            run_sweep(altered, journal_path=journal)
        assert journal.read_bytes() == before

    def test_duplicated_record_rejected(self, tmp_path):
        config = small_config()
        journal = tmp_path / "j.jsonl"
        run_sweep(config, journal_path=journal)
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[:3] + [lines[2]]))
        before = journal.read_bytes()
        with pytest.raises(ConfigMismatchError):
            run_sweep(config, journal_path=journal)
        assert journal.read_bytes() == before

    def test_journal_without_header_rejected(self, tmp_path):
        config = small_config()
        journal = tmp_path / "j.jsonl"
        run_sweep(config, journal_path=journal)
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[1:]))
        with pytest.raises(ConfigMismatchError):
            run_sweep(config, journal_path=journal)

    def test_resume_of_complete_run_is_unchanged(self, tmp_path):
        config = small_config()
        journal = tmp_path / "j.jsonl"
        report = run_sweep(config, journal_path=journal)
        before = journal.read_bytes()
        resumed = run_sweep(config, journal_path=journal)
        assert resumed.to_json() == report.to_json()
        assert journal.read_bytes() == before

    def test_rerun_of_finished_sweep_runs_no_rule(self, tmp_path):
        config = small_config()
        journal = tmp_path / "j.jsonl"
        run_sweep(config, journal_path=journal)
        calls = []
        run_sweep(config, journal_path=journal, progress=calls.append)
        assert calls == []

    def test_journal_round_trip(self, tmp_path):
        config = small_config()
        journal = tmp_path / "j.jsonl"
        report = run_sweep(config, journal_path=journal)
        header, *records = map(json.loads, journal.read_text().splitlines())
        assert header["fingerprint"] == config.fingerprint()
        assert records == report.records

    @pytest.mark.parametrize(
        "line",
        [b"3", b'{"kind": "header"}', b'{"kind": "header", "fingerprint": 7}'],
        ids=["not-an-object", "no-fingerprint", "non-string-fingerprint"],
    )
    def test_malformed_header_rejected(self, tmp_path, line):
        journal = tmp_path / "j.jsonl"
        journal.write_bytes(line + b"\n")
        with pytest.raises(ConfigMismatchError, match="header"):
            run_sweep(small_config(), journal_path=journal)
        assert journal.read_bytes() == line + b"\n"

    @pytest.mark.parametrize(
        "line", [b"3", b"{}", b'{"rule": "0"}', b'{"rule": true}'],
        ids=["not-an-object", "no-rule", "string-rule", "bool-rule"],
    )
    def test_malformed_record_rejected(self, tmp_path, line):
        config = small_config()
        journal = tmp_path / "j.jsonl"
        run_sweep(config, journal_path=journal)
        header = journal.read_bytes().splitlines(keepends=True)[0]
        journal.write_bytes(header + line + b"\n")
        before = journal.read_bytes()
        with pytest.raises(ConfigMismatchError, match="rule record"):
            run_sweep(config, journal_path=journal)
        assert journal.read_bytes() == before

    @pytest.mark.parametrize("at", [0, 2], ids=["header", "record"])
    def test_line_that_is_not_json_rejected(self, tmp_path, at):
        config = small_config()
        journal = tmp_path / "j.jsonl"
        run_sweep(config, journal_path=journal)
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[at] = b"garbage\n"
        journal.write_bytes(b"".join(lines))
        before = journal.read_bytes()
        with pytest.raises(ConfigMismatchError, match=f"journal line {at + 1} is not JSON"):
            run_sweep(config, journal_path=journal)
        assert journal.read_bytes() == before


class TestPeriodCensus:
    def test_single_halted_rule(self):
        report = run_sweep(small_config(rule_numbers=[0]))
        assert report.period_census() == {1: 1}

    def test_no_halted_rules(self):
        report = run_sweep(
            small_config(rule_numbers=[256], budget=Budget(max_steps=12, max_order=10**9))
        )
        assert report.period_census() == {}


class TestBaselineDiff:
    def test_disabled_for_custom_rule_sets(self):
        report = run_sweep(small_config())
        assert report.baseline_diff() is None
        assert "category" in format_census_table(report)

    def test_forced_on(self):
        # synthetic records over the canonical family; nothing is evolved
        rules = single_division_subset()
        records = [
            {"rule": n, "category": "Halted" if n % 2 else "Exponential", "cycle_period": 1}
            for n in rules
        ]
        report = SweepReport(config=small_config(rule_numbers=rules), records=records)
        diff = report.baseline_diff()
        assert diff is not None
        assert diff["categories"]["Halted"]["reference"] == 422
        assert diff["categories"]["Exponential"]["reference"] == 374
        assert diff["categories"]["Halted"]["observed"] == 512
        assert diff["periods"]["1"] == {"observed": 512, "reference": 310, "delta": 202}
        table = format_census_table(report)
        assert "reference" in table


class TestConfigFiles:
    def test_from_dict_with_overrides(self):
        doc = {
            "rules": [0, "0b100000000"],
            "initial": "k4-one-alive",
            "budget": {"max_steps": 50},
            "workers": 2,
        }
        config = config_from_dict(doc, overrides={"max_steps": 80, "workers": None})
        assert config.rule_numbers == [0, 256]
        assert config.budget.max_steps == 80
        assert config.workers == 2

    def test_thresholds_from_dict(self):
        doc = {"budget": {"max_steps": 5}, "thresholds": {"quadratic_exponent_band": [1.5, 3]}}
        config = config_from_dict(doc)
        assert config.thresholds == ClassifyThresholds(quadratic_exponent_band=(1.5, 3))
        assert config.budget == Budget(max_steps=5)

    def test_unknown_top_level_key_rejected(self):
        doc = {"rules": [0, 256], "rule": [1], "worker": 4, "budget": {"max_steps": 5}}
        with pytest.raises(GraError, match=r"unknown config key\(s\): rule, worker"):
            config_from_dict(doc)
        # the override keys the CLI and the benchmark pass stay accepted
        del doc["rule"], doc["worker"]
        overrides = {"rules": [5], "initial": "k4-one-alive", "workers": 2, "max_order": 99}
        config = config_from_dict(doc, overrides)
        assert (config.rule_numbers, config.initial, config.workers) == ([5], "k4-one-alive", 2)
        assert config.budget == Budget(max_steps=5, max_order=99)

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"rules": [1.9, "7"], "budget": {"max_steps": 5}}', "rules"),
            ('{"rules": [true], "budget": {"max_steps": 5}}', "rules"),
            ('{"rules": [0], "budget": {"max_steps": 5.7}}', "budget.max_steps"),
            ('{"rules": [0], "budget": {"max_steps": true}}', "budget.max_steps"),
            ('{"rules": [0], "budget": {"max_steps": 5, "max_order": 5.7}}', "budget.max_order"),
            ('{"rules": [0], "budget": {"max_steps": 5}, "workers": true}', "workers"),
            ('{"rules": [0], "budget": {"max_steps": 5}, "workers": 1.9}', "workers"),
        ],
        ids=[
            "rule-float", "rule-bool", "max_steps-float", "max_steps-bool",
            "max_order-float", "workers-bool", "workers-float",
        ],
    )
    def test_non_integer_number_refused(self, text, key):
        with pytest.raises(GraError, match=rf"^{re.escape(key)}\b.*must be an integer"):
            config_from_dict(json.loads(text))

    @pytest.mark.parametrize(
        "budget, key",
        [
            ({"max_steps": 5, "wall_clock": -1}, "wall_clock"),
            ({"max_steps": 5, "wall_clock": 0}, "wall_clock"),
            ({"max_steps": -1}, "max_steps"),
            ({"max_steps": 5, "max_order": 0}, "max_order"),
        ],
        ids=["wall_clock-negative", "wall_clock-zero", "max_steps-negative", "max_order-zero"],
    )
    def test_budget_that_cannot_bound_a_run_refused(self, budget, key):
        with pytest.raises(GraError, match=rf"^budget\.{key} must be "):
            config_from_dict({"rules": [0], "budget": budget})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"workers": 0}, "workers must be at least 1"),
            ({"thresholds": {"window_fraction": 5}}, "thresholds.window_fraction must be in"),
            ({"thresholds": {"window_fraction": 0}}, "thresholds.window_fraction must be in"),
            ({"thresholds": {"periodicity_cap": 0}}, "thresholds.periodicity_cap must be at least"),
            (
                {"thresholds": {"quadratic_exponent_band": [2.5, 1.7]}},
                "thresholds.quadratic_exponent_band must be [lo, hi]",
            ),
            (
                {"rules": [0, 1026, 2182, 2222], "budget": {"max_steps": 300, "max_order": 10}},
                "budget.max_order 10 is below the order 16 of initial 'paper-g0'",
            ),
        ],
        ids=["workers-zero", "window-five", "window-zero", "cap-zero", "band-reversed",
             "max_order-below-initial"],
    )
    def test_value_out_of_range_refused(self, doc, message):
        with pytest.raises(GraError, match=f"^{re.escape(message)}"):
            config_from_dict({"rules": [0], "budget": {"max_steps": 5}, **doc})

    def test_rules_field_neither_subset_nor_list_refused(self):
        with pytest.raises(GraError, match="^bad rules field: 5$"):
            config_from_dict({"rules": 5, "budget": {"max_steps": 5}})

    @pytest.mark.parametrize(
        "max_steps, fraction, points",
        [(3000, 0.002, 7), (300, 0.026, 9), (9, 0.75, 8)],
        ids=["rule-2222-3000-steps", "one-short", "default-fraction"],
    )
    def test_window_fraction_that_empties_the_fit_window_refused(
        self, max_steps, fraction, points
    ):
        doc = {"rules": [2222], "budget": {"max_steps": max_steps},
               "thresholds": {"window_fraction": fraction}}
        message = (f"thresholds.window_fraction {fraction} leaves {points} points in the fit "
                   f"window of a {max_steps}-step run; a fit needs 10")
        with pytest.raises(GraError, match=f"^{re.escape(message)}$"):
            config_from_dict(doc)

    def test_window_fraction_leaving_ten_points_fits(self):
        doc = {"rules": [2222], "budget": {"max_steps": 300},
               "thresholds": {"window_fraction": 0.028}}
        (rec,) = run_sweep(config_from_dict(doc)).records
        assert rec["fit"]["window"] == [291, 301]

    def test_window_fraction_kept_for_runs_shorter_than_a_fit(self):
        doc = {"rules": [2222], "budget": {"max_steps": 8},
               "thresholds": {"window_fraction": 0.002}}
        assert config_from_dict(doc).thresholds.window_fraction == 0.002

    def test_missing_budget_rejected(self):
        with pytest.raises(GraError):
            config_from_dict({"rules": [0]})

    def test_presets_load(self):
        full = load_preset("single-division-1024")
        smoke = load_preset("single-division-smoke")
        assert len(full.rule_numbers) == 1024
        assert len(smoke.rule_numbers) == 1024
        assert smoke.budget.max_steps < full.budget.max_steps
        assert smoke.budget.wall_clock is None
        assert full.budget.wall_clock is None

    def test_full_preset_census_does_not_depend_on_the_clock(self, monkeypatch):
        # a clock that jumps 1,000 s per read must not move any record
        overrides = {"rules": [0, 770, 2182, 2222], "max_steps": 150, "max_order": 50_000,
                     "workers": 1}
        config = load_preset("single-division-1024", overrides)
        steady = run_sweep(config).to_json()
        clock = itertools.count(step=1_000.0)
        monkeypatch.setattr(time, "monotonic", lambda: next(clock))
        assert run_sweep(config).to_json() == steady

    def test_unknown_preset(self):
        with pytest.raises(GraError):
            load_preset("nope")

    def test_fingerprint_ignores_workers(self):
        assert small_config(workers=1).fingerprint() == small_config(workers=5).fingerprint()

    def test_fingerprint_tracks_budget(self):
        a = small_config()
        b = small_config(budget=Budget(max_steps=121, max_order=20_000))
        assert a.fingerprint() != b.fingerprint()

    def test_preset_fingerprints_are_stable(self):
        # journals written by earlier versions must stay resumable
        assert load_preset("single-division-smoke").fingerprint() == (
            "590d5fe8df5785549f82a86318b51041"
        )
        assert load_preset("single-division-1024").fingerprint() == (
            "e69108d40938c6e70bd0370200210151"
        )
