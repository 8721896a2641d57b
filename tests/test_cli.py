import json
import os
import time
from pathlib import Path

import pytest

from gra import _kernels, cli, sweep
from gra.cli import main
from gra.graph import load_graph
from gra.rules import single_division_subset


_real_worker = sweep._worker

# names the journal _dies_on_rule_770 watches; forked and spawned pool
# workers both inherit the environment
DEATH_JOURNAL = "GRA_TEST_DEATH_JOURNAL"


def _dies_on_rule_770(g0, budget, thresholds, rule_number):
    """A sweep worker whose process dies on rule 770, once the journal holds
    its header and the records of rules 0 and 256 (or after 30 s), so the
    sweep of [0, 256, 770, 2222] always dies with 2 of 4 rules journaled.
    Pickled by name, so it lives at module level, where a pool worker finds
    it."""
    if rule_number == 770:
        journal = Path(os.environ[DEATH_JOURNAL])
        deadline = time.monotonic() + 30
        while journal.read_bytes().count(b"\n") < 3 and time.monotonic() < deadline:
            time.sleep(0.005)
        os._exit(9)
    return _real_worker(g0, budget, thresholds, rule_number)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--steps", "x", "5"], ["no-such-command"], [], ["sweep"]],
        ids=["bad-int", "unknown-command", "no-command", "missing-required"],
    )
    def test_argument_errors_exit_usage(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert "usage: gra" in err and "error:" in err

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
    def test_help_exits_ok(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 0
        assert out.startswith("usage: gra")
        assert err == ""


class TestSimulate:
    def test_765_from_k4(self, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        dot = tmp_path / "final.dot"
        code, out, err = run(
            [
                "simulate",
                "765",
                "--steps",
                "4",
                "--initial",
                "k4-one-alive",
                "--csv",
                str(csv),
                "--export",
                str(dot),
            ],
            capsys,
        )
        assert code == 0
        rows = csv.read_text().splitlines()
        assert rows[0] == "t,order,increment"
        assert len(rows) == 1 + 5  # header plus orders at t=0..4
        text = dot.read_text()
        assert text.startswith("graph G {") and text.rstrip().endswith("}")
        assert "rule=765" in out

    def test_max_order_exports_the_last_graph_within_it(self, tmp_path, capsys):
        trace_json, graph = tmp_path / "trace.json", tmp_path / "final.graph"
        argv = ["simulate", "256", "--steps", "50", "--max-order", "1000",
                "--trace-json", str(trace_json), "--export", str(graph)]
        code, _, _ = run(argv, capsys)
        assert code == 0
        doc = json.loads(trace_json.read_text())
        assert doc["stop_reason"] == "max-order" and doc["final_order"] > 1000
        # rule 256 triples the order from t=1 on
        assert load_graph(str(graph)).order * 3 == doc["final_order"]

    def test_rule_zero_reports_halt(self, capsys):
        code, out, _ = run(["simulate", "0", "--steps", "50"], capsys)
        assert code == 0
        assert "category=Halted" in out
        assert "period=1" in out

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--steps", "-5"], "max_steps"),
            (["--max-order", "-1"], "max_order"),
            (["--max-order", "0"], "max_order"),
            (["--wall-clock", "-1"], "wall_clock"),
            (["--wall-clock", "0"], "wall_clock"),
        ],
        ids=["steps-negative", "max_order-negative", "max_order-zero",
             "wall_clock-negative", "wall_clock-zero"],
    )
    def test_budget_that_cannot_bound_a_run_refused(self, capsys, flags, field):
        code, out, err = run(["simulate", "2222", *flags], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {field} must be ")

    def test_zero_steps_allowed(self, capsys):
        code, out, _ = run(["simulate", "2222", "--steps", "0"], capsys)
        assert code == 0
        assert out.startswith("rule=2222 steps=0 ")

    def test_rule_out_of_range(self, capsys):
        code, _, err = run(["simulate", "70000", "--steps", "5"], capsys)
        assert code == 1
        assert "rule number" in err

    def test_binary_rule_spelling(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["simulate", "765", "--steps", "4", "--csv", str(a)], capsys)
        run(["simulate", "0b1011111101", "--steps", "4", "--csv", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_trace_json(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        code, _, _ = run(
            ["simulate", "0", "--steps", "20", "--trace-json", str(path)], capsys
        )
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["rule"] == 0
        assert doc["stop_reason"] == "cycle-found"
        assert doc["classification"]["category"] == "Halted"

    def test_missing_initial_file(self, capsys):
        code, _, err = run(
            ["simulate", "0", "--steps", "5", "--initial", "no/such/file.graph"], capsys
        )
        assert code == 2

    def test_reproducible_outputs(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            run(["simulate", "2222", "--steps", "200", "--csv", str(path)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_broken_engine_invariant_exits_internal(self, capsys, monkeypatch):
        divide_all = _kernels.ACTIVE.divide_all

        def drop_last_vertex(*args, **kwargs):
            nb, states, rank, dividers = divide_all(*args, **kwargs)
            return nb, states[:-1], rank, dividers

        monkeypatch.setattr(_kernels, "ACTIVE", _kernels.ACTIVE._replace(divide_all=drop_last_vertex))
        code, out, err = run(["simulate", "1026", "--steps", "3"], capsys)
        assert code == 3
        assert out == ""
        assert err == "internal error: order changed by 1 for 1 divisions\n"

    @pytest.mark.parametrize("error", [ValueError, IndexError])
    def test_unexpected_exception_exits_internal_with_one_line(self, capsys, monkeypatch, error):
        def evolve(g0, rule, budget):
            raise error("boom")

        monkeypatch.setattr(cli, "evolve", evolve)
        code, out, err = run(["simulate", "2222", "--steps", "5"], capsys)
        assert code == 3
        assert out == ""
        assert err == f"internal error: {error.__name__}: boom\n"

    def test_graph_file_byte_that_is_not_utf8_names_its_line(self, tmp_path, capsys):
        graph = tmp_path / "bad.graph"
        graph.write_bytes(b"0 1\n0 \xff\n")
        code, out, err = run(["simulate", "0", "--initial", str(graph)], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: line 2: not an integer in '0 \ufffd'\n"


class TestExportCommand:
    def test_builtin_to_dot(self, tmp_path, capsys):
        out_path = tmp_path / "g.dot"
        code, _, _ = run(["export", "k4-one-alive", str(out_path)], capsys)
        assert code == 0
        assert out_path.read_text().startswith("graph G {")

    def test_round_trip_through_edge_list(self, tmp_path, capsys):
        out_path = tmp_path / "g.graph"
        code, _, _ = run(["export", "paper-g0", str(out_path)], capsys)
        assert code == 0
        from gra.graph import canonical_g0

        assert load_graph(out_path) == canonical_g0()

    @pytest.mark.parametrize("command", ["export", "simulate"])
    def test_graph_file_token_that_is_not_an_integer_names_its_line(
        self, tmp_path, capsys, command
    ):
        graph = tmp_path / "bad.graph"
        graph.write_text("0 1\n0 x\n0 3\n1 2\n1 3\n2 3\nstates 1 0 0 0\n")
        argv = {
            "export": ["export", str(graph), str(tmp_path / "g.dot")],
            "simulate": ["simulate", "0", "--steps", "5", "--initial", str(graph)],
        }[command]
        code, out, err = run(argv, capsys)
        assert code == 1
        assert out == ""
        assert err == "error: line 2: not an integer in '0 x'\n"

    def test_repeat_export_identical(self, tmp_path, capsys):
        p1 = tmp_path / "a.graphml"
        p2 = tmp_path / "b.graphml"
        run(["export", "paper-g0", str(p1)], capsys)
        run(["export", "paper-g0", str(p2)], capsys)
        assert p1.read_bytes() == p2.read_bytes()


class TestSweepCommand:
    def _config(self, tmp_path, rules, max_steps=60, workers=1):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "rules": rules,
                    "initial": "paper-g0",
                    "budget": {"max_steps": max_steps, "max_order": 10000},
                    "workers": workers,
                }
            )
        )
        return path

    def test_small_sweep(self, tmp_path, capsys):
        config = self._config(tmp_path, [0, 256, 2222])
        out_dir = tmp_path / "out"
        code, out, _ = run(["sweep", "--config", str(config), "--out", str(out_dir)], capsys)
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert len(report["rules"]) == 3
        assert sum(report["aggregates"]["category_counts"].values()) == 3
        assert "category" in out

    def test_preset(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        argv = ["sweep", "--preset", "single-division-smoke", "--max-steps", "2", "--workers", "1"]
        code, out, _ = run([*argv, "--out", str(out_dir)], capsys)
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert [r["rule"] for r in report["rules"]] == single_division_subset()
        assert report["config"]["budget"]["max_steps"] == 2
        assert f"report: {out_dir / 'report.json'}" in out

    def test_max_order_below_the_initial_order_refused_before_out_is_made(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        argv = ["sweep", "--preset", "single-division-smoke", "--max-steps", "2", "--max-order", "10"]
        code, out, err = run([*argv, "--out", str(out_dir)], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: budget.max_order 10 is below the order 16 of initial 'paper-g0'\n"
        assert not out_dir.exists()

    def test_empty_rules_rejected(self, tmp_path, capsys):
        config = self._config(tmp_path, [])
        code, _, err = run(
            ["sweep", "--config", str(config), "--out", str(tmp_path / "o")], capsys
        )
        assert code == 1
        assert "empty sweep" in err

    def test_preset_with_config_refused(self, tmp_path, capsys):
        config = self._config(tmp_path, [0])
        out_dir = tmp_path / "o"
        argv = ["sweep", "--preset", "single-division-smoke", "--config", str(config)]
        code, out, err = run([*argv, "--out", str(out_dir), "--max-steps", "2"], capsys)
        assert code == 1
        assert out == ""
        assert "--preset" in err and "--config" in err
        assert not out_dir.exists()

    def test_neither_preset_nor_config_refused(self, tmp_path, capsys):
        out_dir = tmp_path / "o"
        code, out, err = run(["sweep", "--out", str(out_dir)], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: sweep needs --preset or --config\n"
        assert not out_dir.exists()

    def test_missing_initial_file_refused_before_out_is_made(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        missing = tmp_path / "no-such.graph"
        config.write_text(json.dumps({"rules": [0], "initial": str(missing),
                                      "budget": {"max_steps": 5}}))
        out_dir = tmp_path / "d"
        code, out, err = run(["sweep", "--config", str(config), "--out", str(out_dir)], capsys)
        assert code == 2
        assert out == ""
        assert str(missing) in err
        assert not out_dir.exists()

    def test_rerun_byte_identical(self, tmp_path, capsys):
        config = self._config(tmp_path, [0, 256, 770, 2222])
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        run(["sweep", "--config", str(config), "--out", str(d1)], capsys)
        run(["sweep", "--config", str(config), "--out", str(d2)], capsys)
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
        assert (d1 / "journal.jsonl").read_bytes() == (d2 / "journal.jsonl").read_bytes()

    def test_resume_flag(self, tmp_path, capsys):
        # a plain rerun in the same --out continues the journal
        config = self._config(tmp_path, [0, 256, 770, 2222])
        d1 = tmp_path / "o1"
        run(["sweep", "--config", str(config), "--out", str(d1)], capsys)
        full_journal = (d1 / "journal.jsonl").read_text().splitlines(keepends=True)
        (d1 / "journal.jsonl").write_text("".join(full_journal[:3]))
        report_before = (d1 / "report.json").read_bytes()
        code, _, _ = run(["sweep", "--config", str(config), "--out", str(d1)], capsys)
        assert code == 0
        assert (d1 / "report.json").read_bytes() == report_before
        assert (d1 / "journal.jsonl").read_text() == "".join(full_journal)

    def test_rerun_with_other_budget_refused(self, tmp_path, capsys):
        config = self._config(tmp_path, [0, 256, 770, 2222])
        d1 = tmp_path / "o1"
        run(["sweep", "--config", str(config), "--out", str(d1)], capsys)
        journal = d1 / "journal.jsonl"
        journal.write_bytes(b"".join(journal.read_bytes().splitlines(keepends=True)[:3]))
        before = journal.read_bytes()
        code, _, err = run(
            ["sweep", "--config", str(config), "--out", str(d1), "--max-steps", "61"], capsys
        )
        assert code == 1
        assert "different configuration" in err
        assert journal.read_bytes() == before

    @pytest.mark.parametrize("at", [0, 2], ids=["header", "record"])
    def test_journal_line_that_is_not_json_refused(self, tmp_path, capsys, at):
        config = self._config(tmp_path, [0, 256, 770, 2222])
        d1 = tmp_path / "o1"
        run(["sweep", "--config", str(config), "--out", str(d1)], capsys)
        journal = d1 / "journal.jsonl"
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[at] = b"garbage\n"
        journal.write_bytes(b"".join(lines))
        before = journal.read_bytes()
        code, _, err = run(["sweep", "--config", str(config), "--out", str(d1)], capsys)
        assert code == 1
        assert err == f"error: journal line {at + 1} is not JSON\n"
        assert journal.read_bytes() == before

    def test_verbose_rerun_counts_journaled_rules(self, tmp_path, capsys):
        rules = [0, 256, 260, 300, 770, 2222, 2238, 4321]
        config = self._config(tmp_path, rules)
        out_dir = tmp_path / "o"
        run(["sweep", "--config", str(config), "--out", str(out_dir)], capsys)
        journal = out_dir / "journal.jsonl"
        journal.write_bytes(b"".join(journal.read_bytes().splitlines(keepends=True)[: 1 + 4]))
        code, _, err = run(
            ["sweep", "--config", str(config), "--out", str(out_dir), "--verbose"], capsys
        )
        assert code == 0
        assert err.splitlines()[-1] == "  8/8 rules"

    def test_unknown_budget_key_refused(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rules": [0], "budget": {"max_steps": 5, "wall_clok": 1}}))
        code, _, err = run(["sweep", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert err == "error: unknown budget key(s): wall_clok\n"
        assert not (tmp_path / "o" / "journal.jsonl").exists()

    def test_unknown_thresholds_key_refused(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"rules": [0], "budget": {"max_steps": 5}, "thresholds": {"theta": 0.9}})
        )
        code, _, err = run(["sweep", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert err == "error: unknown thresholds key(s): theta\n"

    def test_unknown_top_level_key_refused(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"rules": [0, 256], "rule": [1], "worker": 4, "budget": {"max_steps": 5}})
        )
        code, _, err = run(["sweep", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert err == "error: unknown config key(s): rule, worker\n"
        assert not (tmp_path / "o" / "journal.jsonl").exists()

    @pytest.mark.parametrize(
        "budget, argv, message",
        [
            ({"max_steps": 5, "wall_clock": -1}, [], "budget.wall_clock must be positive"),
            ({"max_steps": -5}, [], "budget.max_steps must be at least 0"),
            ({"max_steps": 5, "max_order": 0}, [], "budget.max_order must be at least 1"),
            ({"max_steps": 5}, ["--max-steps", "-5"], "budget.max_steps must be at least 0"),
            ({"max_steps": 0}, [], "a sweep needs steps"),
        ],
        ids=["wall_clock-negative", "max_steps-negative", "max_order-zero",
             "max_steps-flag-negative", "max_steps-zero"],
    )
    def test_budget_that_cannot_bound_a_run_refused(self, tmp_path, capsys, budget, argv, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rules": [0], "budget": budget}))
        code, _, err = run(
            ["sweep", "--config", str(config), "--out", str(tmp_path / "o"), *argv], capsys
        )
        assert code == 1
        assert err.startswith(f"error: {message}")
        assert not (tmp_path / "o" / "journal.jsonl").exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ("[1]", "config"),
            ('{"rules": [0], "budget": 5}', "budget"),
            ('{"rules": [0], "budget": {"max_steps": 5}, "thresholds": 5}', "thresholds"),
            ('{"rules": [0], "budget": {"max_steps": 5, "wall_clock": "60"}}', "budget.wall_clock"),
            ('{"rules": [0], "budget": {"max_steps": 5, "wall_clock": true}}', "budget.wall_clock"),
            (
                '{"rules": [0], "budget": {"max_steps": 5}, "thresholds": {"theta_linear": "high"}}',
                "thresholds.theta_linear",
            ),
            (
                '{"rules": [0], "budget": {"max_steps": 5},'
                ' "thresholds": {"quadratic_exponent_band": 3}}',
                "thresholds.quadratic_exponent_band",
            ),
            ('{"rules": [0], "budget": {"max_steps": 5}, "initial": 5}', "initial"),
        ],
        ids=[
            "document-list", "budget-number", "thresholds-number", "wall_clock-string",
            "wall_clock-bool", "threshold-string", "band-number", "initial-number",
        ],
    )
    def test_ill_typed_value_refused(self, tmp_path, capsys, text, key):
        config = tmp_path / "config.json"
        config.write_text(text)
        code, _, err = run(["sweep", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert err.startswith(f"error: {key} must be ")
        assert not (tmp_path / "o" / "journal.jsonl").exists()

    def test_config_that_is_not_json_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"rules": [0], "budget": {"max_steps": 5}')
        code, _, err = run(["sweep", "--config", str(config), "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert err.startswith(f"error: config file {config} is not JSON: ")
        assert not (tmp_path / "o" / "journal.jsonl").exists()

    @pytest.mark.parametrize(
        "doc, argv, message",
        [
            ({}, ["--workers", "0"], "workers must be at least 1"),
            ({"workers": -3}, [], "workers must be at least 1"),
            ({"thresholds": {"window_fraction": 5}}, [], "thresholds.window_fraction must be in"),
            (
                {"thresholds": {"quadratic_exponent_band": [2.5, 1.7]}}, [],
                "thresholds.quadratic_exponent_band must be [lo, hi]",
            ),
            (
                {"thresholds": {"theta_linear": float("nan")}}, [],
                "thresholds.theta_linear must be a number",
            ),
            ({"thresholds": {"theta_linear": 1.5}}, [], "thresholds.theta_linear must be at most"),
            ({"thresholds": {"tie_epsilon": -5.0}}, [], "thresholds.tie_epsilon must be finite"),
        ],
        ids=["workers-flag-zero", "workers-negative", "window-five", "band-reversed",
             "theta-nan", "theta-above-one", "tie-negative"],
    )
    def test_value_out_of_range_refused(self, tmp_path, capsys, doc, argv, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rules": [0], "budget": {"max_steps": 5}, **doc}))
        code, out, err = run(
            ["sweep", "--config", str(config), "--out", str(tmp_path / "o"), *argv], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")
        assert not (tmp_path / "o" / "journal.jsonl").exists()

    def test_failed_rule_exits_internal(self, tmp_path, capsys, monkeypatch):
        import gra.sweep
        from gra.errors import EngineInvariantError

        real_evolve = gra.sweep.evolve

        def evolve(g0, rule, budget):
            if rule.number == 770:
                raise EngineInvariantError("injected")
            return real_evolve(g0, rule, budget)

        monkeypatch.setattr(gra.sweep, "evolve", evolve)
        config = self._config(tmp_path, [0, 256, 770, 2222], workers=1)
        out_dir = tmp_path / "o"
        code, _, err = run(["sweep", "--config", str(config), "--out", str(out_dir)], capsys)
        assert code == 3
        assert "rule 770 failed: EngineInvariantError: injected" in err
        report = json.loads((out_dir / "report.json").read_text())
        assert [r["rule"] for r in report["rules"] if r["error"]] == [770]
        assert len((out_dir / "journal.jsonl").read_text().splitlines()) == 5

    def test_dead_worker_exits_internal_with_one_line(self, tmp_path, capsys, monkeypatch):
        config = self._config(tmp_path, [0, 256, 770, 2222], workers=2)
        clean_dir, out_dir = tmp_path / "clean", tmp_path / "o"
        run(["sweep", "--config", str(config), "--out", str(clean_dir)], capsys)
        monkeypatch.setattr(sweep, "_worker", _dies_on_rule_770)
        monkeypatch.setenv(DEATH_JOURNAL, str(out_dir / "journal.jsonl"))
        code, out, err = run(["sweep", "--config", str(config), "--out", str(out_dir)], capsys)
        assert code == 3
        assert out == ""
        assert err == (
            "error: a sweep worker process died; the journal holds 2 of 4 rules, "
            "and rerunning the sweep continues it\n"
        )
        assert not (out_dir / "report.json").exists()
        clean = (clean_dir / "journal.jsonl").read_bytes().splitlines(keepends=True)
        assert (out_dir / "journal.jsonl").read_bytes() == b"".join(clean[:3])

        monkeypatch.setattr(sweep, "_worker", _real_worker)
        code, _, _ = run(["sweep", "--config", str(config), "--out", str(out_dir)], capsys)
        assert code == 0
        assert (out_dir / "journal.jsonl").read_bytes() == b"".join(clean)
        assert (out_dir / "report.json").read_bytes() == (clean_dir / "report.json").read_bytes()


class TestClassifyCommand:
    def test_from_csv(self, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        run(["simulate", "2222", "--steps", "400", "--csv", str(csv)], capsys)
        code, out, _ = run(["classify", "--csv", str(csv)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert "category" in doc

    def test_fresh_run(self, capsys):
        code, out, _ = run(["classify", "--rule", "0", "--steps", "30"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["category"] == "Halted"
        assert doc["cycle_period"] == 1

    def test_needs_input(self, capsys):
        code, _, err = run(["classify"], capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "flags, field",
        [(["--steps", "-5"], "max_steps"), (["--max-order", "0"], "max_order")],
        ids=["steps-negative", "max_order-zero"],
    )
    def test_budget_that_cannot_bound_a_run_refused(self, capsys, flags, field):
        code, out, err = run(["classify", "--rule", "2222", *flags], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {field} must be ")

    def test_csv_with_rule_refused(self, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        csv.write_text("t,order,increment\n0,4,0\n1,6,2\n")
        code, out, err = run(["classify", "--csv", str(csv), "--rule", "2222"], capsys)
        assert code == 1
        assert out == ""
        assert "--csv" in err and "--rule" in err

    @pytest.mark.parametrize(
        "flags",
        [["--steps", "5"], ["--initial", "nonexistent-graph"], ["--max-order", "0"]],
        ids=["steps", "initial", "max-order"],
    )
    def test_csv_with_run_flag_refused(self, tmp_path, capsys, flags):
        csv = tmp_path / "series.csv"
        csv.write_text("t,order,increment\n0,4,0\n1,6,2\n")
        code, out, err = run(["classify", "--csv", str(csv), *flags], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: classify takes --csv or {flags[0]}, not both\n"

    def test_header_only_csv_refused(self, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        csv.write_text("t,order,increment\n")
        code, out, err = run(["classify", "--csv", str(csv)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 1: a header with no data rows")

    def test_non_positive_order_refused(self, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        csv.write_text("t,order,increment\n0,4,0\n1,0,-4\n")
        code, out, err = run(["classify", "--csv", str(csv)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 3: order must be positive")

    @pytest.mark.parametrize("command", ["classify", "intervals"])
    def test_csv_byte_that_is_not_utf8_names_its_line(self, tmp_path, capsys, command):
        csv = tmp_path / "series.csv"
        csv.write_bytes(b"t,order,increment\n0,4,0\n1,\xff,0\n")
        code, out, err = run([command, "--csv", str(csv)], capsys)
        assert code == 1
        assert out == ""
        assert err == "error: line 3: expected t,order,increment, got '1,\ufffd,0'\n"


class TestIntervalsCommand:
    def test_histogram(self, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        csv.write_text("t,order,increment\n0,4,0\n1,4,0\n2,6,2\n3,6,0\n4,8,2\n")
        code, out, _ = run(["intervals", "--csv", str(csv)], capsys)
        assert code == 0
        doc = json.loads(out)
        # increments from orders: 0,2,0,2 -> one run of length 1 ... twice
        assert doc == {"1": 2}

    def test_short_row_is_a_usage_error(self, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        csv.write_text("t,order,increment\n0,4,0\n1\n")
        code, _, err = run(["intervals", "--csv", str(csv)], capsys)
        assert code == 1
        assert err.startswith("error: line 3:")

    def test_header_only_csv_refused(self, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        csv.write_text("t,order,increment\n")
        code, out, err = run(["intervals", "--csv", str(csv)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 1: a header with no data rows")

    def test_non_positive_order_refused(self, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        csv.write_text("t,order,increment\n0,4,0\n1,-2,-6\n")
        code, out, err = run(["intervals", "--csv", str(csv)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: line 3: order must be positive")

    def test_json_output(self, tmp_path, capsys):
        csv = tmp_path / "series.csv"
        csv.write_text("t,order,increment\n0,4,0\n1,6,2\n")
        out_json = tmp_path / "hist.json"
        code, _, _ = run(["intervals", "--csv", str(csv), "--json", str(out_json)], capsys)
        assert code == 0
        assert json.loads(out_json.read_text()) == {}
