"""Golden digests of the files the CLI writes and of evolved graphs.

The other output tests compare runs with each other; these pin the bytes
themselves, so a change to a record's keys, key order, number formatting or
nesting shows up here, and so does any change to the labels of an evolved
graph.  A deliberate format change updates the digests and says so in
CHANGES.md.
"""

import hashlib
import json

from gra.cli import main
from gra.engine import Budget, evolve
from gra.graph import canonical_g0, graph_digest
from gra.rules import decode

# under this budget: Halted, Exponential, LinearStrict, LinearPeriodic,
# Quadratic and (rule 2222, too short to settle) Unclassified
SWEEP_RULES = [0, 385, 515, 563, 2182, 2222]
BUDGET = {"max_steps": 300, "max_order": 30_000}

GOLDEN = {
    "report.json": "63847d5bcc098a66d4a6bf826a8b592f",
    "journal.jsonl": "8799c176f27c11c5a1c1cc47efe7a7bb",
    "trace.json": "f996a973dbd12686eb4a7137a03baff3",
    "final.graph": "bf20213ebd680ee16d4880abd318f055",
    "classify.json": "436704114e356222f74d534ab03eb589",
}

# graph_digest of rule 2222's graph at t=6,000 from paper-g0 (order 3,844)
RULE_2222_T6000 = "c06de10caa1029884d63280091cbe897"


def _digest(path) -> str:
    return hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest()


def test_sweep_files(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rules": SWEEP_RULES, "budget": BUDGET}))
    out_dir = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    assert _digest(out_dir / "report.json") == GOLDEN["report.json"]
    assert _digest(out_dir / "journal.jsonl") == GOLDEN["journal.jsonl"]


def test_simulate_trace_json(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert main(["simulate", "2222", "--steps", "300", "--trace-json", str(path)]) == 0
    capsys.readouterr()
    assert _digest(path) == GOLDEN["trace.json"]


def test_simulate_export_graph(tmp_path, capsys):
    path = tmp_path / "final.graph"
    assert main(["simulate", "2222", "--steps", "300", "--export", str(path)]) == 0
    capsys.readouterr()
    assert _digest(path) == GOLDEN["final.graph"]


def test_classify_rule_json(tmp_path, capsys):
    path = tmp_path / "classify.json"
    assert main(["classify", "--rule", "2222", "--steps", "300", "--json", str(path)]) == 0
    capsys.readouterr()
    assert _digest(path) == GOLDEN["classify.json"]


def test_evolved_graph_labels():
    trace = evolve(canonical_g0(), decode(2222), Budget(max_steps=6_000))
    assert graph_digest(trace.final_graph) == RULE_2222_T6000
