import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import gra
from gra.analysis import EvolutionTrace
from gra.engine import divide_vertex
from gra.export import (
    format_for_path,
    graph_to_dot,
    graph_to_graphml,
    parse_series_csv,
    render_graph,
    trace_to_csv,
)
from gra.graph import k4_one_alive, parse_graph_text


def make_trace(orders):
    orders = np.asarray(orders, dtype=np.int64)
    return EvolutionTrace(orders=orders, stop_reason="max-steps")


class TestDot:
    def test_k4_golden(self):
        dot = graph_to_dot(k4_one_alive())
        assert dot.count(" -- ") == 6
        assert dot.count("[state=") == 4
        assert dot.count("state=1") == 1
        assert dot.startswith("graph G {")

    def test_deterministic(self):
        assert graph_to_dot(k4_one_alive()) == graph_to_dot(k4_one_alive())


class TestGraphml:
    def test_divided_graph_counts(self):
        g = divide_vertex(k4_one_alive(), 1)
        xml = graph_to_graphml(g)
        root = ET.fromstring(xml)
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        nodes = root.findall(f".//{ns}node")
        edges = root.findall(f".//{ns}edge")
        assert len(nodes) == 6
        assert len(edges) == 9

    def test_states_attached(self):
        xml = graph_to_graphml(k4_one_alive())
        root = ET.fromstring(xml)
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        states = [d.text for d in root.findall(f".//{ns}data") if d.get("key") == "state"]
        assert states == ["1", "0", "0", "0"]


def test_import_pulls_in_no_network_modules():
    # GraphML colors are constants with nothing to escape; xml.sax.saxutils
    # would bring urllib.request, http.client and ssl into every import
    src = str(Path(gra.__file__).resolve().parents[1])
    probe = (
        "import sys, gra; "
        "print(sorted({'xml.sax', 'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestEdgeList:
    def test_round_trip(self):
        g = divide_vertex(k4_one_alive(), 2)
        text = render_graph(g, "edge-list")
        assert parse_graph_text(text) == g

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render_graph(k4_one_alive(), "png")


class TestFormatForPath:
    @pytest.mark.parametrize(
        "path, explicit, fmt",
        [
            ("g.dot", None, "dot"),
            ("g.xml", None, "graphml"),
            ("g.dot", "graphml", "graphml"),
            ("g.txt", None, "edge-list"),
            ("g", None, "edge-list"),
            ("G.DOT", None, "dot"),
        ],
    )
    def test_explicit_format_wins_and_unknown_extension_is_edge_list(self, path, explicit, fmt):
        assert format_for_path(path, explicit) == fmt


class TestSeriesCsv:
    def test_golden(self):
        trace = make_trace([4, 4, 10, 10, 12])
        csv = trace_to_csv(trace)
        assert csv.splitlines() == [
            "t,order,increment",
            "0,4,0",
            "1,4,0",
            "2,10,6",
            "3,10,0",
            "4,12,2",
        ]

    def test_round_trip(self):
        trace = make_trace([4, 6, 6, 12])
        assert parse_series_csv(trace_to_csv(trace)) == [4, 6, 6, 12]
        assert trace.increments.tolist() == [2, 0, 6]

    def test_short_row_names_its_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_series_csv("t,order,increment\n0,4,0\n1\n")
        with pytest.raises(ValueError, match="line 3"):
            parse_series_csv("t,order,increment\n0,4,0\n1,x,2\n")

    def test_header_required(self):
        with pytest.raises(ValueError):
            parse_series_csv("0,4,0\n1,6,2\n")

    def test_header_without_data_rows_refused(self):
        with pytest.raises(ValueError, match="^line 1: a header with no data rows"):
            parse_series_csv("t,order,increment\n")

    @pytest.mark.parametrize("order", ["0", "-4"])
    def test_non_positive_order_names_its_line(self, order):
        with pytest.raises(ValueError, match="^line 3: order must be positive"):
            parse_series_csv(f"t,order,increment\n0,4,0\n1,{order},0\n")
