"""Deterministic file exports: graphs for external rendering, traces as data.

Same labeled graph in, byte-identical file out.  DOT and GraphML carry the
vertex state both as a raw attribute and as a fill color (alive purple,
dead orange) so stock tools reproduce the two-color rendering directly.
"""

import enum
import json
from dataclasses import asdict
from pathlib import Path

from .analysis import EvolutionTrace
from .errors import SeriesFormatError
from .graph import Graph, graph_to_edge_text

ALIVE_COLOR = "#9467bd"  # purple
DEAD_COLOR = "#ff7f0e"  # orange

_EXTENSION_FORMATS = {
    ".dot": "dot",
    ".gv": "dot",
    ".graphml": "graphml",
    ".xml": "graphml",
    ".txt": "edge-list",
    ".edges": "edge-list",
    ".graph": "edge-list",
}


def graph_to_dot(g: Graph) -> str:
    lines = ["graph G {", "  node [shape=circle style=filled];"]
    for v in range(g.order):
        alive = int(g.states[v])
        color = ALIVE_COLOR if alive else DEAD_COLOR
        label = "alive" if alive else "dead"
        lines.append(f'  {v} [state={alive} tooltip="{label}" fillcolor="{color}"];')
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_graphml(g: Graph) -> str:
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
        '  <key id="state" for="node" attr.name="state" attr.type="int"/>',
        '  <key id="color" for="node" attr.name="color" attr.type="string"/>',
        '  <graph id="G" edgedefault="undirected">',
    ]
    for v in range(g.order):
        alive = int(g.states[v])
        color = ALIVE_COLOR if alive else DEAD_COLOR
        lines.append(f'    <node id="n{v}">')
        lines.append(f'      <data key="state">{alive}</data>')
        lines.append(f'      <data key="color">{color}</data>')
        lines.append("    </node>")
    for i, (u, v) in enumerate(g.edges()):
        lines.append(f'    <edge id="e{i}" source="n{u}" target="n{v}"/>')
    lines.append("  </graph>")
    lines.append("</graphml>")
    return "\n".join(lines) + "\n"


_RENDERERS = {"edge-list": graph_to_edge_text, "dot": graph_to_dot, "graphml": graph_to_graphml}
EXPORT_FORMATS = tuple(_RENDERERS)


def render_graph(g: Graph, fmt: str) -> str:
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown export format {fmt!r} (choose from {EXPORT_FORMATS})")
    return _RENDERERS[fmt](g)


def format_for_path(path: str, explicit: str | None = None) -> str:
    return explicit or _EXTENSION_FORMATS.get(Path(path).suffix.lower(), "edge-list")


def export_graph(g: Graph, fmt: str, path) -> None:
    Path(path).write_text(render_graph(g, fmt), encoding="utf-8")


def trace_to_csv(trace: EvolutionTrace) -> str:
    """Order series as CSV. Row t carries the growth into step t, so the
    first row's increment is 0 and row t equals orders[t] - orders[t-1]."""
    lines = ["t,order,increment"]
    increments = trace.increments
    for t, order in enumerate(trace.orders):
        inc = int(increments[t - 1]) if t > 0 else 0
        lines.append(f"{t},{int(order)},{inc}")
    return "\n".join(lines) + "\n"


def parse_series_csv(text: str) -> list[int]:
    """Read the order column of a t,order,increment CSV.

    The increment column is not read: a trace derives its increments from
    the orders, so hand-edited or truncated increment columns cannot poison
    the analysis.  A series needs at least one data row, and every order
    must be positive; SeriesFormatError names the line otherwise.
    """
    rows = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not rows or not rows[0][1].lower().startswith("t,"):
        raise SeriesFormatError("expected a header row: t,order,increment")
    if len(rows) == 1:
        raise SeriesFormatError(f"line {rows[0][0]}: a header with no data rows after it")
    orders: list[int] = []
    for lineno, ln in rows[1:]:
        try:
            orders.append(int(ln.split(",")[1]))
        except (IndexError, ValueError):
            raise SeriesFormatError(
                f"line {lineno}: expected t,order,increment, got {ln!r}"
            ) from None
        if orders[-1] < 1:
            raise SeriesFormatError(f"line {lineno}: order must be positive, got {ln!r}")
    return orders


def _json_value(value):
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    return value


def as_record(obj) -> dict:
    """A dataclass as a dict keyed by its fields, nested dataclasses
    included.  Enum members become their values and tuples lists, so the
    dict equals its own JSON round trip."""
    return asdict(obj, dict_factory=lambda items: {k: _json_value(v) for k, v in items})


def dump_json(obj) -> str:
    """Canonical JSON rendering used for every report this package writes."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
