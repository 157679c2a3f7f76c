"""Reading and writing graph files.

Two interchangeable formats:

* text: first line ``d m``, then d vertex labels one per line, then m lines
  ``u v`` (labels must not contain whitespace);
* JSON: ``{"vertices": [...], "edges": [[u, v], ...]}``.

Cactus descriptions are JSON: ``{"n": 2, "s": [1, 0, 1, 0]}``.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import EdgeRingError, ParseError
from .graph_core import CactusSpec, Graph


def parse_graph_text(text: str) -> Graph:
    lines = text.splitlines()
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise ParseError("empty graph file")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"line {lineno}: expected 'd m' header, got {header!r}")
    try:
        d, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"line {lineno}: header counts must be integers") from None
    if d < 1 or m < 0:
        raise ParseError(f"line {lineno}: need d >= 1 and m >= 0")
    if len(rows) != 1 + d + m:
        raise ParseError(
            f"expected {1 + d + m} nonblank lines for d={d}, m={m}; got {len(rows)}"
        )
    vertices = []
    seen = set()
    for lineno, row in rows[1:1 + d]:
        if len(row.split()) != 1:
            raise ParseError(f"line {lineno}: vertex label must be a single token")
        if row in seen:
            raise ParseError(f"line {lineno}: duplicate vertex label {row!r}")
        seen.add(row)
        vertices.append(row)
    edges = []
    for lineno, row in rows[1 + d:]:
        ends = row.split()
        if len(ends) != 2:
            raise ParseError(f"line {lineno}: expected edge 'u v', got {row!r}")
        for x in ends:
            if x not in seen:
                raise ParseError(f"line {lineno}: edge endpoint {x!r} is not a vertex")
        if ends[0] == ends[1]:
            raise ParseError(f"line {lineno}: loop edge {row!r}")
        edges.append(tuple(ends))
    return _build(vertices, edges)


def format_graph_text(G: Graph) -> str:
    out = [f"{G.dimension} {G.edge_count}"]
    out += [str(v) for v in G.vertices]
    out += [f"{u} {v}" for u, v in G.edges]
    return "\n".join(out) + "\n"


def parse_graph_json(text: str) -> Graph:
    data = _load_json(text)
    if not isinstance(data, dict) or "vertices" not in data or "edges" not in data:
        raise ParseError("graph JSON needs 'vertices' and 'edges' keys")
    vertices, edges = data["vertices"], data["edges"]
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise ParseError("graph JSON 'vertices' and 'edges' must be arrays")
    if not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise ParseError("each edge must be a two-element array")
    labels = vertices + [end for e in edges for end in e]
    if any(isinstance(v, (list, dict)) for v in labels):
        raise ParseError("vertex labels must be JSON scalars, not arrays or objects")
    return _build(vertices, [tuple(e) for e in edges])


def format_graph_json(G: Graph) -> str:
    payload = {
        "vertices": list(G.vertices),
        "edges": [list(e) for e in G.edges],
    }
    return json.dumps(payload, indent=2) + "\n"


def parse_cactus_spec_json(text: str) -> CactusSpec:
    data = _load_json(text)
    if not isinstance(data, dict):
        raise ParseError("cactus description must be a JSON object")
    n = data.get("n", data.get("triangles"))
    s = data.get("s", data.get("pendants"))
    if n is None or s is None:
        raise ParseError("cactus description needs keys 'n' and 's'")
    # exact type tests: JSON true/false decode to bool, a subclass of int
    if type(n) is not int or type(s) is not list or any(type(c) is not int for c in s):
        raise ParseError("'n' must be an integer and 's' a list of integers")
    return CactusSpec(n, tuple(s))


def format_cactus_spec_json(spec: CactusSpec) -> str:
    return json.dumps({"n": spec.triangles, "s": list(spec.pendants)}) + "\n"


def load_graph(path) -> Graph:
    """Read a graph file, sniffing JSON by a leading '{'."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_graph_text(text)


def _build(vertices, edges) -> Graph:
    try:
        return Graph(vertices, edges)
    except EdgeRingError as exc:
        raise ParseError(f"invalid graph: {exc}") from exc


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
