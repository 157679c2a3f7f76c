import json

import pytest

from edgering import (
    CactusSpec,
    EmptySpecError,
    Graph,
    ParseError,
    format_cactus_spec_json,
    format_graph_json,
    format_graph_text,
    load_graph,
    parse_cactus_spec_json,
    parse_graph_json,
    parse_graph_text,
)
from edgering import fixtures


def test_text_round_trip(all_fixture_graphs):
    for name, G in all_fixture_graphs.items():
        assert parse_graph_text(format_graph_text(G)) == G, name


def test_json_round_trip(all_fixture_graphs):
    for name, G in all_fixture_graphs.items():
        assert parse_graph_json(format_graph_json(G)) == G, name


def test_text_format_shape(triangle):
    lines = format_graph_text(triangle).splitlines()
    assert lines[0] == "3 3"
    assert lines[1:4] == ["v1", "v2", "v3"]
    assert lines[4:] == ["v1 v2", "v1 v3", "v2 v3"]


def test_parse_text_explicit():
    text = "3 2\na\nb\nc\na b\nb c\n"
    G = parse_graph_text(text)
    assert G == Graph(("a", "b", "c"), (("a", "b"), ("b", "c")))


@pytest.mark.parametrize(
    "bad,fragment",
    [
        ("", "empty"),
        ("x 2\na\nb\na b", "header"),
        ("2\na\nb", "header"),
        ("3 1\na\nb", "nonblank"),  # truncated label block
        ("2 2\na\nb\na b", "nonblank"),  # truncated edge block
        ("2 1\na\nb\na b\nextra", "nonblank"),  # trailing junk
        ("2 1\na\nb\na z", "not a vertex"),  # unknown endpoint
        ("2 1\na\nb\na", "edge"),  # malformed edge line
        ("2 1\na\na\na a", "duplicate"),
        ("2 1\na\nb\nb b", "loop"),
        ("0 0", "d >= 1"),
    ],
)
def test_parse_text_errors(bad, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph_text(bad)
    assert fragment.lower() in str(err.value).lower()


def test_parse_text_reports_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_graph_text("2 1\na\nb\na q\n")
    assert "line 4" in str(err.value)


# well-formed JSON of the wrong shape
MALFORMED_GRAPH_JSON = [
    {"vertices": ["a", "b"], "edges": 5},
    {"vertices": 5, "edges": []},
    {"vertices": [["a"]], "edges": []},
    {"vertices": ["a", "b"], "edges": [[["a"], "b"]]},
    {"vertices": {"a": 1}, "edges": []},
]


def test_parse_json_errors():
    with pytest.raises(ParseError):
        parse_graph_json("not json")
    with pytest.raises(ParseError):
        parse_graph_json(json.dumps({"vertices": ["a"]}))  # missing edges
    with pytest.raises(ParseError):
        parse_graph_json(json.dumps({"vertices": ["a", "a"], "edges": []}))
    for bad in MALFORMED_GRAPH_JSON:
        with pytest.raises(ParseError):
            parse_graph_json(json.dumps(bad))


def test_spec_json_round_trip():
    spec = CactusSpec(2, (1, 0, 1, 0))
    text = format_cactus_spec_json(spec)
    data = json.loads(text)
    assert data == {"n": 2, "s": [1, 0, 1, 0]}
    assert parse_cactus_spec_json(text) == spec


def test_spec_json_accepts_long_key_names():
    spec = parse_cactus_spec_json(json.dumps({"triangles": 1, "pendants": [1, 1]}))
    assert spec == CactusSpec(1, (1, 1))


def test_spec_json_propagates_domain_errors():
    with pytest.raises(EmptySpecError):
        parse_cactus_spec_json(json.dumps({"n": 0, "s": []}))
    with pytest.raises(ParseError):
        parse_cactus_spec_json(json.dumps({"n": 1}))


# JSON types that int() would truncate or reinterpret
MISTYPED_SPECS = [
    {"n": 2.7, "s": [1, 0, 1, 0]},
    {"n": True, "s": [1, 1]},
    {"n": "2", "s": [1, 0, 1, 0]},
    {"n": 1, "s": "12"},
    {"n": 2, "s": [1.9, 0, 1, 0]},
    {"n": 1, "s": [True, 0]},
]


@pytest.mark.parametrize("bad", MISTYPED_SPECS, ids=json.dumps)
def test_spec_json_rejects_non_integers(bad):
    with pytest.raises(ParseError):
        parse_cactus_spec_json(json.dumps(bad))


def test_load_graph_sniffs_format(tmp_path, t1min):
    t = tmp_path / "g.graph"
    t.write_text(format_graph_text(t1min))
    j = tmp_path / "g.json"
    j.write_text(format_graph_json(t1min))
    assert load_graph(t) == t1min
    assert load_graph(j) == t1min


def test_fixture_load_agrees_with_build(all_fixture_graphs):
    for name, G in all_fixture_graphs.items():
        assert G == fixtures.build(name), name
    for fn in (fixtures.load, fixtures.build):
        with pytest.raises(ValueError, match="unknown fixture 'nope'; available: bowtie, "):
            fn("nope")
