import itertools

import pytest

import oracles
from edgering import (
    AmbiguousCenterError,
    BipartiteGraphError,
    CactusSpec,
    Cycle,
    DimensionMismatchError,
    DisconnectedError,
    DuplicateVertexError,
    EmptySpecError,
    Graph,
    LoopEdgeError,
    NotAnEdgeError,
    UnknownEndpointError,
    build_from_edges,
    build_triangular_cactus,
    diameter,
    hub_vertex,
    is_triangular_cactus,
    minimal_odd_cycles,
    regular_vertices,
)
from edgering.graph_core import (
    components,
    cutpoints,
    eccentricities,
    is_connected,
    neighbors_of_set,
    odd_everywhere,
)


# ---------------------------------------------------------------- Graph


def test_graph_construction_canonicalizes_edges():
    G = Graph(("a", "b", "c"), (("c", "b"), ("b", "a"), ("a", "b")))
    assert G.edges == (("a", "b"), ("b", "c"))
    assert G.edge_count == 2
    assert G.dimension == 3


def test_graph_duplicate_vertex_rejected():
    with pytest.raises(DuplicateVertexError):
        Graph(("a", "a"), ())


def test_graph_loop_rejected():
    with pytest.raises(LoopEdgeError):
        Graph(("a", "b"), (("a", "a"),))


def test_graph_unknown_endpoint_rejected():
    with pytest.raises(UnknownEndpointError):
        Graph(("a", "b"), (("a", "z"),))


def test_graph_queries():
    G = Graph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    assert G.index("b") == 1
    with pytest.raises(UnknownEndpointError):
        G.index("nope")
    assert G.index("c") == 2
    assert G.neighbors("b") == frozenset({"a", "c"})
    assert G.degree("b") == 2 and G.degree("a") == 1
    assert G.has_edge("c", "b") and not G.has_edge("a", "c")
    assert G.edge("c", "b") == ("b", "c")
    with pytest.raises(NotAnEdgeError):
        G.edge("a", "c")


def test_graph_equality_and_hash():
    G1 = Graph(("a", "b", "c"), (("a", "b"),))
    G2 = Graph(("a", "b", "c"), (("b", "a"),))
    G3 = Graph(("a", "b", "c"), (("b", "c"),))
    assert G1 == G2 and hash(G1) == hash(G2)
    assert G1 != G3


def test_build_from_edges():
    G = build_from_edges([("x", "y"), ("y", "z")])
    assert set(G.vertices) == {"x", "y", "z"}
    assert G.edge_count == 2


# ---------------------------------------------------------------- cycles


def test_cycle_canonical_under_rotation_and_reflection(triangle):
    (base,) = minimal_odd_cycles(triangle)
    for perm in (("v2", "v3", "v1"), ("v3", "v2", "v1"), ("v1", "v3", "v2")):
        assert oracles.canonical_cycle(triangle, perm) == base.vertices
    assert base.length % 2 == 1 and base.length == 3
    assert base.vertex_set == frozenset({"v1", "v2", "v3"})


def test_has_chord():
    square_diag = Graph(
        ("a", "b", "c", "d"),
        (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")),
    )
    cyc = Cycle(oracles.canonical_cycle(square_diag, ("a", "b", "c", "d")))
    assert oracles.has_chord(square_diag, cyc)
    square = Graph(
        ("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"))
    )
    cyc = Cycle(oracles.canonical_cycle(square, ("a", "b", "c", "d")))
    assert not oracles.has_chord(square, cyc)


def test_minimal_odd_cycles_match_subset_oracle(all_fixture_graphs):
    for name, G in all_fixture_graphs.items():
        got = {c.vertex_set for c in minimal_odd_cycles(G)}
        want = {
            s for s in oracles.oracle_chordless_cycles(G) if len(s) % 2 == 1
        }
        assert got == want, name


def _wheel(n):
    rim = [f"r{i}" for i in range(n)]
    return build_from_edges(
        [("hub", r) for r in rim] + [(rim[i], rim[(i + 1) % n]) for i in range(n)]
    )


def test_minimal_odd_cycles_wheel():
    W = _wheel(5)
    rim = [v for v in W.vertices if v != "hub"]
    got = {c.vertex_set for c in minimal_odd_cycles(W)}
    want = oracles.oracle_chordless_cycles(W)
    want = {s for s in want if len(s) % 2 == 1}
    assert got == want
    assert frozenset(rim) in got  # the rim has no chord: hub is off-cycle
    assert len(got) == 6


# ---------------------------------------------------------------- metrics


def test_diameter_matches_floyd_warshall(all_fixture_graphs):
    for name, G in all_fixture_graphs.items():
        assert diameter(G) == oracles.oracle_diameter(G), name


def test_diameter_disconnected_raises():
    G = Graph(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
    assert not is_connected(G)
    with pytest.raises(DisconnectedError):
        diameter(G)


def test_eccentricities(t1min):
    ecc = eccentricities(t1min)
    assert ecc["w"] == 2
    assert ecc["y1_1"] == 4


def test_components_with_removal(bowtie):
    comps = components(bowtie, without=("v1",))
    assert sorted(sorted(c) for c in comps) == [["v2", "v3"], ["v4", "v5"]]


def test_bipartite_detection():
    path = build_from_edges([("a", "b"), ("b", "c")])
    even = build_from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    odd = build_from_edges([("a", "b"), ("b", "c"), ("c", "a")])
    for G, want in ((path, False), (even, False), (odd, True)):
        assert odd_everywhere(G.neighbor_masks, (1 << G.dimension) - 1) is want
    # an odd cycle in one component does not make the other one odd
    both = Graph("abcdef", [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e")])
    assert not odd_everywhere(both.neighbor_masks, 0b111111)
    assert odd_everywhere(both.neighbor_masks, 0b000111)


def test_cutpoints_match_removal_oracle(all_fixture_graphs):
    for name, G in all_fixture_graphs.items():
        assert cutpoints(G) == oracles.oracle_cutpoints(G), name


def test_neighbors_of_set(t1min):
    assert neighbors_of_set(t1min, {"x1"}) == frozenset(
        {"w", "x2", "y1_1", "y1_2"}
    )


# ---------------------------------------------------------------- cacti


def _ring_of_four_triangles():
    # the hubs c0..c3 close a 4-cycle, so the whole graph is one 8-vertex block
    edges = []
    for i in range(4):
        a, b, m = f"c{i}", f"c{(i + 1) % 4}", f"m{i}"
        edges += [(a, b), (a, m), (b, m)]
    return build_from_edges(edges)


def _labelled_graphs(max_n):
    """Every graph on the vertex labels a, b, ... for 1..max_n vertices."""
    for n in range(1, max_n + 1):
        verts = "abcde"[:n]
        pairs = list(itertools.combinations(verts, 2))
        for mask in range(1 << len(pairs)):
            yield Graph(verts, [p for i, p in enumerate(pairs) if mask >> i & 1])


def _assert_primitives_match_oracles(G):
    edges = set(G.edges)
    for u in G.vertices:
        nbrs = {v for v in G.vertices if (u, v) in edges or (v, u) in edges}
        assert G.neighbors(u) == nbrs and G.degree(u) == len(nbrs)
        for v in G.vertices:
            assert G.has_edge(u, v) is (v in nbrs)
        assert G.has_edge(u, "absent") is False and G.has_edge("absent", u) is False
    with pytest.raises(UnknownEndpointError):
        G.neighbors("absent")
    assert is_connected(G) == oracles.oracle_connected(G)
    for v in G.vertices:
        rest = [u for u in G.vertices if u != v]
        edges = [(a, b) for a, b in G.edges if v not in (a, b)]
        assert list(components(G, without=(v,))) == [
            frozenset(c) for c in oracles._components_of(rest, edges)]
    if not is_connected(G):
        for fn in (diameter, eccentricities, cutpoints, is_triangular_cactus):
            with pytest.raises(DisconnectedError):
                fn(G)
        return
    cycles = minimal_odd_cycles(G)
    assert len({c.vertex_set for c in cycles}) == len(cycles)
    assert {c.vertex_set for c in cycles} == {
        s for s in oracles.oracle_chordless_cycles(G) if len(s) % 2 == 1
    }
    for c in cycles:
        assert c.vertices == oracles.canonical_cycle(G, c.vertices)
        assert not oracles.has_chord(G, c)
    assert cutpoints(G) == oracles.oracle_cutpoints(G)
    assert dict(eccentricities(G)) == oracles.oracle_eccentricities(G)
    assert diameter(G) == oracles.oracle_diameter(G)
    assert is_triangular_cactus(G) == oracles.oracle_is_triangular_cactus(G)
    if oracles.oracle_is_bipartite_subset(G, G.vertices):
        with pytest.raises(BipartiteGraphError):
            regular_vertices(G)
    else:
        assert set(regular_vertices(G)) == oracles.oracle_regular_vertices(G)


def test_primitives_match_oracles_on_all_small_graphs():
    count = 0
    for G in _labelled_graphs(5):
        _assert_primitives_match_oracles(G)
        count += is_connected(G)
    assert count == 1 + 1 + 4 + 38 + 728  # connected labelled graphs, n <= 5


def test_is_triangular_cactus_cases(all_fixture_graphs):
    for name, G in all_fixture_graphs.items():
        assert is_triangular_cactus(G), name  # every fixture is one
    square = build_from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    tri_tail = build_from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "t")])
    ring = _ring_of_four_triangles()
    # every edge of the ring lies in exactly one triangle: only the count
    # 2|E| = 3(|V| - 1) tells it from a cactus
    assert all(len(ring.neighbors(u) & ring.neighbors(v)) == 1 for u, v in ring.edges)
    assert oracles.oracle_blocks(ring) == [frozenset(ring.vertices)]
    K4 = build_from_edges(itertools.combinations("abcd", 2))
    for G in (square, tri_tail, ring, K4, _wheel(5)):
        _assert_primitives_match_oracles(G)
        assert not is_triangular_cactus(G)


def test_cactus_spec_validation():
    with pytest.raises(EmptySpecError):
        CactusSpec(0, ())
    with pytest.raises(DimensionMismatchError):
        CactusSpec(2, (1, 0, 1))
    with pytest.raises(ValueError):
        CactusSpec(1, (-1, 0))


def test_cactus_build_shape():
    spec = CactusSpec(2, (1, 0, 1, 0))
    G = spec.build()
    assert G.dimension == spec.dimension == 9
    assert set(G.neighbors("w")) == {"x1", "x2", "x3", "x4"}
    assert G.has_edge("x1", "y1_1") and G.has_edge("y1_1", "y1_2")
    assert is_triangular_cactus(G)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_expected_diameter_matches_real_diameter(n):
    # sweep every 0/1 pendant pattern; check the closed form against
    # Floyd-Warshall on the built graph
    for pattern in itertools.product((0, 1), repeat=2 * n):
        spec = CactusSpec(n, pattern)
        G = spec.build()
        assert oracles.expected_diameter(spec) == diameter(G), pattern
        assert diameter(G) == oracles.oracle_diameter(G), pattern


def test_expected_diameter_deeper_pendants():
    for spec in (CactusSpec(1, (2, 0)), CactusSpec(2, (2, 1, 0, 0)),
                 CactusSpec(2, (0, 0, 0, 3))):
        G = spec.build()
        assert oracles.expected_diameter(spec) == diameter(G) == oracles.oracle_diameter(G)


def test_build_triangular_cactus_kwargs(t1min):
    G = build_triangular_cactus(triangles=2, pendants=(1, 0, 1, 0))
    assert G == t1min


def test_hub_vertex(t1min, t2min, friend3, triangle):
    assert hub_vertex(t1min) == "w"
    assert hub_vertex(t2min) == "w"
    with pytest.raises(AmbiguousCenterError):
        hub_vertex(friend3)  # diameter 2: six eccentricity-2 vertices
    with pytest.raises(AmbiguousCenterError):
        hub_vertex(triangle)  # no eccentricity-2 vertex at all
