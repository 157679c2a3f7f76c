import dataclasses
import functools
import gc
import operator
import random
import weakref

import pytest

import oracles
from edgering import (
    BipartiteGraphError,
    DisconnectedError,
    Graph,
    build_from_edges,
    build_triangular_cactus,
    cone_contains,
    face_of,
    fundamental_sets,
    hole_decomposition,
    regular_vertices,
    supporting_hyperplanes,
)
from edgering.facets import Hyperplane
from edgering.graph_core import bits, rho_vector
from edgering.semigroup import enumerate_semigroup


# ------------------------------------------------------- regular vertices


def test_regular_vertices_match_definition_oracle(all_fixture_graphs):
    rng = random.Random(31)
    graphs = {**all_fixture_graphs, "K5": oracles.K5, "W7": oracles.W7,
              "Petersen": oracles.PETERSEN,
              **{f"random{k}": G for k, G in
                 enumerate(oracles.random_non_bipartite_graphs(rng, 40))}}
    for name, G in graphs.items():
        assert set(regular_vertices(G)) == oracles.oracle_regular_vertices(G), name


def test_regular_vertices_frozen_values(bowtie, t1min, t2min, triangle):
    assert set(regular_vertices(bowtie)) == {"v2", "v3", "v4", "v5"}
    assert set(regular_vertices(t1min)) == {
        "w", "x2", "x4", "y1_1", "y1_2", "y3_1", "y3_2"
    }
    assert "w" not in set(regular_vertices(t2min))
    assert len(regular_vertices(t2min)) == 8
    assert regular_vertices(triangle) == ()


def test_regular_vertices_gates():
    # supporting_hyperplanes relies on regular_vertices for both gates
    for fn in (regular_vertices, supporting_hyperplanes):
        square = build_from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
        with pytest.raises(BipartiteGraphError):
            fn(square)
        two_parts = Graph(("a", "b", "c", "d"), (("a", "b"), ("c", "d")))
        with pytest.raises(DisconnectedError):
            fn(two_parts)


# ------------------------------------------------------- fundamental sets


def test_fundamental_sets_match_subset_oracle(small_fixture_graphs):
    for name, G in small_fixture_graphs.items():
        got = {oracles.labels(G, h.minus) for h in fundamental_sets(G)}
        assert got == oracles.oracle_fundamental_sets(G), name


def test_fundamental_sets_sorted_and_consistent(t2min):
    fsets = fundamental_sets(t2min)
    assert len(fsets) == 40
    keys = [(h.minus.bit_count(), list(bits(h.minus))) for h in fsets]
    assert keys == sorted(keys)
    adj = t2min.neighbor_masks
    for h in fsets:
        assert h.kind == "fundamental" and h.dimension == t2min.dimension
        assert h.plus == functools.reduce(operator.or_, (adj[i] for i in bits(h.minus)))
        assert not h.minus & h.plus


def test_fundamental_sets_match_subset_oracle_beyond_fixtures(d13):
    rng = random.Random(29)
    graphs = [oracles.K5, oracles.W7, oracles.PETERSEN, d13,
              *oracles.random_non_bipartite_graphs(rng, 40)]
    for G in graphs:
        fsets = fundamental_sets(G)
        sets = [(oracles.labels(G, h.minus), oracles.labels(G, h.plus)) for h in fsets]
        assert {T for T, _ in sets} == oracles.oracle_fundamental_sets(G), G.vertices
        for T, N in sets:
            assert N == {u for a, b in G.edges for t, u in ((a, b), (b, a))
                         if t in T}, (G.vertices, T)
        keys = [(len(T), tuple(sorted(map(G.index, T)))) for T, _ in sets]
        assert keys == sorted(set(keys)), G.vertices


# the cacti the benchmark's point queries run on, d = 17, 19 and 21, with
# their numbers of fundamental sets
QUERY_CACTUS_FACETS = [((4, (1, 0, 1, 0, 1, 0, 1, 0)), 279),
                       ((5, (1, 0, 1, 0, 1, 0, 1, 0, 0, 0)), 536),
                       ((5, (1, 0, 1, 0, 1, 0, 1, 0, 1, 0)), 1065)]


def test_fundamental_sets_match_independent_set_oracle_at_query_scale():
    # d = 17: 2,481 independent sets, beyond the subset oracle's 2**17 subsets
    G = build_triangular_cactus(triangles=4, pendants=(1, 0, 1, 0, 1, 0, 1, 0))
    got = [(oracles.labels(G, h.minus), oracles.labels(G, h.plus))
           for h in fundamental_sets(G)]
    assert got == oracles.oracle_fundamental_set_list(G)


@pytest.mark.parametrize("shape, count", QUERY_CACTUS_FACETS,
                         ids=[f"d{1 + 2 * n + 2 * sum(s)}" for (n, s), _ in QUERY_CACTUS_FACETS])
def test_fundamental_set_counts_of_the_query_cacti(shape, count):
    n, pendants = shape
    assert len(fundamental_sets(build_triangular_cactus(triangles=n, pendants=pendants))) == count


def test_facets_are_freed_with_the_graph(t1min):
    # the coefficients built on demand and the face lattices refer to no
    # graph: with the collector off, dropping G frees it while its
    # hyperplanes and faces live on
    tag = "_facets_freed"
    G = Graph([f"{v}{tag}" for v in t1min.vertices],
              [(f"{a}{tag}", f"{b}{tag}") for a, b in t1min.edges])
    gc.disable()
    try:
        assert cone_contains(G, (2,) + (0,) * (G.dimension - 1)) is False
        assert cone_contains(G, rho_vector(G, f"w{tag}", f"x1{tag}"))
        hyps = supporting_hyperplanes(G)
        fsets = fundamental_sets(G)
        faces = [face_of(G, h) for h in hyps]
        coefficients = [h.coefficients for h in hyps]
        masks = [(h.minus, h.plus) for h in fsets]
        ref = weakref.ref(G)
        del G
        assert ref() is None
    finally:
        gc.enable()
    assert [h.coefficients for h in hyps] == coefficients
    assert [(h.minus, h.plus) for h in fsets] == masks
    assert [face.rank for face in faces] == [t1min.dimension - 1] * len(hyps)


def test_bowtie_single_vertex_fundamental_sets(bowtie):
    singles = [h for h in fundamental_sets(bowtie) if h.minus.bit_count() == 1]
    assert [oracles.labels(bowtie, h.minus) for h in singles] == [frozenset({"v1"})]


# ------------------------------------------------------- hyperplanes


def test_supporting_hyperplanes_structure(t1min):
    hyps = supporting_hyperplanes(t1min)
    regs = [h for h in hyps if h.kind == "regular"]
    funds = [h for h in hyps if h.kind == "fundamental"]
    assert len(regs) == len(regular_vertices(t1min))
    for h in regs:
        i = t1min.index(h.vertex)
        assert h.coefficients == tuple(
            1 if j == i else 0 for j in range(t1min.dimension)
        )
    assert funds == list(fundamental_sets(t1min))
    for h in funds:
        T = oracles.labels(t1min, h.minus)
        N = set().union(*(t1min.neighbors(t) for t in T))
        assert h.coefficients == tuple(
            -1 if v in T else 1 if v in N else 0 for v in t1min.vertices
        )


def test_fundamental_hyperplanes_are_the_fundamental_sets(small_fixture_graphs):
    # one object per fundamental set: supporting_hyperplanes appends the
    # very hyperplanes fundamental_sets returns, after the regular ones
    for name, G in small_fixture_graphs.items():
        hyps = supporting_hyperplanes(G)
        assert len({h.coefficients for h in hyps}) == len(hyps), name
        fsets, r = fundamental_sets(G), len(regular_vertices(G))
        assert len(hyps) == r + len(fsets), name
        assert all(fsets[i] is hyps[r + i] for i in range(len(fsets))), name
        assert all(h.kind == "fundamental" for h in fsets), name


def test_fundamental_hyperplanes_equal_constructed_ones(cact4b):
    # fundamental_sets builds its hyperplanes without the dataclass's
    # __init__: each must be the value Hyperplane(...) gives, immutable
    d = cact4b.dimension
    x = tuple(range(d))
    for h in fundamental_sets(cact4b):
        built = Hyperplane(h.plus, h.minus, d, "fundamental")
        assert h == built and hash(h) == hash(built) and repr(h) == repr(built)
        assert h.coefficients == built.coefficients and h.value(x) == built.value(x)
        assert h.as_json(cact4b) == built.as_json(cact4b)
    for field in ("plus", "minus", "dimension", "kind", "vertex"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(h, field, 0)
    assert h == built


# ------------------------------------------------------- cone membership


def test_cone_contains_matches_lp_oracle(triangle, bowtie, t1min):
    rng = random.Random(17)
    for G in (triangle, bowtie, t1min):
        d = G.dimension
        # all truncated semigroup points lie in the cone
        for x in enumerate_semigroup(G, 6):
            assert cone_contains(G, x)
            assert oracles.oracle_cone_contains(G, x)
        # random small vectors: both verdicts agree either way
        for _ in range(60):
            x = tuple(rng.randint(-2, 4) for _ in range(d))
            assert cone_contains(G, x) == oracles.oracle_cone_contains(G, x), x


# two of the cacti the benchmark's point queries run on, d = 17 and d = 21
QUERY_CACTI = [(4, (1, 0, 1, 0, 1, 0, 1, 0)), (5, (1, 0, 1, 0, 1, 0, 1, 0, 1, 0))]


def _query_vectors(G, rng, count):
    # edge sums, sums with one unit moved, odd sums, and vectors with
    # negative coordinates, as index tuples
    d = G.dimension
    edges = [(G.index(u), G.index(v)) for u, v in G.edges]
    for q in range(count):
        x = [0] * d
        for _ in range(rng.randint(3, 10)):
            i, j = rng.choice(edges)
            x[i] += 1
            x[j] += 1
        kind = q % 4
        if kind == 1:
            x[rng.choice([i for i in range(d) if x[i]])] -= 1
            x[rng.randrange(d)] += 1
        elif kind == 2:
            x[rng.randrange(d)] += 1
        elif kind == 3:
            for _ in range(rng.randint(1, 3)):
                x[rng.randrange(d)] -= rng.randint(1, 3)
        yield tuple(x)


def _vectors_of_size(G, total):
    """Vectors x with sum(|x_i|) == total, inside and outside the cone, from
    an edge ab whose generator some hyperplane h takes to 2, and the third
    vertex v of its triangle. The inside one takes h to at least total - 1,
    to total itself when total is even: on it, lanes whose bias is not
    above total would carry."""
    hyps = supporting_hyperplanes(G)
    a, b = next((a, b) for a, b in G.edges
                if any(h.value(rho_vector(G, a, b)) == 2 for h in hyps))
    (v,) = G.neighbors(a) & G.neighbors(b)  # a cactus edge is in one triangle
    w = next(u for u in G.vertices if u not in (a, b, v))

    def vector(coords):
        x = [0] * G.dimension
        for u, c in coords.items():
            x[G.index(u)] = c
        return tuple(x)

    c, odd = divmod(total, 2)
    inside = [{a: c, b: c, v: odd}]
    # a too heavy for its neighbors, and a negative coordinate
    outside = [{a: c + 1, b: c - 1 + odd}, {a: c, b: c - 1 + odd, w: -1}]
    return [vector(x) for x in inside], [vector(x) for x in outside]


def test_cone_contains_matches_oracles_at_query_scale():
    rng = random.Random(41)
    for n, pendants in QUERY_CACTI:
        G = build_triangular_cactus(triangles=n, pendants=pendants)
        hyps = supporting_hyperplanes(G)
        for x in _query_vectors(G, rng, 160):
            got = cone_contains(G, x)
            assert got == oracles.oracle_cone_contains_by_flow(G, x), (n, x)
            assert got == all(h.value(x) >= 0 for h in hyps), (n, x)


def test_cone_contains_exact_across_lane_widths():
    # sums of |x_i| on both sides of each step of the lane width: 16 bits
    # up to 2**15 - 1, 32 up to 2**31 - 1, then 48
    for n, pendants in QUERY_CACTI:
        G = build_triangular_cactus(triangles=n, pendants=pendants)
        hyps = supporting_hyperplanes(G)
        for total in (2**15 - 1, 2**15, 2**16 + 1, 2**31 - 1, 2**31):
            inside, outside = _vectors_of_size(G, total)
            if total % 2 == 0:
                assert max(h.value(x) for h in hyps for x in inside) == total
            for x in inside + outside:
                assert sum(map(abs, x)) == total
                want = x in inside
                assert cone_contains(G, x) == want, (n, total, x)
                assert oracles.oracle_cone_contains_by_flow(G, x) == want, (n, total, x)
                assert all(h.value(x) >= 0 for h in hyps) == want, (n, total, x)


def test_cone_rejects_negative_nonregular_coordinate(triangle):
    # no coordinate hyperplanes exist for the triangle, yet negativity is
    # still excluded by the fundamental inequalities
    assert regular_vertices(triangle) == ()
    assert not cone_contains(triangle, (-1, 1, 1))
    assert cone_contains(triangle, (0, 1, 1))


# ------------------------------------------------------- faces


def test_face_dimensions_are_d_minus_1(all_fixture_graphs):
    for name, G in all_fixture_graphs.items():
        for h in supporting_hyperplanes(G):
            assert face_of(G, h).rank == G.dimension - 1, (name, h.kind)


def test_bowtie_shared_vertex_face(bowtie):
    """The face cut out by the {v1} fundamental hyperplane is spanned by the
    four edges through v1 (each evaluates to 0; the two opposite edges
    evaluate to 2, so their generators lie off the face's lattice)."""
    (h,) = [
        h
        for h in supporting_hyperplanes(bowtie)
        if h.kind == "fundamental" and h.minus == 1 << bowtie.index("v1")
    ]
    face = face_of(bowtie, h)
    for v in ("v2", "v3", "v4", "v5"):
        assert face.contains(rho_vector(bowtie, "v1", v))
    for a, b in (("v2", "v3"), ("v4", "v5")):
        assert h.value(rho_vector(bowtie, a, b)) == 2
        assert not face.contains(rho_vector(bowtie, a, b))
    assert face.rank == 4


def test_triangle_faces(triangle):
    for h in supporting_hyperplanes(triangle):
        face = face_of(triangle, h)
        assert sum(face.contains(rho_vector(triangle, u, v)) for u, v in triangle.edges) == 2
        assert face.rank == 2


def test_face_built_once_per_facet(cact4b):
    h = supporting_hyperplanes(cact4b)[0]
    assert face_of(cact4b, h) is face_of(cact4b, h)
    families = hole_decomposition(cact4b)
    assert len(families) == 113
    assert len({hf.facet for hf in families}) == 67
    assert len({id(hf.face) for hf in families}) == 67
