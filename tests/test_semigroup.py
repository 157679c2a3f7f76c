import gc
import itertools
import operator
import random
import tracemalloc

import numpy as np
import pytest

import oracles
from edgering import (
    CactusSpec,
    EdgeRingError,
    Graph,
    IntegerLattice,
    MethodMismatchError,
    NotAnEdgeError,
    acceptance,
    build_from_edges,
    cone_contains,
    decompose,
    enumerate_normalization,
    enumerate_semigroup,
    exceptional_pairs,
    hole_decomposition,
    hole_report,
    holes,
    lattice_member,
    member,
    pair_vector,
    rho_vector,
    unit_vector,
    vector_degree,
)
from edgering import semigroup
from edgering.facets import LANE_BITS, _lanes, _sign_bits
from edgering.fixtures import build, load
from edgering.graph_core import _pack, bits, is_triangular_cactus
from edgering.semigroup import (
    _enumerate_by_inequalities,
    _unpack,
    graded_sorted,
)

# the wheel on a 5-cycle rim: not a cactus, and at degree 5 method A's walk
# meets every kind of lane bound and the parity check of its last column
W5 = build_from_edges([("c", f"r{i}") for i in range(5)]
                      + [(f"r{i}", f"r{(i + 1) % 5}") for i in range(5)])
# non-cacti with many fundamental hyperplanes, for method A on its own
K5, W7, PETERSEN = oracles.K5, oracles.W7, oracles.PETERSEN


# ------------------------------------------------------------ vectors


def test_unit_and_rho_vectors(triangle):
    assert unit_vector(triangle, "v2") == (0, 1, 0)
    assert rho_vector(triangle, "v3", "v1") == (1, 0, 1)
    with pytest.raises(NotAnEdgeError):
        rho_vector(triangle, "v1", "v1")


def test_vector_degree_and_sorting():
    vecs = [(0, 2), (1, 0), (0, 1), (2, 0)]
    assert vector_degree((0, 2)) == 2
    assert graded_sorted(vecs) == [(0, 1), (1, 0), (0, 2), (2, 0)]


# ------------------------------------------------------------ membership


def test_member_zero_vector(triangle):
    z = (0, 0, 0)
    assert member(triangle, z) is True
    assert decompose(triangle, z) == ()


def test_member_matches_multiset_oracle_on_enumeration(triangle, bowtie):
    for G in (triangle, bowtie):
        for x in enumerate_semigroup(G, 8):
            assert member(G, x) is True
            assert oracles.oracle_member(G, x), x


def test_member_matches_multiset_oracle_on_random_vectors(bowtie, t1min):
    rng = random.Random(23)
    for G in (bowtie, t1min):
        d = G.dimension
        for _ in range(80):
            x = tuple(rng.randint(-1, 2) for _ in range(d))
            if sum(x) > 8:
                continue
            assert member(G, x) == oracles.oracle_member(G, x), x


def test_decompose_returns_the_first_witness_of_the_search(triangle, bowtie, t1min,
                                                           t2min, cact4b):
    # the memoized packed walk finds the same witness as the plain search on
    # labels: the positive vertex first in the smallest-last order first,
    # its neighbours in index order; every semigroup point of degree <= 8 adds witnesses to check, the
    # triangle's vectors sit at the 8-bit lane width's edge, and cact4b
    # (d = 17) is the class of the benchmark's point queries
    rng = random.Random(31)
    cases = {triangle: [(255, 255, 0), (256, 256, 0), (255, 257, 2)]}
    for G in (bowtie, t1min, t2min):
        vectors = [tuple(rng.randint(-1, 2) for _ in range(G.dimension))
                   for _ in range(400)]
        cases[G] = [x for x in vectors if sum(x) <= 8] + sorted(enumerate_semigroup(G, 8))
    vectors = []
    for _ in range(400):
        x = [0] * cact4b.dimension
        for i in rng.sample(range(cact4b.dimension), rng.randint(1, 8)):
            x[i] = rng.randint(-1, 2)
        vectors.append(tuple(x))
    cases[cact4b] = [x for x in vectors if sum(x) <= 10]
    for G, xs in cases.items():
        for x in xs:
            want = oracles.oracle_first_witness(G, x)
            if want is not None:
                want = tuple(sorted(want, key=lambda e: (G.index(e[0]), G.index(e[1]))))
            assert decompose(G, x) == want, x


def test_member_answers_at_any_degree(triangle):
    # the search keeps its own stack: a witness of 1,500 edges is no
    # recursion 1,500 calls deep
    assert member(triangle, (1500, 1500, 0)) is True
    assert member(triangle, (1500, 1500, 1)) is False


def test_member_memo_is_kept_apart_per_lane_width():
    # the search packs d (one neighbour) in lane 0 and a (first of three
    # tied at two) in lane 1, so at 8-bit lanes (1, 0, 0, 1) packs to
    # 1 | 1 << 8, and so does (0, 0, 0, 257) at 16-bit lanes; a shared memo
    # would answer the second from the first's entry
    G = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")])
    assert semigroup._elimination_order(G)[:2] == (3, 0)
    assert decompose(G, (1, 0, 0, 1)) == (("a", "d"),)
    assert decompose(G, (0, 0, 0, 257)) is None
    assert member(G, (0, 0, 0, 257)) is False


def _brute_degeneracy(G) -> int:
    # the largest least degree of any induced subgraph, over every subset
    adj = G.neighbor_masks
    return max(min((adj[i] & S).bit_count() for i in bits(S))
               for S in range(1, 1 << G.dimension))


def test_member_eliminates_vertices_smallest_last(all_fixture_graphs):
    # the search's lane order is the smallest-last order on labels, so no
    # vertex has more later neighbours than the degeneracy: exactly the
    # degeneracy where subsets are few enough to count it, at most 2 on
    # every triangular cactus, the d = 21 query cactus among them
    graphs = {**all_fixture_graphs, "K5": K5, "W7": W7, "Petersen": PETERSEN,
              "d21": CactusSpec(5, (1, 0) * 5).build()}
    for name, G in graphs.items():
        order = semigroup._elimination_order(G)
        assert [G.vertices[i] for i in order] == oracles.oracle_smallest_last(G), name
        taken, later = 0, 0
        for i in order:
            taken |= 1 << i
            later = max(later, (G.neighbor_masks[i] & ~taken).bit_count())
        if G.dimension <= 15:
            assert later == _brute_degeneracy(G), name
        if is_triangular_cactus(G):
            assert later <= 2, name


def test_member_memo_stays_small_on_family_holes():
    # 60 of cact4b's family holes, each pushed along its face to degree 30
    # by random face edges, and each plus one edge off its face: a count of
    # memo entries, not a timing. The smallest-last search fills 4,698; the
    # least-index search, which branches on the hub's 8 edges, filled 52,414
    G = CactusSpec(4, (1, 0) * 4).build()
    rng = random.Random(7)
    gens = semigroup.generators(G)
    for hf in hole_decomposition(G)[:60]:
        face = [e for e in gens if hf.facet.value(e) == 0]
        off = next(e for e in gens if hf.facet.value(e) > 0)
        x = hf.shift
        while sum(x) < 30:
            x = tuple(map(operator.add, x, rng.choice(face)))
        assert member(G, x) is False, x
        member(G, tuple(map(operator.add, x, off)))
    assert sum(map(len, semigroup._memo(G).values())) < 10_000


def test_member_stays_definitional_on_holes(t1min):
    # holes are in cone and lattice; member must still say no
    for x in holes(t1min, 8):
        assert member(t1min, x) is False
        assert oracles.oracle_member(t1min, x) is False


@pytest.mark.parametrize("name, D", [("t1min", 10), ("t2min", 10),
                                     ("cac3", 12), ("friend3", 12)])
def test_holes_match_member_scan(request, name, D):
    # N_D - S_D against the definitional oracle, in both directions
    G = request.getfixturevalue(name)
    hole_set = holes(G, D)
    for x in enumerate_normalization(G, D):
        assert member(G, x) is (x not in hole_set), x


def test_decompose_witness_sums_to_input(bowtie, t1min):
    for G in (bowtie, t1min):
        for x in enumerate_semigroup(G, 8):
            witness = decompose(G, x)
            assert witness is not None
            total = [0] * G.dimension
            for u, v in witness:
                assert G.has_edge(u, v)
                total[G.index(u)] += 1
                total[G.index(v)] += 1
            assert tuple(total) == x
            assert witness == tuple(sorted(witness))


def test_decompose_none_outside(triangle):
    assert decompose(triangle, (1, 0, 0)) is None
    assert decompose(triangle, (1, 1, 1)) is None  # odd degree


def test_member_memoization_is_stable(t1min):
    q = tuple(holes(t1min, 6))[0]
    assert member(t1min, q) is False
    assert member(t1min, q) is False
    doubled = tuple(2 * a for a in q)
    assert member(t1min, doubled) is True
    assert member(t1min, doubled) is True


def test_lattice_member_matches_closed_form(t2min):
    rng = random.Random(29)
    for _ in range(100):
        x = tuple(rng.randint(-3, 3) for _ in range(t2min.dimension))
        assert lattice_member(t2min, x) == oracles.oracle_lattice_member(
            t2min, x
        )


@pytest.mark.parametrize("query", [cone_contains, member, decompose, lattice_member],
                         ids=lambda f: f.__name__)
def test_point_queries_refuse_non_integer_coordinates(triangle, query):
    # a truncated (-0.5, 1, 1) is in the cone, (0.9, 0.9, 0) a member, and
    # (1.5, 1.5, 0) decomposes as (1, 1, 0): none may be read that way
    for x in ((-0.5, 1, 1), (0.9, 0.9, 0), (1.5, 1.5, 0), (1, 1.0, 0)):
        with pytest.raises(EdgeRingError, match=r"coordinate \d+ .* not an integer"):
            query(triangle, x)
    # ints, bools and numpy integers are integers
    assert query(triangle, (np.int64(1), True, 0)) == query(triangle, (1, 1, 0))


# ------------------------------------------------------------ enumeration


def test_enumerate_semigroup_matches_combination_oracle(triangle, bowtie):
    for G in (triangle, bowtie):
        D = 6
        vecs = oracles.edge_vectors(G)
        want = {(0,) * G.dimension}
        for k in range(1, D // 2 + 1):
            for combo in itertools.combinations_with_replacement(vecs, k):
                s = [0] * G.dimension
                for v in combo:
                    for i, a in enumerate(v):
                        s[i] += a
                want.add(tuple(s))
        assert enumerate_semigroup(G, D) == frozenset(want)


def _reversed(G):
    return Graph(G.vertices[::-1], G.edges)


def _hub_last(G):
    return Graph(G.vertices[1:] + G.vertices[:1], G.edges)


# S_D grows by each point's least positive coordinate, so its slabs depend
# on the vertex order: hub first and last, a reversed cactus, and a vertex
# (c) before the last one with no later neighbour
@pytest.mark.parametrize("G", [
    K5, PETERSEN, W7, _hub_last(W7), build("t1min"), _reversed(build("t2min")),
    build_from_edges([("a", "b"), ("b", "c"), ("a", "c"), ("a", "d"),
                      ("d", "e"), ("e", "f"), ("d", "f")]),
], ids=["K5", "Petersen", "W7-hub-first", "W7-hub-last", "t1min",
        "t2min-reversed", "no-later-neighbour"])
def test_enumerate_semigroup_in_any_vertex_order(G):
    for D in range(9):
        assert enumerate_semigroup(G, D) == oracles.oracle_semigroup(G, D)


def test_enumerate_normalization_reconstructed_from_oracles(triangle, bowtie):
    """cone ∩ lattice ∩ degree bound, rebuilt entirely from the LP oracle
    and the closed-form lattice oracle over the full bounded box."""
    for G, D in ((triangle, 6), (triangle, 7), (bowtie, 4), (bowtie, 5),
                 (W5, 5), (W5, 6)):
        want = {
            x
            for x in oracles.bounded_vectors(G.dimension, D)
            if oracles.oracle_lattice_member(G, x)
            and oracles.oracle_cone_contains(G, x)
        }
        assert enumerate_normalization(G, D) == frozenset(want)
        if D % 2:
            # every lattice point has even degree
            assert enumerate_normalization(G, D) == enumerate_normalization(G, D - 1)


def test_flow_cone_oracle_agrees_with_the_lp_oracle():
    rng = random.Random(3)
    for G in (K5, W7, PETERSEN):
        for _ in range(60):
            x = tuple(rng.randint(0, 3) for _ in range(G.dimension))
            assert (oracles.oracle_cone_contains_by_flow(G, x)
                    == oracles.oracle_cone_contains(G, x)), x


# twins for method A's walk: the diamond K4 - e, whose b and c are true twins
# and a and d false twins; the wheel on a 4-cycle, whose opposite rim
# vertices are false twins; and a cactus listed so that no two twins are
# next to each other in vertex order
DIAMOND = Graph("abcd", [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")])
W4 = build_from_edges([("c", f"r{i}") for i in range(4)]
                      + [(f"r{i}", f"r{(i + 1) % 4}") for i in range(4)])
SCATTERED = Graph(("x3", "y1_1", "w", "x1", "x4", "x2", "y1_2"),
                  CactusSpec(2, (1, 0, 0, 0)).build().edges)
# large classes: K12's twelve true twins, walked as a class of 10, and the
# book of 10 triangles on the spine uv, whose pages are false twins
K12 = build_from_edges(list(itertools.combinations(range(12), 2)))
BOOK = build_from_edges([("u", "v")] + [(a, f"p{i}") for i in range(10) for a in "uv"])

METHOD_A_GRAPHS = {"triangle": build("triangle"), "bowtie": build("bowtie"),
                   "K5": K5, "W7": W7, "Petersen": PETERSEN,
                   "diamond": DIAMOND, "W4": W4, "scattered": SCATTERED,
                   "K12": K12, "book": BOOK}


# every degree from 0 to 9, so the last column is walked at both parities
# of the degree left to it; degree 8 keeps the graph's bare id. The
# oracle's box grows fast in dimension 12, so K12 and the book stop lower
_METHOD_A_CASES = [(name, D) for name in ("triangle", "bowtie", "K5", "W7", "diamond",
                                          "W4", "scattered") for D in range(10)]
_METHOD_A_CASES += [("K12", D) for D in range(6)] + [("book", D) for D in range(7)]
_METHOD_A_CASES.append(("Petersen", 8))


@pytest.mark.parametrize("name, D", _METHOD_A_CASES,
                         ids=[name if D == 8 else f"{name}-{D}" for name, D in _METHOD_A_CASES])
def test_method_a_reconstructed_from_oracles(name, D):
    G = METHOD_A_GRAPHS[name]
    found = _enumerate_by_inequalities(G, D)
    assert frozenset(_unpack(n, G.dimension) for n in found) == (
        oracles.oracle_normalization(G, D))
    # handed to sinks, each point reaches its degree's sink once, whichever
    # image of its twin orbit it is
    by_half = [[] for _ in range(D // 2 + 1)]
    assert _enumerate_by_inequalities(G, D, [b.append for b in by_half]) is None
    assert sorted(n for b in by_half for n in b) == sorted(found)
    assert all(sum(_unpack(n, G.dimension)) // 2 == j for j, b in enumerate(by_half) for n in b)


def test_twin_classes_match_the_edge_list_oracle(all_fixture_graphs):
    rng = random.Random(17)
    graphs = [*all_fixture_graphs.values(), *METHOD_A_GRAPHS.values(),
              *oracles.random_non_bipartite_graphs(rng, 40)]
    for G in graphs:
        assert semigroup._twin_classes(G) == oracles.oracle_twin_classes(G), G.vertices
    assert semigroup._twin_classes(DIAMOND) == ((1, 2), (0, 3))
    assert semigroup._twin_classes(W4) == ((1, 3), (2, 4))
    assert semigroup._twin_classes(SCATTERED) == ((0, 4), (1, 6))


def test_method_a_walks_twins_first_and_two_columns_after_them():
    # the penultimate column closes the last one, so the last classes lose
    # members until two columns are left over, and a class of one goes
    for G, classes in [(build("triangle"), ()), (build("bowtie"), ((1, 2),)),
                       (K5, ((0, 1, 2),)), (DIAMOND, ((1, 2),)), (W4, ((1, 3),)),
                       (SCATTERED, ((0, 4), (1, 6))), (W7, ()),
                       (K12, (tuple(range(10)),)), (BOOK, ((0, 1), tuple(range(2, 10))))]:
        kept, order = semigroup._walk_order(G)
        assert kept == classes, G.vertices
        twinned = [i for c in classes for i in c]
        assert list(order) == twinned + sorted(set(range(G.dimension)) - set(twinned))


def test_a_large_twin_class_costs_its_orbits_not_its_permutations():
    # K12's class of 10 has 10! = 3,628,800 permutations, but a prefix of
    # values (2, 1, 1, 0, ..., 0) has 360 distinct images and the all-zero
    # prefix one: the walk builds only the images it strikes
    c = tuple(range(10))
    assert len(semigroup._moves(c, _pack([2, 1, 1] + [0] * 9))) == 359
    assert semigroup._moves(c, 0) == ()
    tracemalloc.start()
    try:
        found = _enumerate_by_inequalities(K12, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 1288
    assert peak < 2 * 2**20, peak


def test_a_wrong_twin_class_is_a_method_mismatch(monkeypatch):
    # method A trusts its classes, but method B does not read them: swapping
    # the hub and a spoke is no automorphism, so the images it strikes are
    # not the normalization's points
    G = build("t1min")
    monkeypatch.setattr(semigroup, "_twin_classes",
                        lambda G: ((G.index("w"), G.index("x2")),))
    with pytest.raises(MethodMismatchError):
        holes(G, 8)


def test_method_a_walks_fewer_frames_than_points(monkeypatch):
    # one prefix per twin orbit: every image of a leaf is struck, so a
    # frame of the walk stands for several points. Walking every prefix
    # made 135,278 frames for cact4a's 63,925 points at degree 10
    frames = []
    for name in ("_lane_walk", "_twin_walk"):
        def counted(*args, walk=getattr(semigroup, name)):
            frames.append(args[0])
            return walk(*args)

        monkeypatch.setattr(semigroup, name, counted)
    G = build("cact4a")
    assert semigroup._enumeration(G, 10)[0] == 63925
    assert 0 < len(frames) < 63925


def test_method_a_lattice_is_the_degree_parity(all_fixture_graphs):
    # method A tests a leaf against the edge lattice by its degree alone
    rng = random.Random(13)
    graphs = [*all_fixture_graphs.values(), K5, W7, PETERSEN,
              *oracles.random_non_bipartite_graphs(rng, 40)]
    for G in graphs:
        d = G.dimension
        L = semigroup.edge_lattice(G)
        assert L.congruences == ((tuple((j, 1) for j in range(d)), 2),), G.vertices
        for _ in range(100):
            x = tuple(rng.randint(-3, 3) for _ in range(d))
            assert L.contains(x) == oracles.oracle_lattice_member(G, x), (G.vertices, x)


@pytest.mark.parametrize("lattice", ["doubled generators", "every vector"])
def test_method_a_refuses_a_lattice_with_another_congruence(monkeypatch, lattice):
    G = build("t1min")
    d = G.dimension
    if lattice == "doubled generators":
        L = IntegerLattice(d, [[2 * a for a in g] for g in semigroup.generators(G)])
    else:
        L = IntegerLattice(d, [unit_vector(G, v) for v in G.vertices])
    monkeypatch.setattr(semigroup, "edge_lattice", lambda G: L)
    with pytest.raises(EdgeRingError, match="even-degree lattice"):
        _enumerate_by_inequalities(G, 4)


def test_method_a_at_the_top_of_the_lane_range(triangle):
    # D = 255, the largest packed degree: the triangle's cone is cut out by
    # the triangle inequalities (x = (p + r, p + q, q + r) with p, q, r >= 0)
    D = 255
    want = {
        _pack((a, b, c))
        for a in range(D + 1)
        for b in range(D + 1 - a)
        for c in range((a + b) & 1, D + 1 - a - b, 2)
        if a <= b + c and b <= a + c and c <= a + b
    }
    assert _enumerate_by_inequalities(triangle, D) == want


def test_lanes_hold_method_a_values_from_minus_255_to_510():
    values = [-255, 510, -1, 0, 255, 1]
    lanes = _lanes(values)
    for i, v in enumerate(values):
        lane = lanes >> LANE_BITS * i & ((1 << LANE_BITS) - 1)
        assert lane - (1 << LANE_BITS - 1) == v  # no carry into a neighbor
        assert bool(lanes & _sign_bits([i])) is (v >= 0)
    # stepping every lane at once, as the walk does, keeps them apart
    step = _lanes([1, -1, 1, -1, 255, -256]) - _lanes([0] * 6)
    assert lanes + step == _lanes([-254, 509, 0, -1, 510, -255])
    assert (lanes + step) & _sign_bits(range(6)) == _sign_bits([1, 2, 4])


def test_pair_of_a_triangle_and_a_pentagon():
    # an exceptional pair of degree 8: method B steps by four degree slabs
    G = build_from_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "m"), ("m", "p"),
                          ("p", "q"), ("q", "r"), ("r", "s"), ("s", "t"), ("t", "p")])
    (P,) = exceptional_pairs(G)
    assert holes(G, 8) == frozenset({pair_vector(G, P)}) == holes(G, 9)
    hole_set = holes(G, 10)
    assert len(hole_set) == 9
    for x in enumerate_normalization(G, 10):
        assert member(G, x) is (x not in hole_set), x


def test_truncation_monotone(t1min):
    s8 = enumerate_semigroup(t1min, 8)
    s10 = enumerate_semigroup(t1min, 10)
    assert s8 == frozenset(x for x in s10 if sum(x) <= 8)
    n8 = enumerate_normalization(t1min, 8)
    n10 = enumerate_normalization(t1min, 10)
    assert n8 == frozenset(x for x in n10 if sum(x) <= 8)
    assert holes(t1min, 8) == frozenset(x for x in n10 - s10 if sum(x) <= 8)


# ------------------------------------------------------------ holes


def test_negative_degree_enumerates_nothing(t1min):
    # both normalization methods agree on the empty set below degree 0
    assert enumerate_normalization(t1min, -1) == frozenset()
    assert enumerate_semigroup(t1min, -2) == frozenset()
    assert holes(t1min, -1) == frozenset()


def test_method_a_leaves_no_garbage():
    # a self-referencing walk would stay alive until the cycle collector ran
    G = load("t2min")
    _enumerate_by_inequalities(G, 2)  # fill the graph's caches first
    gc.collect()
    gc.disable()
    try:
        assert len(_enumerate_by_inequalities(G, 8)) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_holes_by_keyword_reads_the_same_record():
    G = build("t1min")
    found = holes(G, 10)
    entries = len(G._cache)
    assert holes(G, D=10) is found
    assert semigroup._enumeration(G, D=10) is semigroup._enumeration(G, 10)
    assert len(G._cache) == entries


def test_holes_empty_for_normal_fixtures(triangle, bowtie, friend3, cac3):
    for G in (triangle, bowtie, friend3, cac3):
        assert holes(G, 12) == frozenset()


def test_first_hole_of_t1min_is_the_pair_vector(t1min):
    from edgering import exceptional_pairs, pair_vector

    h6 = holes(t1min, 6)
    (P,) = exceptional_pairs(t1min)
    assert h6 == frozenset({pair_vector(t1min, P)})


def test_hole_report_rows(t1min):
    rows = hole_report(t1min, 8)
    assert len(rows) == 9
    degrees = [r[0] for r in rows]
    assert degrees == sorted(degrees)
    for degree, vector, in_cone, in_lattice, is_member in rows:
        assert degree == sum(vector)
        assert in_cone and in_lattice and not is_member


def test_packed_lanes_hold_coordinates_up_to_255():
    x = (255, 0, 1, 255)
    assert _pack(x) == 255 + (1 << 16) + (255 << 24)
    assert _unpack(_pack(x), 4) == x
    assert _unpack(_pack((0, 0, 0)), 3) == (0, 0, 0)
    for bad in ((256, 0), (0, 256), (0, -1)):
        with pytest.raises(EdgeRingError, match="0..255"):
            _pack(bad)


def test_degree_above_the_lane_limit_is_refused(triangle):
    for enumerate_ in (enumerate_semigroup, enumerate_normalization, holes):
        with pytest.raises(EdgeRingError, match="above 255"):
            enumerate_(triangle, 256)


def _method_a_editing(edit):
    # method A, except that each point n the walk finds reaches its sink as
    # the points edit(n): when the record strikes points off method B's
    # slabs and when a mismatch collects them
    method = semigroup._enumerate_by_inequalities

    def stand_in(G, D, sinks=None):
        found = []
        targets = [found.append] * (D // 2 + 1) if sinks is None else sinks

        def edited(sink):
            def hand_on(n):
                for m in edit(n):
                    sink(m)
            return hand_on

        method(G, D, [edited(sink) for sink in targets])
        return frozenset(found) if sinks is None else None

    return stand_in


@pytest.mark.parametrize("dropped_by", ["_enumerate_by_inequalities", "_enumerate_by_closure"])
def test_method_mismatch_reports_tuple_vectors(monkeypatch, dropped_by):
    # one method loses the degree-6 hole; the error names it as a vector
    q = pair_vector(load("t1min"), exceptional_pairs(load("t1min"))[0])
    if dropped_by == "_enumerate_by_inequalities":
        stand_in = _method_a_editing(lambda n: () if n == _pack(q) else (n,))
    else:
        # method B returns one set per degree, and may be handed S_D's
        # slabs: pass them through
        method = semigroup._enumerate_by_closure

        def stand_in(G, D, *slabs):
            return tuple(slab - {_pack(q)} for slab in method(G, D, *slabs))

    monkeypatch.setattr(semigroup, dropped_by, stand_in)
    with pytest.raises(MethodMismatchError) as err:
        enumerate_normalization(build("t1min"), 8)
    only_a, only_b = frozenset({q}), frozenset()
    if dropped_by == "_enumerate_by_inequalities":
        only_a, only_b = only_b, only_a
    assert err.value.only_first == only_a
    assert err.value.only_second == only_b
    assert err.value.found_twice is None

    monkeypatch.setattr(acceptance, "SMALL_FIXTURES", ("t1min",))
    passed, details = acceptance.criterion_cross_check(build)
    assert passed is False
    assert details == {"t1min": {"agree": False,
                                 "only_inequality_method": len(only_a),
                                 "only_closure_method": len(only_b),
                                 "found_twice": None}}


def test_method_mismatch_when_method_a_swaps_a_point_of_the_same_degree(monkeypatch):
    # the sizes still agree, so only the per-degree containment sees the swap
    G = build("t1min")
    q = pair_vector(G, exceptional_pairs(G)[0])
    stray = (6,) + (0,) * (G.dimension - 1)
    assert sum(stray) == sum(q) and not cone_contains(G, stray)
    monkeypatch.setattr(semigroup, "_enumerate_by_inequalities", _method_a_editing(
        lambda n: (_pack(stray),) if n == _pack(q) else (n,)))
    with pytest.raises(MethodMismatchError) as err:
        enumerate_normalization(G, 8)
    assert err.value.only_first == frozenset({stray})
    assert err.value.only_second == frozenset({q})
    assert err.value.found_twice is None


def test_method_mismatch_when_method_a_finds_a_point_twice(monkeypatch):
    # a set of method A's points hides the repeat; striking each point off
    # method B's slab of its degree does not
    G = build("t1min")
    N8 = enumerate_normalization(G, 8)
    q = pair_vector(G, exceptional_pairs(G)[0])
    p = _pack(q)
    monkeypatch.setattr(semigroup, "_enumerate_by_inequalities",
                        _method_a_editing(lambda n: (n,)))
    assert enumerate_normalization(build("t1min"), 8) == N8
    monkeypatch.setattr(semigroup, "_enumerate_by_inequalities",
                        _method_a_editing(lambda n: (n, n) if n == p else (n,)))
    with pytest.raises(MethodMismatchError) as err:
        enumerate_normalization(build("t1min"), 8)
    # as sets the two methods agree, so neither difference names a point,
    # but the error names the repeat
    assert err.value.only_first == err.value.only_second == frozenset()
    assert err.value.found_twice == q
    assert f"the inequality method found {q} twice" in str(err.value)


def test_cross_check_names_a_point_found_twice(monkeypatch):
    # the two differences are empty, so only `found_twice` tells a repeat
    # from an agreement in the criterion's entry
    q = pair_vector(load("t1min"), exceptional_pairs(load("t1min"))[0])
    monkeypatch.setattr(semigroup, "_enumerate_by_inequalities", _method_a_editing(
        lambda n: (n, n) if n == _pack(q) else (n,)))
    monkeypatch.setattr(acceptance, "SMALL_FIXTURES", ("t1min",))
    passed, details = acceptance.criterion_cross_check(build)
    assert passed is False
    assert details == {"t1min": {"agree": False,
                                 "only_inequality_method": 0,
                                 "only_closure_method": 0,
                                 "found_twice": list(q)}}


def test_the_record_builds_no_second_copy_of_the_normalization():
    # method A strikes its points off method B's slabs, so the record's heap
    # peak stays near that of building S_D's slabs alone; collecting A's
    # points into a set of their own made it 1.66 times as high
    def peak(fn):
        G = build("t2min")
        tracemalloc.start()
        try:
            fn(G, 10)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(semigroup._enumeration) <= 1.25 * peak(semigroup._semigroup_slabs)


def test_method_mismatch_error_payload():
    err = MethodMismatchError({(1, 0)}, {(0, 1)}, None)
    assert err.only_first == frozenset({(1, 0)})
    assert err.only_second == frozenset({(0, 1)})
    assert err.found_twice is None
    msg = str(err)
    assert "inequality" in msg and "closure" in msg and "twice" not in msg
