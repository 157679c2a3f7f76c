import itertools
import random

import pytest

import oracles
from edgering import (
    Cycle,
    NotAnEdgeError,
    NotDiameterFourCactusError,
    PreconditionViolatedError,
    build_triangular_cactus,
    cycle_vector,
    exceptional_families,
    exceptional_pairs,
    holes,
    is_exceptional,
    is_normal,
    lemma_double_w_edge,
    lemma_edge_augment,
    lemma_pair_sum,
    member,
    minimal_odd_cycles,
    pair_vector,
)
from edgering.exceptional import (
    double_w_edge_cases,
    edge_augment_cases,
    lemma_edge_augment_vector,
    lemma_pair_sum_vector,
    pair_sum_cases,
    require_diameter4_cactus,
)
from edgering.graph_core import (
    _cycle_table,
    build_from_edges,
    cycles_json,
    cycles_vertex_set,
    neighbors_of_set,
)
from edgering.semigroup import decompose


# ------------------------------------------------------------ pairs


def test_exceptional_pair_counts(all_fixture_graphs):
    expect = {
        "triangle": 0, "bowtie": 0, "friend3": 0, "cac3": 0,
        "t1min": 1, "t2min": 1, "cact4a": 3, "cact4b": 6,
    }
    for name, G in all_fixture_graphs.items():
        assert len(exceptional_pairs(G)) == expect[name], name


def test_is_exceptional_shared_vertex(bowtie):
    a, b = minimal_odd_cycles(bowtie)
    assert a.vertex_set & b.vertex_set == {"v1"}
    assert not is_exceptional(bowtie, a, b)


def test_is_exceptional_bridge(cac3):
    # both pendant triangles hang off adjacent spokes: the x1-x2 edge
    # bridges them
    cycles = {
        frozenset(c.vertex_set): c for c in minimal_odd_cycles(cac3)
    }
    c1 = cycles[frozenset({"x1", "y1_1", "y1_2"})]
    c2 = cycles[frozenset({"x2", "y2_1", "y2_2"})]
    assert not is_exceptional(cac3, c1, c2)
    assert is_normal(cac3)


def test_exceptional_pairs_match_the_label_oracle(all_fixture_graphs):
    # every ordered pair of minimal odd cycles, each cycle with itself too,
    # against label sets and the edge list; the library reads masks
    rng = random.Random(36)
    graphs = [*all_fixture_graphs.values(), oracles.K5, oracles.W7, oracles.PETERSEN,
              *oracles.random_non_bipartite_graphs(rng, 40)]
    exceptional = 0
    for G in graphs:
        cycles = minimal_odd_cycles(G)
        for a, b in itertools.product(cycles, repeat=2):
            assert is_exceptional(G, a, b) == oracles.oracle_is_exceptional(G, a, b), (
                G.vertices, a, b)
        want = [P for P in itertools.combinations(cycles, 2)
                if oracles.oracle_is_exceptional(G, *P)]
        assert list(exceptional_pairs(G)) == want, G.vertices
        exceptional += len(want)
        for c in cycles:
            assert neighbors_of_set(G, c.vertices) == oracles.oracle_neighbors_of_set(
                G, c.vertices)
    assert exceptional >= 11  # the four non-normal fixtures alone hold 11


def test_is_exceptional_on_hand_built_cycles(bowtie, cac3, t1min):
    # cycles built from labels: the table's own (canonical, minimal odd) and
    # others, a rotated triangle and a 5-cycle of K5 with its chords, whose
    # masks are computed from their labels
    k5_and_triangle = [*itertools.combinations("abcde", 2), ("e", "p"), ("p", "f"),
                       ("f", "g"), ("g", "h"), ("f", "h")]
    far, bridged = build_from_edges(k5_and_triangle), build_from_edges(
        k5_and_triangle + [("e", "f")])
    pentagon, triangle = Cycle(tuple("abcde")), Cycle(tuple("fgh"))
    cases = [
        (bowtie, Cycle(("v1", "v2", "v3")), Cycle(("v1", "v4", "v5")), False),  # share v1
        (cac3, Cycle(("x1", "y1_1", "y1_2")), Cycle(("x2", "y2_1", "y2_2")), False),  # x1-x2
        (t1min, Cycle(("x1", "y1_1", "y1_2")), Cycle(("x3", "y3_1", "y3_2")), True),
        (t1min, Cycle(("y1_2", "y1_1", "x1")), Cycle(("x3", "y3_1", "y3_2")), True),
        (far, pentagon, triangle, True),
        (bridged, pentagon, triangle, False),  # the edge e-f
    ]
    for G, a, b, want in cases:
        for x, y in ((a, b), (b, a)):
            assert is_exceptional(G, x, y) is want, (x, y)
            assert oracles.oracle_is_exceptional(G, x, y) is want
    assert Cycle(("x1", "y1_1", "y1_2")) in _cycle_table(t1min)
    assert Cycle(("y1_2", "y1_1", "x1")) not in _cycle_table(t1min)
    assert pentagon not in _cycle_table(far)


def test_is_exceptional_positive(t1min):
    (P,) = exceptional_pairs(t1min)
    a, b = P
    assert is_exceptional(t1min, a, b)
    assert cycles_vertex_set(P) == frozenset(
        {"x1", "y1_1", "y1_2", "x3", "y3_1", "y3_2"}
    )


def test_pair_canonical_order(t1min):
    (P,) = exceptional_pairs(t1min)
    assert cycles_json(P) == [["x1", "y1_1", "y1_2"], ["x3", "y3_1", "y3_2"]]


def test_vectors(t1min):
    (P,) = exceptional_pairs(t1min)
    a, _ = P
    va = cycle_vector(t1min, a)
    assert sum(va) == 3
    assert va[t1min.index("x1")] == 1
    q = pair_vector(t1min, P)
    assert q == (0, 1, 0, 1, 0, 1, 1, 1, 1)


def test_normality_equals_empty_holes(all_fixture_graphs):
    for name, G in all_fixture_graphs.items():
        if name in ("cact4a", "cact4b"):
            continue  # degree-12 enumeration at d >= 15 is out of test budget
        assert is_normal(G) == (holes(G, 12) == frozenset()), name


def test_class_gate(friend3, triangle):
    for G in (friend3, triangle):
        with pytest.raises(NotDiameterFourCactusError):
            require_diameter4_cactus(G)


# ------------------------------------------------------------ lemma: pair sum


def test_pair_sum_with_itself_is_member(t1min):
    (P,) = exceptional_pairs(t1min)
    assert lemma_pair_sum(t1min, P, P) is True
    v = lemma_pair_sum_vector(t1min, P, P)
    assert v == tuple(2 * a for a in pair_vector(t1min, P))
    assert member(t1min, v) is True


def test_pair_sum_shared_cycle_not_member(cact4a):
    pairs = exceptional_pairs(cact4a)
    p0, p1 = pairs[0], pairs[1]  # both contain the x1 pendant cycle
    assert lemma_pair_sum(cact4a, p0, p1) is False
    assert member(cact4a, lemma_pair_sum_vector(cact4a, p0, p1)) is False


def test_pair_sum_bridged_rematch_is_member():
    # all four spokes carry pendant triangles: re-matching the two pairs
    # produces bridged (non-exceptional) pairings on both sides
    G = build_triangular_cactus(triangles=2, pendants=(1, 1, 1, 1))
    cycles = {min(c.vertex_set): c for c in minimal_odd_cycles(G)}
    P = (cycles["x1"], cycles["x3"])
    Q = (cycles["x2"], cycles["x4"])
    assert lemma_pair_sum(G, P, Q) is True
    assert member(G, lemma_pair_sum_vector(G, P, Q)) is True


def test_pair_sum_requires_exceptional_inputs(t1min, cac3):
    hub_tri = next(
        c for c in minimal_odd_cycles(t1min) if "w" in c.vertex_set
    )
    pend_tri = next(
        c for c in minimal_odd_cycles(t1min) if c.vertex_set & {"x1"} and "w" not in c.vertex_set
    )
    bad = (hub_tri, pend_tri)  # cycles share x1 or are bridged
    with pytest.raises(PreconditionViolatedError):
        lemma_pair_sum(t1min, bad, bad)
    # and the class gate itself rejects graphs outside diameter 4
    good_cycles = minimal_odd_cycles(cac3)
    with pytest.raises(NotDiameterFourCactusError):
        lemma_pair_sum(
            cac3,
            (good_cycles[0], good_cycles[1]),
            (good_cycles[0], good_cycles[1]),
        )


def test_lemmas_refuse_anything_but_two_minimal_odd_cycles(cact4a):
    # a pair is a 2-tuple of cycles: three cycles, or two things that are
    # not cycles, are refused as a precondition, not by unpacking
    P = exceptional_pairs(cact4a)[0]
    (three,) = [f for f in exceptional_families(cact4a) if len(f) == 3]
    for bad in (three, ("x1", "x3"), tuple(c.vertices for c in P)):
        with pytest.raises(PreconditionViolatedError, match="two minimal odd cycles"):
            lemma_pair_sum(cact4a, bad, P)
        with pytest.raises(PreconditionViolatedError, match="two minimal odd cycles"):
            lemma_edge_augment(cact4a, bad, ("w", "x1"))
        with pytest.raises(PreconditionViolatedError, match="two minimal odd cycles"):
            lemma_double_w_edge(cact4a, bad, "x7", "x8")


# ------------------------------------------------------------ lemma: edge add


def test_edge_augment_frozen_cases(t1min):
    (P,) = exceptional_pairs(t1min)
    assert lemma_edge_augment(t1min, P, ("w", "x2")) is True
    assert lemma_edge_augment(t1min, P, ("w", "x4")) is True
    assert lemma_edge_augment(t1min, P, ("x1", "x2")) is False
    assert lemma_edge_augment(t1min, P, ("y1_1", "y1_2")) is False
    with pytest.raises(NotAnEdgeError):
        lemma_edge_augment(t1min, P, ("x1", "x3"))


def test_edge_augment_witness(t1min):
    (P,) = exceptional_pairs(t1min)
    v = lemma_edge_augment_vector(t1min, P, ("w", "x2"))
    witness = decompose(t1min, v)
    assert witness is not None and len(witness) == 4


# ------------------------------------------------------------ lemma: two hub edges


def test_double_w_edge_frozen_cases(t2min):
    (P,) = exceptional_pairs(t2min)
    assert lemma_double_w_edge(t2min, P, "x5", "x6") is True
    assert lemma_double_w_edge(t2min, P, "x5", "x5") is False


def test_double_w_edge_nonadjacent_spokes_false():
    G = build_triangular_cactus(
        triangles=4, pendants=(1, 0, 1, 0, 0, 0, 0, 0)
    )
    pairs = exceptional_pairs(G)
    (P,) = pairs
    assert lemma_double_w_edge(G, P, "x5", "x7") is False


def test_double_w_edge_preconditions(t1min, t2min):
    (P1,) = exceptional_pairs(t1min)
    with pytest.raises(PreconditionViolatedError):
        lemma_double_w_edge(t1min, P1, "x2", "x4")  # x2 neighbors the cycle
    (P2,) = exceptional_pairs(t2min)
    with pytest.raises(PreconditionViolatedError):
        lemma_double_w_edge(t2min, P2, "y1_1", "x5")  # y1_1 not hub-adjacent


# ------------------------------------------------------------ case sweeps


@pytest.mark.parametrize("pendants, counts, members", [
    ((1, 0, 1, 0, 1, 0, 1, 0), (21, 144, 60), (6, 24, 12)),
    ((1, 0, 1, 0, 1, 0, 1, 0, 0, 0), (21, 162, 126), (6, 24, 18)),
    ((1, 0, 1, 0, 1, 0, 1, 0, 1, 0), (55, 300, 210), (10, 40, 30)),
], ids=["d17", "d19", "d21"])
def test_lemma_cases_agree_with_the_oracle_at_query_scale(pendants, counts, members):
    # every case of the three lemmas on the cacti of the point-query
    # benchmark, run to exhaustion: the closed form agrees with the oracle
    G = build_triangular_cactus(triangles=len(pendants) // 2, pendants=pendants)
    for cases, count, positive in zip(
            (pair_sum_cases, edge_augment_cases, double_w_edge_cases), counts, members):
        reports = list(cases(G))
        assert len(reports) == count, cases.__name__
        assert all(r["agree"] for r in reports), cases.__name__
        assert sum(r["oracle"] for r in reports) == positive, cases.__name__


def test_case_generators_shapes(t1min, t2min):
    assert len(list(pair_sum_cases(t1min))) == 1
    assert len(list(edge_augment_cases(t1min))) == 12  # 1 pair x 12 edges
    assert len(list(double_w_edge_cases(t1min))) == 0  # no admissible spokes
    assert len(list(double_w_edge_cases(t2min))) == 3  # {x5,x6} with repeats


def test_case_reports_carry_witnesses(t2min):
    for case in double_w_edge_cases(t2min):
        assert case["agree"]
        if case["oracle"]:
            assert case["witness"] is not None
        else:
            assert case["witness"] is None
