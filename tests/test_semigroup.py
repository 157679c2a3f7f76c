import gc
import itertools
import random

import numpy as np
import pytest

import oracles
from edgering import (
    EdgeRingError,
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
from edgering.semigroup import (
    _enumerate_by_inequalities,
    _pack,
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


def test_decompose_returns_the_first_witness_of_the_search(bowtie, t1min, t2min):
    # the memoized index walk finds the same witness as the plain search on
    # labels: least-index positive vertex first, neighbours in index order;
    # every semigroup point of degree <= 8 adds witnesses to check
    rng = random.Random(31)
    for G in (bowtie, t1min, t2min):
        vectors = [tuple(rng.randint(-1, 2) for _ in range(G.dimension))
                   for _ in range(400)]
        for x in [x for x in vectors if sum(x) <= 8] + sorted(enumerate_semigroup(G, 8)):
            want = oracles.oracle_first_witness(G, x)
            if want is not None:
                want = tuple(sorted(want, key=lambda e: (G.index(e[0]), G.index(e[1]))))
            assert decompose(G, x) == want, x


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


METHOD_A_GRAPHS = {"triangle": build("triangle"), "bowtie": build("bowtie"),
                   "K5": K5, "W7": W7, "Petersen": PETERSEN}


# every degree from 0 to 9, so the last column is walked at both parities
# of the degree left to it; degree 8 keeps the graph's bare id
_METHOD_A_CASES = [(name, D) for name in ("triangle", "bowtie", "K5", "W7") for D in range(10)]
_METHOD_A_CASES.append(("Petersen", 8))


@pytest.mark.parametrize("name, D", _METHOD_A_CASES,
                         ids=[name if D == 8 else f"{name}-{D}" for name, D in _METHOD_A_CASES])
def test_method_a_reconstructed_from_oracles(name, D):
    G = METHOD_A_GRAPHS[name]
    found = _enumerate_by_inequalities(G, D)
    assert frozenset(_unpack(n, G.dimension) for n in found) == (
        oracles.oracle_normalization(G, D))


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


@pytest.mark.parametrize("dropped_by", ["_enumerate_by_inequalities", "_enumerate_by_closure"])
def test_method_mismatch_reports_tuple_vectors(monkeypatch, dropped_by):
    # one method loses the degree-6 hole; the error names it as a vector
    q = pair_vector(load("t1min"), exceptional_pairs(load("t1min"))[0])
    method = getattr(semigroup, dropped_by)
    monkeypatch.setattr(semigroup, dropped_by,
                        lambda G, D: method(G, D) - {_pack(q)})
    with pytest.raises(MethodMismatchError) as err:
        enumerate_normalization(build("t1min"), 8)
    only_a, only_b = frozenset({q}), frozenset()
    if dropped_by == "_enumerate_by_inequalities":
        only_a, only_b = only_b, only_a
    assert err.value.only_first == only_a
    assert err.value.only_second == only_b

    monkeypatch.setattr(acceptance, "SMALL_FIXTURES", ("t1min",))
    passed, details = acceptance.criterion_cross_check(build)
    assert passed is False
    assert details == {"t1min": {"agree": False,
                                 "only_inequality_method": len(only_a),
                                 "only_closure_method": len(only_b)}}


def test_method_mismatch_error_payload():
    err = MethodMismatchError({(1, 0)}, {(0, 1)})
    assert err.only_first == frozenset({(1, 0)})
    assert err.only_second == frozenset({(0, 1)})
    msg = str(err)
    assert "inequality" in msg and "closure" in msg
