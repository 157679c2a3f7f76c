import dataclasses
import gc
import itertools
import json
import tracemalloc
import weakref
from pathlib import Path

import pytest

import oracles
from edgering import (
    CactusSpec,
    DecompositionMismatchError,
    DisconnectedError,
    EdgeRingError,
    EmptySetError,
    Graph,
    NotDiameterFourCactusError,
    PreconditionViolatedError,
    acceptance,
    admissible_facets,
    build_from_edges,
    build_triangular_cactus,
    classify,
    cone_contains,
    default_truncation,
    enumerate_normalization,
    enumerate_semigroup,
    exceptional_families,
    exceptional_pairs,
    face_of,
    fundamental_sets,
    hole_decomposition,
    hole_families,
    holes,
    lattice_member,
    member,
    q_vector,
    regular_vertices,
    s2_verdict,
    semigroup,
    supporting_hyperplanes,
    verify_decomposition,
)
from edgering.cli import main
from edgering.fixtures import build, load
from edgering.graph_core import Cycle, bits, cycles_vertex_set
from edgering.io import format_graph_text

GOLDEN = Path(__file__).parent / "golden"


# ------------------------------------------------------------ classify


def test_classify_frozen(t1min, t2min, friend3, bowtie):
    c1 = classify(t1min)
    assert c1.tag == "Type1" and c1.hub == "w" and c1.triangles == 2
    assert c1.zeta_vertices == frozenset({"x2", "x4"})
    assert c1.omega_pairs == ()
    c2 = classify(t2min)
    assert c2.tag == "Type2" and c2.hub == "w" and c2.triangles == 3
    assert c2.zeta_vertices == frozenset({"x2", "x4", "x5", "x6"})
    assert c2.omega_pairs == (("x5", "x6"),)
    assert classify(friend3).tag == "NotDiameter4Cactus"
    assert classify(bowtie).tag == "NotDiameter4Cactus"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classify_sweep_laws(n):
    """Over every 0/1 pendant pattern of diameter 4: the type tag, the
    hub-regularity route, the adjacent-degree-2-spoke route, and the size
    bounds must all agree."""
    for pattern in itertools.product((0, 1), repeat=2 * n):
        spec = CactusSpec(n, pattern)
        if oracles.expected_diameter(spec) != 4:
            continue
        G = spec.build()
        ct = classify(G)
        assert ct.hub == "w" and ct.triangles == n
        hub_regular = "w" in set(regular_vertices(G))
        assert (ct.tag == "Type1") == hub_regular
        assert (ct.tag == "Type1") == (ct.omega_count == 0)
        l = len(ct.zeta_vertices)
        if ct.tag == "Type1":
            assert 0 <= l <= n
        else:
            # diameter 4 forces pendant spokes in two distinct triangles,
            # so at least two spokes are not degree-2
            assert 2 <= l <= 2 * (n - 1)


# ------------------------------------------------------------ families


def test_exceptional_families_frozen(t1min, t2min, cact4a, cact4b, d13):
    # a cycle set is a plain tuple of cycles; the two-cycle sets are the pairs
    f1 = exceptional_families(t1min)
    assert f1 == exceptional_pairs(t1min) and [len(f) for f in f1] == [2]
    assert len(exceptional_families(t2min)) == 1
    # cact4a has three pendant triangles on distinct hub triangles, cact4b four
    assert [len(f) for f in exceptional_families(cact4a)] == [2, 2, 2, 3]
    f4b = exceptional_families(cact4b)
    assert [len(f) for f in f4b] == [2] * 6 + [3] * 4 + [4]
    assert all(type(f) is tuple and all(type(c) is Cycle for c in f) for f in f4b)
    assert [len(f) for f in exceptional_families(d13)] == [2, 2, 2, 3]


def test_exceptional_families_cross_invariant(cact4b):
    from edgering import is_exceptional

    for fam in exceptional_families(cact4b):
        for a, b in itertools.combinations(fam, 2):
            assert is_exceptional(cact4b, a, b)
        assert "w" not in cycles_vertex_set(fam)


def test_exceptional_families_shared_spoke_exclusion():
    G = build_triangular_cactus(
        triangles=4, pendants=(1, 1, 1, 0, 0, 0, 0, 0)
    )
    pairs = exceptional_pairs(G)
    assert len(pairs) == 2  # the two bridged pendant cycles pair only
    # with the third, so no set of three exists
    assert [len(f) for f in exceptional_families(G)] == [2, 2]


def test_cycle_sets_fit_in_the_hub_triangles(all_fixture_graphs, d13):
    # pairwise-exceptional cycles lie on distinct hub triangles
    for G in [*all_fixture_graphs.values(), d13]:
        ct = classify(G)
        if ct.tag == "NotDiameter4Cactus":
            continue
        assert all(len(f) <= ct.triangles for f in exceptional_families(G))


def test_gate(friend3):
    # the lemmas' diameter-4 gate: it asks for a connected graph first, and
    # only then for the cactus class
    two_triangles = build_from_edges([("a", "b"), ("b", "c"), ("c", "a"),
                                      ("d", "e"), ("e", "f"), ("f", "d")])
    for build_families in (exceptional_families, hole_decomposition):
        with pytest.raises(DisconnectedError):
            build_families(two_triangles)
        with pytest.raises(NotDiameterFourCactusError):
            build_families(friend3)


# ------------------------------------------------------------ q vectors


def test_q_vector_values(t1min, cact4b):
    (fam,) = exceptional_families(t1min)
    q = q_vector(t1min, fam)
    assert sum(q) == 6
    assert member(t1min, q) is False
    for k, degree in ((3, 10), (4, 12)):
        big = [f for f in exceptional_families(cact4b) if len(f) == k][0]
        q = q_vector(cact4b, big)
        assert sum(q) == degree
        assert q[cact4b.index("w")] == k % 2
        assert member(cact4b, q) is False


def test_q_vector_empty_family_rejected(t1min):
    with pytest.raises(EmptySetError):
        q_vector(t1min, ())


def test_q_vector_one_cycle_rejected(t1min):
    # one pendant triangle is no family: its indicator plus e_w would
    # otherwise pass for a shift
    (pair,) = exceptional_families(t1min)
    for cycle in pair:
        with pytest.raises(PreconditionViolatedError,
                           match="at least two exceptional cycles"):
            q_vector(t1min, (cycle,))


# ------------------------------------------------------------ admissible facets


def test_admissible_sets_frozen(t1min, t2min):
    # Type 1: the hub facet x_w >= 0 alone; Type 2: two fundamental sets
    (f1,) = exceptional_families(t1min)
    (hub_facet,) = admissible_facets(t1min, f1)
    assert hub_facet.kind == "regular" and hub_facet.vertex == "w"
    (f2,) = exceptional_families(t2min)
    got = [sorted(oracles.labels(t2min, h.minus)) for h in admissible_facets(t2min, f2)]
    assert got == [["x5"], ["x6"]]


def test_admissible_sets_definition(t1min, t2min, cact4a, cact4b):
    # the fundamental sets T with the hub in N(T) and N[T] clear of the
    # cycles, in fundamental_sets order, then the hub facet exactly on Type 1
    for G in (t1min, t2min, cact4a, cact4b):
        ct = classify(G)
        hub_facets = [h for h in supporting_hyperplanes(G) if h.vertex == ct.hub]
        assert len(hub_facets) == (ct.tag == "Type1")
        for fam in exceptional_families(G):
            fundamental = [h for h in fundamental_sets(G)
                           if ct.hub in oracles.labels(G, h.plus)
                           and not oracles.labels(G, h.minus | h.plus) & cycles_vertex_set(fam)]
            assert list(admissible_facets(G, fam)) == fundamental + hub_facets


def test_admissibility_hereditary(cact4b):
    # a facet admissible for a cycle set is admissible for each pair in it
    singles = {
        fam: set(admissible_facets(cact4b, fam))
        for fam in exceptional_families(cact4b)
        if len(fam) == 2
    }
    larger = [f for f in exceptional_families(cact4b) if len(f) > 2]
    assert larger
    for fam in larger:
        for h in admissible_facets(cact4b, fam):
            for pair in itertools.combinations(fam, 2):
                assert h in singles[pair]


def test_family_facets_are_the_supporting_hyperplanes(t1min, t2min, cact4b):
    # a family's facet is one of the graph's hyperplane objects, no copy:
    # a cycle set's families hold the very hyperplanes admissible_facets
    # returns for it, in its order, and each face is face_of's lattice
    for G in (t1min, t2min, cact4b):
        hyps = supporting_hyperplanes(G)
        families = hole_decomposition(G)
        for fam in exceptional_families(G):
            facets = [hf.facet for hf in families if hf.cycles is fam]
            assert len(facets) == len(admissible_facets(G, fam))
            assert all(f is h for f, h in zip(facets, admissible_facets(G, fam)))
        for hf in families:
            assert any(hf.facet is h for h in hyps)
            assert hf.face is face_of(G, hf.facet)
            assert hf.dimension == hf.face.rank


# ------------------------------------------------------------ decomposition


def test_hole_decomposition_t1min(t1min):
    fams = hole_decomposition(t1min)
    assert len(fams) == 1
    (hf,) = fams
    assert hf.source == "hub"
    assert hf.facet.kind == "regular" and hf.facet.vertex == "w"
    assert hf.dimension == 8
    q = hf.shift
    assert q in hf.points(t1min, 8)
    assert hf.points(t1min, 8)


def test_hole_decomposition_t2min(t2min):
    fams = hole_decomposition(t2min)
    assert len(fams) == 2
    assert all(hf.source == "fundamental" for hf in fams)
    # each facet's set T, read from its -1 mask, is one zeta spoke
    names = sorted(t2min.vertices[i] for hf in fams for i in bits(hf.facet.minus))
    assert names == ["x5", "x6"]
    assert all(hf.dimension == 10 for hf in fams)


def test_shift_invariants(t1min, t2min):
    for G in (t1min, t2min):
        for hf in hole_decomposition(G):
            q = hf.shift
            assert lattice_member(G, q)
            assert cone_contains(G, q)
            assert member(G, q) is False


def test_family_points_are_holes(t1min, t2min):
    for G in (t1min, t2min):
        hole_set = holes(G, 10)
        for hf in hole_decomposition(G):
            pts = hf.points(G, 10)
            assert pts <= hole_set
            assert hf.points(G, 8) == frozenset(
                x for x in pts if sum(x) <= 8
            )


@pytest.mark.parametrize("name, D", [("d13", 10), ("d13", 12), ("cact4a", 10),
                                     ("cact4b", 10)])
def test_verify_decomposition_covers_odd_cycle_sets(request, name, D):
    # before the odd sets, P_i + P_j + P_k + e_w went uncovered on these
    G = request.getfixturevalue(name)
    report = verify_decomposition(G, D)
    assert report["passed"]
    assert set(report["family_dimensions"]) == {G.dimension - 1}


def test_odd_family_covers_the_missed_hole(d13):
    # P_1 + P_3 + P_5 + e_w: the three pendant triangles plus the hub, in
    # the vertex order w, x1..x6, y1_1, y1_2, y3_1, y3_2, y5_1, y5_2
    v = (1, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1)
    assert d13.vertices[0] == "w" and v in holes(d13, 10)
    odd = [hf for hf in hole_decomposition(d13) if len(hf.cycles) % 2]
    assert any(v in hf.points(d13, 10) for hf in odd)


def test_no_two_families_share_shift_and_facet(all_fixture_graphs, d13):
    for G in [*all_fixture_graphs.values(), d13]:
        if classify(G).tag == "NotDiameter4Cactus":
            continue
        families = hole_decomposition(G)
        assert len({(hf.shift, hf.facet) for hf in families}) == len(families)
        # the hub's own facet x_w >= 0 exists exactly on Type 1
        for hf in families:
            assert hf.source == ("hub" if hf.facet.kind == "regular" else "fundamental")
        hub_sourced = any(hf.source == "hub" for hf in families)
        assert hub_sourced == (classify(G).tag == "Type1")


def test_verify_decomposition_degree_zero_vacuous(t1min):
    report = verify_decomposition(t1min, 0)
    assert report["passed"]
    assert report["hole_total"] == 0
    assert report["family_point_total"] == 0


def test_verify_decomposition_report_shape(t2min):
    report = verify_decomposition(t2min, 8)
    assert report["passed"]
    assert report["type"]["tag"] == "Type2"
    assert report["family_dimensions"] == [10, 10]
    assert report["holes_not_covered"] == []
    assert report["family_points_not_holes"] == []
    assert report["hole_count_by_degree"] == {"6": 1, "8": 11}
    json.dumps(report)  # serializable


def test_decomposition_mismatch_error_payload():
    report = {
        "holes_not_covered": [[0, 1]],
        "family_points_not_holes": [],
        "passed": False,
    }
    err = DecompositionMismatchError(report)
    assert err.report is report
    assert "1" in str(err)


# ------------------------------------------------------------ verdicts


def test_s2_verdict_flagship(t1min, t2min):
    for G, tag in ((t1min, "Type1"), (t2min, "Type2")):
        v = s2_verdict(G, 12)
        assert v["normal"] is False and v["s2"] is True
        ev = v["evidence"]
        assert ev["route"] == tag
        assert ev["ladder"] == [6, 8, 10, 12]
        assert ev["ladder_consistent"] is True
        assert ev["all_families_full_dimension"] is True
        assert all(ev["verified_at"].values())
        assert ev["family_dimensions"] == [G.dimension - 1] * len(
            ev["families"]
        )


def test_s2_verdict_normal_route(friend3, bowtie):
    for G in (friend3, bowtie):
        v = s2_verdict(G, 8)
        assert v == {
            "normal": True,
            "s2": True,
            "evidence": {
                "route": "normal",
                "degree": 8,
                "type": classify(G).as_json(),
                "hole_count": 0,
            },
        }


def test_s2_verdict_normal_route_with_holes_is_inconclusive(t1min, monkeypatch,
                                                            tmp_path, capsys):
    # the normal route checks its holes: a normality verdict on a graph with
    # holes must not become a confident s2 = True
    monkeypatch.setattr(hole_families, "is_normal", lambda G: True)
    v = s2_verdict(t1min, 8)
    assert v["normal"] is True and v["s2"] is None
    assert v["evidence"]["route"] == "normal"
    assert v["evidence"]["hole_count"] == 9
    assert "9 holes up to degree 8" in v["evidence"]["reason"]

    graph = tmp_path / "t1min.graph"
    graph.write_text(format_graph_text(t1min))
    assert main(["analyze", str(graph), "--degree", "8"]) == 0
    assert "verdict: normal=true s2=inconclusive" in capsys.readouterr().out


@pytest.mark.parametrize("D", [0, 2, 4, 5])
def test_s2_verdict_below_every_shift_is_inconclusive(t1min, D):
    # t1min's one family has shift degree 6: below it there is no hole and
    # no family point, so a passing check compared nothing
    v = s2_verdict(t1min, D)
    assert v["normal"] is False and v["s2"] is None
    ev = v["evidence"]
    assert all(ev["verified_at"].values()) and ev["hole_count_by_degree"] == {}
    assert ev["reason"] == (f"no hole family has a shift of degree at most {D}, "
                            "so no hole was compared")
    at_shift = s2_verdict(t1min, 6)
    assert at_shift["s2"] is True and "reason" not in at_shift["evidence"]


def test_s2_verdict_unsupported_route():
    # two triangles joined by a 2-path: an exceptional pair exists (not
    # normal) but the graph is no triangular cactus, so no decomposition
    G = build_from_edges(
        [
            ("a1", "a2"), ("a2", "a3"), ("a3", "a1"),
            ("b1", "b2"), ("b2", "b3"), ("b3", "b1"),
            ("a1", "m"), ("m", "b1"),
        ]
    )
    v = s2_verdict(G, 6)
    assert v["normal"] is False
    assert v["s2"] is None
    assert v["evidence"]["route"] == "unsupported"


def test_default_truncation(t1min, t2min, cact4b, bowtie, monkeypatch):
    assert default_truncation(t1min) == 8
    assert default_truncation(t2min) == 8
    assert default_truncation(cact4b) == 10
    assert default_truncation(bowtie) == 8
    monkeypatch.setenv("EDGERING_MAX_DEGREE", "6")
    assert default_truncation(cact4b) == 6
    assert default_truncation(t1min) == 6


@pytest.mark.parametrize("raw", ["abc", "-4", "1.5", "", "256"])
def test_default_truncation_rejects_bad_env(t1min, monkeypatch, raw):
    monkeypatch.setenv("EDGERING_MAX_DEGREE", raw)
    with pytest.raises(EdgeRingError, match="EDGERING_MAX_DEGREE"):
        default_truncation(t1min)


def test_hole_decomposition_built_once(t1min):
    families = hole_decomposition(t1min)
    assert hole_decomposition(t1min) is families
    assert hole_decomposition(t1min, 8) is families
    verify_decomposition(t1min, 8)
    assert hole_decomposition(t1min) is families


def test_verdict_runs_no_membership_search(monkeypatch):
    def fail(*args):
        raise AssertionError("the verdict ran the membership search")

    monkeypatch.setattr(semigroup, "_decompose", fail)
    assert s2_verdict(load("t1min"), 8)["s2"] is True


def test_no_enumeration_intermediate_outlives_a_verdict():
    # the cache keeps |N_D| and the holes at the top rung, not N_D or S_D:
    # clearing it after a degree-12 ladder frees little (the slabs alone are
    # MBs)
    G = load("t1min")  # a fresh instance, its cache empty
    tracemalloc.start()
    try:
        assert s2_verdict(G, 12)["s2"] is True
        held = tracemalloc.get_traced_memory()[0]
        G._cache.clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed < 0.5 * 2**20


@pytest.mark.parametrize("name", ["t1min", "t2min", "cact4a"])
def test_the_ladder_enumerates_once(monkeypatch, name):
    # the top rung is enumerated and every lower rung is its slice
    calls = []
    method = semigroup._enumerate_by_inequalities

    def counted(G, D, *rest):
        calls.append(D)
        return method(G, D, *rest)

    monkeypatch.setattr(semigroup, "_enumerate_by_inequalities", counted)
    verdict = s2_verdict(build(name), 12)
    assert verdict["evidence"]["ladder"] == [6, 8, 10, 12]
    assert verdict["s2"] is True
    assert calls == [12]


_LADDERS = [(name, top) for name, (_, _, top) in acceptance.MAIN_THEOREM_FIXTURES.items()]
_LADDERS += [("t1min", 9), ("d13", 9)]


@pytest.mark.parametrize("name, top", _LADDERS, ids=[f"{n}-{D}" for n, D in _LADDERS])
def test_ladder_rungs_equal_their_own_enumerations(name, top):
    # the verdict's premise: a rung's holes and family points are the top's
    # of degree at most that rung, as a separate copy of the graph
    # enumerated at that rung alone gives them; and each enumeration's |N_D|
    # is the size of the normalization it enumerated
    G = _built(name)
    verdict = s2_verdict(G, top)
    assert verdict["s2"] is True
    ladder = verdict["evidence"]["ladder"]
    assert ladder == [D for D in (6, 8, 10, 12) if D < top] + [top]
    for Dk in ladder:
        alone = _built(name)
        assert _slice(holes(G, top), Dk) == holes(alone, Dk)
        assert ([_slice(hf.points(G, top), Dk) for hf in hole_decomposition(G)]
                == [hf.points(alone, Dk) for hf in hole_decomposition(alone)])
        assert semigroup._enumeration(alone, Dk)[0] == len(enumerate_normalization(alone, Dk))


def _slice(points, D):
    return frozenset(x for x in points if sum(x) <= D)


def test_a_verdict_builds_one_report(monkeypatch):
    # every rung is a slice of the top report, so a fresh graph's verdict
    # fills one family-points map and one enumeration, both at the top, and
    # writes each of d13's 13 families once
    G = _built("d13")
    degrees = []
    as_json = hole_families.HoleFamily.as_json

    def counted(self, G, D=None):
        degrees.append(D)
        return as_json(self, G, D)

    monkeypatch.setattr(hole_families.HoleFamily, "as_json", counted)
    assert s2_verdict(G, 12)["s2"] is True
    assert degrees == [12] * 13
    held = sorted((key[0].__name__, key[1:]) for key in G._cache
                  if key[0].__name__ in ("_family_points", "_enumeration"))
    assert held == [("_enumeration", (12,)), ("_family_points", (12,))]


def test_a_failed_ladder_raises_its_lowest_failing_rung(monkeypatch):
    # without d13's odd-set family (shift degree 10) one hole of degree 10
    # is uncovered, and 13 up to degree 12: the verdict at 12 must raise the
    # degree-10 report, the one verify_decomposition raises at that rung.
    # Reports are cached on the graph, so the rung is built on a fresh copy
    # that has never seen the verdict
    G, fresh = _built("d13"), _built("d13")
    kept = {}
    for H in (G, fresh):
        families = hole_decomposition(H)
        assert len(families[12].cycles) == 3 and sum(families[12].shift) == 10
        kept[id(H)] = families[:12] + families[13:]
    monkeypatch.setattr(hole_families, "_families", lambda H: kept[id(H)])
    with pytest.raises(DecompositionMismatchError) as verdict:
        s2_verdict(G, 12)
    report = verdict.value.report
    assert report["degree"] == 10 and report["family_points_not_holes"] == []
    assert report["holes_not_covered"] == [[1, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1]]
    with pytest.raises(DecompositionMismatchError) as rung:
        verify_decomposition(fresh, 10)
    assert rung.value.report is not report
    assert rung.value.report == report
    with pytest.raises(DecompositionMismatchError) as top:
        verify_decomposition(G, 12)
    assert len(top.value.report["holes_not_covered"]) == 13


def _built(name):
    if name == "d13":
        return build_triangular_cactus(triangles=3, pendants=(1, 0, 1, 0, 1, 0))
    return build(name)


def test_results_are_freed_with_the_graph(t1min):
    tag = "_freed_with_graph"
    G = Graph([f"{v}{tag}" for v in t1min.vertices],
              [(f"{a}{tag}", f"{b}{tag}") for a, b in t1min.edges])
    assert s2_verdict(G, 8)["s2"] is True
    ref = weakref.ref(G)
    del G
    assert ref() is None  # no reference cycle: freed without the collector
    gc.collect()
    assert not [
        obj for obj in gc.get_objects()
        if isinstance(obj, Graph) and any(str(v).endswith(tag) for v in obj.vertices)
    ]


def test_family_points_are_cached_on_the_graph(t1min):
    (hf,) = hole_decomposition(t1min)
    pts = hf.points(t1min, 8)
    assert hf.points(t1min, 8) is pts
    # d13, built fresh so no other test has filled its cache: 13 families.
    # One map per degree holds every family's points
    G = build_triangular_cactus(triangles=3, pendants=(1, 0, 1, 0, 1, 0))
    assert s2_verdict(G, 8)["s2"] is True
    families = hole_decomposition(G)
    for D in (6, 8):
        by_family = hole_families._family_points(G, D)
        assert set(by_family) == set(families)
        assert all(hf.points(G, D) is by_family[hf] for hf in families)
    cached = [key[0].__name__ for key in G._cache]
    assert cached.count("_family_points") == 2


# cact4a (d = 15, 26 families) stands for the 4-triangle class, at the one
# degree the oracle's scan of N_D fits a Tier-1 budget
_SCAN_CASES = [(name, D) for D in (6, 8, 10) for name in ("t1min", "t2min", "d13")]
_SCAN_CASES.append(("cact4a", 8))


@pytest.mark.parametrize("name, D", _SCAN_CASES,
                         ids=[f"{D}-{name}" for name, D in _SCAN_CASES])
def test_family_points_match_the_full_scan(request, name, D):
    # points are read from the holes behind each family's certificate; the
    # oracle scans all of N_D with `contains`. d13 has an odd cycle set,
    # whose shift has degree 10
    G = request.getfixturevalue(name)
    families = hole_decomposition(G)
    assert families
    # one enumeration of N_D serves every family's scan
    N = enumerate_normalization(G, D)
    for hf in families:
        assert hf.points(G, D) == oracles.oracle_family_points(hf, N)


@pytest.mark.parametrize("name, classes", [("t1min", 1), ("t2min", 2), ("d13", 13),
                                           ("cact4a", 26)])
def test_certified_classes_cover_the_holes_and_are_the_families(request, name, classes):
    # the recipe-free coverage oracle at D = 10: every hole lies in a class
    # whose certificate holds, and the classes are the families with shift
    # degree <= D, one to one. A family is its class when the facets agree
    # and its shift lies in the class's coset of the face lattice
    G, D = request.getfixturevalue(name), 10
    hole_set = holes(G, D)
    found = oracles.certified_classes(G, hole_set)
    assert set().union(*found.values()) == hole_set
    families = [hf for hf in hole_decomposition(G) if sum(hf.shift) <= D]
    matches = [[(H, r) for H, r in found if H == hf.facet
                and hf.face.contains([a - b for a, b in zip(hf.shift, r)])]
               for hf in families]
    assert [len(m) for m in matches] == [1] * len(families)
    assert {m[0] for m in matches} == set(found)
    assert len(found) == len(families) == classes


@pytest.mark.parametrize("name", ["t1min", "t2min", "d13", "cact4a"])
def test_family_points_match_the_definitional_filter(request, name):
    # the library reads a hole's heights off one lane sum; the oracle
    # evaluates the facet on the hole and tests x - shift in an echelon
    # lattice of the face's edges
    G = request.getfixturevalue(name)
    hole_set = holes(G, 10)
    for hf in hole_decomposition(G):
        assert hf.points(G, 10) == oracles.oracle_family_filter(G, hf, hole_set)


@pytest.mark.parametrize("name, D", [("t1min", 10), ("t2min", 10), ("d13", 10),
                                     ("cact4a", 8)])
def test_no_family_holds_a_semigroup_point(request, name, D):
    # what each family's certificate proves at every degree, checked on S_D
    # itself: no semigroup point x has x - shift in the family's face lattice
    G = request.getfixturevalue(name)
    S = enumerate_semigroup(G, D)
    for hf in hole_decomposition(G):
        L = hf.face
        assert not [x for x in S if L.contains([a - b for a, b in zip(x, hf.shift)])]


@pytest.mark.parametrize("odd", [False, True], ids=["height0", "height1"])
def test_failed_certificate_is_loud(monkeypatch, tmp_path, capsys, odd):
    # a family whose shift is moved into the coset of a semigroup point: into
    # L_F itself (height 0, witness 0) or into e + L_F for an edge e with
    # H(e) = 1 (height 1, witness e). Filtering the holes would silently drop
    # the witness from the union, so reading the points must raise
    G = build_triangular_cactus(triangles=3, pendants=(1, 0, 1, 0, 1, 0))
    hf = next(hf for hf in hole_decomposition(G) if len(hf.cycles) % 2 == odd)
    face_edge = next(g for g in semigroup.generators(G) if hf.facet.value(g) == 0)
    if odd:
        witness = next(e for e in semigroup.generators(G) if hf.facet.value(e) == 1)
    else:
        witness = (0,) * G.dimension
    bad = dataclasses.replace(hf, shift=tuple(a + b for a, b in zip(witness, face_edge)))
    monkeypatch.setattr(hole_families, "_families", lambda G: (bad,))
    with pytest.raises(DecompositionMismatchError) as info:
        verify_decomposition(G, 8)
    assert info.value.report["family_points_not_holes"] == [list(witness)]
    assert info.value.report["holes_not_covered"] == []

    graph = tmp_path / "d13.graph"
    graph.write_text(format_graph_text(G))
    assert main(["analyze", str(graph), "--degree", "8", "--max-d", "13"]) == 3
    assert "1 family points that are not holes" in capsys.readouterr().err


def test_certificate_refuses_a_shift_at_another_height(monkeypatch):
    # the certificate holds at any height: t1min's family moved by 2 e_w sits
    # at height 2 on the hub facet, where the sums of two hub edges are the
    # witnesses, and the first in edge order, w-x1 plus w-x3, is in the class
    G = build_triangular_cactus(triangles=2, pendants=(1, 0, 1, 0))
    (hf,) = hole_decomposition(G)
    w = G.index("w")
    shift = tuple(c + 2 * (j == w) for j, c in enumerate(hf.shift))
    bad = dataclasses.replace(hf, shift=shift)
    assert bad.facet.value(shift) == 2
    monkeypatch.setattr(hole_families, "_families", lambda G: (bad,))
    with pytest.raises(DecompositionMismatchError) as info:
        bad.points(G, 8)
    witness = [2, 1, 0, 1, 0, 0, 0, 0, 0]
    assert info.value.report["family_points_not_holes"] == [witness]
    assert member(G, witness)


def test_witnesses_at_heights_0_1_and_2(t1min):
    # {0} at height 0, the edges with H(e) = 1 at height 1, and at height 2
    # the sums of two such edges, each once
    (hf,) = hole_decomposition(t1min)
    H, hub_edges = hf.facet, [e for e in semigroup.generators(t1min) if e[0] == 1]
    assert hole_families._witnesses(t1min, H, 0) == ((0,) * 9,)
    assert hole_families._witnesses(t1min, H, 1) == tuple(hub_edges)
    assert set(hole_families._witnesses(t1min, H, 2)) == {
        tuple(a + b for a, b in zip(e, f))
        for e, f in itertools.combinations_with_replacement(hub_edges, 2)}
    assert len(hole_families._witnesses(t1min, H, 2)) == 10
    assert hole_families._witnesses(t1min, H, -1) == ()


def test_cact4b_has_a_degree_14_hole_no_family_holds(cact4b):
    # a known gap, pinned by point queries alone: x = 2 e_w plus the four
    # pendant triangles is a hole at height 2 on the hub facet, where no
    # family sits, so verify_decomposition(cact4b, 14) fails on it
    x = (2, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1)
    assert cone_contains(cact4b, x) and lattice_member(cact4b, x)
    assert not member(cact4b, x)
    (hub_facet,) = [h for h in supporting_hyperplanes(cact4b) if h.vertex == "w"]
    assert hub_facet.value(x) == 2
    families = hole_decomposition(cact4b)
    assert len(families) == 113
    assert not [hf for hf in families
                if hf.face.contains([a - b for a, b in zip(x, hf.shift)])]
    # x's class on the hub facet certifies at height 2: none of its 36
    # witnesses, the sums of two hub edges, lies in it
    (four,) = [f for f in exceptional_families(cact4b) if len(f) == 4]
    cls = hole_families.HoleFamily(x, hub_facet, four, face_of(cact4b, hub_facet))
    witnesses = hole_families._witnesses(cact4b, hub_facet, 2)
    assert len(witnesses) == 36
    assert not [w for w in witnesses if hole_families._in_family(cls, w)]
    assert hole_families._certify(cact4b, cls) == 2


def test_certify_names_the_witness_of_a_class_no_family_holds(cact4b):
    # 1_C + h e_w on the hub facet, C the four pendant triangles, is no
    # family of cact4b. At h = 2 no sum of two hub edges lies in the class,
    # so it certifies; at h = 4 the four hub edges to the pendants' spokes
    # do, and the failure report still names that witness and the class
    (hub_facet,) = [h for h in supporting_hyperplanes(cact4b) if h.vertex == "w"]
    (four,) = [f for f in exceptional_families(cact4b) if len(f) == 4]
    on = cycles_vertex_set(four)

    def cls(h):
        shift = tuple(h if v == "w" else int(v in on) for v in cact4b.vertices)
        return hole_families.HoleFamily(shift, hub_facet, four,
                                        face_of(cact4b, hub_facet))

    assert hole_families._certify(cact4b, cls(2)) == 2
    with pytest.raises(DecompositionMismatchError) as info:
        hole_families._certify(cact4b, cls(4))
    witness = [4, 1, 0, 1, 0, 1, 0, 1, 0] + [0] * 8
    report = info.value.report
    assert report["family_points_not_holes"] == [witness]
    assert report["family"]["shift"] == list(cls(4).shift)
    assert report["family"]["facet"] == {"kind": "regular", "vertex": "w"}
    assert semigroup.decompose(cact4b, witness) == tuple(
        ("w", f"x{i}") for i in (1, 3, 5, 7))


def test_family_refuses_a_graph_it_was_not_built_for(t1min, t2min, bowtie):
    (hf,) = hole_decomposition(t1min)
    equal = build_triangular_cactus(triangles=2, pendants=(1, 0, 1, 0))
    assert equal == t1min and equal is not t1min
    for other in (equal, t2min, bowtie):
        with pytest.raises(PreconditionViolatedError):
            hf.points(other, 8)
        with pytest.raises(PreconditionViolatedError):
            hf.as_json(other)


def test_golden_evidence(t1min, t2min):
    for name, G in (("t1min", t1min), ("t2min", t2min)):
        got = json.dumps(s2_verdict(G, 12), indent=2, sort_keys=True)
        want = (GOLDEN / f"{name}_s2_evidence.json").read_text()
        assert got.strip() == want.strip(), name
