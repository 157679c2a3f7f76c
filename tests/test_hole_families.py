import dataclasses
import gc
import itertools
import json
import weakref
from pathlib import Path

import pytest

import oracles
from edgering import (
    CactusSpec,
    DecompositionMismatchError,
    EdgeRingError,
    EmptySetError,
    ExceptionalFamily,
    Graph,
    NotDiameterFourCactusError,
    PreconditionViolatedError,
    admissible_fundamental_sets,
    build_from_edges,
    build_triangular_cactus,
    classify,
    cone_contains,
    default_truncation,
    enumerate_semigroup,
    exceptional_families,
    exceptional_pairs,
    hole_decomposition,
    hole_families,
    holes,
    lattice_member,
    member,
    q_vector,
    regular_vertices,
    s2_verdict,
    semigroup,
    verify_decomposition,
)
from edgering.cli import main
from edgering.fixtures import load
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
    f1 = exceptional_families(t1min)
    assert [len(f.cycles) for f in f1] == [2]
    assert f1[0].hub is None
    assert len(exceptional_families(t2min)) == 1
    # cact4a has three pendant triangles on distinct hub triangles, cact4b four
    assert [len(f.cycles) for f in exceptional_families(cact4a)] == [2, 2, 2, 3]
    f4b = exceptional_families(cact4b)
    assert [len(f.cycles) for f in f4b] == [2] * 6 + [3] * 4 + [4]
    assert [f.hub for f in f4b] == [None] * 6 + ["w"] * 4 + [None]
    assert [len(f.cycles) for f in exceptional_families(d13)] == [2, 2, 2, 3]


def test_exceptional_families_cross_invariant(cact4b):
    from edgering import is_exceptional

    for fam in exceptional_families(cact4b):
        for a, b in itertools.combinations(fam.cycles, 2):
            assert is_exceptional(cact4b, a, b)
        assert fam.hub not in fam.vertex_set


def test_exceptional_families_shared_spoke_exclusion():
    G = build_triangular_cactus(
        triangles=4, pendants=(1, 1, 1, 0, 0, 0, 0, 0)
    )
    pairs = exceptional_pairs(G)
    assert len(pairs) == 2  # the two bridged pendant cycles pair only
    # with the third, so no set of three exists
    assert [len(f.cycles) for f in exceptional_families(G)] == [2, 2]


def test_cycle_sets_fit_in_the_hub_triangles(all_fixture_graphs, d13):
    # pairwise-exceptional cycles lie on distinct hub triangles
    for G in [*all_fixture_graphs.values(), d13]:
        ct = classify(G)
        if ct.tag == "NotDiameter4Cactus":
            continue
        assert all(len(f.cycles) <= ct.triangles for f in exceptional_families(G))


def test_gate(friend3):
    with pytest.raises(NotDiameterFourCactusError):
        exceptional_families(friend3)
    with pytest.raises(NotDiameterFourCactusError):
        hole_decomposition(friend3)


# ------------------------------------------------------------ q vectors


def test_q_vector_values(t1min, cact4b):
    (fam,) = exceptional_families(t1min)
    q = q_vector(t1min, fam)
    assert sum(q) == 6
    assert member(t1min, q) is False
    for k, degree in ((3, 10), (4, 12)):
        big = [f for f in exceptional_families(cact4b) if len(f.cycles) == k][0]
        q = q_vector(cact4b, big)
        assert sum(q) == degree
        assert q[cact4b.index("w")] == k % 2
        assert member(cact4b, q) is False


def test_q_vector_empty_family_rejected(t1min):
    with pytest.raises(EmptySetError):
        q_vector(t1min, ExceptionalFamily(()))


# ------------------------------------------------------------ admissible sets


def test_admissible_sets_frozen(t1min, t2min):
    (f1,) = exceptional_families(t1min)
    assert admissible_fundamental_sets(t1min, f1) == ()
    (f2,) = exceptional_families(t2min)
    got = [sorted(F.vertices) for F in admissible_fundamental_sets(t2min, f2)]
    assert got == [["x5"], ["x6"]]


def test_admissible_sets_definition(t2min, cact4a):
    for G in (t2min, cact4a):
        hub = classify(G).hub
        for fam in exceptional_families(G):
            for F in admissible_fundamental_sets(G, fam):
                assert hub in F.neighborhood
                closed = F.vertices | F.neighborhood
                for c in fam.cycles:
                    assert not closed & c.vertex_set


def test_admissibility_hereditary(cact4b):
    # a facet admissible for a cycle set is admissible for each pair in it
    singles = {
        fam.cycles: set(
            F.vertices for F in admissible_fundamental_sets(cact4b, fam)
        )
        for fam in exceptional_families(cact4b)
        if len(fam.cycles) == 2
    }
    larger = [f for f in exceptional_families(cact4b) if len(f.cycles) > 2]
    assert larger
    for fam in larger:
        for F in admissible_fundamental_sets(cact4b, fam):
            for pair in itertools.combinations(fam.cycles, 2):
                assert F.vertices in singles[pair]


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
    names = sorted(
        sorted(F.vertices)[0]
        for hf in fams
        for F in hf.facet.sets
        if len(F.vertices) == 1 and not (F.vertices - {"x5", "x6"})
    )
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
    odd = [hf for hf in hole_decomposition(d13) if hf.family.hub is not None]
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


def test_verdict_leaves_the_member_memo_empty():
    G = load("t1min")
    assert s2_verdict(G, 8)["s2"] is True
    assert semigroup._memo(G) == {}


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
    for hf in families:
        assert hf.points(G, D) == oracles.oracle_family_points(G, hf, D)


@pytest.mark.parametrize("name, D", [("t1min", 10), ("t2min", 10), ("d13", 10),
                                     ("cact4a", 8)])
def test_no_family_holds_a_semigroup_point(request, name, D):
    # what each family's certificate proves at every degree, checked on S_D
    # itself: no semigroup point x has x - shift in the family's face lattice
    G = request.getfixturevalue(name)
    S = enumerate_semigroup(G, D)
    for hf in hole_decomposition(G):
        L = hf.face.lattice
        assert not [x for x in S if L.contains([a - b for a, b in zip(x, hf.shift)])]


@pytest.mark.parametrize("odd", [False, True], ids=["height0", "height1"])
def test_failed_certificate_is_loud(monkeypatch, tmp_path, capsys, odd):
    # a family whose shift is moved into the coset of a semigroup point: into
    # L_F itself (height 0, witness 0) or into e + L_F for an edge e with
    # H(e) = 1 (height 1, witness e). Filtering the holes would silently drop
    # the witness from the union, so reading the points must raise
    G = build_triangular_cactus(triangles=3, pendants=(1, 0, 1, 0, 1, 0))
    hf = next(hf for hf in hole_decomposition(G) if (hf.family.hub is not None) == odd)
    face_edge = semigroup.rho_vector(G, *hf.face.edges[0])
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
    # heights 0 and 1 are the only ones the certificate covers
    G = build_triangular_cactus(triangles=2, pendants=(1, 0, 1, 0))
    (hf,) = hole_decomposition(G)
    w = G.index("w")
    shift = tuple(c + 2 * (j == w) for j, c in enumerate(hf.shift))
    bad = dataclasses.replace(hf, shift=shift)
    monkeypatch.setattr(hole_families, "_families", lambda G: (bad,))
    with pytest.raises(PreconditionViolatedError, match="height 0 or 1"):
        bad.points(G, 8)


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
