"""The acceptance suite: eight exact desk-scale checks.

Each criterion takes a fixture loader and returns `(passed, details)`, with
enough detail to diagnose a failure. Six are per-fixture checks `(G, name)
-> (ok, entry)` run under `_each`'s one loop; `figure1` and `taxonomy` load
their fixtures themselves. `CRITERIA` is the one table of (name, criterion,
title). `run_all`, the engine behind the CLI verification command and the
test suite, turns it into reports and loads each fixture once per call, so
the criteria share per-graph results.

Fixture policy: the enumeration-heavy criteria 2 and 5 run on the
fixtures of dimension at most 12, the scale of the suite's runtime budget.
Criterion 3 runs the two minimal diameter-4 fixtures up to degree 12 and
the two 4-triangle fixtures (d = 15 and 17) up to an explicit degree 10:
degree 12, where cact4b's four-cycle family first meets the holes, costs
several times as much. The lemma and membership criteria also cover the
two 4-triangle fixtures, where closed forms and single membership queries
stay cheap.
"""

from __future__ import annotations

from . import fixtures
from .errors import EdgeRingError, MethodMismatchError
from .exceptional import (
    double_w_edge_cases,
    edge_augment_cases,
    pair_sum_cases,
    require_diameter4_cactus,
)
from .facets import face_of, fundamental_sets, regular_vertices, supporting_hyperplanes
from .graph_core import (cutpoints, cycles_json, diameter, exceptional_pairs, is_normal,
                         pair_vector)
from .hole_families import classify, s2_verdict
from .semigroup import _enumeration, holes, member

SMALL_FIXTURES = ("triangle", "bowtie", "friend3", "cac3", "t1min", "t2min")
LEMMA_FIXTURES = ("t1min", "t2min", "cact4a", "cact4b")
NORMAL_FIXTURES = ("triangle", "friend3", "cac3")
NON_NORMAL_FIXTURES = ("t1min", "t2min")
# main-theorem: fixture -> (type, dimension, top degree of the verdict's ladder)
MAIN_THEOREM_FIXTURES = {
    "t1min": ("Type1", 9, 12),
    "t2min": ("Type2", 11, 12),
    "cact4a": ("Type2", 15, 10),
    "cact4b": ("Type1", 17, 10),
}


def criterion_figure1(load) -> tuple:
    """Bowtie facet inventory: regular vertices and the unique
    single-vertex fundamental set."""
    G = load("bowtie")
    regs = set(regular_vertices(G))
    # a one-vertex set T = {v} is its hyperplane's -1 mask, bit v alone
    singles = [G.vertices[h.minus.bit_length() - 1]
               for h in fundamental_sets(G) if h.minus.bit_count() == 1]
    ok_regular = regs == {"v2", "v3", "v4", "v5"}
    ok_single = singles == ["v1"]
    return ok_regular and ok_single, {
        "regular_vertices": sorted(regs),
        "single_vertex_fundamental_sets": [[v] for v in singles],
    }


def _each(fixture_names):
    """Make a check `(G, name) -> (ok, entry)` a criterion over the fixtures
    `fixture_names()` names when it runs. A failing fixture hides no other;
    a raising one fails the whole criterion."""

    def lift(check):
        def criterion(load) -> tuple:
            passed, details = True, {}
            for name in fixture_names():
                ok, details[name] = check(load(name), name)
                passed = passed and ok
            return passed, details

        return criterion

    return lift


@_each(lambda: NORMAL_FIXTURES + NON_NORMAL_FIXTURES)
def criterion_normality(G, name) -> tuple:
    """Normality dichotomy plus the empty-holes cross-check at degree 12
    in both directions."""
    expected = name in NORMAL_FIXTURES
    normal = is_normal(G)
    hole_count = len(holes(G, 12))
    ok = normal == expected and (hole_count == 0) == expected
    return ok, {"is_normal": normal, "expected": expected, "holes_at_12": hole_count}


@_each(lambda: tuple(MAIN_THEOREM_FIXTURES))
def criterion_main_theorem(G, name) -> tuple:
    """Hole decomposition verified on the degree ladder, all families of
    dimension d-1, and the non-normal/(S2) verdict, on both minimal
    diameter-4 fixtures and both 4-triangle ones."""
    tag, d, degree = MAIN_THEOREM_FIXTURES[name]
    entry = dict(type=classify(G).tag, dimension=G.dimension, diameter=diameter(G),
                 verified_at={}, family_dimensions=[], verdict=None, error=None)
    ok = entry["type"] == tag and G.dimension == d and entry["diameter"] == 4
    try:
        # outside the class the verdict is inconclusive, not an error;
        # the gate names the cause
        require_diameter4_cactus(G)
        verdict = s2_verdict(G, degree)
        evidence = verdict["evidence"]
        entry["verified_at"] = evidence.get("verified_at", {})
        entry["family_dimensions"] = evidence.get("family_dimensions", [])
        ok = ok and all(entry["verified_at"].values())
        ok = ok and all(x == d - 1 for x in entry["family_dimensions"])
        entry["verdict"] = {"normal": verdict["normal"], "s2": verdict["s2"]}
        ok = ok and verdict["normal"] is False and verdict["s2"] is True
    except EdgeRingError as exc:
        entry["error"] = f"{type(exc).__name__}: {exc}"
        ok = False
    return ok, entry


@_each(lambda: LEMMA_FIXTURES)
def criterion_lemmas(G, name) -> tuple:
    """Closed forms of the three membership lemmas against the brute-force
    oracle, exhaustively over admissible inputs."""
    entry = {}
    for label, gen in (
        ("pair_sum", pair_sum_cases),
        ("edge_augment", edge_augment_cases),
        ("double_w_edge", double_w_edge_cases),
    ):
        cases = list(gen(G))
        disagreements = [c for c in cases if not c["agree"]]
        entry[label] = {"cases": len(cases), "disagreements": len(disagreements)}
        if disagreements:
            entry[label]["first_disagreement"] = disagreements[0]
    return all(not e["disagreements"] for e in entry.values()), entry


@_each(lambda: SMALL_FIXTURES)
def criterion_cross_check(G, name) -> tuple:
    """Inequality-filter enumeration equals closure enumeration up to
    degree 12 on every dimension-at-most-12 fixture."""
    try:
        return True, {"points": _enumeration(G, 12)[0], "agree": True}
    except MethodMismatchError as exc:
        return False, {
            "agree": False,
            "only_inequality_method": len(exc.only_first),
            "only_closure_method": len(exc.only_second),
            "found_twice": None if exc.found_twice is None else list(exc.found_twice),
        }


@_each(fixtures.names)
def criterion_doubling(G, name) -> tuple:
    """Every exceptional pair vector is a hole whose double is not."""
    rows = []
    for P in exceptional_pairs(G):
        q = pair_vector(G, P)
        rows.append({"pair": cycles_json(P), "member_q": member(G, q),
                     "member_2q": member(G, tuple(2 * a for a in q))})
    ok = all(r["member_q"] is False and r["member_2q"] is True for r in rows)
    return ok, rows


@_each(fixtures.names)
def criterion_facet_rank(G, name) -> tuple:
    """Every supporting hyperplane of every fixture meets the cone in a
    face of dimension exactly d-1."""
    dims = [face_of(G, H).rank for H in supporting_hyperplanes(G)]
    off_rank = [x for x in dims if x != G.dimension - 1]
    return not off_rank, {
        "hyperplanes": len(dims),
        "expected_dimension": G.dimension - 1,
        "off_rank": off_rank,
    }


def criterion_taxonomy(load) -> tuple:
    """Type classification of the two minimal fixtures, including the
    adjacent-degree-2-spoke law that separates the types."""
    t1 = load("t1min")
    t2 = load("t2min")
    c1, c2 = classify(t1), classify(t2)
    checks = {
        "t1min_type1": c1.tag == "Type1",
        "t1min_hub_regular": c1.hub in set(regular_vertices(t1)),
        "t1min_hub_is_cutpoint": c1.hub in cutpoints(t1),
        "t1min_no_zeta_edge": c1.omega_count == 0,
        "t2min_type2": c2.tag == "Type2",
        "t2min_hub_not_regular": c2.hub not in set(regular_vertices(t2)),
        "t2min_omega_pairs": list(c2.omega_pairs) == [("x5", "x6")],
        "t2min_has_zeta_edge": c2.omega_count >= 1,
    }
    return all(checks.values()), {
        "checks": checks,
        "t1min": c1.as_json(),
        "t2min": c2.as_json(),
    }


CRITERIA = (
    ("figure1", criterion_figure1,
     "bowtie regular vertices and single-vertex fundamental set"),
    ("normality", criterion_normality,
     "normality dichotomy with degree-12 hole cross-check"),
    ("main-theorem", criterion_main_theorem,
     "decomposition ladder, family dimensions, and (S2) verdict"),
    ("lemmas", criterion_lemmas,
     "lemma closed forms agree with the membership oracle"),
    ("cross-check", criterion_cross_check,
     "two independent normalization enumerations agree to degree 12"),
    ("doubling", criterion_doubling,
     "pair vectors are non-members whose doubles are members"),
    ("facet-rank", criterion_facet_rank,
     "all supporting hyperplanes have face dimension d-1"),
    ("taxonomy", criterion_taxonomy,
     "type classification and the degree-2 spoke adjacency law"),
)


def criterion_names() -> tuple:
    return tuple(name for name, _, _ in CRITERIA)


def run_all(only=None, fixtures_dir=None) -> list:
    """Run the suite (or the named subset) and return one report per
    criterion. A criterion that raises EdgeRingError, OSError or ValueError
    (a refused graph, an unreadable or malformed fixture) gets a failing
    report and the run goes on; any other exception is a bug and propagates."""
    wanted = None
    if only is not None:
        wanted = {name.strip() for name in only}
        available = f"available: {', '.join(criterion_names())}"
        if not wanted:
            raise ValueError(f"no criteria named; {available}")
        unknown = wanted - set(criterion_names())
        if unknown:
            raise ValueError(f"unknown criteria: {sorted(unknown)}; {available}")
    graphs = {}

    def load(name):
        if name not in graphs:
            graphs[name] = fixtures.load(name, directory=fixtures_dir)
        return graphs[name]

    reports = []
    for i, (name, criterion, title) in enumerate(CRITERIA, 1):
        if wanted is not None and name not in wanted:
            continue
        try:
            passed, details = criterion(load)
        except (EdgeRingError, OSError, ValueError) as exc:
            passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
        reports.append(
            {"id": i, "name": name, "title": title, "passed": passed, "details": details}
        )
    return reports
