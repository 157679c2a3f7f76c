"""The acceptance suite: eight exact desk-scale checks.

Each criterion function takes a fixture loader and returns `(passed,
details)`, with enough detail to diagnose a failure; `CRITERIA` pairs it
with its title. `run_all`, the engine behind both the CLI verification
command and the test suite, turns those into reports and loads each fixture
once per call, so the criteria share per-graph results.

Fixture policy: the enumeration-heavy criteria (2, 3, 5) run on the
fixtures with ambient dimension at most 12 — the scale the suite's runtime
budget is defined for; the lemma and membership criteria also cover the
two larger 4-triangle fixtures, where closed forms and single membership
queries stay cheap.
"""

from __future__ import annotations

from . import fixtures
from .errors import EdgeRingError, MethodMismatchError
from .exceptional import (
    double_w_edge_cases,
    edge_augment_cases,
    exceptional_pairs,
    is_normal,
    pair_sum_cases,
    pair_vector,
    require_diameter4_cactus,
)
from .facets import face_of, fundamental_sets, regular_vertices, supporting_hyperplanes
from .graph_core import cutpoints, diameter
from .hole_families import classify, s2_verdict
from .semigroup import enumerate_normalization, holes, member

SMALL_FIXTURES = ("triangle", "bowtie", "friend3", "cac3", "t1min", "t2min")
LEMMA_FIXTURES = ("t1min", "t2min", "cact4a", "cact4b")
NORMAL_FIXTURES = ("triangle", "friend3", "cac3")
NON_NORMAL_FIXTURES = ("t1min", "t2min")


def criterion_figure1(load) -> tuple:
    """Bowtie facet inventory: regular vertices and the unique
    single-vertex fundamental set."""
    G = load("bowtie")
    regs = set(regular_vertices(G))
    singles = [F.vertices for F in fundamental_sets(G) if len(F.vertices) == 1]
    ok_regular = regs == {"v2", "v3", "v4", "v5"}
    ok_single = singles == [frozenset({"v1"})]
    return ok_regular and ok_single, {
        "regular_vertices": sorted(regs),
        "single_vertex_fundamental_sets": [sorted(s) for s in singles],
    }


def criterion_normality(load) -> tuple:
    """Normality dichotomy plus the empty-holes cross-check at degree 12
    in both directions."""
    details = {}
    passed = True
    for name in NORMAL_FIXTURES + NON_NORMAL_FIXTURES:
        G = load(name)
        expected = name in NORMAL_FIXTURES
        normal = is_normal(G)
        hole_count = len(holes(G, 12))
        ok = normal == expected and (hole_count == 0) == expected
        details[name] = {
            "is_normal": normal,
            "expected": expected,
            "holes_at_12": hole_count,
        }
        passed = passed and ok
    return passed, details


def criterion_main_theorem(load) -> tuple:
    """Hole decomposition verified on the degree ladder, all families of
    dimension d-1, and the non-normal/(S2) verdict, on both minimal
    diameter-4 fixtures."""
    details = {}
    passed = True
    expected = {"t1min": ("Type1", 9), "t2min": ("Type2", 11)}
    for name in NON_NORMAL_FIXTURES:
        G = load(name)
        tag, d = expected[name]
        entry = {
            "type": classify(G).tag,
            "dimension": G.dimension,
            "diameter": diameter(G),
            "verified_at": {},
            "family_dimensions": [],
            "verdict": None,
            "error": None,
        }
        ok = (
            classify(G).tag == tag
            and G.dimension == d
            and entry["diameter"] == 4
        )
        try:
            # outside the class the verdict is inconclusive, not an error;
            # the gate names the cause
            require_diameter4_cactus(G)
            verdict = s2_verdict(G, 12)
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
        details[name] = entry
        passed = passed and ok
    return passed, details


def criterion_lemmas(load) -> tuple:
    """Closed forms of the three membership lemmas against the brute-force
    oracle, exhaustively over admissible inputs."""
    details = {}
    passed = True
    generators = (
        ("pair_sum", pair_sum_cases),
        ("edge_augment", edge_augment_cases),
        ("double_w_edge", double_w_edge_cases),
    )
    for name in LEMMA_FIXTURES:
        G = load(name)
        entry = {}
        for label, gen in generators:
            cases = list(gen(G))
            disagreements = [c for c in cases if not c["agree"]]
            entry[label] = {
                "cases": len(cases),
                "disagreements": len(disagreements),
            }
            if disagreements:
                entry[label]["first_disagreement"] = disagreements[0]
                passed = False
        details[name] = entry
    return passed, details


def criterion_cross_check(load) -> tuple:
    """Inequality-filter enumeration equals closure enumeration up to
    degree 12 on every dimension-at-most-12 fixture."""
    details = {}
    passed = True
    for name in SMALL_FIXTURES:
        G = load(name)
        try:
            count = len(enumerate_normalization(G, 12))
            details[name] = {"points": count, "agree": True}
        except MethodMismatchError as exc:
            details[name] = {
                "agree": False,
                "only_inequality_method": len(exc.only_first),
                "only_closure_method": len(exc.only_second),
            }
            passed = False
    return passed, details


def criterion_doubling(load) -> tuple:
    """Every exceptional pair vector is a hole whose double is not."""
    details = {}
    passed = True
    for name in fixtures.names():
        G = load(name)
        rows = []
        for P in exceptional_pairs(G):
            q = pair_vector(G, P)
            in_s = member(G, q)
            double_in_s = member(G, tuple(2 * a for a in q))
            rows.append(
                {
                    "pair": P.as_json(),
                    "member_q": in_s,
                    "member_2q": double_in_s,
                }
            )
            if in_s is not False or double_in_s is not True:
                passed = False
        details[name] = rows
    return passed, details


def criterion_facet_rank(load) -> tuple:
    """Every supporting hyperplane of every fixture meets the cone in a
    face of dimension exactly d-1."""
    details = {}
    passed = True
    for name in fixtures.names():
        G = load(name)
        dims = [face_of(G, H).dimension for H in supporting_hyperplanes(G)]
        ok = all(x == G.dimension - 1 for x in dims)
        details[name] = {
            "hyperplanes": len(dims),
            "expected_dimension": G.dimension - 1,
            "off_rank": [x for x in dims if x != G.dimension - 1],
        }
        passed = passed and ok
    return passed, details


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
    (criterion_figure1, "bowtie regular vertices and single-vertex fundamental set"),
    (criterion_normality, "normality dichotomy with degree-12 hole cross-check"),
    (criterion_main_theorem, "decomposition ladder, family dimensions, and (S2) verdict"),
    (criterion_lemmas, "lemma closed forms agree with the membership oracle"),
    (criterion_cross_check, "two independent normalization enumerations agree to degree 12"),
    (criterion_doubling, "pair vectors are non-members whose doubles are members"),
    (criterion_facet_rank, "all supporting hyperplanes have face dimension d-1"),
    (criterion_taxonomy, "type classification and the degree-2 spoke adjacency law"),
)


def _name(fn) -> str:
    return fn.__name__.replace("criterion_", "").replace("_", "-")


def criterion_names() -> tuple:
    return tuple(_name(fn) for fn, _ in CRITERIA)


def run_all(only=None, fixtures_dir=None) -> list:
    """Run the suite (or the named subset) and return one report per
    criterion. Unexpected library errors are converted into failing
    reports rather than aborting the run."""
    wanted = None
    if only is not None:
        wanted = {name.strip() for name in only}
        if not wanted:
            raise ValueError(
                f"no criteria named; available: {', '.join(criterion_names())}"
            )
        unknown = wanted - set(criterion_names())
        if unknown:
            raise ValueError(
                f"unknown criteria: {sorted(unknown)}; "
                f"available: {', '.join(criterion_names())}"
            )
    graphs = {}

    def load(name):
        if name not in graphs:
            graphs[name] = fixtures.load(name, directory=fixtures_dir)
        return graphs[name]

    reports = []
    for i, (fn, title) in enumerate(CRITERIA, 1):
        name = _name(fn)
        if wanted is not None and name not in wanted:
            continue
        try:
            passed, details = fn(load)
        except (EdgeRingError, OSError, ValueError) as exc:
            passed, details = False, {"error": f"{type(exc).__name__}: {exc}"}
        reports.append(
            {"id": i, "name": name, "title": title, "passed": passed, "details": details}
        )
    return reports
