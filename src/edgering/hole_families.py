"""Hole structure of diameter-4 triangular cacti.

By Katthän's criterion (manuscripta math. 2015; the route of arXiv
2402.17413), the holes of the edge semigroup are a finite union of families,
each a shift q plus the lattice of a face F of the cone, within the
normalization N, and (S2) holds exactly when the faces can all be facets:
every family of dimension d - 1. This module builds such a union and checks
it against independently enumerated holes, in one report at the top
degree of the verdict's ladder.

Shifts. Exceptional cycles (disjoint, no edge between) are pendant triangles
on distinct hub triangles: hub triangles share the hub w, every other
triangle holds a spoke adjacent to w, and a hub triangle's spokes are
adjacent. So a collection is a set C of k >= 2 pairwise-exceptional cycles
missing w, and its shift is the sum of their indicators 1_c, plus the hub
unit e_w when k is odd, as N lies in the lattice of even degree. It is a
hole: each odd cycle needs an edge leaving it, none joins two of them, and
the one unit at w can close one cycle but not k >= 3.

Facets. The facet must keep the shift at its least height, so the cycles
must not count in it: one mask test over the supporting hyperplanes keeps
those whose +1 mask holds w and whose masks miss C (height 0 for even k, 1
for odd). It passes the fundamental sets T with w in N(T) and N[T] clear
of C, and the hub facet x_w >= 0, which exists exactly on Type 1.

Points. Every family point is a hole, at every degree: a lattice
certificate per family (`_certify`), exact at any height of the shift on
its facet, proves that the family holds no semigroup point, so its points
are read from the holes. A hole's heights on every supporting hyperplane
are one lane sum (facets' `_cone_columns`), and a family's face lattice is
tested only on the holes whose lane of its facet holds the shift's height.
Only the other direction, that the families cover every hole, is checked,
up to the truncation degree D. It is not proven: a sweep of every class
with d <= 17 and at most 3 pendants per spoke found the union equal to the
holes at D = 10 (d <= 13 also at 12), with every family of dimension d - 1.
It did not cover spokes with 4 or more pendants, or k = 5 (d >= 21, shift
degree 16).

Coverage fails at degree 14. On cact4b (d = 17) the degree-14 hole
2 e_w + the indicators of the four pendant triangles lies at height 2 on
the hub facet. Its class there certifies, but the recipe above builds every
family at height 0 or 1 on its facet, so the family that would hold it is
missing and verify_decomposition(cact4b, 14) raises
DecompositionMismatchError. The default degree cap of 12 stays below it.
ROADMAP item 1 tracks the gap, and
test_cact4b_has_a_degree_14_hole_no_family_holds pins it.
"""

from __future__ import annotations

import itertools
import operator
import os
from dataclasses import dataclass

from . import facets as facets_mod
from .errors import (
    DecompositionMismatchError,
    DisconnectedError,
    EdgeRingError,
    EmptySetError,
    NotDiameterFourCactusError,
    PreconditionViolatedError,
)
from .exceptional import require_diameter4_cactus
from .graph_core import (
    Graph,
    _add,
    _cycle_table,
    cycles_json,
    cycles_mask,
    exceptional_pairs,
    generators,
    is_normal,
    per_graph,
)
from .lattices import IntegerLattice
from .semigroup import (
    MAX_PACKED_DEGREE,
    count_by_degree,
    graded_sorted,
    holes,
    vector_degree,
)

TYPE1 = "Type1"
TYPE2 = "Type2"
NOT_DIAM4 = "NotDiameter4Cactus"


@dataclass(frozen=True)
class CactusType:
    """Classification of a graph within the diameter-4 triangular cactus
    family. `zeta_vertices` are the hub neighbors with no pendant triangles
    (degree 2); `omega_pairs` the adjacent pairs among them. The hub is
    regular exactly when no such adjacent pair exists."""

    tag: str
    hub: object = None
    zeta_vertices: frozenset = frozenset()
    omega_pairs: tuple = ()
    triangles: int = 0

    @property
    def omega_count(self) -> int:
        return len(self.omega_pairs)

    def as_json(self) -> dict:
        return {
            "tag": self.tag,
            "hub": None if self.hub is None else str(self.hub),
            "zeta_vertices": sorted(map(str, self.zeta_vertices)),
            "omega_pairs": [[str(a), str(b)] for a, b in self.omega_pairs],
            "triangles": self.triangles,
        }


@per_graph
def classify(G: Graph) -> CactusType:
    """Type1 iff the hub is a regular cutpoint, Type2 iff it is not regular;
    anything outside the diameter-4 triangular cactus class gets the
    NotDiameter4Cactus tag with no further fields."""
    try:
        hub = require_diameter4_cactus(G)
    except (NotDiameterFourCactusError, DisconnectedError):
        return CactusType(NOT_DIAM4)
    spokes = sorted(G.neighbors(hub), key=G.index)
    zeta = frozenset(v for v in spokes if G.degree(v) == 2)
    omega = tuple(
        (a, b)
        for a, b in itertools.combinations(spokes, 2)
        if a in zeta and b in zeta and G.has_edge(a, b)
    )
    tag = TYPE1 if hub in facets_mod.regular_vertices(G) else TYPE2
    return CactusType(tag, hub, zeta, omega, len(spokes) // 2)


@per_graph
def exceptional_families(G: Graph) -> tuple:
    """Every set of at least two pairwise-exceptional minimal odd cycles, a
    tuple in canonical order, by size and then in that order, each grown from
    its last cycle's later partners; the two-cycle sets are the pairs."""
    require_diameter4_cactus(G)
    pairs, table = exceptional_pairs(G), _cycle_table(G)
    later = {}
    for a, b in pairs:
        later.setdefault(a, []).append(b)
    out, sets = [], list(pairs)
    while sets:
        out += sets
        sets = [s + (c,) for s in sets for c in later.get(s[-1], ())
                if not any(table[a][1] & table[c][0] for a in s[:-1])]
    return tuple(out)


def q_vector(G: Graph, cycles: tuple) -> tuple:
    """The shift of k >= 2 cycles: the indicator of their vertices, plus the
    hub unit for odd k; degree 3k or 3k + 1 for k pendant triangles. Fewer
    cycles are refused: EmptySetError for none, PreconditionViolatedError
    for one."""
    if len(cycles) < 2:
        error = PreconditionViolatedError if cycles else EmptySetError
        raise error("a family needs at least two exceptional cycles")
    hub = 1 << G.index(require_diameter4_cactus(G)) if len(cycles) % 2 else 0
    on = cycles_mask(G, cycles) | hub
    return tuple(on >> i & 1 for i in range(G.dimension))


def admissible_facets(G: Graph, cycles: tuple) -> tuple:
    """The supporting hyperplanes whose +1 mask holds the hub and whose
    masks miss the cycles: the fundamental sets T with the hub in N(T) and
    N[T] clear of the cycles, in `fundamental_sets` order, then the one
    regular hyperplane that passes, the hub facet x_w >= 0 of Type 1."""
    hub = 1 << G.index(require_diameter4_cactus(G))
    on = cycles_mask(G, cycles)
    return tuple(sorted((h for h in facets_mod.supporting_hyperplanes(G)
                         if h.plus & hub and not (h.plus | h.minus) & on),
                        key=lambda h: h.kind == "regular"))


@dataclass(frozen=True, eq=False)
class HoleFamily:
    """One predicted family of holes: shift + facet lattice, within the cone.

    Plain data that refers to no graph: `points(G, D)` and `as_json(G, D)`
    take the graph the family was built for, as `Hyperplane.as_json(G)`
    does, and refuse any other. Equality is identity, so each family keys
    its own points in the graph's per-degree map.
    """

    shift: tuple
    facet: facets_mod.Hyperplane
    cycles: tuple
    face: IntegerLattice

    @property
    def dimension(self) -> int:
        return self.face.rank

    @property
    def source(self) -> str:
        """"hub" for the hub's own facet x_w >= 0, else "fundamental"."""
        return "hub" if self.facet.kind == "regular" else "fundamental"

    def points(self, G: Graph, D: int) -> frozenset:
        """The points x of the degree-D normalization whose difference
        x - shift lies in the facet's lattice, cached on G. They are read
        from the holes once the family's certificate proves it holds no
        semigroup point; a failed certificate raises
        DecompositionMismatchError naming the witness."""
        self._require_built_for(G)
        return _family_points(G, D)[self]

    def as_json(self, G: Graph, D: int | None = None) -> dict:
        self._require_built_for(G)
        out = self._json(G)
        if D is not None:
            out["points_by_degree"] = count_by_degree(self.points(G, D))
        return out

    def _json(self, G: Graph) -> dict:
        # the family alone, for G unchecked: a failed certificate reports
        # families that G's own decomposition may not hold
        out = {
            "shift": list(self.shift),
            "shift_degree": vector_degree(self.shift),
            "facet": self.facet.as_json(G),
            "dimension": self.dimension,
            "source": self.source,
        }
        cycles = cycles_json(self.cycles)
        out.update({"pairs": [cycles]} if len(cycles) == 2 else {"cycles": cycles})
        if len(cycles) % 2:
            out["hub"] = str(require_diameter4_cactus(G))
        return out

    def _require_built_for(self, G: Graph) -> None:
        if classify(G).tag == NOT_DIAM4 or self not in _families(G):
            raise PreconditionViolatedError("this hole family was built for another graph")

    def __repr__(self) -> str:
        return (
            f"HoleFamily(shift degree {vector_degree(self.shift)}, "
            f"{self.source} facet, dimension {self.dimension})"
        )


@per_graph
def _family_points(G: Graph, D: int) -> dict:
    # every family's points at degree D. Once its certificate shows that a
    # family holds no semigroup point, its points in N_D are exactly the
    # holes in it; the face lattice lies in the facet's hyperplane H = 0, so
    # a hole can be in it only at the shift's height. A hole's heights on
    # every supporting hyperplane are one lane sum, hyperplane h's biased in
    # lane h (no larger in size than the hole's degree, at most 255, so no
    # 16-bit lane carries), and only the families whose facet's lane holds
    # their shift's height are tested against their face lattices
    width = facets_mod.LANE_BITS
    columns, signs = facets_mod._cone_columns(G, width)
    lane_of = {h: width * i for i, h in enumerate(facets_mod.supporting_hyperplanes(G))}
    by_lane = {}
    for hf in _families(G):
        at = lane_of[hf.facet]
        mask = (1 << width) - 1 << at
        by_lane.setdefault((mask, signs + (_certify(G, hf) << at) & mask), []).append(hf)
    points = {hf: [] for hf in _families(G)}
    for x in holes(G, D):
        total = facets_mod._lane_sum(columns, signs, x)
        for (mask, want), families in by_lane.items():
            if total & mask == want:
                for hf in families:
                    if _in_family(hf, x):
                        points[hf].append(x)
    return {hf: frozenset(p) for hf, p in points.items()}


def _in_family(hf: HoleFamily, x) -> bool:
    return hf.face.contains(list(map(operator.sub, x, hf.shift)))


def _certify(G: Graph, hf: HoleFamily) -> int:
    """Prove that the family holds no semigroup point at any degree, and
    return its shift's height h = H(q) on its facet H.

    Every edge has H(e) >= 0 and the face lattice L_F lies in H = 0, so a
    semigroup point x in the family has H(x) = h: it is a sum of edges with
    H(e) >= 1 whose H-values add to h, plus face edges, so it lies in
    w + L_F for one of the finitely many such sums w (`_witnesses`). The
    family is free of semigroup points iff no witness is in it. A witness
    in it is a family point that is no hole, and raises
    DecompositionMismatchError.
    """
    height = hf.facet.value(hf.shift)
    for w in _witnesses(G, hf.facet, height):
        if _in_family(hf, w):
            raise DecompositionMismatchError({
                "family": hf._json(G),
                "holes_not_covered": [],
                "family_points_not_holes": [list(w)],
                "passed": False,
            })
    return height


def _witnesses(G: Graph, H: facets_mod.Hyperplane, h: int) -> tuple:
    """The sums of edges e with H(e) >= 1 whose H-values add to h, each
    once: {0} at h = 0, the edges with H(e) = 1 at h = 1, in edge order.
    A sum at height k is an edge of height j plus a sum at height k - j."""
    sums = {0: dict.fromkeys([(0,) * G.dimension])}
    for k in range(1, h + 1):
        sums[k] = dict.fromkeys(_add(e, s) for e in generators(G)
                                if 1 <= (j := H.value(e)) <= k for s in sums[k - j])
    return tuple(sums.get(h, ()))


def hole_decomposition(G: Graph, D: int | None = None) -> tuple:
    """The predicted families: for every exceptional cycle set, one family
    per admissible facet. The families are built once per graph; passing D
    also computes every family's points at degree D, certifying each family
    and filtering the holes."""
    families = _families(G)
    if D is not None:
        _family_points(G, D)
    return families


@per_graph
def _families(G: Graph) -> tuple:
    families = []
    for cycles in exceptional_families(G):
        q = q_vector(G, cycles)
        families += [HoleFamily(q, h, cycles, facets_mod.face_of(G, h))
                     for h in admissible_facets(G, cycles)]
    return tuple(families)


def verify_decomposition(G: Graph, D: int) -> dict:
    """Check that the enumerated holes up to degree D equal the union of
    the predicted families' truncated points. Returns the evidence report;
    raises DecompositionMismatchError when the sets differ. The report is
    built once per (G, D) and shared with s2_verdict's evidence, so it is
    read-only: a caller that edits it must copy it first."""
    report = _report(G, D)
    if not report["passed"]:
        raise DecompositionMismatchError(report)
    return report


@per_graph
def _report(G: Graph, D: int) -> dict:
    # verify_decomposition's report, passed or not, cached on G: `analyze`
    # asks for it and then s2_verdict reads it at the same degree
    families = hole_decomposition(G)
    hole_set = holes(G, D)
    union = frozenset().union(*(hf.points(G, D) for hf in families))
    missed = graded_sorted(hole_set - union)
    extra = graded_sorted(union - hole_set)
    return {
        "graph": {"dimension": G.dimension, "edges": G.edge_count},
        "degree": D,
        "type": classify(G).as_json(),
        "exceptional_pairs": [cycles_json(P) for P in exceptional_pairs(G)],
        "families": [hf.as_json(G, D) for hf in families],
        "family_dimensions": [hf.dimension for hf in families],
        "hole_count_by_degree": count_by_degree(hole_set),
        "family_point_total": len(union),
        "hole_total": len(hole_set),
        "holes_not_covered": [list(x) for x in missed],
        "family_points_not_holes": [list(x) for x in extra],
        "passed": not missed and not extra,
    }


def degree_cap() -> int:
    """The truncation-degree cap from EDGERING_MAX_DEGREE (default 12), at
    most MAX_PACKED_DEGREE, the largest degree the packed enumerations hold."""
    raw = os.environ.get("EDGERING_MAX_DEGREE", "12")
    if not raw.strip().isdecimal() or int(raw) > MAX_PACKED_DEGREE:
        raise EdgeRingError(
            f"EDGERING_MAX_DEGREE must be an integer from 0 to "
            f"{MAX_PACKED_DEGREE}, got {raw!r}"
        )
    return int(raw)


def default_truncation(G: Graph) -> int:
    """Default degree bound: 6 + 2 * floor(n / 2) for a cactus with n hub
    triangles, 8 otherwise; capped by EDGERING_MAX_DEGREE (default 12). It
    need not reach a larger cycle set's shift (3k, plus 1 for odd k): the
    odd set of n = 3 has degree 10 and the four-cycle set of n = 4 has 12.
    Such a family's certificate still holds at every degree, but whether the
    families cover the holes is checked only up to the bound, and at degree
    14 they do not: cact4b has a hole there in a certified class for which
    no family is built (see the module docstring). The default cap of 12
    keeps this bound below it."""
    cap = degree_cap()
    ct = classify(G)
    if ct.tag in (TYPE1, TYPE2):
        return min(2 * (ct.triangles // 2) + 6, cap)
    return min(8, cap)


def s2_verdict(G: Graph, D: int | None = None) -> dict:
    """Normality plus the (S2) verdict with supporting evidence.

    Normal graphs are (S2) outright, checked here by an empty hole set up
    to D: holes under a normality verdict make it inconclusive (None), never
    a confident True. Diameter-4 triangular cacti go through the family
    decomposition: verification must pass on every rung of the degree
    ladder up to D, and every family must have dimension d-1; a family of
    lower dimension would make the verdict inconclusive (None), never a
    confident failure, and so would a D below every shift degree, which
    compares no hole. Non-normal graphs outside the class are inconclusive.

    The ladder is one report, built at D. The family filter reads each hole
    alone, so a rung's holes and family points are the top's of degree at
    most that rung: every rung is a slice of the one top report, and
    `verified_at` and `ladder_consistent` hold by construction. A failed
    report is raised at the first rung that fails, the lowest at or above
    the least degree of a mismatched point, as verify_decomposition there
    raises it.
    """
    if D is None:
        D = default_truncation(G)
    ct = classify(G)
    normal = is_normal(G)
    if normal:
        hole_count = len(holes(G, D))
        evidence = {"route": "normal", "degree": D, "type": ct.as_json(),
                    "hole_count": hole_count}
        if hole_count:
            evidence["reason"] = (f"the graph passes the normality test but "
                                  f"has {hole_count} holes up to degree {D}")
        return {"normal": True, "s2": None if hole_count else True,
                "evidence": evidence}
    if ct.tag == NOT_DIAM4:
        return {
            "normal": False,
            "s2": None,
            "evidence": {
                "route": "unsupported",
                "degree": D,
                "type": ct.as_json(),
                "reason": "no decomposition is available for this graph class",
                "hole_count_by_degree": count_by_degree(holes(G, D)),
            },
        }
    ladder = sorted({x for x in (6, 8, 10, 12) if x < D} | {D})
    top = _report(G, D)
    if not top["passed"]:
        least = min(map(sum, top["holes_not_covered"] + top["family_points_not_holes"]))
        rung = next(Dk for Dk in ladder if Dk >= least)
        raise DecompositionMismatchError(_report(G, rung))
    d = G.dimension
    dims_ok = all(x == d - 1 for x in top["family_dimensions"])
    s2: bool | None = True if dims_ok else None
    evidence = {
        "route": ct.tag,
        "degree": D,
        "ladder": ladder,
        "ambient_dimension": d,
        "all_families_full_dimension": dims_ok,
        # every rung is a slice of the one top report
        "ladder_consistent": True,
        "verified_at": dict.fromkeys(map(str, ladder), True),
        # the top rung's report already holds this evidence
        **{k: top[k] for k in ("type", "exceptional_pairs", "families",
                               "family_dimensions", "hole_count_by_degree")},
    }
    if reason := uncompared(top):
        s2, evidence["reason"] = None, reason
    return {"normal": False, "s2": s2, "evidence": evidence}


def uncompared(report: dict) -> str | None:
    """Why a `verify_decomposition` report compared no hole, or None."""
    D = report["degree"]
    if min((f["shift_degree"] for f in report["families"]), default=D + 1) > D:
        return f"no hole family has a shift of degree at most {D}, so no hole was compared"

