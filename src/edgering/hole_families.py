"""Hole structure of diameter-4 triangular cacti.

By Katthän's criterion (manuscripta math. 2015; the route of arXiv
2402.17413), the holes of the edge semigroup are a finite union of families,
each a shift q plus the lattice of a face F of the cone, within the
normalization N, and (S2) holds exactly when the faces can all be facets:
every family of dimension d - 1. This module builds such a union and checks
it, degree slab by degree slab, against independently enumerated holes.

Shifts. Exceptional cycles (disjoint, no edge between) are pendant triangles
on distinct hub triangles: hub triangles share the hub w, every other
triangle holds a spoke adjacent to w, and a hub triangle's spokes are
adjacent. So a collection is a set C of k >= 2 pairwise-exceptional cycles
missing w, and its shift is the sum of their indicators 1_c, plus the hub
unit e_w when k is odd, as N lies in the lattice of even degree. It is a
hole: each odd cycle needs an edge leaving it, none joins two of them, and
the one unit at w can close one cycle but not k >= 3.

Facets. The facet must keep the shift at its least height, so the cycles
must not count in it: a fundamental set T qualifies when w lies in N(T) and
T's closed neighborhood misses every cycle of C (height 0 for even k, 1 for
odd), and on Type 1 (hub regular) so does the hub facet x_w >= 0.

Points. Every family point is a hole, at every degree: a lattice
certificate per family (`_certify`) proves that the family holds no
semigroup point, so its points are read from the holes. Only the other
direction, that the families cover every hole, is checked, up to the
truncation degree D. It is not proven: a sweep of every class with d <= 17
and at most 3 pendants per spoke found the union equal to the holes at
D = 10 (d <= 13 also at 12), with every family of dimension d - 1. It did
not cover spokes with 4 or more pendants, or k = 5 (d >= 21, shift degree
16).
"""

from __future__ import annotations

import itertools
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
from .exceptional import (
    exceptional_pairs,
    is_exceptional,
    is_normal,
    require_diameter4_cactus,
)
from .graph_core import Graph, indicator, per_graph
from .semigroup import (
    MAX_PACKED_DEGREE,
    count_by_degree,
    generators,
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


def _require_cactus_type(G: Graph) -> CactusType:
    ct = classify(G)
    if ct.tag == NOT_DIAM4:
        raise NotDiameterFourCactusError(
            "hole-family construction needs a diameter-4 triangular cactus"
        )
    return ct


@dataclass(frozen=True)
class ExceptionalFamily:
    """A set of at least two pairwise-exceptional minimal odd cycles, in
    canonical cycle order. An odd set also holds the hub, whose unit joins
    its shift."""

    cycles: tuple
    hub: object = None

    @property
    def vertex_set(self) -> frozenset:
        return frozenset().union(*(c.vertex_set for c in self.cycles))

    def as_json(self) -> dict:
        cycles = [list(map(str, c.vertices)) for c in self.cycles]
        if len(cycles) == 2:
            return {"pairs": [cycles]}
        out = {"cycles": cycles}
        if self.hub is not None:
            out["hub"] = str(self.hub)
        return out


@per_graph
def exceptional_families(G: Graph) -> tuple:
    """Every set of at least two pairwise-exceptional minimal odd cycles, by
    size and then in canonical order, each grown from its last cycle's later
    partners; the two-cycle sets are the exceptional pairs."""
    hub = _require_cactus_type(G).hub
    pairs = exceptional_pairs(G)
    later = {}
    for P in pairs:
        later.setdefault(P.first, []).append(P.second)
    out = []
    sets = [P.cycles() for P in pairs]
    while sets:
        out += [ExceptionalFamily(s, hub if len(s) % 2 else None) for s in sets]
        sets = [s + (c,) for s in sets for c in later.get(s[-1], ())
                if all(is_exceptional(G, a, c) for a in s[:-1])]
    return tuple(out)


def q_vector(G: Graph, family: ExceptionalFamily) -> tuple:
    """The family's shift: the indicator of its cycles' vertices, plus the
    hub unit for an odd set; degree 3k or 3k + 1 for k pendant triangles."""
    if not family.cycles:
        raise EmptySetError("a family needs at least two exceptional cycles")
    hub = () if family.hub is None else (family.hub,)
    return indicator(G, family.vertex_set.union(hub))


def admissible_fundamental_sets(G: Graph, family: ExceptionalFamily) -> tuple:
    """Fundamental sets whose neighborhood contains the hub and whose closed
    neighborhood misses every cycle of the family."""
    hub = _require_cactus_type(G).hub
    return tuple(
        F for F in facets_mod.fundamental_sets(G)
        if hub in F.neighborhood and not (F.vertices | F.neighborhood) & family.vertex_set
    )


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
    family: ExceptionalFamily
    face: facets_mod.FaceData

    @property
    def dimension(self) -> int:
        return self.face.dimension

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
        out = {
            "shift": list(self.shift),
            "shift_degree": vector_degree(self.shift),
            "facet": self.facet.as_json(G),
            "dimension": self.dimension,
            "source": self.source,
            **self.family.as_json(),
        }
        if D is not None:
            out["points_by_degree"] = count_by_degree(self.points(G, D))
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
    # a hole can be in it only at the shift's height
    hole_set = holes(G, D)
    points = {}
    for hf in _families(G):
        height = _certify(G, hf)
        points[hf] = frozenset(
            x for x in hole_set
            if hf.facet.value(x) == height and _in_family(hf, x)
        )
    return points


def _in_family(hf: HoleFamily, x) -> bool:
    return hf.face.lattice.contains([a - b for a, b in zip(x, hf.shift)])


def _certify(G: Graph, hf: HoleFamily) -> int:
    """Prove that the family holds no semigroup point at any degree, and
    return its shift's height H(q) on its facet H.

    Every edge has H(e) >= 0 and the face lattice L_F lies in H = 0, so a
    semigroup point x in the family has H(x) = H(q). At height 0 it uses
    face edges only, so x lies in 0 + L_F; at height 1 it is one edge e with
    H(e) = 1 plus face edges, so x lies in e + L_F. The family is free of
    semigroup points iff none of these low-degree witnesses (0, or each
    such e) is in it. A witness in it is a family point that is no hole,
    and raises DecompositionMismatchError.
    """
    H = hf.facet
    height = H.value(hf.shift)
    if height == 0:
        witnesses = [(0,) * G.dimension]
    elif height == 1:
        witnesses = [e for e in generators(G) if H.value(e) == 1]
    else:
        raise PreconditionViolatedError(
            f"a family's shift must lie at height 0 or 1 on its facet, not {height}"
        )
    for w in witnesses:
        if _in_family(hf, w):
            raise DecompositionMismatchError({
                "family": hf.as_json(G),
                "holes_not_covered": [],
                "family_points_not_holes": [list(w)],
                "passed": False,
            })
    return height


def hole_decomposition(G: Graph, D: int | None = None) -> tuple:
    """The predicted families: for every exceptional cycle set, one family
    per admissible fundamental set, plus the hub facet family when
    the hub is regular (Type 1). The families are built once per graph;
    passing D also computes every family's points at degree D, certifying
    each family and filtering the holes."""
    families = _families(G)
    if D is not None:
        _family_points(G, D)
    return families


@per_graph
def _families(G: Graph) -> tuple:
    hub = _require_cactus_type(G).hub
    hyps = facets_mod.supporting_hyperplanes(G)
    by_set = {F: h for h in hyps for F in h.sets}
    # the hub's own facet x_w >= 0 exists exactly when the hub is regular
    hub_facets = [h for h in hyps if h.vertex == hub]
    families = []
    for fam in exceptional_families(G):
        q = q_vector(G, fam)
        fam_facets = [by_set[F] for F in admissible_fundamental_sets(G, fam)] + hub_facets
        families += [HoleFamily(q, h, fam, facets_mod.face_of(G, h)) for h in fam_facets]
    return tuple(families)


def verify_decomposition(G: Graph, D: int) -> dict:
    """Check that the enumerated holes up to degree D equal the union of
    the predicted families' truncated points. Returns the evidence report;
    raises DecompositionMismatchError when the sets differ."""
    families = hole_decomposition(G)
    hole_set = holes(G, D)
    union = frozenset().union(*(hf.points(G, D) for hf in families))
    missed = graded_sorted(hole_set - union)
    extra = graded_sorted(union - hole_set)
    report = {
        "graph": {"dimension": G.dimension, "edges": G.edge_count},
        "degree": D,
        "type": classify(G).as_json(),
        "exceptional_pairs": [P.as_json() for P in exceptional_pairs(G)],
        "families": [hf.as_json(G, D) for hf in families],
        "family_dimensions": [hf.dimension for hf in families],
        "hole_count_by_degree": count_by_degree(hole_set),
        "family_point_total": len(union),
        "hole_total": len(hole_set),
        "holes_not_covered": [list(x) for x in missed],
        "family_points_not_holes": [list(x) for x in extra],
        "passed": not missed and not extra,
    }
    if not report["passed"]:
        raise DecompositionMismatchError(report)
    return report


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
    families cover the holes is checked only up to the bound."""
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
    decomposition: verification must pass on every degree slab of the ladder
    up to D, the slabs must agree, and every family must have dimension d-1;
    a family of lower dimension would make the verdict inconclusive (None),
    never a confident failure. Non-normal graphs outside the class are
    inconclusive.
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
    reports = {str(Dk): verify_decomposition(G, Dk) for Dk in ladder}
    top = reports[str(D)]
    monotone = _ladder_consistent(G, ladder)
    d = G.dimension
    dims_ok = all(x == d - 1 for x in top["family_dimensions"])
    s2: bool | None = True if (dims_ok and monotone) else None
    evidence = {
        "route": ct.tag,
        "degree": D,
        "ladder": ladder,
        "ambient_dimension": d,
        "all_families_full_dimension": dims_ok,
        "ladder_consistent": monotone,
        "verified_at": {k: r["passed"] for k, r in reports.items()},
        # the top rung's report already holds this evidence
        **{k: top[k] for k in ("type", "exceptional_pairs", "families",
                               "family_dimensions", "hole_count_by_degree")},
    }
    return {"normal": False, "s2": s2, "evidence": evidence}


def _ladder_consistent(G: Graph, ladder) -> bool:
    """Smaller-degree results must be exactly the degree slices of larger
    ones, for both holes and family points."""
    top = ladder[-1]
    for points in [holes] + [hf.points for hf in hole_decomposition(G)]:
        top_points = points(G, top)
        for Dk in ladder[:-1]:
            if points(G, Dk) != frozenset(x for x in top_points if sum(x) <= Dk):
                return False
    return True
