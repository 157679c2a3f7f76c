"""Closed-form membership tests for sums built from exceptional pairs, their
case generators and the reports that check each case against the membership
oracle. The closed forms are proved only for triangular cacti of diameter 4:
`require_diameter4_cactus` gates them, and they refuse other inputs rather
than extrapolate. The pairs and the odd cycle condition live in `graph_core`;
a pair is a 2-tuple of minimal odd cycles, checked and tested on the vertex
masks of its cycle table. Labels appear only in the reports.
"""

from __future__ import annotations

import itertools

from .errors import (
    NotAnEdgeError,
    NotDiameterFourCactusError,
    PreconditionViolatedError,
)
from .graph_core import (
    Cycle,
    Graph,
    _add,
    _cycle_table,
    cycles_json,
    diameter,
    exceptional_pairs,
    hub_vertex,
    indicator,
    is_exceptional,
    is_triangular_cactus,
    pair_vector,
    per_graph,
)
from .semigroup import decompose


# ---------------------------------------------------------------------------
# closed forms for cycle-pair sums on diameter-4 triangular cacti
# ---------------------------------------------------------------------------

@per_graph
def require_diameter4_cactus(G: Graph):
    """Gate: G must be a triangular cactus of diameter 4. Returns the hub."""
    if not is_triangular_cactus(G) or diameter(G) != 4:
        raise NotDiameterFourCactusError(
            "the closed forms and the hole families are proved only for "
            "diameter-4 triangular cacti"
        )
    return hub_vertex(G)


def _pair_reach(G: Graph, P: tuple) -> int:
    """The mask of P's vertices and every vertex adjacent to one of them,
    once P is checked to be an exceptional pair of minimal odd cycles."""
    table = _cycle_table(G)
    if not (isinstance(P, tuple) and len(P) == 2
            and all(isinstance(c, Cycle) and c in table for c in P)):
        raise PreconditionViolatedError(f"{P!r} is not two minimal odd cycles of G")
    (on_a, reach_a), (on_b, reach_b) = table[P[0]], table[P[1]]
    if reach_a & on_b:
        raise PreconditionViolatedError("the given pair is not exceptional")
    return reach_a | reach_b


def lemma_pair_sum(G: Graph, P1: tuple, P2: tuple) -> bool:
    """Whether the sum of both pairs' cycle vectors lies in the semigroup.

    True iff the four cycles can be re-matched across the pairs so that both
    cross pairs fail to be exceptional (share a vertex or have a bridge).
    Only the two cross matchings are candidates.
    """
    require_diameter4_cactus(G)
    _pair_reach(G, P1)
    _pair_reach(G, P2)
    a, b = P1
    c, d = P2
    for left, right in (((a, c), (b, d)), ((a, d), (b, c))):
        if not is_exceptional(G, *left) and not is_exceptional(G, *right):
            return True
    return False


def lemma_pair_sum_vector(G: Graph, P1: tuple, P2: tuple) -> tuple:
    return _add(pair_vector(G, P1), pair_vector(G, P2))


def lemma_edge_augment(G: Graph, P: tuple, edge) -> bool:
    """Whether pair vector + unit(u) + unit(v) for an edge {u, v} lies in
    the semigroup: true iff one endpoint is the hub and the other is in the
    pair's vertex set or its neighborhood."""
    w = require_diameter4_cactus(G)
    reach = _pair_reach(G, P)
    u, v = edge
    if not G.has_edge(u, v):
        raise NotAnEdgeError(f"{{{u!r}, {v!r}}} is not an edge")
    return any(a == w and reach >> G.index(b) & 1 for a, b in ((u, v), (v, u)))


def lemma_edge_augment_vector(G: Graph, P: tuple, edge) -> tuple:
    return _add(pair_vector(G, P), indicator(G, edge))


def lemma_double_w_edge(G: Graph, P: tuple, u, v) -> bool:
    """Whether pair vector + rho({u, hub}) + rho({v, hub}) lies in the
    semigroup, for hub neighbors u, v outside the pair's closed reach:
    true iff {u, v} is an edge."""
    w = require_diameter4_cactus(G)
    reach = _pair_reach(G, P)
    for end in (u, v):
        if not G.has_edge(end, w):
            raise PreconditionViolatedError(f"{end!r} is not adjacent to the hub")
        if reach >> G.index(end) & 1:
            raise PreconditionViolatedError(
                f"{end!r} lies in the pair's vertex set or neighborhood"
            )
    return G.has_edge(u, v)


def lemma_double_w_edge_vector(G: Graph, P: tuple, u, v) -> tuple:
    w = require_diameter4_cactus(G)
    q = pair_vector(G, P)
    return _add(q, _add(indicator(G, G.edge(u, w)), indicator(G, G.edge(v, w))))


# ---------------------------------------------------------------------------
# exhaustive verdict reports (closed form vs oracle)
# ---------------------------------------------------------------------------

def pair_sum_cases(G: Graph):
    """Reports for every unordered pair of exceptional pairs, repeats included."""
    pairs = exceptional_pairs(G)
    for P1, P2 in itertools.combinations_with_replacement(pairs, 2):
        vec = lemma_pair_sum_vector(G, P1, P2)
        yield _report(
            G, "pair_sum",
            {"pair1": cycles_json(P1), "pair2": cycles_json(P2)},
            lemma_pair_sum(G, P1, P2), vec,
        )


def edge_augment_cases(G: Graph):
    """Reports for every (exceptional pair, edge) combination."""
    for P in exceptional_pairs(G):
        for e in G.edges:
            vec = lemma_edge_augment_vector(G, P, e)
            yield _report(
                G, "edge_augment",
                {"pair": cycles_json(P), "edge": [str(e[0]), str(e[1])]},
                lemma_edge_augment(G, P, e), vec,
            )


def double_w_edge_cases(G: Graph):
    """Reports for every (exceptional pair, u, v) meeting the preconditions:
    u, v adjacent to the hub and outside the pair's closed neighborhood."""
    w = require_diameter4_cactus(G)
    spokes = sorted(G.neighbors(w), key=G.index)
    for P in exceptional_pairs(G):
        reach = _pair_reach(G, P)
        ok = [u for u in spokes if not reach >> G.index(u) & 1]
        for u, v in itertools.combinations_with_replacement(ok, 2):
            vec = lemma_double_w_edge_vector(G, P, u, v)
            yield _report(
                G, "double_w_edge",
                {"pair": cycles_json(P), "u": str(u), "v": str(v)},
                lemma_double_w_edge(G, P, u, v), vec,
            )


def _report(G: Graph, lemma: str, inputs: dict, closed_form: bool, vec: tuple) -> dict:
    witness = decompose(G, vec)
    oracle = witness is not None
    return {
        "lemma": lemma,
        "inputs": inputs,
        "vector": list(vec),
        "closed_form": closed_form,
        "oracle": oracle,
        "witness": [list(map(str, e)) for e in witness] if witness else None,
        "agree": closed_form == oracle,
    }
