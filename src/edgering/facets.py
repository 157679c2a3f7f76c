"""Supporting hyperplanes of the edge cone.

The cone spanned by the edge generators is cut out by two kinds of
hyperplanes: one per regular vertex (the coordinate hyperplane x_v = 0,
where regular means every component left after deleting v still has an odd
cycle) and one per fundamental set T (the balance hyperplane comparing T
against its neighborhood). Membership, facet generators, and facet rank all
reduce to integer evaluations against this list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import BipartiteGraphError
from .graph_core import (
    Graph,
    bipartite_induced_connected,
    check_vector,
    components,
    has_odd_cycle,
    indicator,
    neighbors_of_set,
    per_graph,
    require_connected,
)
from .lattices import IntegerLattice


@dataclass(frozen=True)
class FundamentalSet:
    """An independent set whose contact graph with its neighborhood is
    connected and whose complement (beyond the neighborhood) has an odd
    cycle in every component."""

    vertices: frozenset
    neighborhood: frozenset

    def sort_key(self, G: Graph) -> tuple:
        return (len(self.vertices), tuple(sorted(G.index(v) for v in self.vertices)))


@dataclass(frozen=True)
class Hyperplane:
    """A supporting hyperplane, stored as its integer coefficient vector.

    The cone lies in the half-space functional(x) >= 0. Regular-vertex
    hyperplanes have the indicator of the vertex as coefficients; fundamental
    hyperplanes carry +1 on the neighborhood and -1 on the set itself.
    """

    coefficients: tuple
    kind: str  # "regular" | "fundamental"
    vertex: object = None
    sets: tuple = field(default=(), compare=False)

    def value(self, x: Sequence[int]) -> int:
        return sum(c * xc for c, xc in zip(self.coefficients, x))

    def as_json(self, G: Graph) -> dict:
        if self.kind == "regular":
            return {"kind": "regular", "vertex": str(self.vertex)}
        T = sorted(self.sets[0].vertices, key=G.index)
        return {
            "kind": "fundamental",
            "T": [str(v) for v in T],
            "coeffs": list(self.coefficients),
        }


@dataclass(frozen=True)
class FaceData:
    """The edges whose generators lie on a hyperplane, and the lattice those
    generators span; its rank is the dimension of the face."""

    edges: tuple
    lattice: IntegerLattice

    @property
    def dimension(self) -> int:
        return self.lattice.rank


@per_graph
def regular_vertices(G: Graph) -> tuple:
    """All vertices whose deletion leaves only components containing an odd
    cycle, in vertex order."""
    require_connected(G)
    if not has_odd_cycle(G):
        raise BipartiteGraphError("regular vertices need at least one odd cycle")
    out = []
    for v in G.vertices:
        comps = components(G, without=(v,))
        if all(has_odd_cycle(G, c) for c in comps):
            out.append(v)
    return tuple(out)


@per_graph
def fundamental_sets(G: Graph) -> tuple:
    """Every fundamental set, enumerated exhaustively over independent sets,
    sorted by (size, vertex indices)."""
    require_connected(G)
    found = []
    for T in _independent_sets(G, 0, frozenset(), frozenset()):
        N = neighbors_of_set(G, T)
        if bipartite_induced_connected(G, T):
            rest = set(G.vertices) - T - N
            if not rest or all(
                has_odd_cycle(G, c) for c in components(G, within=rest)
            ):
                found.append(FundamentalSet(T, N))
    found.sort(key=lambda F: F.sort_key(G))
    return tuple(found)


def _independent_sets(G: Graph, start: int, chosen: frozenset, blocked: frozenset):
    """Every nonempty independent set that extends `chosen` by vertices of
    index `start` or later outside `blocked`, depth first. Kept at module
    level: a recursive closure over G would be a reference cycle holding G,
    and everything cached on it, until the cycle collector runs."""
    for i in range(start, G.dimension):
        v = G.vertices[i]
        if v in blocked:
            continue
        T = chosen | {v}
        yield T
        # supersets stay independent only if they avoid neighbors
        yield from _independent_sets(G, i + 1, T, blocked | G.neighbors(v))


@per_graph
def supporting_hyperplanes(G: Graph) -> tuple:
    """One hyperplane per regular vertex followed by one per fundamental
    set. No two coincide: a fundamental set T is independent, so its
    coefficients are -1 exactly on T, and regular ones have no -1; `sets`
    is therefore the one-element provenance (T,) of a fundamental
    hyperplane. regular_vertices, called first, refuses disconnected and
    bipartite G."""
    out = [Hyperplane(indicator(G, (v,)), "regular", vertex=v)
           for v in regular_vertices(G)]
    for F in fundamental_sets(G):
        coeffs = tuple(n - t for n, t in zip(indicator(G, F.neighborhood),
                                             indicator(G, F.vertices)))
        out.append(Hyperplane(coeffs, "fundamental", sets=(F,)))
    return tuple(out)


def cone_contains(G: Graph, x: Sequence[int]) -> bool:
    """True iff every supporting hyperplane evaluates >= 0 on x."""
    x = check_vector(G, x)
    return all(h.value(x) >= 0 for h in supporting_hyperplanes(G))


@per_graph
def face_of(G: Graph, H: Hyperplane) -> FaceData:
    """The edges whose generators H vanishes on, with the lattice those
    generators span; its rank is the dimension of the face H supports."""
    from .semigroup import generators

    edges = []
    vectors = []
    for (u, v), g in zip(G.edges, generators(G)):
        if H.value(g) == 0:
            edges.append((u, v))
            vectors.append(g)
    return FaceData(tuple(edges), IntegerLattice(G.dimension, vectors))
