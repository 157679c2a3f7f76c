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
from typing import Iterable, Sequence

from .errors import BipartiteGraphError
from .graph_core import (
    Graph,
    bits,
    check_vector,
    indicator,
    odd_everywhere,
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


# Hyperplane values in lanes of one int: value h, biased by 2**(width - 1),
# in lane h, so a lane's top bit is set iff its value is >= 0. While every
# value is smaller in size than the bias no lane carries into the next, and
# adding ints adds every lane at once.
LANE_BITS = 16


def _lanes(values: Sequence[int], width: int = LANE_BITS) -> int:
    """Signed values, value i biased in lane i; OverflowError if a biased
    value does not fit its lane. `width` is a multiple of 8."""
    bias, size = 1 << (width - 1), width // 8
    return int.from_bytes(b"".join([(bias + v).to_bytes(size, "little")
                                    for v in values]), "little")


def _sign_bits(lanes: Iterable[int], width: int = LANE_BITS) -> int:
    """The top bits of the given lanes: set in a packed int iff those
    lanes hold values >= 0."""
    bias = 1 << (width - 1)
    return sum(bias << width * i for i in lanes)


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
    adj, full = G.neighbor_masks, (1 << G.dimension) - 1
    if not odd_everywhere(adj, full):
        raise BipartiteGraphError("regular vertices need at least one odd cycle")
    return tuple(v for i, v in enumerate(G.vertices)
                 if odd_everywhere(adj, full & ~(1 << i)))


@per_graph
def fundamental_sets(G: Graph) -> tuple:
    """Every fundamental set, enumerated exhaustively over independent sets,
    sorted by (size, vertex indices)."""
    require_connected(G)
    found: list = []
    _fundamental_masks(G.neighbor_masks, (1 << G.dimension) - 1, 0, 0, 0, (), found)

    def members(mask: int) -> frozenset:
        # frozenset of a set, not of a generator: copying a set sizes the
        # table to fit, where growing one from a generator can leave it
        # half empty, and the facet list keeps thousands of these
        return frozenset({G.vertices[i] for i in bits(mask)})

    out = [FundamentalSet(members(T), members(N)) for T, N in found]
    out.sort(key=lambda F: F.sort_key(G))
    return tuple(out)


# fundamental_sets walks vertex sets as bitmasks against the graph's
# neighbour masks, G.neighbor_masks. The walk takes the masks, not G, and lives
# at module level: a recursive closure over G would be a reference cycle
# holding G, and everything cached on it, until the cycle collector runs.

def _fundamental_masks(adj: Sequence[int], full: int, start: int, T: int, N: int,
                       parts: tuple, found: list) -> None:
    """Append (T, N(T)) for every fundamental set that extends the
    independent set T by vertices of index `start` or later, depth first.
    Extending T only by vertices outside N(T) keeps it independent.

    `parts` holds, per component of T's contact graph (T and N(T) with the
    edges of G between them), that component's part of N(T). Vertices of
    T meet only through common neighbors, so a new vertex i merges exactly
    the components whose parts meet N(i), and T is contact-connected iff
    one part is left."""
    for i in range(start, len(adj)):
        if N >> i & 1:
            continue
        merged, apart = adj[i], []
        for part in parts:
            if part & adj[i]:
                merged |= part
            else:
                apart.append(part)
        T_i, N_i = T | 1 << i, N | adj[i]
        if not apart and odd_everywhere(adj, full & ~(T_i | N_i)):
            found.append((T_i, N_i))
        _fundamental_masks(adj, full, i + 1, T_i, N_i, (merged, *apart), found)


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
        coeffs = tuple((v in F.neighborhood) - (v in F.vertices)
                       for v in G.vertices)
        out.append(Hyperplane(coeffs, "fundamental", sets=(F,)))
    return tuple(out)


def cone_contains(G: Graph, x: Sequence[int]) -> bool:
    """True iff every supporting hyperplane evaluates >= 0 on x.

    All of them are read at once: hyperplane h's value is lane h of
    signs + sum(x_i * column_i). Every coefficient is in {-1, 0, 1}, so no
    value exceeds sum(|x_i|) in size, and lanes whose bias is larger than
    that never carry into each other: the test is exact for every integer
    vector."""
    x = check_vector(G, x)
    width = LANE_BITS * (sum(map(abs, x)).bit_length() // LANE_BITS + 1)
    columns, signs = _cone_columns(G, width)
    total = signs
    for c, column in zip(x, columns):
        if c == 1:  # most coordinates of a query are 0 or 1
            total += column
        elif c:
            total += c * column
    return total & signs == signs


@per_graph
def _cone_columns(G: Graph, width: int) -> tuple:
    # column i holds every supporting hyperplane's coefficient of x_i,
    # hyperplane h's in lane h; `signs`, all lanes at value 0, is their
    # bias and their top bits at once
    hyps = supporting_hyperplanes(G)
    signs = _lanes([0] * len(hyps), width)
    columns = tuple(_lanes(column, width) - signs
                    for column in zip(*(h.coefficients for h in hyps)))
    return columns, signs


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
