"""Supporting hyperplanes of the edge cone.

The cone spanned by the edge generators is cut out by two kinds of
hyperplanes: one per regular vertex (the coordinate hyperplane x_v = 0,
where regular means every component left after deleting v still has an odd
cycle) and one per fundamental set T (the balance hyperplane comparing T
against its neighborhood). Membership, facet generators, and facet rank all
reduce to integer evaluations against this list.

The list is kept on vertex bitmasks (vertex i in bit i) from the walk that
finds the fundamental sets, sorted by an integer key, to the lane columns of
`cone_contains`: a hyperplane is the masks of its +1 and -1 coefficients, a
fundamental set T its hyperplane, +1 on N(T) and -1 on T. Coefficients are
built on first use, labels only in `as_json`. A face is the lattice its edge
generators span, whose rank is the face's dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import BipartiteGraphError
from .graph_core import (
    Graph,
    _pack,
    _sweep,
    bits,
    check_vector,
    generators,
    neighbors_mask,
    odd_everywhere,
    per_graph,
    require_connected,
)
from .lattices import IntegerLattice


@dataclass(frozen=True)
class Hyperplane:
    """A supporting hyperplane, stored as the masks of its +1 and -1
    coefficients over `dimension` coordinates.

    The cone lies in the half-space functional(x) >= 0. Regular-vertex
    hyperplanes have the indicator of the vertex as coefficients; the
    hyperplane of a fundamental set T is T itself, with `minus` the mask of
    T and `plus` the mask of N(T).
    """

    plus: int
    minus: int
    dimension: int
    kind: str  # "regular" | "fundamental"
    vertex: object = None

    @cached_property
    def coefficients(self) -> tuple:
        """The integer coefficient vector, in the graph's vertex order."""
        return tuple((self.plus >> i & 1) - (self.minus >> i & 1)
                     for i in range(self.dimension))

    def value(self, x: Sequence[int]) -> int:
        return sum(c * xc for c, xc in zip(self.coefficients, x))

    def as_json(self, G: Graph) -> dict:
        if self.kind == "regular":
            return {"kind": "regular", "vertex": str(self.vertex)}
        return {
            "kind": "fundamental",
            "T": [str(G.vertices[i]) for i in bits(self.minus)],
            "coeffs": list(self.coefficients),
        }


# Hyperplane values in lanes of one int: value h, biased by 2**(width - 1),
# in lane h, so a lane's top bit is set iff its value is >= 0. While every
# value is smaller in size than the bias no lane carries into the next, and
# adding ints adds every lane at once.
LANE_BITS = 16


def _lanes(values: Sequence[int], width: int = LANE_BITS) -> int:
    """Signed values, value i biased in lane i; EdgeRingError if a biased
    value does not fit its lane. `width` is a multiple of 8."""
    return _pack([(1 << width - 1) + v for v in values], width)


def _sign_bits(lanes: Iterable[int], width: int = LANE_BITS) -> int:
    """The top bits of the given lanes: set in a packed int iff those
    lanes hold values >= 0."""
    bias = 1 << (width - 1)
    return sum(bias << width * i for i in lanes)


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
    """The hyperplane of every fundamental set T (an independent set whose
    contact graph with N(T) is connected and whose complement beyond N(T)
    has an odd cycle in every component), sorted by (size, vertex indices)
    of T: +1 on N(T), -1 on T."""
    require_connected(G)
    adj, full = G.neighbor_masks, (1 << G.dimension) - 1
    # contact[i]: the vertices at distance exactly 2 from i. Two vertices
    # of an independent set meet in its contact graph (T and N(T) with the
    # edges of G between them) iff they have a common neighbor, so T is
    # contact-connected iff it is connected under `contact`
    contact = [neighbors_mask(adj, a) & ~(a | 1 << i) for i, a in enumerate(adj)]
    odd = odd_everywhere(adj, full)
    found: list = []
    for v in range(G.dimension):
        _grow(adj, contact, 0, 0, (2 << v) - 1, ((full, odd),), not odd, 1 << v,
              found)
    # (size, vertex indices ascending) as one int: of two sets of one size, the
    # one with the least index outside the other has the larger reversed mask
    d, digits = G.dimension, f"0{G.dimension}b"
    found.sort(key=lambda TN: (TN[0].bit_count() << d) - int(format(TN[0], digits)[::-1], 2))
    # each Hyperplane(N, T, d, "fundamental"), its fields set at once: half __init__'s cost
    hyps = [object.__new__(Hyperplane) for _ in found]
    for h, (T, N) in zip(hyps, found):
        vars(h).update(plus=N, minus=T, dimension=d, kind="fundamental", vertex=None)
    return tuple(hyps)


# fundamental_sets walks vertex sets as bitmasks against the graph's
# neighbour masks, G.neighbor_masks. The walk takes the masks, not G, and lives
# at module level: a recursive closure over G would be a reference cycle
# holding G, and everything cached on it, until the cycle collector runs.

def _grow(adj: Sequence[int], contact: Sequence[int], T: int, N: int, seen: int,
          parts: tuple, even: int, ext: int, found: list) -> None:
    """Extend the contact-connected independent set T (N = N(T)) by each
    vertex of `ext` in turn, depth first, and append (T', N(T')) for every
    fundamental T' reached.

    This is Wernicke's ESU (2006) on the `contact` graph: T grows from its
    least vertex v; `seen` holds every vertex up to v, T and T's contact
    neighbours, and a child's candidates are its parent's remaining ones
    plus the new vertex's contact neighbours not yet seen. So every
    contact-connected set comes out exactly once. Candidates in N(T) are
    dropped: they would break independence.

    `parts` holds the components of G - N[T], each with whether it has an
    odd cycle, and `even` counts those without one; T is fundamental iff
    `even` is 0. Adding w removes N[w] from the one component holding w,
    so only that component is swept again."""
    while ext:
        low = ext & -ext
        ext ^= low
        w = low.bit_length() - 1
        for k, (part, odd) in enumerate(parts):
            if part & low:
                break
        rest = part & ~(low | adj[w])
        split = parts[:k] + parts[k + 1:]
        even_w = even - (not odd)
        while rest:
            piece, _, piece_odd = _sweep(adj, rest & -rest, rest)
            split += ((piece, piece_odd),)
            even_w += not piece_odd
            rest &= ~piece
        T_w, N_w = T | low, N | adj[w]
        if not even_w:
            found.append((T_w, N_w))
        _grow(adj, contact, T_w, N_w, seen | contact[w], split, even_w,
              (ext | contact[w] & ~seen) & ~N_w, found)


@per_graph
def supporting_hyperplanes(G: Graph) -> tuple:
    """One hyperplane per regular vertex followed by the fundamental_sets
    hyperplanes themselves. No two coincide: a fundamental set T is
    independent, so its coefficients are -1 exactly on T, and regular ones
    have no -1. regular_vertices, called first, refuses disconnected and
    bipartite G."""
    d = G.dimension
    regular = tuple(Hyperplane(1 << G.index(v), 0, d, "regular", vertex=v)
                    for v in regular_vertices(G))
    return regular + fundamental_sets(G)


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
    return _lane_sum(columns, signs, x) & signs == signs


def _lane_sum(columns: Sequence[int], signs: int, x: Sequence[int]) -> int:
    # every supporting hyperplane's value on x, hyperplane h's biased in
    # lane h: `signs` plus x's combination of `_cone_columns`' columns
    total = signs
    for c, column in zip(x, columns):
        if c == 1:  # most coordinates of a query are 0 or 1
            total += column
        elif c:
            total += c * column
    return total


@per_graph
def _cone_columns(G: Graph, width: int) -> tuple:
    # column i holds every supporting hyperplane's coefficient of x_i,
    # hyperplane h's in lane h: bit i of h's +1 mask less bit i of its -1
    # mask. `signs`, all lanes at value 0, is their bias and their top bits
    # at once
    hyps = supporting_hyperplanes(G)
    plus = _bit_columns([h.plus for h in hyps], G.dimension, width)
    minus = _bit_columns([h.minus for h in hyps], G.dimension, width)
    return (tuple(p - m for p, m in zip(plus, minus)),
            _lanes([0] * len(hyps), width))


def _bit_columns(masks: Sequence[int], dimension: int, width: int) -> list:
    """Column i of the bit matrix whose row h is masks[h], for i below
    `dimension`: bit i of masks[h] in lane h. The masks are packed width - 1
    bits at a time, chunk c of mask h as the value of lane h, and each
    column is then one shift and one and of its chunk."""
    step, ones = width - 1, _pack([1] * len(masks), width)
    columns = []
    for base in range(0, dimension, step):
        rows = _pack([m >> base & (1 << step) - 1 for m in masks], width)
        columns += [rows >> j & ones for j in range(min(step, dimension - base))]
    return columns


@per_graph
def face_of(G: Graph, H: Hyperplane) -> IntegerLattice:
    """The lattice spanned by the edge generators H vanishes on; its rank
    is the dimension of the face H supports."""
    return IntegerLattice(G.dimension, [g for g in generators(G) if H.value(g) == 0])
