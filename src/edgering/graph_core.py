"""Simple graphs with a fixed vertex order, plus the structural predicates
the cone and semigroup layers are built on.

Every vector anywhere in this package is indexed by a Graph's vertex order,
so that order is fixed at construction and never changes. The triangular
cactus builder produces the canonical test family: a hub vertex "w" on n
triangles, spoke vertices "x1".."x{2n}", and optional pendant triangles
"y{i}_{k}" hanging off each spoke.

A Graph keeps one adjacency, `neighbor_masks`: entry i is the bitmask of
vertex i's neighbours, vertex j in bit j. The label-level accessors
(`neighbors`, `degree`, `has_edge`, `edge`) answer from it, and traversals
read vertex sets as bitmasks against it; one breadth-first sweep, `_sweep`,
serves components, connectivity, eccentricities and the odd-cycle test.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Iterable, Sequence

from .errors import (
    AmbiguousCenterError,
    DimensionMismatchError,
    DisconnectedError,
    DuplicateVertexError,
    EdgeRingError,
    EmptySetError,
    EmptySpecError,
    LoopEdgeError,
    NotAnEdgeError,
    UnknownEndpointError,
)

Vertex = Hashable
Edge = tuple  # canonical (u, v) with index(u) < index(v)


def per_graph(fn):
    """Memoize fn(G, *args) in the cache of the graph instance G, so the
    result is freed with G. Equal graphs built separately share nothing."""

    @functools.wraps(fn)
    def cached(G, *args, **kwargs):
        key = (fn, *args, *sorted(kwargs.items()))
        if key not in G._cache:
            G._cache[key] = fn(G, *args, **kwargs)
        return G._cache[key]

    return cached


class Graph:
    """Immutable finite simple graph.

    Vertices are opaque hashable labels. The order they are listed in is the
    coordinate order of every vector derived from this graph. Edges are
    normalized to (u, v) with u before v in that order, and the edge list is
    sorted, so generator order is reproducible run to run. `neighbor_masks`
    is the graph's one adjacency: entry i has vertex j's bit set iff {i, j}
    is an edge.
    """

    __slots__ = ("vertices", "edges", "neighbor_masks", "_index", "_cache", "_hash",
                 "__weakref__")

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[Sequence[Vertex]]):
        vertices = tuple(vertices)
        if not vertices:
            raise EmptySetError("a graph needs at least one vertex")
        index: dict[Vertex, int] = {}
        for v in vertices:
            if v in index:
                raise DuplicateVertexError(f"vertex {v!r} listed twice")
            index[v] = len(index)
        canonical = set()
        masks = [0] * len(vertices)
        for e in edges:
            u, v = e
            if u == v:
                raise LoopEdgeError(f"loop at {u!r}")
            for end in (u, v):
                if end not in index:
                    raise UnknownEndpointError(f"edge endpoint {end!r} is not a vertex")
            i, j = index[u], index[v]
            if i > j:
                u, v = v, u
            canonical.add((u, v))  # set semantics: repeated edges collapse
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self.vertices = vertices
        self.edges = tuple(sorted(canonical, key=lambda e: (index[e[0]], index[e[1]])))
        self.neighbor_masks = tuple(masks)
        self._index = index
        self._cache = {}
        self._hash = hash((self.vertices, self.edges))

    # -- basic queries ------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Number of vertices; the ambient dimension of all derived vectors."""
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def index(self, v: Vertex) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise UnknownEndpointError(f"{v!r} is not a vertex of this graph") from None

    def neighbors(self, v: Vertex) -> frozenset:
        mask = self.neighbor_masks[self.index(v)]
        return frozenset([self.vertices[j] for j in bits(mask)])

    def degree(self, v: Vertex) -> int:
        return self.neighbor_masks[self.index(v)].bit_count()

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        i, j = self._index.get(u), self._index.get(v)
        return i is not None and j is not None and bool(self.neighbor_masks[i] >> j & 1)

    def edge(self, u: Vertex, v: Vertex) -> Edge:
        """The canonical form of edge {u, v}; NotAnEdgeError if absent."""
        if not self.has_edge(u, v):
            raise NotAnEdgeError(f"{{{u!r}, {v!r}}} is not an edge")
        return (u, v) if self.index(u) < self.index(v) else (v, u)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({self.dimension} vertices, {self.edge_count} edges)"


def check_vector(G: Graph, x: Sequence[int]) -> tuple:
    """x as a tuple of ints, indexed by G's vertex order. Each coordinate
    must be an integer (an int, a bool or a numpy integer); anything else,
    1.5 or 1.0 alike, is refused rather than truncated."""
    x = tuple(x)
    try:
        x = tuple(map(operator.index, x))
    except TypeError:
        i = next(i for i, c in enumerate(x) if not hasattr(type(c), "__index__"))
        raise EdgeRingError(f"coordinate {i} of the vector is {x[i]!r}, "
                            "not an integer") from None
    if len(x) != G.dimension:
        raise DimensionMismatchError(
            f"vector length {len(x)} != graph dimension {G.dimension}"
        )
    return x


def indicator(G: Graph, vertices: Iterable[Vertex]) -> tuple:
    """The 0/1 vector of a vertex set in G's vertex order."""
    on = {G.index(v) for v in vertices}
    return tuple(1 if i in on else 0 for i in range(G.dimension))


def build_from_edges(edge_list: Iterable, vertices: Iterable[Vertex] = None) -> Graph:
    """Construct a Graph from an edge list; vertices default to first
    appearance order over the edges."""
    edge_list = [tuple(e) for e in edge_list]
    if vertices is None:
        seen = []
        for u, v in edge_list:
            for x in (u, v):
                if x not in seen:
                    seen.append(x)
        vertices = seen
    return Graph(vertices, edge_list)


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Cycle:
    """A cycle given by its vertices in canonical cyclic order.

    Canonical means: rotated so the smallest-index vertex comes first and
    oriented toward its smaller-index neighbor, so rotations and reflections
    compare equal.
    """

    vertices: tuple

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)



@per_graph
def minimal_odd_cycles(G: Graph) -> tuple[Cycle, ...]:
    """All chordless odd cycles, each once up to rotation and reflection.

    Induced paths grow from each start s through higher-index vertices and
    close at the first vertex adjacent to s, in Cycle's canonical orientation.
    For a triangular cactus these are the blocks. Sorted by (length, vertex
    indices) so downstream pair enumeration is deterministic.
    """
    adj, full = G.neighbor_masks, (1 << G.dimension) - 1
    found = []
    for s in range(G.dimension):
        later = full & ~((2 << s) - 1)
        stack = [((s, a), 1 << s | 1 << a) for a in bits(adj[s] & later)]
        while stack:
            path, on = stack.pop()
            inner = on & ~(1 << s | 1 << path[-1])
            for v in bits(adj[path[-1]] & later & ~on):
                if adj[v] & inner:
                    continue  # a chord
                if not adj[s] >> v & 1:
                    stack.append((path + (v,), on | 1 << v))
                elif len(path) % 2 == 0 and path[1] < v:
                    found.append(path + (v,))
    found.sort(key=lambda path: (len(path), path))
    return tuple(Cycle(tuple(G.vertices[i] for i in path)) for path in found)


# ---------------------------------------------------------------------------
# connectivity, distance, cutpoints
# ---------------------------------------------------------------------------

def is_connected(G: Graph) -> bool:
    return len(components(G)) == 1


def require_connected(G: Graph) -> None:
    if not is_connected(G):
        raise DisconnectedError("operation requires a connected graph")


def diameter(G: Graph) -> int:
    return max(eccentricities(G).values())


@per_graph
def eccentricities(G: Graph) -> MappingProxyType:
    """Vertex -> eccentricity, one breadth-first sweep each; read-only, as shared."""
    require_connected(G)
    adj, full = G.neighbor_masks, (1 << G.dimension) - 1
    return MappingProxyType({v: _sweep(adj, 1 << i, full)[1]
                             for i, v in enumerate(G.vertices)})


def components(G: Graph, without: Iterable[Vertex] = ()) -> tuple[frozenset, ...]:
    """Vertex sets of the connected components of G minus `without`,
    ordered by smallest vertex index."""
    adj, rest = G.neighbor_masks, (1 << G.dimension) - 1
    for v in without:
        rest &= ~(1 << G.index(v))
    comps = []
    while rest:
        comp = _sweep(adj, rest & -rest, rest)[0]
        comps.append(frozenset(G.vertices[i] for i in bits(comp)))
        rest &= ~comp
    return tuple(comps)


def cutpoints(G: Graph) -> frozenset:
    """Articulation vertices: those whose deletion disconnects G."""
    require_connected(G)
    return frozenset(v for v in G.vertices if len(components(G, without=(v,))) > 1)


def is_triangular_cactus(G: Graph) -> bool:
    """True iff G is connected, has at least one edge, and every block is a
    3-cycle: decided by counting, as every edge in exactly one triangle and
    2|E| = 3(|V| - 1). Edge-disjoint triangles are independent cycles, so
    equality of their number |E|/3 with the cycle rank |E| - |V| + 1 makes
    them a basis: every cycle is a union of edge-disjoint triangles, hence a
    triangle, which leaves no room for a larger block. Conversely a cactus
    of t triangles has 3t edges and 2t + 1 vertices."""
    require_connected(G)
    adj = G.neighbor_masks
    return (0 < 2 * G.edge_count == 3 * (G.dimension - 1)
            and all((adj[G.index(u)] & adj[G.index(v)]).bit_count() == 1
                    for u, v in G.edges))


# ---------------------------------------------------------------------------
# bitmask traversal
# ---------------------------------------------------------------------------

def bits(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _sweep(adj: Sequence[int], start: int, rest: int) -> tuple[int, int, bool]:
    """Breadth-first sweep from the vertices of mask `start` through the
    subgraph induced on `rest`, layer by layer. Returns the mask of all it
    reached, the number of layers after the first, and whether an edge lies
    inside a layer."""
    layer = seen = start
    depth, inside = -1, False
    while layer:
        # the layer's bits walked inline: through the `bits` generator, the
        # odd tests of the fundamental-set walk ran about a quarter slower
        reach, todo = 0, layer
        while todo:
            low = todo & -todo
            a = adj[low.bit_length() - 1]
            if a & layer:
                inside = True
            reach |= a
            todo ^= low
        layer = reach & rest & ~seen
        seen |= layer
        depth += 1
    return seen, depth, inside


def odd_everywhere(adj: Sequence[int], rest: int) -> bool:
    """True iff every component of the subgraph induced on `rest` has an odd
    cycle. A component is bipartite iff its breadth-first layers from any
    vertex have no edge inside a layer: every edge joins one layer to itself
    or the next, and one inside a layer closes an odd cycle."""
    while rest:
        seen, _, odd = _sweep(adj, rest & -rest, rest)
        if not odd:
            return False
        rest &= ~seen
    return True


# ---------------------------------------------------------------------------
# neighborhoods of vertex sets
# ---------------------------------------------------------------------------

def neighbors_of_set(G: Graph, T: Iterable[Vertex]) -> frozenset:
    """N_G(T): every vertex adjacent to something in T. May meet T itself
    when T is not independent."""
    out: set = set()
    for v in T:
        out |= G.neighbors(v)
    return frozenset(out)


# ---------------------------------------------------------------------------
# triangular cactus builder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CactusSpec:
    """Parameters for the canonical cactus shape: `triangles` 3-cycles share
    the hub, and spoke i carries `pendants[i-1]` further 3-cycles.

    Serialized as {"n": triangles, "s": [pendants...]}.
    """

    triangles: int
    pendants: tuple[int, ...]

    def __post_init__(self):
        if self.triangles < 1:
            raise EmptySpecError("at least one triangle through the hub is required")
        object.__setattr__(self, "pendants", tuple(int(c) for c in self.pendants))
        if len(self.pendants) != 2 * self.triangles:
            raise DimensionMismatchError(
                f"need {2 * self.triangles} pendant counts, got {len(self.pendants)}"
            )
        if any(c < 0 for c in self.pendants):
            raise ValueError("pendant counts must be nonnegative")

    @property
    def dimension(self) -> int:
        return 1 + 2 * self.triangles + 2 * sum(self.pendants)

    def spoke_label(self, i: int) -> str:
        return f"x{i}"

    def pendant_label(self, i: int, k: int) -> str:
        return f"y{i}_{k}"

    def build(self) -> Graph:
        hub = "w"
        vertices = [hub]
        vertices += [self.spoke_label(i) for i in range(1, 2 * self.triangles + 1)]
        for i in range(1, 2 * self.triangles + 1):
            vertices += [self.pendant_label(i, k) for k in range(1, 2 * self.pendants[i - 1] + 1)]
        edges = []
        for k in range(1, self.triangles + 1):
            a, b = self.spoke_label(2 * k - 1), self.spoke_label(2 * k)
            edges += [(hub, a), (hub, b), (a, b)]
        for i in range(1, 2 * self.triangles + 1):
            xi = self.spoke_label(i)
            for t in range(1, self.pendants[i - 1] + 1):
                ya, yb = self.pendant_label(i, 2 * t - 1), self.pendant_label(i, 2 * t)
                edges += [(xi, ya), (xi, yb), (ya, yb)]
        return Graph(vertices, edges)


def build_triangular_cactus(spec: CactusSpec | None = None, *,
                            triangles: int | None = None,
                            pendants: Sequence[int] | None = None) -> Graph:
    """Build the canonical cactus either from a CactusSpec or from keyword
    parameters. Vertex order: hub, spokes ascending, pendant groups ascending."""
    if spec is None:
        if triangles is None or pendants is None:
            raise EmptySpecError("give a CactusSpec or both triangles= and pendants=")
        spec = CactusSpec(triangles, tuple(pendants))
    return spec.build()


def hub_vertex(G: Graph) -> Vertex:
    """The unique vertex of eccentricity 2 in a diameter-4 triangular cactus.

    Every pendant vertex is at distance 2 from the hub and at distance >= 3
    from anything deeper on the far side, so eccentricity singles the hub
    out. Callers gate on the diameter-4 cactus class first; the uniqueness
    check here is defensive.
    """
    ecc = eccentricities(G)
    best = min(ecc.values())
    candidates = [v for v, e in ecc.items() if e == best]
    if len(candidates) != 1 or best != 2:
        raise AmbiguousCenterError(
            f"no unique eccentricity-2 vertex (minimum {best}, "
            f"{len(candidates)} candidates)"
        )
    return candidates[0]
