"""Independent reference implementations used only by the tests.

Everything here recomputes a quantity by a different route than the
library: Floyd-Warshall distances, delete-and-count cutpoints, subset
enumeration for cycles, blocks and fundamental sets, neighbourhood sets
compared pairwise for twin classes, backtracking over
independent sets for fundamental sets at larger scale, multiset enumeration
for semigroup membership and for the truncated semigroup, an unmemoized
search on labels for its witnesses, LP feasibility and a
bipartite-double-cover flow for cone membership, the
classical closed form for the edge lattice, echelon row reduction for any
integer lattice, full scans of the normalization for its truncations and
for hole-family points, and lattice certificates for the classes of holes,
found without the families' recipe. Slow is fine; independent is the point.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linprog

from edgering import build_from_edges, face_of, supporting_hyperplanes
from edgering.errors import DimensionMismatchError


# ---------------------------------------------------------------- test graphs
#
# Non-cacti with many fundamental hyperplanes, and random connected
# non-bipartite graphs, shared by the test modules. They are inputs, not
# oracles: only their construction uses the library.

K5 = build_from_edges(list(itertools.combinations("abcde", 2)))
W7 = build_from_edges([("c", f"r{i}") for i in range(7)]
                      + [(f"r{i}", f"r{(i + 1) % 7}") for i in range(7)])
PETERSEN = build_from_edges([(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
                            + [(f"o{i}", f"i{i}") for i in range(5)]
                            + [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)])


def random_non_bipartite_graphs(rng, count):
    """A triangle on 0, 1, 2, a random tree hanging off it, and random
    chords: connected and never bipartite, on 3 to 9 vertices."""
    for _ in range(count):
        n = rng.randint(3, 9)
        edges = {(0, 1), (1, 2), (0, 2)}
        edges |= {(rng.randrange(v), v) for v in range(3, n)}
        edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.2}
        yield build_from_edges(sorted(edges))


# ---------------------------------------------------------------- graphs


def labels(G, mask) -> frozenset:
    """The labels of the vertices whose bits are set in `mask` (vertex i in
    bit i), the library's vertex-set representation."""
    return frozenset(v for i, v in enumerate(G.vertices) if mask >> i & 1)


def adjacency(G) -> np.ndarray:
    d = G.dimension
    A = np.zeros((d, d), dtype=np.int64)
    for u, v in G.edges:
        i, j = G.index(u), G.index(v)
        A[i, j] = A[j, i] = 1
    return A


def oracle_eccentricities(G) -> dict:
    """Floyd-Warshall over the index matrix; each vertex's row maximum."""
    d = G.dimension
    INF = 10**9
    dist = [[0 if i == j else INF for j in range(d)] for i in range(d)]
    for u, v in G.edges:
        i, j = G.index(u), G.index(v)
        dist[i][j] = dist[j][i] = 1
    for k in range(d):
        for i in range(d):
            for j in range(d):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    ecc = {v: max(dist[G.index(v)]) for v in G.vertices}
    if max(ecc.values()) >= INF:
        raise ValueError("disconnected")
    return ecc


def oracle_diameter(G) -> int:
    return max(oracle_eccentricities(G).values())


def expected_diameter(spec) -> int:
    """Diameter of the cactus a CactusSpec builds, by case analysis on
    where the pendant triangles sit."""
    n = spec.triangles
    loaded = [i for i in range(1, 2 * n + 1) if spec.pendants[i - 1] > 0]
    # spokes 2k-1 and 2k are adjacent; any other spoke pair is not
    for a, b in itertools.combinations(loaded, 2):
        if not (a % 2 == 1 and b == a + 1):
            return 4
    if loaded:
        if n == 1:
            return 3 if len(loaded) == 2 else 2
        return 3
    return 1 if n == 1 else 2


def _component_count(vertices, edge_set) -> int:
    vertices = list(vertices)
    seen = set()
    count = 0
    adj = {v: set() for v in vertices}
    for u, v in edge_set:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    for start in vertices:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return count


def oracle_cutpoints(G) -> set:
    """A vertex is a cutpoint when deleting it increases the component
    count."""
    base = _component_count(G.vertices, G.edges)
    out = set()
    for v in G.vertices:
        rest = [u for u in G.vertices if u != v]
        edges = [(a, b) for a, b in G.edges if v not in (a, b)]
        if rest and _component_count(rest, edges) > base:
            out.add(v)
    return out


def oracle_connected(G) -> bool:
    return _component_count(G.vertices, G.edges) == 1


def canonical_cycle(G, seq) -> tuple:
    """The vertices of the cycle `seq` in canonical order: rotated to start
    at the smallest-index vertex, then the smaller of the two orientations
    by vertex indices."""
    seq = tuple(seq)
    assert len(seq) >= 3 and len(set(seq)) == len(seq)
    assert all(G.has_edge(a, b) for a, b in zip(seq, seq[1:] + seq[:1]))
    k = min(range(len(seq)), key=lambda i: G.index(seq[i]))
    fwd = seq[k:] + seq[:k]
    rev = (fwd[0],) + tuple(reversed(fwd[1:]))
    return min(fwd, rev, key=lambda t: [G.index(v) for v in t])


def has_chord(G, cycle) -> bool:
    """True if any edge of G joins two non-consecutive cycle vertices."""
    vs = cycle.vertices
    n = len(vs)
    for i, j in itertools.combinations(range(n), 2):
        if (j - i) % n in (1, n - 1):
            continue
        if G.has_edge(vs[i], vs[j]):
            return True
    return False


def oracle_chordless_cycles(G) -> set:
    """All chordless cycles as frozensets of vertices, by checking every
    vertex subset for being an induced cycle (every vertex of induced
    degree 2, connected)."""
    verts = list(G.vertices)
    out = set()
    for k in range(3, len(verts) + 1):
        for combo in itertools.combinations(verts, k):
            inside = set(combo)
            degs = {
                v: sum(1 for u in G.neighbors(v) if u in inside) for v in combo
            }
            if any(x != 2 for x in degs.values()):
                continue
            edges = [
                (a, b) for a, b in G.edges if a in inside and b in inside
            ]
            if _component_count(combo, edges) == 1:
                out.add(frozenset(combo))
    return out


def oracle_blocks(G) -> list:
    """Blocks by definition: the maximal vertex sets of size >= 2 whose
    induced subgraph is connected and, from three vertices on, stays
    connected after deleting any one vertex. Checks every subset."""
    def induced(S):
        return [(a, b) for a, b in G.edges if a in S and b in S]

    good = []
    for k in range(2, G.dimension + 1):
        for combo in itertools.combinations(G.vertices, k):
            S = set(combo)
            if _component_count(S, induced(S)) != 1:
                continue
            if k > 2 and any(
                _component_count(S - {v}, induced(S - {v})) != 1 for v in S
            ):
                continue
            good.append(frozenset(S))
    return [S for S in good if not any(S < T for T in good)]


def oracle_is_triangular_cactus(G) -> bool:
    """Connected, at least one edge, and every block is a triangle."""
    return (
        oracle_connected(G)
        and bool(G.edges)
        and all(len(B) == 3 for B in oracle_blocks(G))
    )


def oracle_twin_classes(G) -> tuple:
    """The true twin classes (equal closed neighbourhoods), then the false
    twin classes (equal open neighbourhoods), from the edge list: each class
    the ascending indices of two or more vertices, each kind ordered by
    least index."""
    open_ = {v: set() for v in G.vertices}
    for u, v in G.edges:
        open_[u].add(v)
        open_[v].add(u)
    classes = []
    for closed in (True, False):
        def hood(v):
            return open_[v] | {v} if closed else open_[v]

        for i, v in enumerate(G.vertices):
            same = tuple(j for j, u in enumerate(G.vertices) if hood(u) == hood(v))
            if len(same) > 1 and same[0] == i:
                classes.append(same)
    return tuple(classes)


def oracle_is_bipartite_subset(G, vertices) -> bool:
    """2-colorability of the induced subgraph via odd-closed-walk counts:
    a graph is non-bipartite exactly when some odd power of its adjacency
    matrix has a positive diagonal entry."""
    verts = sorted(vertices, key=G.index)
    if not verts:
        return True
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    A = np.zeros((n, n), dtype=object)
    for u, v in G.edges:
        if u in pos and v in pos:
            A[pos[u], pos[v]] = 1
            A[pos[v], pos[u]] = 1
    P = A.copy()
    for _ in range(0, n + 1, 2):
        if any(P[i, i] for i in range(n)):
            return False
        P = P @ A @ A
    return True


def oracle_regular_vertices(G) -> set:
    """Definition check: every component after deletion contains an odd
    cycle (= is non-bipartite)."""
    out = set()
    for v in G.vertices:
        rest = [u for u in G.vertices if u != v]
        edges = [(a, b) for a, b in G.edges if v not in (a, b)]
        comps = _components_of(rest, edges)
        if all(not oracle_is_bipartite_subset(G, c) for c in comps):
            out.add(v)
    return out


def _components_of(vertices, edges) -> list:
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    comps = []
    for start in vertices:
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def _fundamental_neighborhood(G, T) -> frozenset | None:
    """N(T) if the independent set T meets the other two defining
    conditions of a fundamental set, checked directly: its contact graph
    (T and N(T) with the edges of G between them) is connected, and every
    component of G beyond T and N(T) is non-bipartite. None otherwise."""
    N = set()
    for t in T:
        N |= set(G.neighbors(t))
    contact_vertices = T | N
    contact_edges = [
        (a, b)
        for a, b in G.edges
        if (a in T and b in N) or (b in T and a in N)
    ]
    if _component_count(contact_vertices, contact_edges) != 1:
        return None
    rest = [v for v in G.vertices if v not in contact_vertices]
    edges = [
        (a, b)
        for a, b in G.edges
        if a not in contact_vertices and b not in contact_vertices
    ]
    comps = _components_of(rest, edges)
    if all(not oracle_is_bipartite_subset(G, c) for c in comps):
        return frozenset(N)
    return None


def oracle_fundamental_sets(G) -> set:
    """Brute force over all nonempty vertex subsets, checking the three
    defining conditions directly."""
    verts = list(G.vertices)
    out = set()
    for k in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, k):
            if any(G.has_edge(a, b) for a, b in itertools.combinations(combo, 2)):
                continue
            if _fundamental_neighborhood(G, set(combo)) is not None:
                out.add(frozenset(combo))
    return out


def oracle_fundamental_set_list(G) -> list:
    """(T, N(T)) for every fundamental set, sorted by (size, vertex
    indices), with the defining conditions of oracle_fundamental_sets
    checked on the independent sets alone. A set-based backtracking lists
    those: it extends T only by later vertices with no neighbor in T, and
    every subset of an independent set is independent, so each comes out
    once. Reaches graphs whose subsets are too many to scan."""
    verts = list(G.vertices)
    out = []
    stack = [((), 0)]
    while stack:
        T, start = stack.pop()
        for k in range(start, len(verts)):
            if any(G.has_edge(verts[k], t) for t in T):
                continue
            grown = T + (verts[k],)
            N = _fundamental_neighborhood(G, set(grown))
            if N is not None:
                out.append((frozenset(grown), N))
            stack.append((grown, k + 1))
    out.sort(key=lambda TN: (len(TN[0]), sorted(map(G.index, TN[0]))))
    return out


# ---------------------------------------------------------------- algebra


def edge_vectors(G) -> list:
    vecs = []
    for u, v in G.edges:
        x = [0] * G.dimension
        x[G.index(u)] += 1
        x[G.index(v)] += 1
        vecs.append(tuple(x))
    return vecs


def oracle_semigroup(G, D) -> frozenset:
    """Every sum of at most D/2 edge vectors, one combination with
    replacement at a time."""
    vecs = edge_vectors(G)
    return frozenset(
        tuple(map(sum, zip(*combo))) if combo else (0,) * G.dimension
        for k in range(D // 2 + 1)
        for combo in itertools.combinations_with_replacement(vecs, k)
    )


def oracle_member(G, x) -> bool:
    """Multiset enumeration: x is a sum of exactly deg(x)/2 edge vectors
    iff some combination with replacement hits it."""
    total = sum(x)
    if total % 2 or min(x) < 0:  # a sum of edge vectors is nonnegative
        return False
    k = total // 2
    if k == 0:
        return True
    vecs = edge_vectors(G)
    for combo in itertools.combinations_with_replacement(vecs, k):
        s = [0] * G.dimension
        for v in combo:
            for i, a in enumerate(v):
                s[i] += a
        if tuple(s) == tuple(x):
            return True
    return False


def oracle_smallest_last(G) -> list:
    """The vertex labels smallest-last (Matula-Beck): each next one has the
    fewest neighbours among those not yet taken, the first in vertex order
    on a tie. Written on labels and the raw edge list."""
    adjacent = {v: set() for v in G.vertices}
    for u, v in G.edges:
        adjacent[u].add(v)
        adjacent[v].add(u)
    left, order = list(G.vertices), []
    while left:
        v = min(left, key=lambda u: len(adjacent[u].intersection(left)))
        order.append(v)
        left.remove(v)
    return order


def oracle_first_witness(G, x):
    """The first witness of the definitional depth-first search, or None:
    pair the positive vertex that comes first in the smallest-last order
    with each of its neighbours in vertex order and recurse on the rest.
    Edges come as label pairs in canonical order, in the order the search
    takes them. Written on labels and the raw edge list, with no memo, so
    only for small degrees."""
    if any(c < 0 for c in x):
        return None
    positive = [v for v in oracle_smallest_last(G) if x[G.index(v)] > 0]
    if not positive:
        return []
    v = positive[0]
    edges = set(G.edges)
    for u in G.vertices:
        e = (v, u) if G.index(v) < G.index(u) else (u, v)
        if e not in edges or x[G.index(u)] <= 0:
            continue
        rest = list(x)
        rest[G.index(v)] -= 1
        rest[G.index(u)] -= 1
        sub = oracle_first_witness(G, rest)
        if sub is not None:
            return [e] + sub
    return None


def oracle_cone_contains(G, x) -> bool:
    """LP feasibility: x in the nonnegative rational span of the edge
    vectors."""
    A = np.array(edge_vectors(G), dtype=float).T
    m = A.shape[1]
    res = linprog(
        c=np.zeros(m),
        A_eq=A,
        b_eq=np.array(x, dtype=float),
        bounds=[(0, None)] * m,
        method="highs",
    )
    return bool(res.success)


def oracle_cone_contains_by_flow(G, x) -> bool:
    """Max flow: x is in the cone iff the edges carry a fractional perfect
    x-matching, iff the bipartite double cover (an arc u' -> v'' and
    v' -> u'' per edge, capacity x on both copies of each vertex) carries a
    flow of value sum(x). Every edge at v ends at a neighbor, so a vertex
    heavier than its neighbors together is refused before the flow."""
    x = tuple(x)
    if any(a > sum(x[G.index(u)] for u in G.neighbors(v))
           for v, a in zip(G.vertices, x)):
        return False
    d = G.dimension
    source, sink = 2 * d, 2 * d + 1  # left copy i, right copy d + i
    cap = {}
    adj = [[] for _ in range(2 * d + 2)]

    def arc(a, b, c):
        if (a, b) not in cap:
            adj[a].append(b)
            adj[b].append(a)
            cap[a, b] = 0
            cap.setdefault((b, a), 0)
        cap[a, b] += c

    for i, a in enumerate(x):
        arc(source, i, a)
        arc(d + i, sink, a)
    for u, v in G.edges:
        i, j = G.index(u), G.index(v)
        arc(i, d + j, sum(x))
        arc(j, d + i, sum(x))
    flow = 0
    while True:
        prev = {source: None}
        queue = [source]
        for a in queue:
            for b in adj[a]:
                if b not in prev and cap[a, b] > 0:
                    prev[b] = a
                    queue.append(b)
        if sink not in prev:
            return flow == sum(x)
        path = []
        b = sink
        while prev[b] is not None:
            path.append((prev[b], b))
            b = prev[b]
        push = min(cap[e] for e in path)
        for a, b in path:
            cap[a, b] -= push
            cap[b, a] += push
        flow += push


def bounded_vectors(d, D):
    """All nonnegative integer vectors of length d with coordinate sum <= D."""
    if d == 1:
        yield from ((a,) for a in range(D + 1))
        return
    for first in range(D + 1):
        for rest in bounded_vectors(d - 1, D - first):
            yield (first,) + rest


def oracle_normalization(G, D) -> frozenset:
    """cone ∩ lattice ∩ degree <= D over the full bounded box, from the flow
    cone test and the closed-form lattice."""
    return frozenset(
        x for x in bounded_vectors(G.dimension, D)
        if oracle_lattice_member(G, x) and oracle_cone_contains_by_flow(G, x)
    )


def oracle_family_points(hf, normalization) -> frozenset:
    """The definitional scan: every x of the degree-truncated normalization
    `normalization` whose difference from the family's shift lies in its
    face lattice."""
    return frozenset(
        x for x in normalization
        if hf.face.contains([a - b for a, b in zip(x, hf.shift)])
    )


def oracle_family_filter(G, hf, hole_set) -> frozenset:
    """The family's points among `hole_set`, from the definition: the holes
    x with H(x) = H(q), H the family's facet and q its shift, and x - q in
    the lattice of H's face, spanned by the edge vectors H vanishes on. The
    heights are dot products with the facet's coefficients and the lattice
    is an `EchelonLattice`: no lane sum and no library lattice."""
    H = hf.facet.coefficients

    def height(x):
        return sum(c * a for c, a in zip(H, x))

    face = EchelonLattice.from_vectors(
        G.dimension, [e for e in edge_vectors(G) if height(e) == 0])
    return frozenset(x for x in hole_set if height(x) == height(hf.shift)
                     and face.contains(_minus(x, hf.shift)))


def certified_classes(G, hole_set) -> dict:
    """The certified classes through the holes: a map from (H, r) to the
    holes of the class r + L_F, keyed by the class's first hole r in sorted
    order, for every supporting hyperplane H, where L_F is the lattice of
    H's face.

    Every edge vector e has H(e) >= 0 and L_F lies in H = 0, so a semigroup
    point y of the class has H(y) = H(r) = h: it is a sum of edges with
    H(e) >= 1 whose H-values add to h, plus face edges. So the class holds
    no semigroup point at any degree iff no such sum w has w - r in L_F,
    and only then is it certified. Built from the holes, the hyperplanes,
    the edge vectors and the face lattices alone: no cycle, shift or
    admissible set enters.
    """
    zero, edges, ordered = (0,) * G.dimension, edge_vectors(G), sorted(hole_set)
    classes = {}
    for H in supporting_hyperplanes(G):
        lattice = face_of(G, H)
        sums = {0: {zero}}  # height -> the sums of edges of positive height
        reps = []  # (r, certified) per class met so far, in hole order
        for x in ordered:
            r, certified = next(((r, ok) for r, ok in reps
                                 if lattice.contains(_minus(x, r))), (x, None))
            if certified is None:
                certified = not any(lattice.contains(_minus(w, x))
                                    for w in _height_sums(H, edges, H.value(x), sums))
                reps.append((r, certified))
            if certified:
                classes.setdefault((H, r), set()).add(x)
    return classes


def _height_sums(H, edges, h, sums) -> set:
    """The sums of edge vectors e with H(e) >= 1 whose H-values add to h,
    memoized by height in `sums`, which starts as {0: {zero}}."""
    if h not in sums:
        sums[h] = {tuple(a + b for a, b in zip(e, s))
                   for e in edges if 1 <= H.value(e) <= h
                   for s in _height_sums(H, edges, h - H.value(e), sums)}
    return sums[h]


def _minus(a, b) -> list:
    return [p - q for p, q in zip(a, b)]


def oracle_lattice_member(G, x) -> bool:
    """Classical closed form for the lattice generated by edge vectors of
    a connected graph: even coordinate sum when the graph has an odd
    cycle; equal part-sums when bipartite."""
    if any(int(a) != a for a in x):
        return False
    color = {}
    order = list(G.vertices)
    start = order[0]
    color[start] = 0
    queue = [start]
    bipartite = True
    while queue:
        u = queue.pop()
        for w in G.neighbors(u):
            if w not in color:
                color[w] = 1 - color[u]
                queue.append(w)
            elif color[w] == color[u]:
                bipartite = False
    if not bipartite:
        return sum(x) % 2 == 0
    part0 = sum(a for v, a in zip(G.vertices, x) if color[v] == 0)
    part1 = sum(a for v, a in zip(G.vertices, x) if color[v] == 1)
    return part0 == part1


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = a*x + b*y, g >= 0 for (a, b) != (0, 0)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class EchelonLattice:
    """Reference lattice: absorbs generators one at a time into echelon rows
    by xgcd row reduction, and tests membership by reducing against them."""

    def __init__(self, dimension: int):
        if dimension < 0:
            raise DimensionMismatchError("dimension must be nonnegative")
        self.dimension = dimension
        self._rows: list[list[int]] = []  # echelon; _pivots[i] = pivot col of row i
        self._pivots: list[int] = []

    @classmethod
    def from_vectors(cls, dimension: int, vectors: Iterable[Sequence[int]]) -> "EchelonLattice":
        lat = cls(dimension)
        for v in vectors:
            lat.add(v)
        return lat

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _check(self, vector: Sequence[int]) -> list[int]:
        v = [int(c) for c in vector]
        if len(v) != self.dimension:
            raise DimensionMismatchError(
                f"vector length {len(v)} != lattice dimension {self.dimension}"
            )
        return v

    def add(self, vector: Sequence[int]) -> None:
        """Absorb a vector; no-op if it is already in the lattice."""
        v = self._check(vector)
        while True:
            j = _first_nonzero(v)
            if j is None:
                return
            i = _index_of(self._pivots, j)
            if i is None:
                if v[j] < 0:
                    v = [-c for c in v]
                pos = 0
                while pos < len(self._pivots) and self._pivots[pos] < j:
                    pos += 1
                self._rows.insert(pos, v)
                self._pivots.insert(pos, j)
                return
            a, b = self._rows[i][j], v[j]
            if b % a == 0:
                q = b // a
                row = self._rows[i]
                v = [c - q * r for c, r in zip(v, row)]
            else:
                g, x, y = _xgcd(a, b)
                row = self._rows[i]
                merged = [x * r + y * c for r, c in zip(row, v)]
                v = [(a // g) * c - (b // g) * r for r, c in zip(row, v)]
                self._rows[i] = merged

    def contains(self, vector: Sequence[int]) -> bool:
        """Exact membership: reduce against the echelon rows; in the lattice
        iff every pivot divides cleanly and the residue is zero."""
        v = self._check(vector)
        for row, p in zip(self._rows, self._pivots):
            if v[p] == 0:
                continue
            q, r = divmod(v[p], row[p])
            if r:
                return False
            v = [c - q * rc for c, rc in zip(v, row)]
        return not any(v)


def _first_nonzero(v: list[int]) -> int | None:
    for j, c in enumerate(v):
        if c:
            return j
    return None


def _index_of(pivots: list[int], j: int) -> int | None:
    # pivots is short and sorted; linear scan is fine
    for i, p in enumerate(pivots):
        if p == j:
            return i
        if p > j:
            return None
    return None
