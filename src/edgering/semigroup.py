"""The edge semigroup of a graph: generators, lattice, the point oracle
`member`/`decompose`, and degree-truncated enumeration of the semigroup S,
its normalization N, and the holes N - S (a set difference, no oracle).

Vectors are tuples of ints indexed by the graph's vertex order. The
semigroup is generated by one degree-2 vector per edge (the sum of the two
endpoint units). Inside the enumerations each vector is packed into one int
with a byte per coordinate, and only results handed out are unpacked. S_D is
built once per degree bound as degree slabs. The normalization is enumerated
two independent ways and cross-checked: (A) a walk over the intervals the
cone's defining inequalities leave each coordinate, plus a lattice-membership
test, (B) the slabs of S_D closed under adding the cycle-pair vectors that,
with the generators, generate the normalization.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import facets
from .errors import EdgeRingError, MethodMismatchError
from .graph_core import Graph, check_vector, indicator, per_graph
from .lattices import IntegerLattice

def unit_vector(G: Graph, v) -> tuple:
    return indicator(G, (v,))


def rho_vector(G: Graph, u, v) -> tuple:
    """Generator for edge {u, v}: unit(u) + unit(v). NotAnEdgeError if absent."""
    return indicator(G, G.edge(u, v))


def vector_degree(x: Sequence[int]) -> int:
    return sum(x)


def graded_sorted(vectors: Iterable[Sequence[int]]) -> list[tuple]:
    """Graded lexicographic order: by degree, then coordinates."""
    return sorted((tuple(v) for v in vectors), key=lambda t: (sum(t), t))


def count_by_degree(vectors: Iterable[Sequence[int]]) -> dict:
    """Number of vectors per degree, keyed by the degree as a string, in
    ascending degree order (the shape the JSON reports use)."""
    counts: dict[str, int] = {}
    for x in vectors:
        key = str(vector_degree(x))
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: int(kv[0])))


# ---------------------------------------------------------------------------
# generators and their lattice
# ---------------------------------------------------------------------------

@per_graph
def generators(G: Graph) -> tuple:
    """One generator per edge, in edge order."""
    return tuple(rho_vector(G, u, v) for u, v in G.edges)


@per_graph
def edge_lattice(G: Graph) -> IntegerLattice:
    """The integer lattice spanned by the edge generators."""
    return IntegerLattice(G.dimension, generators(G))


def lattice_member(G: Graph, x: Sequence[int]) -> bool:
    """Membership in the integer lattice spanned by the edge generators."""
    return edge_lattice(G).contains(check_vector(G, x))


# ---------------------------------------------------------------------------
# membership oracle
# ---------------------------------------------------------------------------

@per_graph
def _memo(G: Graph) -> dict:
    # residual vector -> witness tuple of edges, or None when not expressible;
    # subproblems depend only on the residual, so one table per graph is sound
    return {}


def member(G: Graph, x: Sequence[int]) -> bool:
    """True iff x is a nonnegative integer combination of edge generators.

    Exhaustive backtracking on the least-index positive coordinate, memoized
    on the residual. This is the reference oracle every closed-form result
    in the package is checked against, so it stays definitional: no parity
    or cone shortcuts.
    """
    return _decompose(G, check_vector(G, x), _memo(G)) is not None


def decompose(G: Graph, x: Sequence[int]):
    """Witness multiset of edges summing to x, or None. Edges are returned
    sorted in canonical edge order."""
    x = check_vector(G, x)
    witness = _decompose(G, x, _memo(G))
    if witness is None:
        return None
    return tuple(sorted(witness, key=lambda e: (G.index(e[0]), G.index(e[1]))))


def _decompose(G: Graph, x: tuple, memo: dict):
    if any(c < 0 for c in x):
        return None
    if not any(x):
        return ()
    if x in memo:
        return memo[x]
    i = next(j for j, c in enumerate(x) if c > 0)
    v = G.vertices[i]
    out = None
    for u in sorted(G.neighbors(v), key=G.index):
        j = G.index(u)
        if x[j] <= 0:
            continue
        residual = list(x)
        residual[i] -= 1
        residual[j] -= 1
        sub = _decompose(G, tuple(residual), memo)
        if sub is not None:
            out = ((G.edge(v, u)),) + sub
            break
    memo[x] = out
    return out


# ---------------------------------------------------------------------------
# truncated enumerations
# ---------------------------------------------------------------------------

# Inside the enumerations a vector is one int with one byte per coordinate,
# coordinate i in byte i, so adding vectors is adding ints. A coordinate of
# a degree-<=D point is at most D, so the bytes never carry for D <= 255.
MAX_PACKED_DEGREE = 255


def _pack(x: Sequence[int]) -> int:
    try:
        return int.from_bytes(bytes(x), "little")
    except ValueError:
        raise EdgeRingError(
            f"cannot pack {tuple(x)}: packed vectors hold coordinates 0..255"
        ) from None


def _unpack(n: int, d: int) -> tuple:
    return tuple(n.to_bytes(d, "little"))


def _unpack_all(packed: Iterable[int], d: int) -> frozenset:
    return frozenset(_unpack(n, d) for n in packed)


def _check_degree(D: int) -> None:
    if D > MAX_PACKED_DEGREE:
        raise EdgeRingError(
            f"truncation degree {D} is above {MAX_PACKED_DEGREE}, the largest "
            "coordinate a one-byte packed vector holds"
        )


@per_graph
def enumerate_semigroup(G: Graph, D: int) -> frozenset:
    """All semigroup elements of degree <= D: closure of {0} under adding
    edge generators."""
    slabs = _semigroup_slabs(G, D)
    return _unpack_all((n for slab in slabs for n in slab), G.dimension)


@per_graph
def enumerate_normalization(G: Graph, D: int) -> frozenset:
    """All vectors of degree <= D in cone ∩ lattice, computed by two
    independent methods that must agree.

    Method A walks nonnegative integer vectors coordinate by coordinate,
    keeping each coordinate inside the interval the cone's fundamental-set
    inequalities leave open (the regular-vertex inequalities hold
    automatically on nonnegative vectors), then keeps lattice members.
    Method B closes the semigroup's degree slabs under adding the
    cycle-pair vectors that, with the generators, generate the
    normalization. Disagreement raises MethodMismatchError: either a bug
    or a graph outside the supported class.
    """
    return _unpack_all(_normalization(G, D), G.dimension)


@per_graph
def holes(G: Graph, D: int) -> frozenset:
    """Normalization elements of degree <= D that are not in the semigroup."""
    gap = _normalization(G, D).difference(*_semigroup_slabs(G, D))
    return _unpack_all(gap, G.dimension)


def hole_report(G: Graph, D: int) -> list[tuple]:
    """(degree, vector, in_cone, in_lattice, member) rows for every hole,
    fields evaluated independently, in graded lexicographic order."""
    return [
        (vector_degree(x), x, facets.cone_contains(G, x), lattice_member(G, x),
         member(G, x))
        for x in graded_sorted(holes(G, D))
    ]


@per_graph
def _normalization(G: Graph, D: int) -> frozenset:
    # N_D packed, once per (G, D): both methods run and must agree
    by_filter = _enumerate_by_inequalities(G, D)
    by_closure = _enumerate_by_closure(G, D)
    if by_filter != by_closure:
        d = G.dimension
        raise MethodMismatchError(_unpack_all(by_filter - by_closure, d),
                                  _unpack_all(by_closure - by_filter, d))
    # keep the closure's set: its semigroup points are the slabs' own int
    # objects, where A's are copies
    return by_closure


@per_graph
def _semigroup_slabs(G: Graph, D: int) -> tuple:
    """S_D packed, by degree: entry j holds the elements of degree 2j."""
    _check_degree(D)
    if D < 0:
        return ()
    gens = [_pack(g) for g in generators(G)]
    slabs = [frozenset((0,))]
    for _ in range(D // 2):
        slabs.append(frozenset({s + g for s in slabs[-1] for g in gens}))
    return tuple(slabs)


def _enumerate_by_inequalities(G: Graph, D: int) -> frozenset:
    _check_degree(D)
    d = G.dimension
    contains = edge_lattice(G).contains
    hyps = [
        h.coefficients
        for h in facets.supporting_hyperplanes(G)
        if h.kind == "fundamental"
    ]
    # With f a hyperplane's value on the prefix before column k and L the
    # degree still free there, x[k] = v can still reach f >= 0 iff
    # f + c*v + (L - v if a later column has coefficient +1 else 0) >= 0:
    #   c = -1, a later +1:  v <= (f + L) // 2   (`halved`)
    #   c = -1, none later:  v <= f              (`upper`)
    #   c = +1, none later:  v >= -f             (`lower`)
    # (c = +1 with a later +1 bounds nothing), so each column walks one
    # interval. Each hyperplane's bound at its last column is exact, so
    # f >= 0 holds at every leaf; the leaf checks the hyperplanes the last
    # column misses all the same.
    halved, upper, lower, plus, minus = ([] for _ in range(5))
    for k in range(d):
        later = [any(a > 0 for a in c[k + 1:]) for c in hyps]
        touched = [(h, c[k]) for h, c in enumerate(hyps) if c[k]]
        halved.append(tuple(h for h, c in touched if c < 0 and later[h]))
        upper.append(tuple(h for h, c in touched if c < 0 and not later[h]))
        lower.append(tuple(h for h, c in touched if c > 0 and not later[h]))
        plus.append(tuple(h for h, c in touched if c > 0))
        minus.append(tuple(h for h, c in touched if c < 0))
    last = d - 1
    untouched = tuple(h for h, c in enumerate(hyps) if not c[last])

    # iterative, so no self-referencing closure is left for the collector;
    # f: hyperplane values on the prefix, x[k] runs up to top[k] with left[k]
    # degree free at column k, packed[k]: the prefix as a packed int
    found: list[int] = []
    f = [0] * len(hyps)
    at = f.__getitem__
    x = [0] * d
    top = [0] * d
    left = [D] + [0] * d
    packed = [0] * (d + 1)
    k = 0
    descend = True
    while k >= 0:
        if descend:
            L = left[k]
            lo = 0
            hi = L
            if halved[k]:
                b = (min(map(at, halved[k])) + L) >> 1
                if b < hi:
                    hi = b
            if upper[k]:
                b = min(map(at, upper[k]))
                if b < hi:
                    hi = b
            if lower[k]:
                b = -min(map(at, lower[k]))
                if b > lo:
                    lo = b
            if k == last:
                if (D - L + lo) & 1:  # odd total degree: no lattice point
                    lo += 1
                if lo <= hi and (not untouched or min(map(at, untouched)) >= 0):
                    base, unit = packed[k], 1 << 8 * k
                    for v in range(lo, hi + 1, 2):
                        x[k] = v
                        if contains(x):
                            found.append(base + v * unit)
                k -= 1
                descend = False
                continue
            if lo > hi:
                k -= 1
                descend = False
                continue
            x[k] = lo
            top[k] = hi
            if lo:
                for h in plus[k]:
                    f[h] += lo
                for h in minus[k]:
                    f[h] -= lo
            left[k + 1] = L - lo
            packed[k + 1] = packed[k] + (lo << 8 * k)
            k += 1
            continue
        v = x[k]
        if v < top[k]:
            x[k] = v + 1
            for h in plus[k]:
                f[h] += 1
            for h in minus[k]:
                f[h] -= 1
            left[k + 1] -= 1
            packed[k + 1] += 1 << 8 * k
            k += 1
            descend = True
        else:
            if v:
                for h in plus[k]:
                    f[h] -= v
                for h in minus[k]:
                    f[h] += v
            k -= 1
    return frozenset(found)


def _enumerate_by_closure(G: Graph, D: int) -> frozenset:
    from .exceptional import exceptional_pairs, pair_vector

    slabs = _semigroup_slabs(G, D)
    # pair vectors by half degree; adding generators commutes with adding
    # pairs, so N's slab j is S's slab j plus each pair on N's slab j - step
    pairs: dict[int, list[int]] = {}
    for P in exceptional_pairs(G):
        p = pair_vector(G, P)
        pairs.setdefault(vector_degree(p) // 2, []).append(_pack(p))
    closed: list = []
    for j, slab in enumerate(slabs):
        extra = {n + p for step, ps in pairs.items() if step <= j
                 for n in closed[j - step] for p in ps}
        closed.append(slab | extra if extra else slab)
    return frozenset().union(*closed)
