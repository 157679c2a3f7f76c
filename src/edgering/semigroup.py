"""The edge semigroup of a graph: generators, lattice, the point oracle
`member`/`decompose`, and degree-truncated enumeration of the semigroup S,
its normalization N, and the holes N - S (a set difference, no oracle).

Vectors are plain tuples of ints indexed by the graph's vertex order. The
semigroup is generated by one degree-2 vector per edge (the sum of the two
endpoint units). The normalization is enumerated two independent ways and
cross-checked: (A) prune-and-filter over the cone's defining inequalities
plus a lattice-membership test, (B) closure of {0} under adding generators
and the cycle-pair vectors that generate the normalization.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import facets
from .errors import MethodMismatchError
from .graph_core import Graph, check_vector, per_graph
from .lattices import IntegerLattice

def unit_vector(G: Graph, v) -> tuple:
    i = G.index(v)
    return tuple(1 if j == i else 0 for j in range(G.dimension))


def rho_vector(G: Graph, u, v) -> tuple:
    """Generator for edge {u, v}: unit(u) + unit(v). NotAnEdgeError if absent."""
    a, b = G.edge(u, v)
    i, j = G.index(a), G.index(b)
    return tuple(1 if k in (i, j) else 0 for k in range(G.dimension))


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

@per_graph
def enumerate_semigroup(G: Graph, D: int) -> frozenset:
    """All semigroup elements of degree <= D: closure of {0} under adding
    edge generators."""
    return _closure(G.dimension, generators(G), D)


@per_graph
def enumerate_normalization(G: Graph, D: int) -> frozenset:
    """All vectors of degree <= D in cone ∩ lattice, computed by two
    independent methods that must agree.

    Method A filters nonnegative integer vectors through the cone's
    fundamental-set inequalities (the regular-vertex inequalities hold
    automatically on nonnegative vectors) with per-coordinate pruning,
    then keeps lattice members. Method B closes {0} under adding edge
    generators and the doubled-cycle-pair vectors known to generate the
    normalization. Disagreement raises MethodMismatchError: either a bug
    or a graph outside the supported class.
    """
    by_filter = _enumerate_by_inequalities(G, D)
    by_closure = _enumerate_by_closure(G, D)
    if by_filter != by_closure:
        raise MethodMismatchError(by_filter - by_closure, by_closure - by_filter)
    return by_filter


@per_graph
def holes(G: Graph, D: int) -> frozenset:
    """Normalization elements of degree <= D that are not in the semigroup."""
    return enumerate_normalization(G, D) - enumerate_semigroup(G, D)


def hole_report(G: Graph, D: int) -> list[tuple]:
    """(degree, vector, in_cone, in_lattice, member) rows for every hole,
    fields evaluated independently, in graded lexicographic order."""
    return [
        (vector_degree(x), x, facets.cone_contains(G, x), lattice_member(G, x),
         member(G, x))
        for x in graded_sorted(holes(G, D))
    ]


def _enumerate_by_inequalities(G: Graph, D: int) -> frozenset:
    d = G.dimension
    lattice = edge_lattice(G)
    hyps = [
        h.coefficients
        for h in facets.supporting_hyperplanes(G)
        if h.kind == "fundamental"
    ]
    H = len(hyps)
    # gain[h][k] == 1 when h has a positive coefficient at column >= k;
    # coefficients are in {-1, 0, 1}, so the best future gain is the budget
    gain = [[0] * (d + 1) for _ in range(H)]
    for h in range(H):
        for k in range(d - 1, -1, -1):
            gain[h][k] = 1 if (hyps[h][k] > 0 or gain[h][k + 1]) else 0
    touched = [[h for h in range(H) if hyps[h][k]] for k in range(d)]

    # iterative, so no self-referencing closure is left for the collector;
    # x[k] == -1: unchosen, f: values on the prefix, left[k]: degree free at k
    found: list[tuple] = []
    x = [-1] * d
    f = [0] * H
    left = [D] * d
    k = 0
    while k >= 0:
        val = x[k] + 1
        if val > left[k]:
            for h in touched[k]:
                f[h] -= hyps[h][k] * x[k]
            x[k] = -1
            k -= 1
            continue
        x[k] = val
        if val:
            for h in touched[k]:
                f[h] += hyps[h][k]
        rem = left[k] - val
        if not all(f[h] + (rem if gain[h][k + 1] else 0) >= 0 for h in touched[k]):
            continue
        if k + 1 < d:
            left[k + 1] = rem
            k += 1
        elif (D - rem) % 2 == 0 and all(c >= 0 for c in f) and lattice.contains(tuple(x)):
            found.append(tuple(x))
    return frozenset(found)


def _enumerate_by_closure(G: Graph, D: int) -> frozenset:
    from .exceptional import exceptional_pairs, pair_vector

    additions = list(generators(G))
    additions += [pair_vector(G, P) for P in exceptional_pairs(G)]
    return _closure(G.dimension, additions, D)


def _closure(d: int, additions: Sequence[tuple], D: int) -> frozenset:
    if D < 0:
        return frozenset()
    zero = (0,) * d
    seen = {zero}
    frontier = [zero]
    degs = [sum(a) for a in additions]
    while frontier:
        new = []
        for vec in frontier:
            s = sum(vec)
            for a, da in zip(additions, degs):
                if s + da > D:
                    continue
                nxt = tuple(p + q for p, q in zip(vec, a))
                if nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
        frontier = new
    return frozenset(seen)
