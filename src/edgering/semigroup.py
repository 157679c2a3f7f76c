"""The edge semigroup of a graph: the generators' lattice, the point oracle
`member`/`decompose`, and degree-truncated enumeration of the semigroup S,
its normalization N, and the holes N - S (no oracle).

Vectors are tuples of ints indexed by the graph's vertex order. The
semigroup is generated by one degree-2 vector per edge (the sum of the two
endpoint units). The enumerations and the oracle pack each vector into one
int, a lane per coordinate, and unpack only the results they hand out; the
enumerations put coordinate i in lane i, the oracle puts its vertices in a
smallest-last order, so the vertex its search eliminates next has at most
the graph's degeneracy many neighbours left to pair with, and keeps the
residuals a search fails on for that one call only. One record per
(G, D) keeps |N_D| and the holes; N_D and S_D are temporaries, S_D built
once, as degree slabs grown by each point's least vertex, and a second
degree is a second enumeration. N is enumerated two independent ways
and cross-checked: (A) a walk over nonnegative vectors that keeps every
fundamental hyperplane's value in a 16-bit lane of one int, so a step is one
addition and the cone's inequalities are read off the lanes' sign bits, and
whose lattice test is the leaf's degree parity; (B) closes S_D's slabs
under adding the cycle-pair vectors (Ohsugi-Hibi), and the points it adds
are the holes. B runs first, and A strikes each point it finds off B's
slab of that degree, so N_D is held once: the methods agree when no point
is missing from its slab or found twice, and no slab keeps a point.

A walks its columns in a per-graph order with the twin classes first, the
true twins (N[u] = N[v]: a pendant triangle's two outer vertices, a hub
triangle's two spokes when neither has pendants) and then the false twins
(N(u) = N(v)). Permuting a class is an automorphism, so it maps the cone
onto itself and fixes every later column: A keeps only the prefixes whose
values do not increase within each class, walks each one's suffix once,
and strikes every distinct image of each leaf. It still finds every point
of N_D once, in about a quarter of the frames on the four-triangle cacti.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Sequence

from .errors import EdgeRingError, MethodMismatchError
from .facets import (
    LANE_BITS,
    _bit_columns,
    _lanes,
    _sign_bits,
    cone_contains,
    supporting_hyperplanes,
)
from .graph_core import (
    Graph,
    _pack,
    bits,
    check_vector,
    exceptional_pairs,
    generators,
    pair_vector,
    per_graph,
)
from .lattices import IntegerLattice


def vector_degree(x: Sequence[int]) -> int:
    return sum(x)


def graded_sorted(vectors: Iterable[Sequence[int]]) -> list[tuple]:
    """Graded lexicographic order: by degree, then coordinates."""
    return sorted((tuple(v) for v in vectors), key=lambda t: (sum(t), t))


def count_by_degree(vectors: Iterable[Sequence[int]]) -> dict:
    """Number of vectors per degree, keyed by the degree as a string, in
    ascending degree order (the shape the JSON reports use)."""
    counts = Counter(map(vector_degree, vectors))
    return {str(k): counts[k] for k in sorted(counts)}


# ---------------------------------------------------------------------------
# the generators' lattice
# ---------------------------------------------------------------------------

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

def member(G: Graph, x: Sequence[int]) -> bool:
    """True iff x is a nonnegative integer combination of edge generators.

    Exhaustive backtracking on the residual: the search eliminates
    the positive vertex that comes first in a smallest-last order of the
    graph (Matula-Beck: each next vertex has least degree among those left,
    ties by index) by pairing it with each positive later neighbour in turn,
    so it branches on at most the graph's degeneracy many edges per step,
    2 on a triangular cactus. This is the reference oracle every closed-form
    result in the package is checked against, so it stays definitional: no
    parity or cone shortcuts. The residual is one int with a lane per
    vertex, in that order, as wide as the smallest multiple of 8 bits that
    holds max(x), so a step is one subtraction; the search keeps its own
    stack, so it answers at any degree. It keeps the residuals it has failed
    on for this call only, so nothing it visits outlives the call.
    """
    return _witness(G, x) is not None


def decompose(G: Graph, x: Sequence[int]):
    """Witness multiset of edges summing to x, or None: the first witness
    `member`'s search finds, which depends only on x, as the search keeps
    its failures for this call only. Edges are returned sorted in canonical
    edge order."""
    witness = _witness(G, x)
    if witness is None:
        return None
    return tuple(G.edges[k] for k in sorted(witness))


def _witness(G: Graph, x: Sequence[int]):
    # edge numbers of the first witness, or None. A negative coordinate is
    # refused here, once: a step of the search lowers only positive
    # coordinates, so residuals stay nonnegative and no lane borrows
    x = check_vector(G, x)
    if min(x) < 0:
        return None
    width = 8 * ((max(x).bit_length() + 7) // 8 or 1)
    return _decompose(_packed_generators(G, width, True), width,
                      _pack([x[i] for i in _elimination_order(G)], width))


@per_graph
def _elimination_order(G: Graph) -> tuple:
    # the vertex indices smallest-last: each next one has the fewest
    # neighbours among those not yet taken, the least index on a tie, so
    # none has more later neighbours than the graph's degeneracy
    adj, left, order = G.neighbor_masks, (1 << G.dimension) - 1, []
    while left:
        order.append(min(bits(left), key=lambda i: (adj[i] & left).bit_count()))
        left ^= 1 << order[-1]
    return tuple(order)


@per_graph
def _packed_generators(G: Graph, width: int, smallest_last: bool) -> tuple:
    # the search's steps, `width`-bit lanes with vertex order[p] in lane p
    # (order smallest-last, or vertex order): entry p lists (edge number,
    # generator, lane mask of q) for the edges between lane p and a later
    # lane q, in edge order, so neighbours by ascending index
    lane = (1 << width) - 1
    order = _elimination_order(G) if smallest_last else range(G.dimension)
    at = {i: p for p, i in enumerate(order)}
    steps = [[] for _ in order]
    for k, (u, v) in enumerate(G.edges):
        p, q = sorted((at[G.index(u)], at[G.index(v)]))
        steps[p].append((k, 1 << width * p | 1 << width * q, lane << width * q))
    return tuple(map(tuple, steps))


def _decompose(steps: Sequence[tuple], width: int, r: int):
    # the edge numbers of the packed residual r's first witness, or None. The
    # search pairs the positive vertex of least lane p with each neighbour in
    # a later lane that is positive, in edge order, and the first success
    # wins. Its stack holds [residual, its options left, the edge it is
    # trying], so at success the pending edges are the witness; a residual
    # that fails is kept, for this call only, so that no other path of the
    # search tries it again
    failed, stack = set(), []
    while r:
        if r not in failed:
            stack.append([r, iter(steps[((r & -r).bit_length() - 1) // width]), None])
        while stack:
            frame = stack[-1]
            for k, g, lane in frame[1]:
                if frame[0] & lane:
                    frame[2], r = k, frame[0] - g
                    break
            else:
                failed.add(stack.pop()[0])
                continue
            break
        else:
            return None
    return [k for _, _, k in stack]


# ---------------------------------------------------------------------------
# truncated enumerations
# ---------------------------------------------------------------------------

# Inside the enumerations a vector is one int with one byte per coordinate,
# coordinate i in byte i, so adding vectors is adding ints. A coordinate of
# a degree-<=D point is at most D, so the bytes never carry for D <= 255.
MAX_PACKED_DEGREE = 255


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


def enumerate_semigroup(G: Graph, D: int) -> frozenset:
    """All semigroup elements of degree <= D: closure of {0} under adding
    edge generators."""
    return _unpack_all(frozenset().union(*_semigroup_slabs(G, D)), G.dimension)


def enumerate_normalization(G: Graph, D: int) -> frozenset:
    """All vectors of degree <= D in cone ∩ lattice: S_D and the holes, on
    which the two independent methods of the module docstring must agree:
    (A) the lane walk and (B) the closure of S_D's slabs. Disagreement raises
    MethodMismatchError: either a bug or a graph outside the supported class."""
    return enumerate_semigroup(G, D) | holes(G, D)


def holes(G: Graph, D: int) -> frozenset:
    """Normalization elements of degree <= D that are not in the semigroup."""
    return _enumeration(G, D)[1]


def hole_report(G: Graph, D: int) -> list[tuple]:
    """(degree, vector, in_cone, in_lattice, member) rows for every hole,
    fields evaluated independently, in graded lexicographic order."""
    return [
        (vector_degree(x), x, cone_contains(G, x), lattice_member(G, x),
         member(G, x))
        for x in graded_sorted(holes(G, D))
    ]


@per_graph
def _enumeration(G: Graph, D: int) -> tuple:
    # (|N_D|, the holes unpacked); N_D and the slabs of S_D are freed on return
    size, new = _normalization(G, D)
    return size, _unpack_all(new, G.dimension)


def _normalization(G: Graph, D: int) -> tuple:
    # |N_D| and the holes packed, from method B's closed slabs; the slabs B
    # replaced are freed before method A strikes its points off the closed
    # ones (a KeyError: a point missing or found twice). Only a disagreement
    # runs both methods again, to collect the difference
    slabs = _semigroup_slabs(G, D)
    closed = _enumerate_by_closure(G, D, slabs)
    new = [n for c, s in zip(closed, slabs) if c is not s for n in c - s]
    del slabs
    size = sum(map(len, closed))
    try:
        _enumerate_by_inequalities(G, D, [c.remove for c in closed])
        struck = None
    except KeyError as miss:
        struck = miss.args[0]
    if struck is None and not any(closed):
        return size, new
    del closed
    d, by_filter = G.dimension, _enumerate_by_inequalities(G, D)
    union = set().union(*_enumerate_by_closure(G, D))
    # a point method A failed to strike that method B holds was found twice
    raise MethodMismatchError(_unpack_all(by_filter - union, d),
                              _unpack_all(union - by_filter, d),
                              _unpack(struck, d) if struck in union else None)


def _semigroup_slabs(G: Graph, D: int) -> tuple:
    """S_D packed, by degree: entry j holds the elements of degree 2j."""
    _check_degree(D)
    if D < 0:
        return ()
    # slab j + 1's points of least positive coordinate i are the edges (i, k),
    # k > i, added to slab j's points with no positive coordinate below i
    # (drop the edge that covers i); tiers[i] holds slab j's points of least i
    steps = _packed_generators(G, 8, False)
    gens = [[g for _, g, _ in step] for step in steps]
    slabs, tiers, pool = [{0}], [()] * G.dimension, [0]
    for _ in range(D // 2):
        for i in reversed(range(G.dimension)):
            pool += tiers[i]
            tiers[i] = {s + g for g in gens[i] for s in pool}
        slabs.append(set().union(*tiers))
        pool = []
    return tuple(slabs)


# Method A holds hyperplane values in 16-bit lanes of one int (facets'
# `_lanes`). The walk's values stay in [-D, 2D] with D <= 255, so no lane
# carries into the next.


def _require_parity_lattice(G: Graph) -> None:
    # method A tests a leaf against the edge lattice by its degree alone,
    # which is exact when the lattice's one congruence is sum(x) ≡ 0 (mod 2),
    # as it is for every connected non-bipartite graph
    parity = ((tuple((j, 1) for j in range(G.dimension)), 2),)
    if edge_lattice(G).congruences != parity:
        raise EdgeRingError(
            "the edge lattice is not the even-degree lattice; method A "
            "enumerates only connected non-bipartite graphs"
        )


@per_graph
def _twin_classes(G: Graph) -> tuple:
    """The true twin classes (N[u] = N[v]), then the false twin classes
    (N(u) = N(v)), each of two or more vertex indices, ascending, and each
    kind ordered by least index. A vertex with a true twin has no false
    one, so the classes are disjoint. Swapping two members u and v of a
    class maps the edge set onto itself by the definition: a third vertex
    is adjacent to u exactly when it is adjacent to v, and the edge uv, if
    any, is fixed. So every permutation of a class is an automorphism."""
    classes = []
    for closed in (1, 0):
        by_neighbourhood: dict = {}
        for i, mask in enumerate(G.neighbor_masks):
            by_neighbourhood.setdefault(mask | closed << i, []).append(i)
        classes += [tuple(c) for c in by_neighbourhood.values() if len(c) > 1]
    return tuple(classes)


@per_graph
def _walk_order(G: Graph) -> tuple:
    # method A's twin classes and its column order: the classes' vertices
    # first, then the others in vertex order. The penultimate column closes
    # the last one, so at least two columns stay outside the classes: the
    # last classes lose members, and a class left with one goes
    classes = list(_twin_classes(G))
    while (excess := sum(map(len, classes)) - (G.dimension - 2)) > 0:
        if len(kept := classes.pop()[:-excess]) > 1:
            classes.append(kept)
    twinned = [i for c in classes for i in c]
    return tuple(classes), (*twinned, *sorted(set(range(G.dimension)) - set(twinned)))


def _enumerate_by_inequalities(G: Graph, D: int, sinks=None) -> frozenset | None:
    # N_D packed, or None with each point handed to sinks[degree // 2]
    _check_degree(D)
    d = G.dimension
    hyps = [h for h in supporting_hyperplanes(G) if h.kind == "fundamental"]
    _require_parity_lattice(G)
    n = len(hyps)
    classes, order = _walk_order(G)
    # Lane h holds f_h, hyperplane h's value on the walked prefix; lane n + h
    # holds f_h + L, with L the degree still free. Both are >= 0 at every
    # point of the cone that extends the prefix: f_h + L once h has a +1
    # coefficient in a later column (the rest of the degree can go there),
    # f_h itself once it has none. Raising x[k] by one adds c to f_h and
    # c - 1 to f_h + L, where c = h's coefficient in column k, so
    #   `keep`:  the lanes that only fall as x[k] grows (f_h + L, and f_h for
    #            c <= 0); the first value that fails them ends column k,
    #   `reach`: the lanes that rise (f_h for c = +1 with no later +1); x[k]
    #            goes on up to them.
    # In the last column no hyperplane has a later +1, so `keep` and `reach`
    # together cover every f_h: a leaf is checked against every fundamental
    # hyperplane. Column k walks vertex order[k]; its step is read off the
    # +1 and -1 masks, each hyperplane's in lanes h and n + h, less 1 in
    # every f_h + L lane
    plus = _bit_columns([h.plus for h in hyps] * 2, d, LANE_BITS)
    minus = _bit_columns([h.minus for h in hyps] * 2, d, LANE_BITS)
    upper = _pack([0] * n + [1] * n, LANE_BITS)
    # bit k of later[h]: h has a +1 in column k
    later = [sum(1 << k for k, i in enumerate(order) if h.plus >> i & 1) for h in hyps]
    table = []
    for k, i in enumerate(order):
        # later[h] >> k: 0 with no +1 from column k on, 1 with its last +1 in k
        top = [m >> k for m in later]
        keep = _sign_bits([h for h in range(n) if not top[h]]
                          + [n + h for h in range(n) if top[h] > 1])
        reach = _sign_bits([h for h in range(n) if top[h] == 1])
        table.append((plus[i] - minus[i] - upper, keep, reach, 1 << 8 * i))
    # the twin classes' columns come first. A class's last column holds the
    # class, the mask of its lanes in a packed point and a table from those
    # lanes to its moves, or None for the first, whose lanes never repeat
    ends, k = {}, -1
    for c in classes:
        k += len(c)
        ends[k] = (c, sum(255 << 8 * i for i in c), {} if ends else None)
    heads = [row + (ends.get(j),) for j, row in enumerate(table[:k + 1])]
    del table[:k + 1]
    # the penultimate column closes the last one in its own loop, so the
    # last column also carries its two-unit step
    step, keep, reach, unit = table.pop()
    last = (step, 2 * step, keep, reach, unit, 2 * unit)
    found: list[int] = []
    if D >= 0:
        by_half = [found.append] * (D // 2 + 1) if sinks is None else sinks
        walk = (table, len(table) - 1, last, _tails(by_half, D), D)
        lanes = _lanes([0] * n + [D] * n)
        if heads:
            # current[0]: the deltas of the prefix whose suffix is walked
            current = [(0,)]
            imaged = [_image_sink(sink, current) for sink in by_half]
            twins = (heads, current, walk, walk[:3] + (_tails(imaged, D), D))
            _twin_walk(0, lanes, D, 0, D, (0,), twins)
        else:
            _lane_walk(0, lanes, D, 0, walk)
    return frozenset(found) if sinks is None else None


def _tails(by_half: list, D: int) -> list:
    # tails[rest]: the sinks of the degrees from D - rest up to D
    return [by_half[(D - rest + 1) >> 1:] for rest in range(D + 1)]


def _twin_walk(k: int, lanes: int, left: int, packed: int, cap: int,
               deltas: tuple, twins: tuple) -> None:
    # a twin class's column of method A: x[k] runs from 0 while the `keep`
    # lanes hold, up to cap, the value of the class's previous column, so
    # each class's values do not increase along the walk. A twin swap fixes
    # every later column and maps the cone onto itself, so the suffix of
    # such a prefix is walked once, and each of its leaves reaches the sinks
    # as every distinct image: the leaf plus each of `deltas`, the packed
    # differences the class permutations make to the prefix
    heads, current, walk, imaged = twins
    step, keep, reach, unit, ends = heads[k]
    cap = min(cap, left)
    v = 0
    while True:
        if (lanes & reach) == reach:
            if ends is None:
                _twin_walk(k + 1, lanes, left - v, packed, v, deltas, twins)
            else:
                c, lanes_of_c, memo = ends
                own = packed & lanes_of_c
                moves = _moves(c, own) if memo is None else memo.get(own)
                if moves is None:
                    moves = memo[own] = _moves(c, own)
                moved = deltas + tuple(a + b for b in moves for a in deltas)
                if k + 1 < len(heads):
                    # the next class's first column: bounded by the degree only
                    _twin_walk(k + 1, lanes, left - v, packed, left - v, moved, twins)
                elif len(moved) == 1:
                    _lane_walk(0, lanes, left - v, packed, walk)
                else:
                    current[0] = moved
                    _lane_walk(0, lanes, left - v, packed, imaged)
        if v == cap:
            return
        v += 1
        lanes += step
        packed += unit
        if (lanes & keep) != keep:
            return


def _moves(c: tuple, own: int) -> tuple:
    # the packed differences that carry `own`, a prefix's lanes of class c,
    # to its other images under the class's permutations, one per distinct
    # image, so the cost is the orbit's size, not the size of the class's
    # symmetric group. The value held by the most lanes is placed last
    counts = sorted(Counter(own >> 8 * i & 255 for i in c).items(), key=lambda vk: vk[1])
    return tuple(image - own for image in _placements([1 << 8 * i for i in c], counts, 0)
                 if image != own)


def _placements(units: list, counts: list, base: int) -> list:
    # base plus every packing of counts' (value, count) pairs onto the lanes
    # of `units`: each choice of lanes for the first value, then the rest
    # on the lanes left; the last two values are one comprehension
    (a, k), *rest = counts
    if not rest:
        return [base + a * sum(units)]
    if len(rest) == 1:
        b = rest[0][0]
        base += b * sum(units)
        return [base + (a - b) * sum(chosen) for chosen in itertools.combinations(units, k)]
    return [image for chosen in itertools.combinations(units, k)
            for image in _placements([u for u in units if u not in chosen], rest,
                                     base + a * sum(chosen))]


def _image_sink(sink, current: list):
    # hands `sink` every image of a leaf: the leaf plus each of current[0],
    # the deltas of the prefix whose suffix is being walked
    def strike(n: int) -> None:
        for delta in current[0]:
            sink(n + delta)
    return strike


def _lane_walk(k: int, lanes: int, left: int, packed: int, walk: tuple) -> None:
    # column k of method A: x[k] runs from 0 while the `keep` lanes hold;
    # module level, so no self-referencing closure is left for the collector
    table, penultimate, last, tails, D = walk
    step, keep, reach, unit = table[k]
    if k < penultimate:
        v = 0
        while True:
            if (lanes & reach) == reach:
                if v < left:
                    _lane_walk(k + 1, lanes, left - v, packed, walk)
                elif not D & 1:
                    # no degree left: every later coordinate is 0, and
                    # every f_h >= 0 already: `keep` holds f_h + 0 for h
                    # with a later +1 and f_h for c <= 0, `reach` the rest;
                    # tails[0] holds only the sink of degree D
                    tails[0][0](packed)
            if v == left:
                return
            v += 1
            lanes += step
            packed += unit
            if (lanes & keep) != keep:
                return
    # the penultimate column: at each of its values the last coordinate w
    # takes only the values that make the degree D - rest + w even (lattice
    # points have even degree), two units at a time, so the leaves meet the
    # sinks of tails[rest] in turn. The last column's `keep` lanes only fall,
    # so checking them at each landing is exact
    step1, step2, keep1, reach1, unit1, unit2 = last
    rest = left
    while True:
        if (lanes & reach) == reach:
            w = (D - rest) & 1
            leaf_lanes, leaf = (lanes + step1, packed + unit1) if w else (lanes, packed)
            for sink in tails[rest]:
                if (leaf_lanes & keep1) != keep1:
                    break
                if (leaf_lanes & reach1) == reach1:
                    sink(leaf)
                leaf_lanes += step2
                leaf += unit2
        if not rest:
            return
        rest -= 1
        lanes += step
        packed += unit
        if (lanes & keep) != keep:
            return


def _enumerate_by_closure(G: Graph, D: int, slabs: tuple | None = None) -> tuple:
    # method B on S_D's slabs, built here unless the caller holds them: N_D by
    # degree, S_D's own slab where no pair reaches. Adding generators commutes
    # with adding pairs, so N's slab j is S's slab j plus each pair on N's
    # slab j - step, the pair's half degree
    slabs = _semigroup_slabs(G, D) if slabs is None else slabs
    pairs = [(sum(p) // 2, _pack(p))
             for p in (pair_vector(G, P) for P in exceptional_pairs(G))]
    closed: list = []
    for j, slab in enumerate(slabs):
        extra = {n + p for step, p in pairs if step <= j for n in closed[j - step]}
        closed.append(slab | extra if extra else slab)
    return tuple(closed)
