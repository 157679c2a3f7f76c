import itertools
import random

import pytest

import oracles
from edgering import DimensionMismatchError, IntegerLattice
from edgering.facets import face_of, supporting_hyperplanes
from edgering.graph_core import generators, rho_vector
from edgering.semigroup import edge_lattice


def _box(d, r):
    return itertools.product(range(-r, r + 1), repeat=d)


def test_empty_lattice():
    L = IntegerLattice(3, [])
    assert L.rank == 0
    assert L.contains((0, 0, 0))
    assert not L.contains((1, 0, 0))
    assert IntegerLattice(3, [(0, 0, 0)]).rank == 0


def test_single_vector():
    L = IntegerLattice(2, [(2, 4)])
    assert L.rank == 1
    assert L.contains((2, 4)) and L.contains((-4, -8)) and L.contains((0, 0))
    assert not L.contains((1, 2))
    assert not L.contains((2, 3))


def test_gcd_collapse():
    L = IntegerLattice(1, [(4,), (6,)])
    assert L.rank == 1
    assert L.contains((2,)) and not L.contains((3,))


def test_equivalent_generators_agree():
    # (1, 5) = (1, 2) + (0, 3), so both pairs span the same lattice
    L = IntegerLattice(2, [(1, 2), (0, 3)])
    L2 = IntegerLattice(2, [(1, 5), (0, 3)])
    assert L.rank == L2.rank == 2
    assert L.contains((1, 2)) and not L.contains((0, 1))
    for v in _box(2, 6):
        assert L.contains(v) == L2.contains(v), v


def test_full_lattice():
    L = IntegerLattice(2, [(1, 0), (0, 1)])
    assert L.rank == 2
    for v in _box(2, 3):
        assert L.contains(v)


def test_dimension_mismatch():
    L = IntegerLattice(2, [])
    with pytest.raises(DimensionMismatchError):
        L.contains((1,))
    with pytest.raises(DimensionMismatchError):
        IntegerLattice(2, [(1, 2, 3)])
    with pytest.raises(DimensionMismatchError):
        IntegerLattice(-1, [])


def test_membership_closed_under_operations():
    rng = random.Random(7)
    gens = [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(3)]
    L = IntegerLattice(4, gens)
    for _ in range(200):
        coeffs = [rng.randint(-4, 4) for _ in gens]
        combo = tuple(
            sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(4)
        )
        assert L.contains(combo)


def test_generation_order_irrelevant():
    rng = random.Random(11)
    gens = [tuple(rng.randint(-6, 6) for _ in range(5)) for _ in range(4)]
    L = IntegerLattice(5, gens)
    box = list(_box(5, 2))
    want = [L.contains(v) for v in box]
    for _ in range(10):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        L2 = IntegerLattice(5, shuffled)
        assert L2.rank == L.rank
        assert [L2.contains(v) for v in box] == want


def _probes(rng, d, gens, count):
    """Random vectors, lattice vectors, and lattice vectors nudged in one
    coordinate, so that both answers occur on every lattice."""
    out = []
    for _ in range(count):
        out.append(tuple(rng.randint(-6, 6) for _ in range(d)))
        coeffs = [rng.randint(-3, 3) for _ in gens]
        y = [sum(c * g[k] for c, g in zip(coeffs, gens)) for k in range(d)]
        out.append(tuple(y))
        if d:
            y[rng.randrange(d)] += rng.choice((-2, -1, 1, 2))
            out.append(tuple(y))
    return out


def _assert_matches_echelon(rng, d, gens, L, where):
    ref = oracles.EchelonLattice.from_vectors(d, gens)
    assert L.rank == ref.rank, where
    for x in _probes(rng, d, gens, 20):
        assert L.contains(x) == ref.contains(x), (where, x)


def test_matches_echelon_oracle(all_fixture_graphs):
    """Rank and membership agree with the echelon reference on random
    lattices (d = 0, rank-deficient, negative entries), on every fixture's
    edge lattice, and on every supporting-hyperplane face lattice."""
    rng = random.Random(13)
    for _ in range(400):
        d = rng.randint(0, 6)
        span = rng.choice((1, 3, 9))
        gens = [
            tuple(rng.randint(-span, span) for _ in range(d))
            for _ in range(rng.randint(0, 7))
        ]
        if len(gens) >= 2:  # a dependent generator
            gens.append(tuple(a - 2 * b for a, b in zip(gens[0], gens[1])))
        _assert_matches_echelon(rng, d, gens, IntegerLattice(d, gens), gens)
    for name, G in all_fixture_graphs.items():
        d = G.dimension
        _assert_matches_echelon(rng, d, generators(G), edge_lattice(G), name)
        for H in supporting_hyperplanes(G):
            gens = [g for g in (rho_vector(G, u, v) for u, v in G.edges) if H.value(g) == 0]
            _assert_matches_echelon(rng, d, gens, face_of(G, H), (name, H))


def test_edge_lattice_closed_form(all_fixture_graphs):
    """The lattice spanned by the edge vectors of a connected graph with an
    odd cycle is exactly the even-coordinate-sum sublattice."""
    rng = random.Random(3)
    for name, G in all_fixture_graphs.items():
        d = G.dimension
        L = IntegerLattice(d, [rho_vector(G, u, v) for u, v in G.edges])
        assert L.rank == d, name
        for _ in range(100):
            x = tuple(rng.randint(-4, 4) for _ in range(d))
            assert L.contains(x) == oracles.oracle_lattice_member(G, x), (name, x)


def test_edge_lattice_bipartite_closed_form():
    from edgering import build_from_edges

    path = build_from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    square = build_from_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    rng = random.Random(5)
    for G in (path, square):
        d = G.dimension
        L = IntegerLattice(d, [rho_vector(G, u, v) for u, v in G.edges])
        assert L.rank == d - 1
        for _ in range(200):
            x = tuple(rng.randint(-3, 3) for _ in range(d))
            assert L.contains(x) == oracles.oracle_lattice_member(G, x), x
