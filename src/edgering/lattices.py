"""Exact integer lattices: rank and membership by derived congruences.

The constructor brings the generator matrix M (one row per generator) to
diagonal form S = P·M·V with integer row and column operations, once, and
keeps only the column operations V. A vector x lies in the row span of M iff
(x·V)_i ≡ 0 (mod |s_i|) for each nonzero diagonal entry s_i and (x·V)_i = 0
beyond the rank, so membership is a few dot products. All arithmetic is on
Python ints, so there is no overflow to guard against.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import DimensionMismatchError


class IntegerLattice:
    """The sublattice of Z^dimension spanned by `vectors`.

    `congruences` holds one (sparse functional, modulus) pair per column of
    V: x is a member iff f·x ≡ 0 (mod m) for every pair, where m = 0 means
    f·x = 0. Pairs with m = 1 hold for every integer vector and are dropped.
    """

    def __init__(self, dimension: int, vectors: Iterable[Sequence[int]]):
        if dimension < 0:
            raise DimensionMismatchError("dimension must be nonnegative")
        self.dimension = dimension
        rows = [list(self._check(v)) for v in vectors]
        rows = [r for r in rows if any(r)]
        cols = [[int(i == j) for i in range(dimension)] for j in range(dimension)]
        moduli = []
        t = 0
        while t < len(rows):
            # pivot on the smallest nonzero entry of row t, then clear row and
            # column t by floor division; any remainder is smaller than the
            # pivot, so its row becomes row t and the step repeats
            pivot = rows[t]
            j = min((k for k in range(t, dimension) if pivot[k]),
                    key=lambda k: abs(pivot[k]))
            for r in rows[t:]:
                r[t], r[j] = r[j], r[t]
            cols[t], cols[j] = cols[j], cols[t]
            p = pivot[t]
            for r in rows[t + 1:]:
                q = r[t] // p
                if q:
                    for k in range(t, dimension):
                        r[k] -= q * pivot[k]
            for k in range(t + 1, dimension):
                q = pivot[k] // p
                if q:
                    for r in rows[t:]:
                        r[k] -= q * r[t]
                    cols[k] = [a - q * b for a, b in zip(cols[k], cols[t])]
            below = next((i for i in range(t + 1, len(rows)) if rows[i][t]), None)
            if below is not None:
                rows[t], rows[below] = rows[below], rows[t]
            elif not any(pivot[t + 1:]):
                moduli.append(abs(p))
                t += 1
                rows[t:] = [r for r in rows[t:] if any(r)]
        self.rank = t
        moduli += [0] * (dimension - t)
        congruences = []
        for f, m in zip(cols, moduli):
            if m != 1:
                f = [c % m for c in f] if m else f
                congruences.append((tuple((j, c) for j, c in enumerate(f) if c), m))
        self.congruences = tuple(congruences)

    def _check(self, vector: Sequence[int]) -> Sequence[int]:
        if len(vector) != self.dimension:
            raise DimensionMismatchError(
                f"vector length {len(vector)} != lattice dimension {self.dimension}"
            )
        return vector

    def contains(self, vector: Sequence[int]) -> bool:
        """Exact membership: every derived congruence holds on the vector."""
        v = self._check(vector)
        for f, m in self.congruences:
            s = sum(v[j] * c for j, c in f)
            if (s % m if m else s):
                return False
        return True
