"""Exact integer lattices: rank and membership by derived congruences.

The constructor brings the generator matrix M (one row per generator) to
diagonal form S = P·M·V with integer row and column operations, once, and
keeps only the column operations V. A vector x lies in the row span of M iff
(x·V)_i ≡ 0 (mod |s_i|) for each nonzero diagonal entry s_i and (x·V)_i = 0
beyond the rank, so membership is a few dot products. All arithmetic is on
Python ints, so there is no overflow to guard against.

`packed_test` compiles the same congruences once into a test on vectors
packed one byte per coordinate (the enumerations' representation, see
`semigroup`): each dot product is read from masked byte sums, so hole
families test packed points without unpacking them. `contains` stays the
definition, and the tests check the packed test against it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

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

    def packed_test(self, shift: Sequence[int] | None = None) -> Callable[[int], bool]:
        """Membership of x - shift, for x packed one byte per coordinate
        (coordinate j in byte j) with coordinate sum at most 255.

        Each congruence (f, m) gets one byte mask per distinct coefficient c,
        so f·x = sum of c·s_c, where s_c, the sum of x's bytes under c's mask,
        is byte d - 1 of the masked int times 1 + 256 + ... + 256**(d-1); no
        partial sum exceeds 255, so no byte carries. The shift enters as f·x
        compared with f·shift, reduced mod m once, so no byte goes negative.
        """
        d = self.dimension
        q = (0,) * d if shift is None else self._check(shift)
        ones = int.from_bytes(b"\x01" * d, "little")
        top = 8 * (d - 1)
        rows = []
        for f, m in self.congruences:
            masks: dict[int, int] = {}
            for j, c in f:
                masks[c] = masks.get(c, 0) | 255 << 8 * j
            target = sum(q[j] * c for j, c in f)
            rows.append((tuple(masks.items()), m, target % m if m else target))

        def test(n: int) -> bool:
            for masks, m, target in rows:
                s = 0
                for c, mask in masks:
                    s += c * ((n & mask) * ones >> top & 255)
                if (s % m if m else s) != target:
                    return False
            return True

        return test
