"""Arithmetic in the finite fields GF(q) used as coefficient domains.

Supported orders are the primes and prime powers up to 27 tabled below.
An element is the integer 0..q-1; for GF(p^m) the integer is the base-p
packing of the polynomial coefficients, so c0 + c1*x + c2*x^2 packs to
c0 + c1*p + c2*p^2.  Addition, multiplication and inversion are served
from q-by-q tables built once at construction, which keeps the hot loops
branch-free for every supported size.  Rank reads those tables directly:
each vector is reduced against a running echelon basis, and the scan stops
as soon as the basis spans the whole space.  Hyperplane masks serve many
span questions over one vector list at once: each vector gets one bit per
hyperplane of GF(q)^n, set when the vector lies off it, so a sublist spans
the space exactly when the OR of its members' masks has every bit set.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, DivisionByZero, OutOfRange, UnsupportedOrder

# Monic irreducible reduction polynomials, coefficients in ascending
# degree order (constant first, leading 1 last).
_REDUCTION_POLYS: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),         # x^2 + x + 1    over GF(2)
    8: (1, 1, 0, 1),      # x^3 + x + 1    over GF(2)
    9: (2, 2, 1),         # x^2 + 2x + 2   over GF(3)
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1    over GF(2)
    25: (2, 4, 1),        # x^2 + 4x + 2   over GF(5)
    27: (1, 2, 0, 1),     # x^3 + 2x + 1   over GF(3)
}

_PRIME_ORDERS = (2, 3, 5, 7, 11, 13)

SUPPORTED_ORDERS: tuple[int, ...] = tuple(sorted(_PRIME_ORDERS + tuple(_REDUCTION_POLYS)))


def _prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, m) with q = p^m and p prime, or None."""
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            m = 0
            r = q
            while r % p == 0:
                r //= p
                m += 1
            return (p, m) if r == 1 else None
        p += 1
    return (q, 1)  # q itself is prime


def validate_order(q: int) -> None:
    """Raise UnsupportedOrder unless q is one of the tabled orders."""
    if q in SUPPORTED_ORDERS:
        return
    pm = _prime_power(q)
    if pm is None:
        raise UnsupportedOrder(f"q={q} is not a prime power")
    p, m = pm
    raise UnsupportedOrder(
        f"q={q} = {p}^{m} is a prime power but has no tabled reduction polynomial; "
        f"supported orders: {SUPPORTED_ORDERS}"
    )


def _poly_rem(num: list[int], den: Sequence[int], p: int) -> list[int]:
    """Remainder of num modulo monic den, coefficients mod p, ascending order."""
    num = list(num)
    target = len(den) - 1
    while len(num) >= len(den):
        lead = num[-1]
        if lead:
            shift = len(num) - len(den)
            for i, c in enumerate(den):
                num[shift + i] = (num[shift + i] - lead * c) % p
        num.pop()
    while len(num) < target:
        num.append(0)
    return num


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Exhaustive trial division by every monic polynomial of degree <= deg/2."""
    m = len(poly) - 1
    for d in range(1, m // 2 + 1):
        for tail in product(range(p), repeat=d):
            den = list(tail) + [1]
            if not any(_poly_rem(list(poly), den, p)):
                return False
    return True


class FieldSpec:
    """A concrete GF(q) with precomputed operation tables.

    Immutable after construction; all operations are pure, so instances
    are safe to share between threads.
    """

    def __init__(self, q: int):
        validate_order(q)
        p, m = _prime_power(q)  # type: ignore[misc]  # validated above
        self.q = q
        self.p = p
        self.m = m
        self.reduction_poly: tuple[int, ...] = _REDUCTION_POLYS.get(q, ())
        if m > 1:
            if len(self.reduction_poly) != m + 1 or self.reduction_poly[-1] != 1:
                raise UnsupportedOrder(f"bad reduction polynomial tabled for q={q}")
            if not _is_irreducible(self.reduction_poly, p):
                raise UnsupportedOrder(f"tabled polynomial for q={q} is reducible")
        self._add = [[self._add_slow(a, b) for b in range(q)] for a in range(q)]
        self._mul = [[self._mul_slow(a, b) for b in range(q)] for a in range(q)]
        self._neg = [self._add[a].index(0) for a in range(q)]
        self._inv: list[int | None] = [None] + [self._mul[a].index(1) for a in range(1, q)]
        self._elements = frozenset(range(q))

    # -- construction-time digit arithmetic --

    def _digits(self, rep: int) -> list[int]:
        out = []
        for _ in range(self.m):
            rep, r = divmod(rep, self.p)
            out.append(r)
        return out

    def _pack(self, digits: Sequence[int]) -> int:
        rep = 0
        for c in reversed(digits):
            rep = rep * self.p + c
        return rep

    def _add_slow(self, a: int, b: int) -> int:
        da, db = self._digits(a), self._digits(b)
        return self._pack([(x + y) % self.p for x, y in zip(da, db)])

    def _mul_slow(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a * b) % self.p
        da, db = self._digits(a), self._digits(b)
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        return self._pack(_poly_rem(prod, self.reduction_poly, self.p))

    # -- public operations --

    def _check(self, a: int) -> None:
        if not (0 <= a < self.q):
            raise OutOfRange(f"{a} is not an element of GF({self.q})")

    def _check_entries(self, rows: Sequence[Sequence[int]]) -> None:
        for v in rows:
            if not self._elements.issuperset(v):
                bad = next(x for x in v if x not in self._elements)
                raise OutOfRange(f"{bad} is not an element of GF({self.q})")

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._add[a][self._neg[b]]

    def neg(self, a: int) -> int:
        self._check(a)
        return self._neg[a]

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise DivisionByZero(f"element 0 has no inverse in GF({self.q})")
        return self._inv[a]  # type: ignore[return-value]

    def rank(self, vectors: Sequence[Sequence[int]]) -> int:
        """Rank of a list of equal-length vectors over this field.

        Every vector is validated first: DimensionMismatch for a length
        that differs from the first vector's, OutOfRange for an entry
        outside 0..q-1.  Then each vector in turn is reduced against a
        running echelon basis, read straight from the tables; a nonzero
        remainder is scaled to a leading 1 and joins the basis.  The scan
        stops once the basis has one member per coordinate, since the rank
        cannot be higher.
        """
        rows = [list(v) for v in vectors]
        if not rows:
            return 0
        ncols = len(rows[0])
        for v in rows:
            if len(v) != ncols:
                raise DimensionMismatch(f"vector lengths differ: {len(v)} vs {ncols}")
        self._check_entries(rows)
        add, mul, neg, inv = self._add, self._mul, self._neg, self._inv
        basis: list[tuple[int, list[int]]] = []  # (pivot column, row with a 1 there)
        for v in rows:
            for col, b in basis:
                c = v[col]
                if c:
                    m = mul[neg[c]]
                    v = [add[x][m[y]] for x, y in zip(v, b)]
            pivot = next((i for i, x in enumerate(v) if x), None)
            if pivot is not None:
                scale = mul[inv[v[pivot]]]  # type: ignore[index]  # v[pivot] != 0
                basis.append((pivot, [scale[x] for x in v]))
                if len(basis) == ncols:
                    break
        return len(basis)

    def hyperplane_masks(self, n: int, vectors: Sequence[Sequence[int]]) -> np.ndarray:
        """Packed hyperplane incidence of N vectors of length n over this
        field: an (N, ceil(H/64)) uint64 array.

        The hyperplanes of GF(q)^n are the kernels of the H = (q^n-1)/(q-1)
        normals whose first nonzero entry is 1, taken in ascending order of
        their little-endian base-q ids.  Bit h of row j (bit h % 64 of word
        h // 64) is set when vector j lies off hyperplane h, that is, when
        its dot product with normal h, summed from the add and mul tables,
        is nonzero; the bits past H are set too.  A list spans GF(q)^n
        exactly when no hyperplane holds it, so exactly when the OR of its
        rows is all ones.  DimensionMismatch unless every vector has length
        n, OutOfRange for an entry outside 0..q-1.
        """
        rows = [tuple(v) for v in vectors]
        for v in rows:
            if len(v) != n:
                raise DimensionMismatch(f"vector length {len(v)} differs from n={n}")
        self._check_entries(rows)
        q = self.q
        ids = np.arange(q ** n, dtype=np.int64)
        normals = np.empty((q ** n, n), dtype=np.intp)
        for i in range(n):
            ids, normals[:, i] = np.divmod(ids, q)
        first = normals[np.arange(q ** n), np.argmax(normals != 0, axis=1)]
        normals = normals[first == 1]
        add = np.asarray(self._add, dtype=np.uint8)
        mul = np.asarray(self._mul, dtype=np.uint8)
        vec = np.asarray(rows, dtype=np.intp).reshape(len(rows), n)
        dot = np.zeros((len(rows), len(normals)), dtype=np.uint8)
        for i in range(n):
            dot = add[dot, mul[vec[:, i, None], normals[None, :, i]]]
        words = -(-len(normals) // 64)
        off = np.ones((len(rows), 64 * words), dtype=bool)
        off[:, :len(normals)] = dot != 0
        packed = np.packbits(off, axis=1, bitorder="little")
        return packed.view("<u8").astype(np.uint64, copy=False)

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:
        return f"FieldSpec(q={self.q}, p={self.p}, m={self.m})"


def field_new(q: int) -> FieldSpec:
    """Build GF(q) for a supported order q."""
    return FieldSpec(q)


def rank(f: FieldSpec, vectors: Sequence[Sequence[int]]) -> int:
    """Rank of a list of equal-length vectors over f (see FieldSpec.rank)."""
    return f.rank(vectors)


def has_full_rank(f: FieldSpec, n: int, vectors: Sequence[Sequence[int]]) -> bool:
    """True iff the vectors span GF(q)^n, i.e. some n-subset is independent;
    DimensionMismatch unless the first has length n (`rank` checks the rest)."""
    if vectors and len(vectors[0]) != n:
        raise DimensionMismatch(f"vector length {len(vectors[0])} differs from n={n}")
    return rank(f, vectors) == n
