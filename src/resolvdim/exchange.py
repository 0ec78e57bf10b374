"""Exchange property for minimal resolving sets.

The property: for any minimal resolving sets W1, W2 and any r in W1 there
is some s in W2 such that (W2 minus s) plus r is again a minimal resolving
set.  The definition-level check reads the family of minimal resolving
sets from `resolving.enumerate_minimal_resolving_sets` and tests the
quantifier over all ordered pairs, one family lookup per swap; when it
fails, it returns the first violation found as the witness, without
re-checking it: W2 in lexicographic order, then r ascending, and W1 the
least minimal set holding r.  The report also counts the minimal sets
of each size.

Where that 2^N table is refused, a checked certificate may decide
instead: `resolving.twin_core_certificate` checks, in the same run, the
premises under which the minimal sets are the twin-swap orbit, for which
the property holds (its docstring has the proof).  A premise that fails,
or a graph past the matrix cap, keeps the table's refusal: no verdict is
reported that was not checked.

Two helper constructions give explicit oversized minimal sets at q=2: the
set of vertices avoiding one fixed coordinate, and for n=3 a hand-picked
four-element minimal set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable

from . import resolving
from .errors import BadParameters, BudgetExceeded
from .graph import MATRIX_CAP
from .resolving import DEFAULT_BUDGET


@dataclass(frozen=True)
class ExchangeViolation:
    """A triple violating the definition: no s in w2 makes the swap minimal."""

    w1: tuple[int, ...]
    r: int
    w2: tuple[int, ...]


class SizeRuns:
    """Every minimal set's size, ascending, read from (size, count) runs
    without listing them: the certificate's family may count past 10^14
    sets.  Its length is read in O(1), and it equals a tuple, a list or
    runs that hold the same sizes in the same order."""

    def __init__(self, runs: tuple[tuple[int, int], ...]):
        self._runs = runs
        self._len = sum(count for _, count in runs)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return chain.from_iterable(repeat(size, count) for size, count in self._runs)

    def __eq__(self, other) -> bool:
        return (isinstance(other, (tuple, list, SizeRuns)) and len(other) == self._len
                and all(a == b for a, b in zip(self, other)))

    __hash__ = None

    def __repr__(self) -> str:
        return f"SizeRuns({self._runs!r})"


@dataclass(frozen=True)
class ExchangeReport:
    holds: bool
    # "definition-check" (the 2^N table) or "twin-core-certificate"
    method: str
    # (size, number of minimal sets of that size), sizes ascending
    size_counts: tuple[tuple[int, int], ...]
    witness: ExchangeViolation | None = None

    @property
    def minimal_set_sizes(self) -> SizeRuns:
        """Every minimal set's size, ascending: `size_counts` as a sequence
        that is never expanded in memory."""
        return SizeRuns(self.size_counts)


def has_exchange_property(
    g, budget: int = DEFAULT_BUDGET,
    certificate: Callable[[], resolving.TwinCore | None] | None = None,
) -> ExchangeReport:
    """Exchange verdict for a graph with a distance matrix.

    Works on component graphs and plain graphs alike.  The minimal sets
    come from `resolving.enumerate_minimal_resolving_sets`, and the
    quantifier is checked on them.  Where its 2^N table does not fit the
    budget, or N is over the 20-vertex table guard, the twin-core
    certificate decides (`resolving.twin_core_certificate`, charged one
    unit per class test and one for the core, with its own refusal): the
    property holds, and every minimal set has the core's size.
    `certificate`, when given, returns that certificate as its caller
    checked it at this budget (`verify` checks it once per cell);
    otherwise it is checked here.  Past the matrix cap, or when a
    premise fails, the table's BudgetExceeded propagates: a verdict is
    only ever reported for a quantifier or a certificate that was
    checked.
    """
    try:
        sets = resolving.enumerate_minimal_resolving_sets(g, budget)
    except BudgetExceeded:
        if g.vertex_count > MATRIX_CAP:
            raise
        cert = (certificate() if certificate is not None
                else resolving.twin_core_certificate(g, budget))
        if cert is None:
            raise
        return ExchangeReport(holds=True, method="twin-core-certificate",
                              size_counts=((len(cert.core), cert.family_size),))
    family = set(map(frozenset, sets))
    sizes = tuple(sorted(Counter(len(w) for w in sets).items()))
    universe = sorted({v for w in sets for v in w})
    for w2 in sets:
        members = frozenset(w2)
        for r in universe:
            if r in members:
                continue
            with_r = members | {r}
            if not any(with_r - {s} in family for s in w2):
                w1 = next(w for w in sets if r in w)
                return ExchangeReport(holds=False, method="definition-check",
                                      size_counts=sizes,
                                      witness=ExchangeViolation(w1=w1, r=r, w2=w2))
    return ExchangeReport(holds=True, method="definition-check",
                          size_counts=sizes)


def coordinate_avoiding_set(q: int, n: int) -> tuple[int, ...]:
    """q=2 only: all vertices whose skeleton omits basis index n-1.

    There are 2^(n-1) - 1 of them and they form a minimal resolving set,
    strictly larger than the metric dimension once n >= 4.
    """
    if q != 2:
        raise BadParameters(f"construction defined only for q=2, got q={q}")
    if n < 3:
        raise BadParameters(f"construction needs n >= 3, got n={n}")
    bit = 1 << (n - 2)
    return tuple(m for m in range(1, 1 << n) if not (m & bit))


def oversized_minimal_resolving_set(q: int, n: int) -> tuple[int, ...]:
    """q=2, n>=3: a minimal resolving set larger than the metric dimension.

    n=3 uses the explicit four-element set {e1, e1+e2, e2+e3, e1+e2+e3};
    n>=4 uses the coordinate-avoiding construction.
    """
    if q != 2 or n < 3:
        raise BadParameters(f"defined only for q=2 and n >= 3, got q={q}, n={n}")
    if n == 3:
        return (1, 3, 6, 7)
    return coordinate_avoiding_set(q, n)
