"""Exchange property for minimal resolving sets.

The property: for any minimal resolving sets W1, W2 and any r in W1 there
is some s in W2 such that (W2 minus s) plus r is again a minimal resolving
set.  The definition-level check enumerates every minimal resolving set
via a full subset table and tests the quantifier over all ordered pairs;
when it fails, it returns the first violation found as the witness,
without re-checking it: W2 in lexicographic order, then r ascending, and
W1 the least minimal set holding r.  The report also lists the size of
every minimal set.

Two helper constructions give explicit oversized minimal sets at q=2: the
set of vertices avoiding one fixed coordinate, and for n=3 a hand-picked
four-element minimal set.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import resolving
from .errors import BadParameters
from .resolving import DEFAULT_BUDGET


@dataclass(frozen=True)
class ExchangeViolation:
    """A triple violating the definition: no s in w2 makes the swap minimal."""

    w1: tuple[int, ...]
    r: int
    w2: tuple[int, ...]


@dataclass(frozen=True)
class ExchangeReport:
    holds: bool
    method: str  # "definition-check"
    minimal_set_sizes: tuple[int, ...]
    witness: ExchangeViolation | None = None


def has_exchange_property(g, budget: int = DEFAULT_BUDGET) -> ExchangeReport:
    """Definition-level exchange verdict for a graph with a distance matrix.

    Works on component graphs and plain graphs alike.  The minimal sets
    come from the 2^N subset table, each set's status decided by the
    column-group kernel.  When the table does not fit the budget, or N is
    over the 20-vertex table guard, BudgetExceeded propagates with the
    reason: a verdict is only ever reported for a quantifier that was
    checked.  Both refusals are read from the vertex count, before the
    distance matrix is built.
    """
    resolving.refuse_mask_table(g.vertex_count, budget)
    sets, minimal = resolving.minimal_sets_by_table(g.distance_matrix(), budget)
    ids = list(g.vertex_ids())
    sizes = tuple(sorted(len(w) for w in sets))
    universe = sorted({i for w in sets for i in w})
    for w2 in sets:
        mask2 = sum(1 << i for i in w2)
        for r in universe:
            if (mask2 >> r) & 1:
                continue
            swapped_ok = any(minimal[(mask2 ^ (1 << s)) | (1 << r)] for s in w2)
            if not swapped_ok:
                w1 = next(w for w in sets if r in w)
                violation = ExchangeViolation(
                    w1=tuple(ids[i] for i in w1),
                    r=ids[r],
                    w2=tuple(ids[i] for i in w2))
                return ExchangeReport(holds=False, method="definition-check",
                                      minimal_set_sizes=sizes, witness=violation)
    return ExchangeReport(holds=True, method="definition-check",
                          minimal_set_sizes=sizes)


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
