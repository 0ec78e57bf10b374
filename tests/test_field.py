import random
import re
from itertools import combinations, product
from math import prod

import numpy as np
import pytest

from conftest import rank_by_elimination
from resolvdim import field, resolving, vectorspace
from resolvdim.graph import ComponentGraph
from resolvdim.errors import (DimensionMismatch, DivisionByZero, OutOfRange,
                              UnsupportedOrder)


def test_prime_field_construction():
    f = field.field_new(2)
    assert (f.q, f.p, f.m) == (2, 2, 1)
    assert f.reduction_poly == ()


def test_gf4_uses_the_only_irreducible_quadratic():
    f = field.field_new(4)
    assert (f.p, f.m) == (2, 2)
    # x^2 + x + 1, the only monic quadratic over GF(2) without a root
    assert f.reduction_poly == (1, 1, 1)
    for root in (0, 1):
        assert (root * root + root + 1) % 2 != 0


def test_non_prime_power_rejected():
    with pytest.raises(UnsupportedOrder, match="not a prime power"):
        field.field_new(6)


def test_untabled_prime_power_rejected():
    with pytest.raises(UnsupportedOrder, match="no tabled reduction polynomial"):
        field.field_new(32)
    with pytest.raises(UnsupportedOrder, match="no tabled reduction polynomial"):
        field.field_new(17)


def test_small_value_examples():
    assert field.field_new(2).add(1, 1) == 0
    # in GF(4), x * x = x + 1: rep 2 * rep 2 -> rep 3
    assert field.field_new(4).mul(2, 2) == 3
    assert field.field_new(3).inv(2) == 2


def test_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        field.field_new(5).inv(0)


@pytest.mark.parametrize("q", field.SUPPORTED_ORDERS)
def test_field_axioms_exhaustive(q):
    f = field.field_new(q)
    elems = list(f.elements())
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.mul(a, 0) == 0
        assert f.add(a, f.neg(a)) == 0
    for a in elems:
        for b in elems:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
    for a in elems:
        for b in elems:
            for c in elems:
                assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", field.SUPPORTED_ORDERS)
def test_inverse_is_multiplicative(q):
    f = field.field_new(q)
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
        for b in range(1, q):
            assert f.inv(f.mul(a, b)) == f.mul(f.inv(a), f.inv(b))


def test_linear_independence_examples():
    f2 = field.field_new(2)
    # e1 + (e1+e3) + e3 = 0 over GF(2)
    assert field.rank(f2, [(1, 0, 0), (1, 0, 1), (0, 0, 1)]) != 3
    assert field.rank(f2, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3
    f3 = field.field_new(3)
    assert field.rank(f3, [(1, 1), (2, 2)]) != 2


def test_dependence_detected_by_enumeration_oracle():
    # brute force over all coefficient pairs confirms (2,2) = 2 * (1,1)
    f3 = field.field_new(3)
    vs = [(1, 1), (2, 2)]
    dependent = False
    for c1, c2 in product(range(3), repeat=2):
        if (c1, c2) == (0, 0):
            continue
        combo = tuple(f3.add(f3.mul(c1, a), f3.mul(c2, b)) for a, b in zip(*vs))
        if not any(combo):
            dependent = True
    assert dependent
    assert field.rank(f3, vs) != len(vs)


def _independent_by_enumeration(f, vectors):
    """Oracle: no nontrivial combination over all coefficient tuples is zero."""
    n = len(vectors[0]) if vectors else 0
    for coeffs in product(f.elements(), repeat=len(vectors)):
        if not any(coeffs):
            continue
        total = [0] * n
        for c, v in zip(coeffs, vectors):
            for i, x in enumerate(v):
                total[i] = f.add(total[i], f.mul(c, x))
        if not any(total):
            return False
    return True


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)])
def test_rank_agrees_with_enumeration(q, n):
    from resolvdim import vectorspace
    f = field.field_new(q)
    vectors = [vectorspace.decode(v, q, n) for v in range(1, q ** n)]
    for size in range(1, min(4, len(vectors)) + 1):
        for subset in combinations(vectors, size):
            assert (field.rank(f, subset) == len(subset)) == \
                _independent_by_enumeration(f, list(subset))


def _vector_lists(f, n, rng, count=40):
    """Seeded lists of 0..n+3 vectors of length n over f, mixing fresh
    random vectors with zero vectors, repeats and combinations of earlier
    members, so dependent lists turn up at every order."""
    for _ in range(count):
        vectors = []
        for _ in range(rng.randint(0, n + 3)):
            roll = rng.random()
            if roll < 0.15:
                v = (0,) * n
            elif roll < 0.3 and vectors:
                v = rng.choice(vectors)
            elif roll < 0.55 and vectors:
                u, w = rng.choice(vectors), rng.choice(vectors)
                a, b = rng.randrange(f.q), rng.randrange(f.q)
                v = tuple(f.add(f.mul(a, x), f.mul(b, y)) for x, y in zip(u, w))
            else:
                v = tuple(rng.randrange(f.q) for _ in range(n))
            vectors.append(v)
        yield vectors


@pytest.mark.parametrize("q", field.SUPPORTED_ORDERS)
def test_rank_agrees_with_elimination_on_every_order(q):
    # odd characteristic catches a sign slip in the reduction step, and
    # every q > 2 a pivot row left unscaled
    f = field.field_new(q)
    rng = random.Random(q)
    for n in range(1, 5):
        for vectors in _vector_lists(f, n, rng):
            r = field.rank(f, vectors)
            assert r == rank_by_elimination(f, vectors), (q, n, vectors)
            if q ** len(vectors) <= 4096:
                assert (r == len(vectors)) == \
                    _independent_by_enumeration(f, vectors), (q, n, vectors)


@pytest.mark.parametrize("vectors, error, message", [
    ([(1, 0), (0, 1), (1, 0, 1)], DimensionMismatch, "vector lengths differ: 3 vs 2"),
    ([(1, 0), (0, 1), (5, 0)], OutOfRange, "5 is not an element of GF(3)"),
    ([(1, 0), (0, 1), (-1, 0)], OutOfRange, "-1 is not an element of GF(3)"),
])
def test_rank_validates_vectors_past_full_rank(vectors, error, message):
    # the first two vectors already span GF(3)^2; the third is still checked
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        field.rank(field.field_new(3), vectors)


def test_has_full_rank():
    f2 = field.field_new(2)
    assert not field.has_full_rank(f2, 3, [(1, 0, 0), (1, 0, 1), (0, 0, 1)])
    assert not field.has_full_rank(f2, 1, [])
    f3 = field.field_new(3)
    # a minimum resolving set of the q=3, n=2 graph spans the space
    assert field.has_full_rank(f3, 2, [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])


def test_has_full_rank_rejects_vectors_of_another_length():
    # two independent vectors of GF(3)^3 do not span GF(3)^2
    f3 = field.field_new(3)
    with pytest.raises(DimensionMismatch, match="vector length 3 differs from n=2"):
        field.has_full_rank(f3, 2, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(DimensionMismatch):
        field.has_full_rank(f3, 3, [(1, 0), (0, 1)])


def test_rank_rejects_mixed_lengths():
    f = field.field_new(2)
    with pytest.raises(DimensionMismatch):
        field.rank(f, [(1, 0), (1, 0, 1)])


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)])
def test_full_rank_agrees_with_subset_search(q, n):
    # rank(W) = n iff some n-subset of W is linearly independent
    from resolvdim import vectorspace
    f = field.field_new(q)
    vectors = [vectorspace.decode(v, q, n) for v in range(1, q ** n)]
    for size in range(0, min(5, len(vectors)) + 1):
        for subset in combinations(vectors, size):
            by_rank = field.has_full_rank(f, n, list(subset))
            by_subsets = any(
                _independent_by_enumeration(f, list(chosen))
                for chosen in combinations(subset, n)) if size >= n else False
            assert by_rank == by_subsets, (q, n, subset)


# ---------------------------------------------------------------------------
# hyperplane masks against the rank
# ---------------------------------------------------------------------------

def _dot(f, u, v):
    total = 0
    for a, b in zip(u, v):
        total = f.add(total, f.mul(a, b))
    return total


def _normals(f, n):
    """Every vector of GF(q)^n whose first nonzero entry is 1, in ascending
    order of little-endian base-q id, by enumeration."""
    vectors = sorted(product(f.elements(), repeat=n),
                     key=lambda v: sum(c * f.q ** i for i, c in enumerate(v)))
    return [v for v in vectors if any(v) and next(c for c in v if c) == 1]


def _spans_by_masks(masks, rows):
    """The corollary's rule: the rows span iff their masks OR to all ones."""
    return bool((np.bitwise_or.reduce(masks[rows], axis=0) == ~np.uint64(0)).all())


@pytest.mark.parametrize("q,n", [(2, 1), (2, 3), (2, 7), (3, 2), (3, 4), (4, 2), (9, 2)])
def test_hyperplane_masks_bits(q, n):
    # bit h is set exactly when the vector is off hyperplane h, and every
    # bit past H is set; (2,7) has H = 127, two words
    f = field.field_new(q)
    vectors = list(product(f.elements(), repeat=n))
    normals = _normals(f, n)
    masks = f.hyperplane_masks(n, vectors)
    h = len(normals)
    assert h == (q ** n - 1) // (q - 1)
    assert masks.dtype == np.uint64 and masks.shape == (len(vectors), -(-h // 64))
    for row, v in zip(masks, vectors):
        bits = [int(row[i // 64]) >> (i % 64) & 1 for i in range(64 * len(row))]
        assert bits == [int(_dot(f, u, v) != 0) for u in normals] + [1] * (len(bits) - h)


@pytest.mark.parametrize("q,n", [(3, 2), (4, 2), (5, 2), (3, 3), (7, 2)])
def test_mask_verdict_matches_rank_on_orbit_sets(q, n):
    # every minimum resolving set of the cells the corollary checks
    g = ComponentGraph(q, n)
    f = field.field_new(q)
    vectors = [vectorspace.decode(v, q, n) for v in g.vertex_ids()]
    masks = f.hyperplane_masks(n, vectors)
    classes = g.twin_classes()
    k = resolving.metric_dimension_formula(q, n)
    sets = [w for block in resolving.minimum_resolving_sets(g, k) for w in block.tolist()]
    assert len(sets) == prod(len(c) for c in classes)
    for w in sets:
        assert _spans_by_masks(masks, w) == \
            field.has_full_rank(f, n, [vectors[c] for c in w]), (q, n, w)


@pytest.mark.parametrize("q", field.SUPPORTED_ORDERS)
def test_mask_verdict_matches_rank_on_random_sets(q):
    # each hyperplane gets a seeded set inside it, which for most draws
    # spans the hyperplane and lies in no other; seeded sets of n..n+2
    # random vectors mostly span V.  A dropped hyperplane, or dot products
    # taken as integers mod q, judges some set inside a hyperplane spanning
    f = field.field_new(q)
    rng = random.Random(f"hyperplanes:{q}")
    for n in (1, 2, 3):
        sets = []
        for u in _normals(f, n):
            pivot = u.index(1)
            for _ in range(2):
                inside = []
                for _ in range(rng.randint(n - 1, n + 1)):
                    x = [rng.randrange(q) for _ in range(n)]
                    x[pivot] = 0
                    x[pivot] = f.neg(_dot(f, u, x))
                    inside.append(tuple(x))
                sets.append(inside)
        sets += [[tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(n, n + 2))]
                 for _ in range(50)]
        masks = f.hyperplane_masks(n, [v for w in sets for v in w])
        start, verdicts = 0, []
        for w in sets:
            verdicts.append(_spans_by_masks(masks, list(range(start, start + len(w)))))
            start += len(w)
            assert verdicts[-1] == field.has_full_rank(f, n, w), (q, n, w)
        assert True in verdicts and False in verdicts


def test_hyperplane_masks_validate_vectors():
    f3 = field.field_new(3)
    with pytest.raises(DimensionMismatch, match="^vector length 3 differs from n=2$"):
        f3.hyperplane_masks(2, [(1, 0), (1, 0, 1)])
    with pytest.raises(OutOfRange, match=f"^{re.escape('5 is not an element of GF(3)')}$"):
        f3.hyperplane_masks(2, [(1, 0), (5, 0)])
    assert f3.hyperplane_masks(2, []).shape == (0, 1)
