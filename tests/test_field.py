from itertools import combinations, product

import pytest

from resolvdim import field
from resolvdim.errors import (DimensionMismatch, DivisionByZero,
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


def test_has_full_rank():
    f2 = field.field_new(2)
    assert not field.has_full_rank(f2, 3, [(1, 0, 0), (1, 0, 1), (0, 0, 1)])
    assert not field.has_full_rank(f2, 1, [])
    f3 = field.field_new(3)
    # a minimum resolving set of the q=3, n=2 graph spans the space
    assert field.has_full_rank(f3, 2, [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)])


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
