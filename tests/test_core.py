"""Tests for the exact-arithmetic substrate: partitions, determinants,
Pfaffians."""

import random
from fractions import Fraction

from punchex.core import (
    Partition,
    _pfaffian_expand,
    binomial,
    conjugate,
    determinant,
    matmul,
    pfaffian,
    pfaffian_minor,
    transpose,
)


def _expect_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        return
    raise AssertionError(f"expected ValueError from {fn.__name__}{args}")


def _random_skew(n, rng, lo=-5, hi=5):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = Fraction(rng.randint(lo, hi))
            m[j][i] = -m[i][j]
    return m


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def test_partition_basics():
    p = Partition([3, 2, 2, 0, 0])
    assert p.parts == (3, 2, 2)
    assert len(p) == 3
    assert p == (3, 2, 2)
    assert p == Partition((3, 2, 2))
    assert Partition([]) == Partition([0, 0])
    assert p.part(1) == 3 and p.part(3) == 2 and p.part(17) == 0

    _expect_value_error(Partition, [2, 3])
    _expect_value_error(Partition, [1, -1])

    try:
        p.parts = (1,)
    except AttributeError:
        pass
    else:
        raise AssertionError("Partition should be immutable")

    # hashable and usable as a dict key
    assert {Partition([2, 1]): "x"}[Partition((2, 1, 0))] == "x"


def test_conjugate():
    assert conjugate(Partition([3, 1])) == (2, 1, 1)
    assert conjugate(Partition([])) == ()
    assert conjugate(Partition([5])) == (1, 1, 1, 1, 1)
    rng = random.Random(11)
    for _ in range(50):
        parts = sorted((rng.randint(0, 6) for _ in range(rng.randint(0, 5))), reverse=True)
        p = Partition(parts)
        assert conjugate(conjugate(p)) == p


def test_binomial():
    assert binomial(0, 0) == 1
    assert binomial(5, 2) == 10
    assert binomial(10, 5) == 252
    assert binomial(3, 5) == 0
    assert binomial(3, -1) == 0
    assert binomial(-2, 0) == 0
    # Pascal recurrence on a block
    for n in range(1, 12):
        for k in range(0, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def test_determinant_small():
    assert determinant([]) == 1
    assert determinant([[7]]) == 7
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[int(i == j) for j in range(5)] for i in range(5)]) == 1
    _expect_value_error(determinant, [[1, 2, 3], [4, 5, 6]])
    _expect_value_error(determinant, [[1, 2], [3]])


def test_determinant_vandermonde():
    pts = [Fraction(1), Fraction(2), Fraction(4), Fraction(7)]
    m = [[x ** e for e in range(len(pts))] for x in pts]
    expected = Fraction(1)
    for j in range(len(pts)):
        for i in range(j):
            expected *= pts[j] - pts[i]
    assert determinant(m) == expected


def test_determinant_multiplicative():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        b = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        assert determinant(matmul(a, b)) == determinant(a) * determinant(b)
        assert determinant(transpose(a)) == determinant(a)


# ---------------------------------------------------------------------------
# Pfaffians
# ---------------------------------------------------------------------------

def test_pfaffian_small():
    assert pfaffian([]) == 1
    assert pfaffian([[0]]) == 0  # odd dimension
    assert pfaffian([[0, 1], [-1, 0]]) == 1
    assert pfaffian([[0, -3], [3, 0]]) == -3
    m4 = [
        [0, 1, 2, 3],
        [-1, 0, 4, 5],
        [-2, -4, 0, 6],
        [-3, -5, -6, 0],
    ]
    # pf = a01*a23 - a02*a13 + a03*a12
    assert pfaffian(m4) == 1 * 6 - 2 * 5 + 3 * 4 == 8


def test_pfaffian_rejects_non_skew():
    _expect_value_error(pfaffian, [[1, 2], [-2, 0]])  # nonzero diagonal
    _expect_value_error(pfaffian, [[0, 2], [2, 0]])  # not antisymmetric
    _expect_value_error(pfaffian, [[0, 1, 0], [-1, 0, 0]])  # not square


def test_pfaffian_squares_to_determinant():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([2, 4, 6, 8])
        m = _random_skew(n, rng)
        pf = pfaffian(m)
        assert pf * pf == determinant(m)
    # odd dimensions have pfaffian 0
    for n in (1, 3, 5):
        assert pfaffian(_random_skew(n, rng)) == 0


def test_pfaffian_matches_recursive_expansion():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.choice([2, 4, 6, 8])
        m = _random_skew(n, rng)
        assert pfaffian(m) == _pfaffian_expand(m)
    # rational entries as well
    for _ in range(10):
        n = rng.choice([4, 6])
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                m[j][i] = -m[i][j]
        assert pfaffian(m) == _pfaffian_expand(m)


def test_pfaffian_minor():
    m4 = [
        [0, 1, 2, 3],
        [-1, 0, 4, 5],
        [-2, -4, 0, 6],
        [-3, -5, -6, 0],
    ]
    assert pfaffian_minor(m4, ()) == 1
    assert pfaffian_minor(m4, (0, 2)) == 2  # just the entry m4[0][2]
    assert pfaffian_minor(m4, (1, 3)) == 5
    assert pfaffian_minor(m4, (0, 1, 2, 3)) == pfaffian(m4) == 8
    _expect_value_error(pfaffian_minor, m4, (2, 0))
    _expect_value_error(pfaffian_minor, m4, (0, 0))
    _expect_value_error(pfaffian_minor, m4, (1, 4))
