"""Tests for the exact-arithmetic substrate: partitions, determinants,
Pfaffians.

The fraction-free kernels in ``punchex.core`` are checked against two
test-only oracles kept here: rational Gaussian elimination for
determinants and recursive expansion for Pfaffians."""

import random
from fractions import Fraction
from math import comb

from counting import Counted, counted
from punchex.core import (
    Partition,
    binomial,
    conjugate,
    determinant,
    elimination_work,
    integer_determinant,
    integer_pfaffian,
    matmul,
    pfaffian,
    poly_mul,
    poly_sum,
)
from oracles import pfaffian_minor, transpose


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


def _random_rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def _rational_skew(n, rng):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = _random_rational(rng)
            m[j][i] = -m[i][j]
    return m


def _gauss_determinant(m):
    """Oracle: determinant by rational Gaussian elimination with pivoting."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


def _pfaffian_expand(m):
    """Oracle: Pfaffian by recursive expansion along the first row, O(n!!)."""
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n % 2 == 1:
        return Fraction(0)
    total = Fraction(0)
    for j in range(1, n):
        if m[0][j] == 0:
            continue
        rest = [r for r in range(1, n) if r != j]
        sub = [[m[r][c] for c in rest] for r in rest]
        sign = -1 if (j % 2) == 0 else 1  # (-1)^j for 1-based column j+1
        total += sign * m[0][j] * _pfaffian_expand(sub)
    return total


def _with_zero_pivots(m):
    """m with row and column 0 zeroed except at (0, n-1), and (1, 2) zeroed:
    the first pivot is 0, so elimination has to swap."""
    n = len(m)
    m = [list(row) for row in m]
    for j in range(1, n - 1):
        m[0][j] = m[j][0] = Fraction(0)
    if n > 3:
        m[1][2] = m[2][1] = Fraction(0)
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


def test_determinant_matches_rational_elimination():
    rng = random.Random(29)
    cases = [[]]
    for n in list(range(1, 9)) * 6 + [12, 16, 20]:
        ints = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        rats = [[_random_rational(rng) for _ in range(n)] for _ in range(n)]
        cases += [ints, rats]
        if n >= 2:
            # singular: a repeated (scaled) row
            cases.append(rats[:-1] + [[3 * x for x in rats[0]]])
            # needs a row swap: column 0 is zero above the last row
            cases.append([[0] + row[1:] for row in ints[:-1]] + [ints[-1]])
        # sparse, so that zero pivots turn up deep in the elimination
        cases.append([[rng.choice([0, 0, 0, 1, -2, Fraction(1, 3)]) for _ in range(n)]
                      for _ in range(n)])
    # integer_determinant (on the all-int cases, the 0x0 one included)
    # eliminates in place, so it gets a copy; this one has a zero pivot at
    # step 1 that only the row below can replace
    cases.append([[1, 2, 3], [2, 4, 5], [1, 3, 3]])
    singular = integer = 0
    for m in cases:
        expected = _gauss_determinant(m)
        got = determinant(m)
        assert type(got) is Fraction and got == expected, m
        singular += expected == 0
        if all(type(x) is int for row in m for x in row):
            got = integer_determinant([list(row) for row in m])
            assert type(got) is int and got == expected, m
            integer += 1
    assert singular >= 40
    assert integer >= 100


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
    _expect_value_error(pfaffian, [[0, 1], [-1]])  # ragged


def test_pfaffian_squares_to_determinant():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.choice([2, 4, 6, 8])
        m = _random_skew(n, rng)
        pf = pfaffian(m)
        assert pf * pf == determinant(m)
    for n in (10, 12, 14, 16, 18):
        for m in (_random_skew(n, rng), _rational_skew(n, rng),
                  _with_zero_pivots(_rational_skew(n, rng))):
            pf = pfaffian(m)
            assert pf * pf == _gauss_determinant(m)
    # odd dimensions have pfaffian 0
    for n in (1, 3, 5):
        assert pfaffian(_random_skew(n, rng)) == 0


def test_pfaffian_matches_recursive_expansion():
    rng = random.Random(19)
    for _ in range(20):
        n = rng.choice([2, 4, 6, 8])
        m = _random_skew(n, rng)
        assert pfaffian(m) == _pfaffian_expand(m)
    # rational entries as well, sparse ones, and zero leading pivots
    zero = 0
    for n in (2, 4, 6, 8) * 10:
        for m in (_rational_skew(n, rng), _random_skew(n, rng, -1, 1),
                  _with_zero_pivots(_rational_skew(n, rng))):
            expected = _pfaffian_expand(m)
            assert pfaffian(m) == expected, m
            zero += expected == 0
    assert zero >= 5


def test_integer_pfaffian_matches_recursive_expansion():
    assert integer_pfaffian([]) == 1
    for n in (1, 3, 5):
        assert integer_pfaffian([[0] * n for _ in range(n)]) == 0
    rng = random.Random(23)
    swaps = zero = 0
    for n in (2, 4, 6, 8) * 12:
        for m in (_random_skew(n, rng), _random_skew(n, rng, -1, 1),
                  _with_zero_pivots(_random_skew(n, rng, -9, 9))):
            rows = [[int(x) for x in row] for row in m]
            expected = _pfaffian_expand(m)
            swaps += rows[0][1] == 0
            got = integer_pfaffian([list(row) for row in rows])
            assert type(got) is int and got == expected, rows
            zero += expected == 0
        # odd sizes are 0 whatever the entries
        assert integer_pfaffian([[int(x) for x in row]
                                 for row in _random_skew(n + 1, rng)]) == 0
    assert swaps >= 48 and zero >= 5


def test_matmul_matches_naive_product():
    rng = random.Random(31)
    for _ in range(60):
        n, k, m = rng.randint(0, 13), rng.randint(0, 13), rng.randint(0, 13)
        entry = rng.choice([lambda: rng.randint(-9, 9), lambda: _random_rational(rng)])
        a = [[entry() for _ in range(k)] for _ in range(n)]
        b = [[entry() for _ in range(m)] for _ in range(k)]
        expected = [[sum((Fraction(a[i][t]) * b[t][j] for t in range(k)), Fraction(0))
                     for j in range(m if k else 0)] for i in range(n)]
        assert matmul(a, b) == expected
    _expect_value_error(matmul, [[1, 2]], [[1, 2]])


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


def test_elimination_work_counts_the_kernels_operations():
    # the products and divisions the loops take, and the Hadamard bound on
    # their factors' bits, on random matrices whose pivots cannot vanish
    # (a dominant diagonal, or pairing for the Pfaffian); the sign at the
    # end is one more product, of at most n (bits + n) bits
    rng = random.Random(23)
    for n in range(1, 13):
        for low in (1, 6, 40):
            bits = low + n.bit_length() + 1
            rows = [[rng.getrandbits(low) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                rows[i][i] = n << low
            Counted.reset()
            integer_determinant(counted(rows))
            work = elimination_work(n, bits)
            assert Counted.ops - 1 == work["step"], (n, bits)
            assert 3 * Counted.product_bits <= 2 * work["digit"] + 3 * n * (bits + n), (n, bits)
            if n % 2 == 0:
                skew = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        skew[i][j] = (n << low) if j == i + 1 and i % 2 == 0 else rng.getrandbits(low)
                        skew[j][i] = -skew[i][j]
                Counted.reset()
                integer_pfaffian(counted(skew))
                work = elimination_work(n, bits, pfaffian=True)
                assert Counted.ops - 1 == work["step"], (n, bits)
                assert 4 * Counted.product_bits <= 3 * work["pfaffian_digit"] + 4 * n * (bits + n)


def test_elimination_work_sums_in_closed_form():
    # against the sums taken step by step: the determinant's (n-j)^2
    # entries of j beta bits, and the Pfaffian's C(n-2u, 2) of u beta bits
    for n in range(0, 16):
        for bits in (0, 5, 31, 400):
            beta = bits + (n.bit_length() + 1) // 2
            m = max(n, 1)
            expected = 3 * beta ** 2 * sum(j * j * (m - j) ** 2 for j in range(1, m))
            assert elimination_work(n, bits)["digit"] == expected, (n, bits)
            if n % 2:
                assert elimination_work(n, bits, pfaffian=True) == {"call": 1}
                continue
            expected = 4 * sum(comb(n - 2 * u, 2) * (u * beta) ** 2 for u in range(1, n // 2 + 1))
            work = elimination_work(n, bits, pfaffian=True)
            assert work["pfaffian_digit"] == expected, (n, bits)


def test_poly_sum_and_poly_mul():
    rng = random.Random(5)
    for degree in range(7):
        p = [rng.randint(-9, 9) for _ in range(degree + 1)]
        for lo, hi in ((1, 0), (1, 1), (3, 17), (1, 40), (12, 11)):
            assert poly_sum(p, lo, hi) == sum(sum(c * u ** k for k, c in enumerate(p))
                                              for u in range(lo, hi + 1)), (p, lo, hi)
        q = [rng.randint(-9, 9) for _ in range(7 - degree)]
        for x in (-2, 0, 3):
            def at(poly):
                return sum(c * x ** k for k, c in enumerate(poly))
            assert at(poly_mul(p, q)) == at(p) * at(q), (p, q, x)


    # closed form only: a side near 10^400 is priced at once
    assert elimination_work(10 ** 400, 10 ** 9)["digit"] > 10 ** 2000
