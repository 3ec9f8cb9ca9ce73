"""Tests for the minor summation machinery and the identity checks built
on it."""

import random
import re
from fractions import Fraction
from itertools import combinations

import pytest

from punchex import msf
from punchex.core import determinant, pfaffian, pfaffian_minor
from punchex.msf import (
    IndexSets,
    build_msf_instance,
    chain_5_3_check,
    conjecture5_check,
    lemma9_check,
    lemma10_check,
    minor_summation,
    moment_matrix,
    n_matrix_entry_check,
    structured_skew,
    sub_pfaffian_sign,
    theorem3_lhs,
    theorem3_rhs,
)
from punchex.core import Partition
from punchex.symfun import schur_eval, seeded_points, vandermonde_product

F = Fraction


def _expect_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        return
    raise AssertionError(f"expected ValueError from {fn.__name__}{args}")


def _random_skew(n, rng, lo=-3, hi=3):
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = F(rng.randint(lo, hi))
            m[j][i] = -m[i][j]
    return m


# ---------------------------------------------------------------------------
# index sets, moment matrices, the structured skew matrix
# ---------------------------------------------------------------------------

def test_index_sets():
    s = IndexSets(1, 1, 1)
    assert s.Gamma == [0, 2]
    assert s.P == [0, 2]
    assert s.Q == [1]
    assert s.R == []

    s = IndexSets(2, 2, 3)
    assert s.Gamma == [0, 1, 3, 4]
    assert s.P == [1, 2, 4, 5]
    assert s.Q == [0, 3]
    assert s.R == [0]

    _expect_value_error(IndexSets, 1, 2, 2)  # parity
    _expect_value_error(IndexSets, 2, 2, 1)  # n < b
    _expect_value_error(IndexSets, 0, 2, 2)


def test_moment_matrix():
    assert moment_matrix((0, 2), (F(2), F(3))) == [[1, 4], [1, 9]]
    assert moment_matrix((), (F(2),)) == [[]]
    _expect_value_error(moment_matrix, (0, -1), (F(2),))


def test_structured_skew_golden():
    m = structured_skew(1, 1)
    assert m == [
        [0, 0, 0, 1],
        [0, 0, -1, 0],
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
    ]
    pfaffian(m)  # must be a valid skew matrix
    bigger = structured_skew(2, 2)
    assert len(bigger) == 8
    pfaffian(bigger)
    _expect_value_error(structured_skew, 1, 2)


def test_sub_pfaffian_sign_golden():
    # (a, b) = (1, 1): pairs across the diagonal carry the matrix entries
    assert sub_pfaffian_sign((0, 3), 1, 1) == 1
    assert sub_pfaffian_sign((1, 2), 1, 1) == -1
    assert sub_pfaffian_sign((0, 1), 1, 1) == 0  # two unbarred rows
    assert sub_pfaffian_sign((0, 2), 1, 1) == 0  # unmatched pair
    assert sub_pfaffian_sign((0, 1, 2, 3), 1, 1) == -1
    _expect_value_error(sub_pfaffian_sign, (1, 1), 1, 1)
    _expect_value_error(sub_pfaffian_sign, (0, 9), 1, 1)


def test_sub_pfaffian_sign_matches_pfaffian_minor():
    for (a, b) in [(1, 1), (2, 2), (1, 3)]:
        m = structured_skew(a, b)
        size = len(m)
        for k in range(2, size + 1, 2):
            for K in combinations(range(size), k):
                assert pfaffian_minor(m, K) == sub_pfaffian_sign(K, a, b), (a, b, K)


# ---------------------------------------------------------------------------
# the minor summation identity
# ---------------------------------------------------------------------------

def test_minor_summation_tiny_instances():
    # n = q = p = 1: both sides reduce to the single H entry
    G = [[F(4)]]
    H = [[F(9)]]
    A = [[F(0)]]
    lhs, rhs = minor_summation(G, H, A)
    assert lhs == rhs == 9

    # n = 2, q = 0: lhs = pf(A) det(G), rhs = pf(G A G^T)
    G = [[F(1), F(2)], [F(3), F(5)]]
    A = [[F(0), F(7)], [F(-7), F(0)]]
    H = [[], []]
    lhs, rhs = minor_summation(G, H, A)
    assert lhs == rhs == 7 * determinant(G)


def test_minor_summation_random_instances():
    rng = random.Random(41)
    for trial in range(40):
        n = rng.randint(1, 4)
        q = rng.choice([x for x in (0, 1, 2) if (n + x) % 2 == 0 and x <= n])
        p = rng.randint(max(1, n - q), 6)
        G = [[F(rng.randint(-3, 3)) for _ in range(p)] for _ in range(n)]
        H = [[F(rng.randint(-3, 3)) for _ in range(q)] for _ in range(n)]
        A = _random_skew(p, rng)
        lhs, rhs = minor_summation(G, H, A)
        assert lhs == rhs, (trial, n, p, q)


def test_minor_summation_validation():
    G = [[F(1), F(2)]]
    A = _random_skew(2, random.Random(0))
    _expect_value_error(minor_summation, G, [[]], A)  # n + q odd
    _expect_value_error(minor_summation, [[F(1)], [F(2)]], [[], []], A)  # n - q > p
    _expect_value_error(minor_summation, G, [[F(1)]], [[F(1), F(0)], [F(0), F(1)]])


# ---------------------------------------------------------------------------
# the structured instance behind the main identity
# ---------------------------------------------------------------------------

def test_build_msf_instance_dimensions():
    for (a, b, n) in [(1, 1, 1), (1, 1, 2), (2, 2, 2), (2, 2, 3)]:
        pts1 = seeded_points(n + 1, 3)
        G, H, A = build_msf_instance(a, b, n, pts1, pts1[:n])
        assert len(G) == 2 * n + 1
        assert all(len(row) == 2 * (a + b) for row in G)
        assert len(H) == 2 * n + 1
        assert all(len(row) == 2 * n - 2 * b + 1 for row in H)
        assert len(A) == 2 * (a + b)
    _expect_value_error(build_msf_instance, 1, 1, 1, (F(2), F(3), F(5)), (F(2),))


def test_structured_instance_satisfies_minor_summation():
    for (a, b, n, seed) in [(1, 1, 1, 0), (1, 1, 2, 1), (2, 2, 2, 2), (1, 3, 3, 3)]:
        pts1 = seeded_points(n + 1, seed)
        G, H, A = build_msf_instance(a, b, n, pts1, pts1[:n])
        lhs, rhs = minor_summation(G, H, A)
        assert lhs == rhs, (a, b, n, seed)


def test_structured_instance_recovers_schur_sum():
    # the minor summation value, divided by both Vandermonde factors and
    # adjusted by the overall sign, is exactly the paired Schur sum
    for (a, b, n, seed) in [(1, 1, 1, 0), (1, 1, 2, 4), (2, 2, 2, 7)]:
        pts1 = seeded_points(n + 1, seed)
        pts0 = pts1[:n]
        G, H, A = build_msf_instance(a, b, n, pts1, pts0)
        lhs, _ = minor_summation(G, H, A)
        sign = -1 if (b * n) % 2 else 1
        dv = vandermonde_product(pts1) * vandermonde_product(pts0)
        assert sign * lhs / dv == theorem3_lhs(a, b, n, pts1, pts0), (a, b, n)


# ---------------------------------------------------------------------------
# bordered determinant / Pfaffian factorization
# ---------------------------------------------------------------------------

def test_lemma9_hand_instance():
    A = [[F(0), F(1)], [F(-1), F(0)]]
    assert lemma9_check(A, [1, 0], [0, 1], 5)


def test_lemma9_random():
    rng = random.Random(13)
    for parity_sizes in ((2, 4), (1, 3, 5)):
        for _ in range(30):
            n = rng.choice(parity_sizes)
            A = _random_skew(n, rng)
            bvec = [F(rng.randint(-3, 3)) for _ in range(n)]
            cvec = [F(rng.randint(-3, 3)) for _ in range(n)]
            d = F(rng.randint(-3, 3))
            assert lemma9_check(A, bvec, cvec, d), (n, A, bvec, cvec, d)
    # rational entries
    A = [[F(0), F(1, 2)], [F(-1, 2), F(0)]]
    assert lemma9_check(A, [F(1, 3), F(2)], [F(0), F(5, 7)], F(-2, 9))


# ---------------------------------------------------------------------------
# the paired Schur sum and its product form
# ---------------------------------------------------------------------------

def test_theorem3_hand_instance():
    pts1 = (F(2), F(3))
    pts0 = (F(2),)
    assert theorem3_lhs(1, 1, 1, pts1, pts0) == 10
    assert theorem3_rhs(1, 1, 1, pts1, pts0) == 10


def test_theorem3_seeded_sweep():
    for (a, b) in [(1, 1), (2, 2), (1, 3), (3, 1)]:
        for n in (b, b + 1):
            pts1 = seeded_points(n + 1, a * 10 + b)
            pts0 = pts1[:n]
            assert theorem3_lhs(a, b, n, pts1, pts0) == theorem3_rhs(a, b, n, pts1, pts0)


def test_theorem3_validation():
    pts1 = (F(2), F(3))
    _expect_value_error(theorem3_lhs, 1, 1, 1, pts1, (F(5),))  # not a prefix
    _expect_value_error(theorem3_lhs, 1, 1, 2, pts1, (F(2),))  # wrong sizes
    _expect_value_error(theorem3_rhs, 1, 2, 1, pts1, (F(2),))  # parity


def test_rab_checks_refuse_undefined_families():
    # R(a,b) is defined only for positive a, b of equal parity; each check
    # refuses the rest with the message it has always given
    p1 = (F(2), F(3), F(5))
    checks = (
        (lambda a, b: theorem3_lhs(a, b, 2, p1, p1[:2]),
         "generate_rab requires a and b of equal parity"),
        (lambda a, b: conjecture5_check(a, b, 2, p1 + (F(7),)),
         "generate_rab requires a and b of equal parity"),
        (lambda a, b: chain_5_3_check(a, b, 2, p1, p1[:2]),
         "index sets require a and b of equal parity"),
    )
    for check, parity_message in checks:
        for a, b in ((0, 2), (2, 0), (0, 0), (-1, 1), (1, -1)):
            with pytest.raises(ValueError, match="^a and b must be positive$"):
                check(a, b)
        for a, b in ((1, 2), (2, 1), (4, 1)):
            with pytest.raises(ValueError, match=f"^{re.escape(parity_message)}$"):
                check(a, b)


def test_conjecture5_hand_instance():
    pts2 = (F(2), F(3), F(5))
    assert conjecture5_check(1, 1, 1, pts2)
    # the two sides, recomputed directly
    lhs = (
        schur_eval(Partition([1, 1]), pts2) * schur_eval(Partition([]), (F(2),))
        + schur_eval(Partition([]), pts2) * schur_eval(Partition([2]), (F(2),))
    )
    assert lhs == 31 + 4 == 35
    rhs = schur_eval(Partition([1]), (F(2), F(3))) * schur_eval(Partition([1]), (F(2), F(5)))
    assert rhs == 5 * 7 == lhs


def test_conjecture5_seeded_sweep():
    for (a, b) in [(1, 1), (2, 2), (1, 3)]:
        for n in (b, b + 1):
            pts2 = seeded_points(n + 2, a + 2 * b + n)
            assert conjecture5_check(a, b, n, pts2), (a, b, n)


# ---------------------------------------------------------------------------
# the block-Pfaffian form of the paired Schur sum
# ---------------------------------------------------------------------------

def test_chain53_instances():
    assert chain_5_3_check(1, 1, 2, (F(2), F(3), F(5)), (F(2), F(3)))
    assert chain_5_3_check(2, 2, 2, (F(1), F(2), F(7)), (F(1), F(2)))
    pts1 = seeded_points(4, 5)
    assert chain_5_3_check(1, 3, 3, pts1, pts1[:3])


def test_chain53_validation():
    _expect_value_error(chain_5_3_check, 1, 1, 1, (F(2), F(2)), (F(2),))
    _expect_value_error(chain_5_3_check, 1, 1, 1, (F(2), F(3)), (F(5),))


# ---------------------------------------------------------------------------
# moment-matrix Pfaffian factorizations
# ---------------------------------------------------------------------------

def test_lemma10_instances():
    assert lemma10_check(1, 1, 1, (F(2),))
    assert lemma10_check(1, 1, 2, (F(2), F(3)))
    assert lemma10_check(2, 2, 2, (F(2), F(3)))
    assert lemma10_check(3, 3, 3, (F(1), F(2), F(3)))


def _mixed_points(count, rng):
    """count distinct rationals: a negative one first, then 0 (count >= 2),
    then integers and fractions of either sign."""
    pts = [F(-rng.randint(1, 9), rng.randint(1, 4)), F(0)]
    while len(pts) < count:
        x = F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 5)))
        if x not in pts:
            pts.append(x)
    return tuple(pts[:count])


def test_lemma10_seeded_sweep():
    # both identities, both parities and both border kinds (M_R and M_Q),
    # at seeded positive points and at points with 0 and negative values
    rng = random.Random(10)
    cases = 0
    for a in range(1, 6):
        for b in range(1, 6):
            if a % 2 != b % 2:
                continue
            for n in range(b, b + 4):
                for pts in (seeded_points(n, 100 * a + 10 * b + n), _mixed_points(n, rng)):
                    assert lemma10_check(a, b, n, pts), (a, b, n, pts)
                    cases += 1
    assert cases == 13 * 4 * 2


def test_chain53_and_both_lemma10_alphabets_at_zero_and_negative_points():
    # the per-point scaled Pfaffians at points that include 0 and a
    # negative value: chain53 on (X_{n+1}, X_n), and Lemma 10 on X_{n+1} at
    # ambient n+1 and n and on X_n at ambient n
    rng = random.Random(53)
    cases = 0
    for a in range(1, 6):
        for b in range(1, 6):
            if a % 2 != b % 2:
                continue
            for n in (b, b + 1):
                pts = _mixed_points(n + 1, rng)
                assert F(0) in pts and min(pts) < 0
                assert chain_5_3_check(a, b, n, pts, pts[:n]), (a, b, n, pts)
                assert lemma10_check(a, b, n + 1, pts), (a, b, n + 1, pts)
                assert lemma10_check(a, b, n, pts[:n]), (a, b, n, pts)
                cases += 1
    assert cases == 13 * 2


def test_moment_pfaffians_run_on_integer_matrices(monkeypatch):
    # chain53 and Lemma 10 scale row k by q_k^E, E the largest power of x_k
    # in the row, so every entry handed to the Pfaffian is an integer
    seen = []

    def recording_pfaffian(m):
        seen.append(all(x.denominator == 1 for row in m for x in row))
        return pfaffian(m)

    monkeypatch.setattr(msf, "pfaffian", recording_pfaffian)
    pts = (F(-3, 2), F(0), F(5, 3), F(7, 4), F(-2, 5), F(9, 7), F(4), F(-11, 6))
    for a in range(1, 6):
        for b in range(1, 6):
            if a % 2 != b % 2:
                continue
            for n in (b, b + 1):
                assert chain_5_3_check(a, b, n, pts[:n + 1], pts[:n]), (a, b, n)
                assert lemma10_check(a, b, n + 1, pts[:n + 1]), (a, b, n + 1)
                assert lemma10_check(a, b, n, pts[:n]), (a, b, n)
    assert len(seen) > 50 and all(seen)


def test_lemma10_validation():
    _expect_value_error(lemma10_check, 1, 1, 2, (F(2),))  # wrong length
    _expect_value_error(lemma10_check, 1, 1, 2, (F(2), F(2)))  # repeated
    _expect_value_error(lemma10_check, 1, 2, 2, (F(2), F(3)))  # parity
    _expect_value_error(lemma10_check, 3, 3, 2, (F(2), F(3)))  # n < b


def test_n_matrix_entry_formula():
    assert n_matrix_entry_check(1, 1, (F(2),), (F(3),))
    assert n_matrix_entry_check(2, 2, (F(1), F(2), F(3)), (F(5), F(7), F(11)))
    assert n_matrix_entry_check(1, 3, (F(1, 2), F(3), F(4)), (F(5), F(7), F(9)))
    _expect_value_error(n_matrix_entry_check, 1, 1, (F(2),), (F(2),))
