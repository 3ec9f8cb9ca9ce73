"""Tests for the minor summation machinery and the identity checks built
on it."""

import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import oracles
from punchex import msf
from oracles import (build_msf_instance, chain53_check_by_fractions, conjecture5_check_by_fractions,
                     lemma10_check_by_fractions, moment_matrix, n_block_by_products,
                     n_matrix_entry_check, pfaffian_minor, structured_skew, sub_pfaffian_sign,
                     theorem3_check_by_fractions)
from punchex.core import determinant, integer_determinant, integer_pfaffian, pfaffian
from punchex.msf import (
    IndexSets,
    chain_5_3_check,
    conjecture5_check,
    lemma9_check,
    lemma10_check,
    minor_summation,
    theorem3_check,
    theorem3_lhs,
    theorem3_rhs,
)
from counting import Counted, counted
from punchex.core import Partition, elimination_work
from punchex.symfun import (rab_sum_work, schur_eval, schur_work, seeded_pairs, seeded_points,
                            vandermonde_product)

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


def test_minor_summation_rejects_non_skew_a_when_n_equals_q():
    # n = q takes no sub-Pfaffian of A, and G A G^T = [[0, 0], [0, 0]] is
    # skew here: A itself must be checked
    _expect_value_error(minor_summation, [[0, 0], [0, 0]], [[1, 0], [0, 1]],
                        [[1, 0], [0, 0]])
    _expect_value_error(minor_summation, [[1, 2]], [[3]], [[0, 1], [1, 0]])


def _entry(rng, fractions):
    v = rng.randint(-3, 3)
    return F(v, rng.randint(1, 5)) if fractions and rng.random() < 0.5 else v


def _definitional_minor_summation(G, H, A):
    """Both sides from the validating Fraction kernels, term by term."""
    n, p = len(G), len(A)
    q = len(H[0]) if H and H[0] else 0
    lhs = sum((pfaffian_minor(A, K) * determinant([[G[r][k] for k in K] + list(H[r])
                                                   for r in range(n)])
               for K in combinations(range(p), n - q)), F(0))
    gag = [[sum(G[r][i] * A[i][j] * G[s][j] for i in range(p) for j in range(p))
            for s in range(n)] for r in range(n)]
    bordered = ([gag[r] + list(H[r]) for r in range(n)]
                + [[-H[r][i] for r in range(n)] + [0] * q for i in range(q)])
    return lhs, (-1) ** (q * (q - 1) // 2) * pfaffian(bordered)


def test_minor_summation_equals_the_definitional_sum():
    # the shapes ``verify minor-summation`` draws, then p = 0 and n = q, at
    # int and at mixed int and Fraction entries
    rng = random.Random(2024)
    for fractions in (False, True):
        for trial in range(300):
            n = rng.randint(1, 4)
            if trial % 5 == 0:
                q = n
                p = 0 if trial % 10 == 0 else rng.randint(0, 6)
            else:
                q = rng.choice([x for x in (0, 1, 2) if (n + x) % 2 == 0 and x <= n])
                p = rng.randint(max(1, n - q), 6)
            G = [[_entry(rng, fractions) for _ in range(p)] for _ in range(n)]
            H = [[_entry(rng, fractions) for _ in range(q)] for _ in range(n)]
            A = [[F(0)] * p for _ in range(p)]
            for i in range(p):
                for j in range(i + 1, p):
                    A[i][j] = _entry(rng, fractions)
                    A[j][i] = -A[i][j]
            got = minor_summation(G, H, A)
            assert all(type(x) is F for x in got)
            assert got == _definitional_minor_summation(G, H, A), (fractions, G, H, A)
            assert got[0] == got[1]
            if p == 0:
                assert got[0] == determinant(H)


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


def test_lemma9_holds_and_sees_d(monkeypatch):
    # the shapes ``verify lemma9`` draws, and n = 0, at int and mixed int
    # and Fraction entries.  d + 1 on the determinant side alone changes it
    # by det(A), so the check must fail exactly when det(A) != 0 (never
    # at odd n)
    rng = random.Random(9)
    cases = []
    for fractions in (False, True):
        for _ in range(150):
            n = rng.randint(0, 5)
            A = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    A[i][j] = _entry(rng, fractions)
                    A[j][i] = -A[i][j]
            bvec = [_entry(rng, fractions) for _ in range(n)]
            cvec = [_entry(rng, fractions) for _ in range(n)]
            cases.append((A, bvec, cvec, _entry(rng, fractions)))
    for case in cases:
        assert lemma9_check(*case), case
    real = msf.integer_determinant

    def d_plus_one(rows):
        rows[-1][-1] += 1
        return real(rows)

    monkeypatch.setattr(msf, "integer_determinant", d_plus_one)
    refuted = 0
    for case in cases:
        sees_d = determinant(case[0]) != 0
        assert lemma9_check(*case) is not sees_d, case
        refuted += sees_d
    assert refuted > 50


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


def test_chain53_reads_the_closed_n_block_and_its_oracle_the_pairing(monkeypatch):
    # the two links between chain53 and the pairing of A: the integer check
    # builds N from the closed entries, so a wrong entry must break it; its
    # Fraction oracle builds G A G^T from structured_skew, so flipping the
    # sign of one +-1 pair of A (and of its mirror entry) must break the
    # oracle, and the product form that n_matrix_entry_check holds the
    # closed entries to, which reads the same pairing
    instances = [(a, b, n, seeded_points(n + 1, a + b + n))
                 for a, b in ((1, 1), (1, 3), (3, 1), (3, 3), (2, 2)) for n in (b, b + 1)]
    assert all(chain_5_3_check(a, b, n, pts, pts[:n]) for a, b, n, pts in instances)
    assert all(chain53_check_by_fractions(a, b, n, pts, pts[:n]) for a, b, n, pts in instances)
    assert all(n_matrix_entry_check(a, b, pts[:n], pts) for a, b, n, pts in instances)
    entry = msf._scaled_n_entry
    monkeypatch.setattr(msf, "_scaled_n_entry", lambda x, y, s, shift: entry(x, y, s, shift) + 1)
    verdicts = [chain_5_3_check(a, b, n, pts, pts[:n]) for a, b, n, pts in instances]
    assert not any(verdicts), verdicts
    monkeypatch.undo()
    real = oracles.pairing

    def flipped(a, b):
        signs = real(a, b)
        signs[0] = -signs[0]
        return signs

    A = structured_skew(3, 1)
    monkeypatch.setattr(oracles, "pairing", flipped)
    assert structured_skew(3, 1)[0][7] == -A[0][7] == -1
    verdicts = [chain53_check_by_fractions(a, b, n, pts, pts[:n]) for a, b, n, pts in instances]
    assert not any(verdicts), verdicts
    verdicts = [n_matrix_entry_check(a, b, pts[:n], pts) for a, b, n, pts in instances]
    assert not any(verdicts), verdicts


def test_a_bipartite_pfaffian_is_a_signed_determinant_of_half_the_size():
    # the identity chain53 rests on: Pf([[0, C], [-C^T, 0]]) =
    # (-1)^(m(m-1)/2) det C for any m x m C
    rng = random.Random(28)
    for m in range(7):
        for _ in range(20):
            C = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(m)]
            bordered = [[0] * m + row for row in C] + [[-x for x in col] + [0] * m for col in zip(*C)]
            sign = -1 if m * (m - 1) // 2 % 2 else 1
            assert integer_pfaffian(bordered) == sign * integer_determinant([list(row) for row in C])


def test_chain53_reads_the_sign_of_its_determinant(monkeypatch):
    # chain53's right side is det C: negating the determinant breaks it on
    # every instance of test_chain53_reads_the_closed_n_block_and_its_oracle_the_pairing,
    # while Lemma 10, which takes Pfaffians only, still holds
    instances = [(a, b, n, seeded_points(n + 1, a + b + n))
                 for a, b in ((1, 1), (1, 3), (3, 1), (3, 3), (2, 2)) for n in (b, b + 1)]
    determinant_ = msf.integer_determinant
    monkeypatch.setattr(msf, "integer_determinant", lambda rows: -determinant_(rows))
    verdicts = [chain_5_3_check(a, b, n, pts, pts[:n]) for a, b, n, pts in instances]
    assert not any(verdicts), verdicts
    assert all(lemma10_check(a, b, n + 1, pts) for a, b, n, pts in instances)


def test_lemma10_reads_the_sign_of_its_pfaffian(monkeypatch):
    # Lemma 10's left side is its Pfaffian: negating the Pfaffian breaks it
    # on every instance of same-parity a, b <= 5, n in {b, b+1, b+2}, which
    # reach b mod 4 = 0..3 and so both borders and both signs, while
    # chain53, which takes a determinant, still holds
    instances = [(a, b, n, seeded_points(n + 1, seed))
                 for a in range(1, 6) for b in range(a % 2 or 2, 6, 2)
                 for n in (b, b + 1, b + 2) for seed in (0, 1)]
    assert len(instances) == 78
    monkeypatch.setattr(msf, "integer_pfaffian", lambda rows: -integer_pfaffian(rows))
    verdicts = [lemma10_check(a, b, n, pts[:n]) for a, b, n, pts in instances]
    assert not any(verdicts), verdicts
    assert all(chain_5_3_check(a, b, n, pts, pts[:n]) for a, b, n, pts in instances)


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
    # in the row, so every entry handed to chain53's determinant and to
    # Lemma 10's Pfaffians is an int
    seen = []

    def recording(kernel):
        def record(rows):
            seen.append(all(type(x) is int for row in rows for x in row))
            return kernel(rows)
        return record

    monkeypatch.setattr(msf, "integer_pfaffian", recording(integer_pfaffian))
    monkeypatch.setattr(msf, "integer_determinant", recording(integer_determinant))
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
    # shared points, x_i = y_j, take the closed entry's A = B branch
    assert n_matrix_entry_check(1, 1, (F(2),), (F(2),))
    assert n_matrix_entry_check(2, 2, (F(1), F(2), F(3)), (F(3), F(1), F(7)))
    assert n_matrix_entry_check(1, 3, (F(-1, 2), F(0), F(4)), (F(-1, 2), F(0), F(4)))


def test_closed_n_block_equals_the_products_on_the_alphabets_the_checks_take():
    # chain53's (X_{n+1}, X_n), where x_1..x_n sit in both, and Lemma 10's
    # (X_n, X_n), at every same-parity a, b <= 4 and n in {b, b+1, b+2}
    blocks = 0
    for a in range(1, 5):
        for b in range(a % 2 or 2, 5, 2):
            for n in (b, b + 1, b + 2):
                for seed in range(3):
                    p1 = seeded_pairs(n + 1, seed)
                    for xs, ys in ((p1, p1[:n]), (p1[:n], p1[:n])):
                        assert msf._n_block(a, b, n, xs, ys) == n_block_by_products(a, b, n, xs, ys), (
                            a, b, n, seed, len(xs))
                        blocks += 1
    assert blocks == 144


def test_n_matrix_entry_check_detects_a_wrong_entry(monkeypatch):
    # the block product and the closed entry are computed independently
    xs, ys = (F(1), F(2), F(3)), (F(5), F(7), F(11))
    real = msf._scaled_n_entry
    monkeypatch.setattr(msf, "_scaled_n_entry", lambda x, y, s, shift: real(x, y, s, shift) + 1)
    assert not n_matrix_entry_check(2, 2, xs, ys)
    monkeypatch.setattr(msf, "_scaled_n_entry", real)
    pairing = oracles.pairing
    monkeypatch.setattr(oracles, "pairing", lambda a, b: [-v for v in pairing(a, b)])
    assert not n_matrix_entry_check(2, 2, xs, ys)



# ---------------------------------------------------------------------------
# the integer verdicts against the Fraction comparisons they replaced
# ---------------------------------------------------------------------------

# each target's integer verdict on (a, b, n, (p, q) pairs) and its Fraction
# oracle on (a, b, n, Fractions), at n + 2 drawn points
VERDICTS = {
    "theorem3": (lambda a, b, n, p: theorem3_check(a, b, n, p[:n + 1], p[:n]),
                 lambda a, b, n, x: theorem3_check_by_fractions(a, b, n, x[:n + 1], x[:n])),
    "conjecture5": (conjecture5_check, conjecture5_check_by_fractions),
    "chain53": (lambda a, b, n, p: chain_5_3_check(a, b, n, p[:n + 1], p[:n]),
                lambda a, b, n, x: chain53_check_by_fractions(a, b, n, x[:n + 1], x[:n])),
    "lemma10": (lambda a, b, n, p: lemma10_check(a, b, n, p[:n]),
                lambda a, b, n, x: lemma10_check_by_fractions(a, b, n, x[:n])),
}


def _both_verdicts(target, a, b, n, seed):
    check, oracle = VERDICTS[target]
    return check(a, b, n, seeded_pairs(n + 2, seed)), oracle(a, b, n, seeded_points(n + 2, seed))


def test_integer_verdicts_match_the_fraction_oracles():
    # every same-parity a, b <= 4, n in {b, b+1, b+2}, seeds 0..20: one
    # cross-multiplication decides as comparing the Fractions did, and the
    # identities hold at all 2016
    verdicts = [_both_verdicts(target, a, b, n, seed) for target in VERDICTS
                for a in range(1, 5) for b in range(a % 2 or 2, 5, 2)
                for n in (b, b + 1, b + 2) for seed in range(21)]
    assert len(verdicts) == 2016
    assert all(check == oracle for check, oracle in verdicts)
    assert all(check for check, _ in verdicts)


def _moved(pts):
    """pts with its last point x moved to x + 1000, past every drawn value."""
    *head, (p, q) = pts
    return (*head, (p + 1000 * q, q))


def _corrupt(monkeypatch, corruption, target):
    """Patch ``corruption`` into the names both a check and its oracle read."""
    rectangles, rab_sum, vandermonde = msf._rectangles, msf._rab_sum, msf._vandermonde
    pfaffian_ = oracles.pfaffian

    def swapped(a, b):
        ra, rb, rc = rectangles(a, b)
        return ra, rc, rb

    def sum_at_moved_point(a, b, big, small):
        return rab_sum(a, b, _moved(big), small)

    def sum_plus_one(a, b, big, small):
        num, den = rab_sum(a, b, big, small)
        return num + den, den

    if corruption == "R_B and R_C swapped":
        monkeypatch.setattr(msf, "_rectangles", swapped)
    elif corruption == "one point perturbed":
        monkeypatch.setattr(msf, "_rab_sum", sum_at_moved_point)
        monkeypatch.setattr(msf, "_vandermonde", lambda pts: vandermonde(_moved(pts)))
    elif target == "lemma10":  # its left side is the Pfaffian
        monkeypatch.setattr(msf, "integer_pfaffian", lambda m: integer_pfaffian(m) + 1)
        monkeypatch.setattr(oracles, "pfaffian", lambda m: pfaffian_(m) + 1)
    else:  # the left side is the R(a,b) sum
        monkeypatch.setattr(msf, "_rab_sum", sum_plus_one)


def test_integer_and_fraction_verdicts_reject_the_same_corruptions(monkeypatch):
    # each corruption is seen by both sides and refused by both; chain53
    # compares no rectangle, so the swap does not apply to it.  n > 1, as a
    # Vandermonde product of one point is 1 wherever the point is
    for corruption in ("R_B and R_C swapped", "one point perturbed", "left side off by one"):
        for target in VERDICTS:
            if target == "chain53" and corruption == "R_B and R_C swapped":
                continue
            _corrupt(monkeypatch, corruption, target)
            for a, b in ((1, 1), (2, 2), (1, 3), (3, 1), (4, 2)):
                for n, seed in ((b + 1, 1), (b + 2, 2)):
                    assert _both_verdicts(target, a, b, n, seed) == (False, False), (
                        corruption, target, a, b, n)
            monkeypatch.undo()
            assert all(_both_verdicts(target, 2, 2, 3, 1))


def test_point_pairs_must_be_in_lowest_terms():
    # a pair is read as it is, so one that is not reduced or has q <= 0 is
    # refused: (1, 0) would make both sides' denominators 0 and a
    # cross-multiplication true, and (2, 4) would pass as distinct from (1, 2)
    for bad in ((1, 0), (2, 4), (1, -2), (0, 3)):
        pts = ((1, 2), (3, 1), bad)
        for check in (lambda: theorem3_check(1, 1, 2, pts, pts[:2]),
                      lambda: conjecture5_check(1, 1, 1, pts),
                      lambda: chain_5_3_check(1, 1, 2, pts, pts[:2]),
                      lambda: lemma10_check(1, 1, 3, pts),
                      lambda: theorem3_lhs(1, 1, 2, pts, pts[:2])):
            with pytest.raises(ValueError, match="lowest terms"):
                check()
    pts = ((1, 2), (3, 1), (0, 1), (-5, 7))
    assert theorem3_check(1, 1, 3, pts, pts[:3])
    assert theorem3_lhs(1, 1, 3, pts, pts[:3]) == theorem3_lhs(
        1, 1, 3, (F(1, 2), 3, 0, F(-5, 7)), (F(1, 2), 3, 0))


# ---------------------------------------------------------------------------
# the work functions against the kernels' own loops
# ---------------------------------------------------------------------------

def test_chain53_and_lemma10_work_price_the_pfaffians_they_take(monkeypatch):
    # chain53's determinant (size 2n-b+1) and each Lemma 10 Pfaffian's size
    # (IndexSets' |Q| or |R| border columns with the points) and the
    # operations of its loop
    log = []

    def counting(kernel):
        def count(rows):
            Counted.reset()
            value = kernel(counted(rows))
            log.append((len(rows), Counted.ops - 1))
            return int(value)
        return count

    monkeypatch.setattr(msf, "integer_pfaffian", counting(integer_pfaffian))
    monkeypatch.setattr(msf, "integer_determinant", counting(integer_determinant))
    for a, b, n in ((1, 1, 3), (2, 2, 4), (3, 5, 6), (4, 2, 5), (5, 3, 3), (1, 3, 5)):
        pts = seeded_points(n + 1, a + n)
        log.clear()
        assert chain_5_3_check(a, b, n, pts, pts[:n])
        m = 2 * n - b + 1
        assert log == [(m, elimination_work(m, 0)["step"])], (a, b, n)
        assert msf.chain53_work(a, b, n)["step"] == log[0][1] + rab_sum_work(a, b, n + 1, n)["step"]
        log.clear()
        assert lemma10_check(a, b, n, pts[:n])
        rects = msf._rectangle_sides(a, b)
        sizes, schur_steps = [], 0
        for ambient in (n, n - 1) if n - 1 >= b else (n,):
            sizes.append(n + ambient - b + (ambient - b + n) % 2)
            for w, r in rects[n - ambient:n - ambient + 2]:
                schur_steps += schur_work(w, r, n)["step"]
        assert log == [(K, elimination_work(K, 0, True)["step"]) for K in sizes], (a, b, n)
        assert msf.lemma10_work(a, b, n)["step"] == sum(ops for _, ops in log) + schur_steps


def test_chain53_work_prices_the_bits_its_determinant_multiplies(monkeypatch):
    # chain53_work prices each update at 9/2 of its operands' bits squared,
    # from the bits instrumented runs show: the two products' bits squared
    # that the loop takes, at the seed-0 points the CLI draws first, stay
    # within 0.7-1.3 of 4/9 of that price
    bits = []

    def counting(rows):
        Counted.reset()
        value = integer_determinant(counted(rows))
        bits.append(Counted.product_bits)
        return int(value)

    monkeypatch.setattr(msf, "integer_determinant", counting)
    for a, b, n in ((1, 1, 12), (2, 2, 10), (3, 3, 12), (3, 7, 12), (5, 9, 12), (3, 9, 9),
                    (1, 11, 11), (9, 3, 6)):
        bits.clear()
        pts = seeded_pairs(n + 1, 0)
        assert chain_5_3_check(a, b, n, pts, pts[:n])
        E = (n + a) * 4
        priced = (msf.chain53_work(a, b, n)["digit"] - rab_sum_work(a, b, n + 1, n).get("digit", 0)
                  - msf._n_block_work(n + 1, n, E)["digit"])
        assert 0.7 <= bits[0] / (priced * 4 / 9) <= 1.3, (a, b, n, bits[0] / (priced * 4 / 9))


class _Quotient(int):
    """An int whose floor divisions, one for each of ``integer_pfaffian``'s
    updates in order, record whether the new entry is nonzero."""
    log = []

    def __mul__(self, other):
        return _Quotient(int(self) * int(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return _Quotient(int(self) + int(other))

    __radd__ = __add__

    def __sub__(self, other):
        return _Quotient(int(self) - int(other))

    def __rsub__(self, other):
        return _Quotient(int(other) - int(self))

    def __neg__(self):
        return _Quotient(-int(self))

    def __floordiv__(self, other):
        q = int(self) // int(other)
        _Quotient.log.append(q != 0)
        return _Quotient(q)


def test_paired_pfaffian_work_counts_the_nonzero_updates(monkeypatch):
    # Lemma 10's bordered Pfaffians: after paired step u the C(L-u, 2) +
    # (L-u)(t-u) entries with no more columns than points are nonzero and
    # the C(t-u, 2) others zero; each point step after the pairs leaves
    # C(K-2u, 2); and the digit work sums those counts at the form's bits
    seen = []

    def logging(rows):
        _Quotient.log = []
        value = integer_pfaffian([[_Quotient(x) for x in row] for row in rows])
        # step u updates the C(K-2u, 2) entries past its two rows
        K, log, steps = len(rows), _Quotient.log, []
        for u in range(1, K // 2):
            size = comb(K - 2 * u, 2)
            steps.append(sum(log[:size]))
            log = log[size:]
        assert not log
        seen.append(steps)
        return int(value)

    monkeypatch.setattr(msf, "integer_pfaffian", logging)
    for a, b, n in ((1, 1, 6), (3, 1, 7), (2, 4, 7), (1, 5, 6), (4, 2, 8)):
        seen.clear()
        assert lemma10_check(a, b, n, seeded_points(n, 3 + a))
        for ambient, nonzero in zip((n, n - 1), seen):
            t = ambient - b + (n + ambient - b) % 2
            K = n + t
            expected = [comb(n - u, 2) + (n - u) * (t - u) for u in range(1, min(t, K // 2 - 1) + 1)]
            expected += [comb(K - 2 * u, 2) for u in range(t + 1, K // 2)]
            assert nonzero == expected, (a, b, n, ambient)
            E = (ambient + a) * 4
            bits = [(E * (2 * u + 10), 5) for u in range(1, t + 1)]
            bits += [(E * (25 * u + 40 - 17 * t), 20) for u in range(t + 1, K // 2 + 1)]
            counts = [comb(n - u, 2) + (n - u) * (t - u) for u in range(1, t + 1)]
            counts += [comb(K - 2 * u, 2) for u in range(t + 1, K // 2 + 1)]
            digit = sum(Fraction(4 * c * x * x, d * d) for c, (x, d) in zip(counts, bits))
            work = msf._paired_pfaffian_work(n, t, E)
            assert abs(work["pfaffian_digit"] - digit) <= 1, (a, b, n)  # E <= 300: unscaled
    # past 300 bits a step, scaled by the cube root of 300 / E: at 8 times
    # the bits, 64 times the bits squared at half the price
    assert msf._paired_pfaffian_work(8, 4, 2400)["pfaffian_digit"] \
        == 32 * msf._paired_pfaffian_work(8, 4, 300)["pfaffian_digit"]
