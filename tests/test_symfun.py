"""Tests for symmetric-function evaluation and the paired-partition family."""

import random
from fractions import Fraction

from punchex.core import Partition, binomial, conjugate, determinant
from punchex.symfun import (
    RabIndex,
    RabPair,
    _elementary_all,
    _rab_sum,
    as_points,
    elementary_sym,
    generate_rab,
    lemma8_check,
    rect_product_decomposition_check,
    schur_bidet,
    schur_eval,
    schur_nk,
    seeded_points,
    vandermonde_product,
)
from punchex.boxcount import macmahon_box


def _expect_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        return
    raise AssertionError(f"expected ValueError from {fn.__name__}{args}")


F = Fraction


# ---------------------------------------------------------------------------
# elementary symmetric polynomials and Schur evaluation
# ---------------------------------------------------------------------------

def test_elementary_sym():
    pts = (F(2), F(3))
    assert elementary_sym(0, pts) == 1
    assert elementary_sym(1, pts) == 5
    assert elementary_sym(2, pts) == 6
    assert elementary_sym(3, pts) == 0
    assert elementary_sym(-1, pts) == 0
    assert elementary_sym(0, ()) == 1
    # e_s(1,...,1) = C(n, s)
    ones = tuple(F(1) for _ in range(6))
    for s in range(0, 7):
        assert elementary_sym(s, ones) == binomial(6, s)


def test_schur_known_values():
    pts = (F(2), F(3))
    assert schur_eval(Partition([1]), pts) == 5
    assert schur_eval(Partition([1, 1]), pts) == 6
    assert schur_eval(Partition([2]), pts) == 19
    assert schur_eval(Partition([2]), (F(1), F(2))) == 7
    assert schur_eval(Partition([2, 1]), (F(1), F(1), F(1))) == 8
    assert schur_eval(Partition([]), pts) == 1
    # more variables than parts: evaluates to 0
    assert schur_eval(Partition([1, 1, 1]), pts) == 0


# zero, negatives, ints and unreduced fractions: schur_bidet and
# vandermonde_product clear denominators point by point
MIXED_POINTS = (0, -3, 5, 1, -1, F(6, 4), F(6, -4), F(-10, 15), F(7, 3), F(1, 12),
                F(-13, 11), F(22, 6))


def test_schur_two_routes_agree():
    rng = random.Random(23)
    pool = sorted(set(F(n, d) for n in range(1, 8) for d in range(1, 5)))
    for trial in range(240):
        npts = rng.randint(1, 6)
        # distinct points so both evaluators apply
        pts = tuple(rng.sample(pool if trial < 40 else MIXED_POINTS, npts))
        parts = sorted((rng.randint(0, 4) for _ in range(rng.randint(0, npts))),
                       reverse=True)
        p = Partition(parts)
        assert schur_nk(p, pts) == schur_bidet(p, pts), (trial, p, pts)


def _oracle_elementary_all(pts):
    """(e_0, ..., e_n) over Fraction, one variable at a time."""
    e = [F(1)] + [F(0)] * len(pts)
    for m, x in enumerate(pts, 1):
        for s in range(m, 0, -1):
            e[s] += x * e[s - 1]
    return tuple(e)


def _oracle_schur_nk(p, pts):
    """Dual Jacobi-Trudi determinant over Fraction, of size max(1, lambda_1)."""
    pts = as_points(pts)
    m = max(1, p.part(1))
    lam_c = conjugate(p)
    ev = _oracle_elementary_all(pts)

    def e(s):
        return ev[s] if 0 <= s <= len(pts) else F(0)

    return determinant([[e(lam_c.part(i) - i + j) for j in range(1, m + 1)]
                        for i in range(1, m + 1)])


def test_elementary_table_is_denominator_cleared():
    rng = random.Random(41)
    for _ in range(60):
        pts = as_points(rng.choices(MIXED_POINTS, k=rng.randint(0, 7)))
        table = _elementary_all(pts)
        Q = 1
        for x in pts:
            Q *= x.denominator
        assert all(type(c) is int for c in table), pts
        assert table == tuple(Q * e for e in _oracle_elementary_all(pts)), pts
        assert [elementary_sym(s, pts) for s in range(len(pts) + 1)] == list(
            _oracle_elementary_all(pts)), pts


def test_schur_integer_jacobi_trudi_matches_fraction_oracle():
    # 0, negatives, ints, unreduced fractions, repeated points, the empty
    # shape, shapes longer than the alphabet and lambda_1 > n
    rng = random.Random(53)
    seen = dict.fromkeys(("repeated", "empty", "too_long", "wide", "bidet"), 0)
    for trial in range(300):
        npts = rng.randint(0, 6)
        if trial % 3 == 0:
            pts = tuple(rng.choices(MIXED_POINTS[:6], k=npts))
        else:
            pts = tuple(rng.sample(MIXED_POINTS, npts))
        kind = trial % 4
        if kind == 0:
            parts = []
        elif kind == 1:
            parts = [rng.randint(1, 3) for _ in range(npts + rng.randint(1, 2))]
        elif kind == 2:
            parts = [npts + rng.randint(1, 3)] + [rng.randint(0, 3) for _ in range(2)]
        else:
            parts = [rng.randint(0, 5) for _ in range(rng.randint(0, npts))]
        p = Partition(sorted(parts, reverse=True))
        expected = _oracle_schur_nk(p, pts)
        assert schur_nk(p, pts) == expected, (trial, p, pts)
        assert schur_eval(p, pts) == expected, (trial, p, pts)
        if len(p) > npts:
            assert expected == 0
        seen["repeated"] += len(set(as_points(pts))) < npts
        seen["empty"] += not p.parts
        seen["too_long"] += len(p) > npts
        seen["wide"] += p.part(1) > npts
        if len(set(as_points(pts))) == npts and len(p) <= npts:
            assert schur_bidet(p, pts) == expected, (trial, p, pts)
            seen["bidet"] += 1
    assert min(seen.values()) >= 30, seen


def test_schur_bidet_validation():
    _expect_value_error(schur_bidet, Partition([1]), (F(2), F(2)))
    _expect_value_error(schur_bidet, Partition([1, 1, 1]), (F(2), F(3)))


def test_schur_handles_repeated_and_zero_points():
    # the dual Jacobi-Trudi route has no distinctness requirement
    assert schur_eval(Partition([2, 1]), (F(2), F(2), F(2))) != 0
    # appending a zero variable does not change the value
    p = Partition([2, 1])
    assert schur_eval(p, (F(2), F(3), F(0))) == schur_eval(p, (F(2), F(3)))
    # all-ones principal specialization of a rectangle counts boxed
    # plane partitions
    for (A, B, n) in [(2, 2, 4), (3, 2, 5), (1, 3, 4)]:
        ones = tuple(F(1) for _ in range(n))
        assert schur_eval(Partition([A] * B), ones) == macmahon_box(A, B, n - B)


def test_schur_homogeneity():
    # s_lambda(t*x) = t^|lambda| s_lambda(x)
    p = Partition([3, 1])
    pts = (F(1, 2), F(2), F(5, 3))
    t = F(7, 4)
    scaled = tuple(t * x for x in pts)
    assert schur_eval(p, scaled) == t ** 4 * schur_eval(p, pts)


def test_seeded_points():
    pts = seeded_points(4, 9)
    assert pts == seeded_points(4, 9)
    assert len(pts) == 4 == len(set(pts))
    assert all(1 <= x.numerator <= 13 and 1 <= x.denominator <= 13 for x in pts)
    assert seeded_points(4, 10) != pts
    # every distinct p/q with 1 <= p, q <= 13 can be drawn; one more cannot
    assert len(set(seeded_points(115, 3))) == 115
    _expect_value_error(seeded_points, 116, 3)


def test_vandermonde_product():
    assert vandermonde_product((F(2),)) == 1
    assert vandermonde_product((F(2), F(3))) == 1
    assert vandermonde_product((F(1), F(2), F(4))) == (2 - 1) * (4 - 1) * (4 - 2)
    assert vandermonde_product(()) == 1
    rng = random.Random(37)
    for _ in range(100):
        pts = [F(x) for x in rng.sample(MIXED_POINTS, rng.randint(0, 8))]
        expected = F(1)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                expected *= pts[j] - pts[i]
        assert vandermonde_product(pts) == expected, pts


# ---------------------------------------------------------------------------
# the paired-partition family R(a, b)
# ---------------------------------------------------------------------------

def test_generate_rab_small_golden():
    pairs = generate_rab(1, 1)
    assert len(pairs) == 2
    assert pairs[0].lam == (1, 1) and pairs[0].mu == ()
    assert pairs[1].lam == () and pairs[1].mu == (2,)
    assert pairs[0].source.k == 0 and pairs[0].source.i == (0, 1)
    assert pairs[1].source.k == 1 and pairs[1].source.i == (-1, 0)


def test_generate_rab_counts_and_bounds():
    for a in range(1, 5):
        for b in range(1, 5):
            if a % 2 != b % 2:
                _expect_value_error(generate_rab, a, b)
                continue
            pairs = generate_rab(a, b)
            assert len(pairs) == binomial(a + b, a), (a, b)
            seen = set()
            for pr in pairs:
                key = (pr.lam.parts, pr.mu.parts)
                assert key not in seen
                seen.add(key)
                assert pr.lam.part(1) <= a
                assert pr.mu.part(1) <= a + 1
                assert len(pr.lam) <= b + 1
                assert len(pr.mu) <= b


def test_generate_rab_deterministic():
    once = [(p.lam.parts, p.mu.parts) for p in generate_rab(2, 4)]
    again = [(p.lam.parts, p.mu.parts) for p in generate_rab(2, 4)]
    assert once == again


def _per_pair_sum(pairs, big, small, schur=schur_bidet):
    """The R(a,b) sum pair by pair, each Schur value from ``schur``."""
    return sum(schur(pr.lam, big) * schur(pr.mu, small) for pr in pairs)


def test_rab_sum_matches_alternants_and_fraction_oracle():
    # two independent distinct alphabets, each with 0 and a negative point,
    # against schur_bidet; all-ones alphabets against the Fraction oracle.
    # The skewed shapes (a >> b or a << b) read many entries past the ends
    # of the e-tables, which the sum takes as 0.
    rng = random.Random(61)
    shapes = [(a, b) for a in range(1, 5) for b in range(1, 5) if a % 2 == b % 2]
    shapes += [(5, 1), (7, 1), (1, 5), (6, 2), (2, 6)]
    cases = 0
    for a, b in shapes:
        pairs = generate_rab(a, b)
        for n in (b, b + 1, b + 2):
            rest = [x for x in MIXED_POINTS if x not in (0, -3, -1)]
            big = as_points([0, -3] + rng.sample(rest, n - 1))
            small = as_points(([-1, 0] + rng.sample(rest, n))[:n])
            expected = _per_pair_sum(pairs, big, small)
            assert _rab_sum(a, b, big, small) == expected, (a, b, n, big, small)
            ones_big, ones_small = (F(1),) * (n + 1), (F(1),) * n
            expected = _per_pair_sum(pairs, ones_big, ones_small, _oracle_schur_nk)
            assert _rab_sum(a, b, ones_big, ones_small) == expected, (a, b, n)
            cases += 1
    assert cases == 39


def test_rab_sum_determinant_matches_per_pair_sum():
    # the single Cauchy-Binet determinant against the per-pair sum over
    # generate_rab; a(a-1)/2 is even at a = 5 and odd at a = 3, 6 and 7,
    # so both signs of the global factor are exercised.  Swapping the
    # alphabets must give the swapped sum and not the same value, which a
    # determinant that read F and G the wrong way round would not.
    rng = random.Random(83)
    for a, b in ((5, 5), (6, 6), (3, 7), (7, 3)):
        pairs = generate_rab(a, b)
        for n in (b, b + 1):
            rest = [x for x in MIXED_POINTS if x not in (0, -3)]
            big = as_points([0, -3] + rng.sample(rest, n - 1))
            small = as_points(rng.sample(MIXED_POINTS, n))
            assert any(x < 0 for x in small), (a, b, n, small)
            expected = _per_pair_sum(pairs, big, small)
            assert _rab_sum(a, b, big, small) == expected, (a, b, n, big, small)
            swapped = _per_pair_sum(pairs, small, big, schur_nk)
            assert _rab_sum(a, b, small, big) == swapped != expected, (a, b, n)


def test_lemma8_holds_on_generated_pairs():
    for (a, b) in [(1, 1), (2, 2), (1, 3), (3, 1), (3, 3), (2, 4)]:
        assert all(lemma8_check(p) for p in generate_rab(a, b)), (a, b)


def test_lemma8_rejects_corrupted_pair():
    src = RabIndex(1, 1, 0, (0, 1))
    bad = RabPair(Partition([1]), Partition([1]), src)
    assert not lemma8_check(bad)
    # swapping lambda and mu of a valid pair also fails
    good = generate_rab(1, 1)[0]
    swapped = RabPair(good.mu, good.lam, good.source)
    assert not lemma8_check(swapped)


def test_rab_index_validation():
    try:
        RabIndex(1, 1, 0, (1, 0))  # not increasing
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")
    try:
        RabIndex(1, 1, 1, (0, 1))  # entry k+1 not zero
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")
    try:
        RabIndex(1, 1, 0, (0, 7))  # out of bounds
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


# ---------------------------------------------------------------------------
# rectangular product decomposition
# ---------------------------------------------------------------------------

def test_rect_product_decomposition():
    pts = seeded_points(4, 2)
    assert rect_product_decomposition_check(2, 1, 1, 2, pts)
    assert rect_product_decomposition_check(1, 1, 2, 2, pts)
    assert rect_product_decomposition_check(3, 2, 2, 2, pts)
    assert rect_product_decomposition_check(2, 3, 1, 3, pts)
    _expect_value_error(rect_product_decomposition_check, 1, 1, 3, 2, pts)


def test_rect_product_decomposition_all_ones():
    for n in range(2, 5):
        ones = tuple(F(1) for _ in range(n))
        for s in range(1, 4):
            for t in range(1, 4):
                for m in range(1, n + 1):
                    assert rect_product_decomposition_check(s, t, m, n, ones), (s, t, m, n)
