"""Tests for symmetric-function evaluation and the paired-partition family."""

import builtins
import random
from fractions import Fraction
from operator import mul

from counting import Counted, counted
from oracles import (elementary_sym, generate_rab_by_pairs, lemma8_check_by_lists,
                     rect_product_decomposition_check, seeded_points_by_fractions)
from punchex import symfun
from punchex.core import (Partition, binomial, conjugate, determinant, elimination_work,
                          product_digits)
from punchex.symfun import (
    RabIndex,
    RabPair,
    _SEEDED_VALUES,
    _complete_table,
    _elementary_all,
    _rab_sum,
    as_pairs,
    as_points,
    generate_rab,
    lemma8_check,
    lemma8_work,
    _denominator_bits,
    rab_sum_work,
    schur_bidet,
    schur_eval,
    schur_nk,
    schur_work,
    seeded_pairs,
    seeded_points,
    table_work,
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
        table = _elementary_all(as_pairs(pts))
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


def test_wide_shapes_take_the_h_determinant(monkeypatch):
    # l(lambda)^2 < lambda_1: the Jacobi-Trudi determinant in h of size
    # l(lambda), read from the same table, agrees with the dual oracle at
    # repeated, zero and negative points and for shapes longer than the
    # alphabet; other shapes keep the dual route
    real = symfun._complete_table
    calls = []

    def counted(ev, m):
        calls.append(m)
        return real(ev, m)

    monkeypatch.setattr(symfun, "_complete_table", counted)
    rng = random.Random(71)
    wide = [(5,), (9, 2), (12, 3, 1), (10, 10, 10), (30,), (17, 4, 4, 1)]
    zero = 0
    for trial, parts in enumerate(wide * 10):
        pts = tuple(rng.choices(MIXED_POINTS, k=rng.randint(0, 6)))
        p = Partition(parts)
        expected = _oracle_schur_nk(p, pts)
        assert schur_eval(p, pts) == expected, (trial, p, pts)
        zero += expected == 0
    assert len(calls) == 60 and 0 < zero < 40, (len(calls), zero)
    for parts in ((4, 4), (9, 9, 9), (2, 1), (1,)):
        assert schur_eval(Partition(parts), MIXED_POINTS[:5]) == _oracle_schur_nk(
            Partition(parts), MIXED_POINTS[:5])
    assert len(calls) == 60


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


def test_seeded_points_draw_what_the_fraction_oracle_draws():
    # kept as reduced int pairs, the same points in the same order, at
    # every count and seeds 0..200.  The oracle at a count is the first
    # that many of its draw at 115: it reads the same stream and stops
    # sooner
    for seed in range(201):
        drawn = seeded_points_by_fractions(_SEEDED_VALUES, seed)
        for count in range(_SEEDED_VALUES + 1):
            assert seeded_points(count, seed) == drawn[:count], (count, seed)
    for count in (0, 1, 9, 114):
        assert seeded_points_by_fractions(count, 5) == seeded_points_by_fractions(115, 5)[:count]


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


def test_generate_rab_matches_the_pair_by_pair_oracle():
    # every same-parity (a, b) with a + b <= 16, and thin and wide shapes:
    # at (1, 301) and (301, 1) one side of every k has a single subset,
    # at (2, 120), (120, 2) and (3, 41) both sides of some k have many
    shapes = [(a, s - a) for s in range(2, 17, 2) for a in range(1, s)]
    shapes += [(1, 301), (301, 1), (2, 120), (120, 2), (3, 41)]
    for a, b in shapes:
        pairs, expected = generate_rab(a, b), generate_rab_by_pairs(a, b)
        assert len(pairs) == len(expected) == binomial(a + b, a), (a, b)
        for p, q in zip(pairs, expected):
            assert type(p.lam) is Partition and type(p.mu) is Partition, (a, b, p)
            assert (p.lam, p.mu, p.source.k, p.source.i) == \
                (q.lam, q.mu, q.source.k, q.source.i), (a, b, p, q)


def test_conjugating_a_half_checks_its_parts():
    # generate_rab conjugates each half's rows as a plain list, so conjugate
    # rejects what Partition(...) rejects and reads zero parts as it does
    for rows in ([1, 2], [3, 3, 4], [2, 0, 1], [2, -1], [-1], [0, -2]):
        _expect_value_error(Partition, rows)
        _expect_value_error(conjugate, rows)
    assert conjugate([3, 1, 0, 0]) == conjugate(Partition([3, 1])) == (2, 1, 1)
    assert type(conjugate([2, 2])) is Partition


def _per_pair_sum(pairs, big, small, schur=schur_bidet):
    """The R(a,b) sum pair by pair, each Schur value from ``schur``."""
    return sum(schur(pr.lam, big) * schur(pr.mu, small) for pr in pairs)


def _rab_value(a, b, big, small):
    """``_rab_sum`` at two alphabets of points, its integer pair divided."""
    num, den = _rab_sum(a, b, as_pairs(big), as_pairs(small))
    assert type(num) is int and type(den) is int and den
    return Fraction(num, den)


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
            assert _rab_value(a, b, big, small) == expected, (a, b, n, big, small)
            ones_big, ones_small = (F(1),) * (n + 1), (F(1),) * n
            expected = _per_pair_sum(pairs, ones_big, ones_small, _oracle_schur_nk)
            assert _rab_value(a, b, ones_big, ones_small) == expected, (a, b, n)
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
            assert _rab_value(a, b, big, small) == expected, (a, b, n, big, small)
            swapped = _per_pair_sum(pairs, small, big, schur_nk)
            assert _rab_value(a, b, small, big) == swapped != expected, (a, b, n)


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


def test_lemma8_check_agrees_with_the_list_oracle():
    # on every pair of R(a, b), a, b <= 8, and on three corruptions of
    # each, which both reject: mu taken from another index, lambda with its
    # first part raised by 1, and lambda and mu swapped
    for a in range(1, 9):
        for b in range(2 - a % 2, 9, 2):
            pairs = generate_rab(a, b)
            for k, p in enumerate(pairs):
                assert lemma8_check(p) is lemma8_check_by_lists(p) is True, (a, b, p)
                raised = Partition((p.lam.part(1) + 1,) + p.lam[1:])
                for bad in (RabPair(p.lam, pairs[k - 1].mu, p.source),
                            RabPair(raised, p.mu, p.source), RabPair(p.mu, p.lam, p.source)):
                    assert lemma8_check(bad) is lemma8_check_by_lists(bad) is False, (a, b, bad)


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


# ---------------------------------------------------------------------------
# the tables, and the work functions against the kernels' own loops
# ---------------------------------------------------------------------------

def _oracle_complete_table(ev, m):
    """(Q^0 h_0, ..., Q^m h_m) from the e-table ev by Newton's recurrence
    h_k = sum_{i>=1} (-1)^(i-1) e_i h_(k-i), read as
    H_k = sum_i (-1)^(i-1) ev[i] Q^(i-1) H_(k-i) for H_k = Q^k h_k."""
    Q = ev[0]
    c = [(-1) ** i * e * Q ** i for i, e in enumerate(ev[1:m + 1])]
    H = [1]
    for _ in range(m):
        H.append(sum(map(mul, c, reversed(H))))
    return H


def test_complete_table_point_by_point_matches_the_recurrence_in_e():
    # zero, negative, repeated and unreduced points; tables shorter and
    # longer than the alphabet
    rng = random.Random(61)
    for trial in range(200):
        pts = as_pairs(rng.choices(MIXED_POINTS, k=rng.randint(0, 8)))
        m = rng.randint(0, 25)
        assert _complete_table(pts, m) == _oracle_complete_table(_elementary_all(pts), m), (
            trial, pts, m)


def _counted_points(count, seed):
    """Seeded points as (p, q) pairs whose ints count their products."""
    return tuple((Counted(p), Counted(q)) for p, q in seeded_pairs(count, seed))


def test_table_work_counts_the_tables_products():
    for points in range(0, 12):
        pts = _counted_points(points, points)
        Counted.reset()
        _elementary_all.__wrapped__(pts)
        assert Counted.ops == table_work(points)["product"], points
        for m in (1, 7, 30):
            Counted.reset()
            _complete_table(pts, m)
            assert Counted.ops == table_work(points, m)["product"], (points, m)


def test_schur_work_prices_the_determinant_schur_nk_takes(monkeypatch):
    # the determinant's size and loop: in h for wide shapes, in e otherwise
    sizes = []

    def counting(rows):
        sizes.append(len(rows))
        Counted.reset()
        value = integer_determinant(counted(rows))
        sizes.append(Counted.ops - 1 if rows else 0)
        return value

    integer_determinant = symfun.integer_determinant
    monkeypatch.setattr(symfun, "integer_determinant", counting)
    for first, rows, points in ((9, 2, 5), (30, 3, 8), (4, 4, 7), (3, 6, 9), (12, 3, 12), (1, 5, 6)):
        sizes.clear()
        schur_nk(Partition([first] * rows), seeded_points(points, first))
        size = rows if rows * rows < first else first
        assert sizes == [size, elimination_work(size, 0)["step"]], (first, rows, points)
        assert schur_work(first, rows, points)["step"] == sizes[1]


def test_rab_sum_work_counts_the_products_of_f_and_g(monkeypatch):
    # the terms of F^T G's sums, one product each, and its size
    terms, seen = [], []

    def counting_sum(iterable, start=0):
        items = list(iterable)
        terms.append(len(items))
        return builtins.sum(items, start)

    monkeypatch.setattr(symfun, "sum", counting_sum, raising=False)
    monkeypatch.setattr(symfun, "integer_determinant", lambda rows: seen.append(len(rows)) or 1)
    for a, b, L in ((1, 1, 2), (2, 4, 3), (3, 7, 5), (4, 2, 6), (6, 6, 1), (5, 9, 4)):
        pts = seeded_pairs(L + 1, a + b)
        terms.clear()
        _rab_sum(a, b, pts, pts[:L])
        work = rab_sum_work(a, b, L + 1, L)
        tables = table_work(L + 1)["product"] + table_work(L)["product"]
        assert sum(terms) == work["product"] - tables and seen[-1] == a + 1, (a, b, L)
        assert work["call"] == a + b + 3  # a row of F and G each, two tables, the determinant


def test_rab_sum_work_leaves_out_the_zero_triangle():
    # F^T G is zero where i + j < a-b; after step j-1 the triangle of the
    # T(a-b-j) entries i + j' < a-b-j is taken as still zero: the
    # determinant's digit work is the full one less their j beta bits
    for a, b, big in ((1, 1, 3), (5, 1, 4), (9, 3, 6), (12, 2, 30), (4, 8, 5)):
        n, z = a + 1, max(a - b, 0)
        grow = (_denominator_bits(big) + _denominator_bits(big - 1)) * (4 * a + 2 * min(a, b)) // (5 * a)
        beta = grow + (n.bit_length() + 1) // 2
        zeros = sum(j * j * (z - j) * (z - j + 1) // 2 for j in range(1, min(z, n)))
        full = elimination_work(n, grow)["digit"]
        rest = rab_sum_work(a, b, big, big - 1)["digit"] - table_work(big)["digit"] - table_work(big - 1)["digit"]
        cells = a * (a + 1) * big * product_digits(4 * big, 4 * (big - 1))
        assert rest == full - 3 * beta ** 2 * zeros + cells, (a, b)


def test_lemma8_work_counts_the_pairs():
    for a, b in ((1, 1), (2, 4), (3, 5), (6, 6), (1, 9)):
        pairs = len(generate_rab(a, b))
        assert lemma8_work(a, b, 10 ** 9) == {"call": pairs * (a + 1),
                                              "product": 4 * pairs * (b + 1)}, (a, b)
    # past the limit, a+b pairs stand in for C(a+b, a): no huge binomial
    assert lemma8_work(1, 10 ** 12, 10 ** 6)["call"] == 2 * (10 ** 12 + 1)


def test_rab_index_rejects_with_its_messages():
    for args, message in (((1, 1, 0, (0,)), "index vector must have a+1 entries"),
                          ((1, 1, 2, (0, 1)), "k out of range"),
                          ((1, 1, 1, (0, 1)), "entry k+1 must be 0"),
                          ((2, 2, 1, (-1, 0, 0)), "index vector must be strictly increasing"),
                          ((2, 2, 1, (-2, 0, -1)), "index vector must be strictly increasing"),
                          ((1, 1, 0, (0, 7)), "index vector out of bounds")):
        try:
            RabIndex(*args)
        except ValueError as e:
            assert str(e) == message, (args, e)
        else:
            raise AssertionError(f"expected ValueError from RabIndex{args}")
