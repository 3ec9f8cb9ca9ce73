"""Exact symmetric-function evaluation and the R(a,b) index family.

Schur polynomials are evaluated two independent ways:

* ``schur_nk`` — determinant of elementary symmetric functions over the
  conjugate shape (the "dual" Jacobi-Trudi form), of size lambda_1.  With
  x_j = p_j / q_j and Q = prod_j q_j, its entries come from the integer
  table Q e_0, ..., Q e_n of the alphabet (``_elementary_all``, the
  module's one cache), so the determinant runs over ``int`` and divides
  once, by Q^lambda_1.  A shape with l(lambda)^2 < lambda_1 takes the
  Jacobi-Trudi determinant det(h_{lambda_i - i + j}) of size l(lambda)
  instead, its entries Q^k h_k computed from the same table.
  ``schur_eval`` calls it.  An R(a,b) sum reads each
  alphabet's table once and never visits the C(a+b, a) pairs: each pair's
  two minors are maximal minors of two fixed matrices on the same index
  rows, so by Cauchy-Binet the sum is one integer determinant of size a+1
  (``_rab_sum``), divided once.  It accepts repeated points (all-ones
  specializations); its cost grows with lambda_1, not with the points.
* ``schur_bidet`` — ratio of two alternants det(x_j^(lam_i+n-i)) /
  det(x_j^(n-i)), both cleared of denominators so the determinant and the
  Vandermonde product run over ``int`` and divide once.  Requires pairwise
  distinct points.  Nothing in the package calls it: it is the independent
  route the tests check ``schur_nk`` against.

``generate_rab`` produces the family R(a,b) of partition pairs (lambda, mu)
indexed by (k; i_1..i_{a+1}) that the summation identities range over, and
``lemma8_check`` verifies the structural property linking each pair to a
subset of {0..a+b} paired around the midpoint (a+b)/2.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from math import prod
from operator import mul
from typing import Iterable, List, Sequence, Tuple

from .core import Partition, conjugate, integer_determinant

# EvalPoint: a tuple of evaluation values x_1..x_n (ints or Fractions).
# Identity checks need pairwise-distinct points only where an alternant
# ratio divides by the Vandermonde; the e-determinant route has no such
# restriction.
EvalPoint = Tuple[Fraction, ...]


def as_points(pts: Iterable) -> EvalPoint:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in pts)


def distinct(pts: Sequence) -> bool:
    return len(set(pts)) == len(pts)


# ``seeded_points`` draws p/q with 1 <= p, q <= _DRAW_MAX: _SEEDED_VALUES
# (115) distinct values
_DRAW_MAX = 13
_SEEDED_VALUES = len({Fraction(p, q) for p in range(1, _DRAW_MAX + 1)
                      for q in range(1, _DRAW_MAX + 1)})


def seeded_points(count: int, seed: int) -> EvalPoint:
    """Deterministic pseudo-random pairwise-distinct positive rationals.

    Numerators and denominators are drawn from 1.._DRAW_MAX with
    ``random.Random(seed)``; duplicates are re-drawn.  Fixed seeds make
    every randomized identity check reproducible.  A count above the
    _SEEDED_VALUES distinct values p/q is refused rather than drawn forever.
    """
    if count > _SEEDED_VALUES:
        raise ValueError(f"seeded points are the {_SEEDED_VALUES} distinct values p/q "
                         f"with 1 <= p, q <= {_DRAW_MAX}; {count} were asked for")
    rng = random.Random(seed)
    out: List[Fraction] = []
    seen = set()
    while len(out) < count:
        x = Fraction(rng.randint(1, _DRAW_MAX), rng.randint(1, _DRAW_MAX))
        if x not in seen:
            seen.add(x)
            out.append(x)
    return tuple(out)


# ---------------------------------------------------------------------------
# elementary symmetric functions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _elementary_all(pts: EvalPoint) -> Tuple[int, ...]:
    """(Q e_0, Q e_1, ..., Q e_n) at pts, all integers, with Q = prod_j q_j.

    With x_j = p_j / q_j these are the coefficients of prod_j (q_j + p_j t),
    multiplied out one factor at a time; the first entry is Q itself.
    """
    e = [1] + [0] * len(pts)
    m = 0
    for x in pts:
        p, q = x.numerator, x.denominator
        m += 1
        for s in range(m, 0, -1):
            e[s] = q * e[s] + p * e[s - 1]
        e[0] *= q
    return tuple(e)


def elementary_sym(s: int, pts: Iterable) -> Fraction:
    """e_s evaluated at pts; e_0 = 1 and e_s = 0 outside 0 <= s <= n."""
    p = as_points(pts)
    if s < 0 or s > len(p):
        return Fraction(0)
    ev = _elementary_all(p)
    return Fraction(ev[s], ev[0])


# ---------------------------------------------------------------------------
# Schur evaluation
# ---------------------------------------------------------------------------

def _jt_minor(parts: Sequence[int], table: Sequence[int]) -> int:
    """det(table[c_i - i + j]) over the nonzero parts c_1 >= ... >= c_l of
    ``parts`` (weakly decreasing, zero parts last), reading 0 outside the
    table.  With the conjugate shape and the integer table Q e_0..Q e_n of
    ``_elementary_all`` this is Q^l s_lambda, l = lambda_1: a zero part
    would add a row and column that contribute only the factor Q.  With
    lambda and the table of ``_complete_table`` it is Q^|lambda| s_lambda."""
    n = len(table) - 1
    parts = [c for c in parts if c]
    return integer_determinant(
        [[table[s] if 0 <= (s := c - i + j) <= n else 0 for j in range(len(parts))]
         for i, c in enumerate(parts)])


def _complete_table(ev: Tuple[int, ...], m: int) -> List[int]:
    """(Q^0 h_0, Q^1 h_1, ..., Q^m h_m) from the table ev of
    ``_elementary_all``: h_k = sum_{i>=1} (-1)^(i-1) e_i h_(k-i) with
    e_i = ev[i] / Q reads H_k = sum_i (-1)^(i-1) ev[i] Q^(i-1) H_(k-i) for
    H_k = Q^k h_k, all integers."""
    Q = ev[0]
    c = [(-1) ** i * e * Q ** i for i, e in enumerate(ev[1:m + 1])]
    H = [1]
    for _ in range(m):
        H.append(sum(map(mul, c, reversed(H))))
    return H


def _schur_from_table(lam, ev: Tuple[int, ...]) -> Fraction:
    """s_lambda from the integer table ev of ``_elementary_all``, by the
    smaller Jacobi-Trudi minor.  The dual one, det(e_{lambda'_i - i + j}),
    has size lambda_1 and is divided once by Q^lambda_1.  When lambda has
    fewer rows than columns, det(h_{lambda_i - i + j}) of size l(lambda)
    is smaller: row i scaled by Q^(lambda_i - i) and column j by Q^j, its
    entries are H_k = Q^k h_k of ``_complete_table``, and it is divided
    once by Q^|lambda|.  Its entries are larger, so it is taken only when
    l(lambda)^2 < lambda_1, where it was the faster in timings of
    rectangles at 2 to 115 points."""
    lam = lam if isinstance(lam, Partition) else Partition(lam)
    if len(lam) ** 2 < lam.part(1):
        return Fraction(_jt_minor(lam, _complete_table(ev, lam[0] + len(lam) - 1)),
                        ev[0] ** sum(lam))
    conj = conjugate(lam)
    return Fraction(_jt_minor(conj, ev), ev[0] ** len(conj))


def schur_nk(p, pts: Iterable) -> Fraction:
    """Schur value via the dual Jacobi-Trudi determinant (or, for a shape
    much wider than long, the one in h).

    s_lambda = det( e_{lambda'_i - i + j} )_{1<=i,j<=m} with m = lambda_1.
    The entries are read from the integer table Q e_k of ``_elementary_all``,
    so the determinant runs over ``int`` and equals Q^m s_lambda; one
    division at the end.  Works at arbitrary (possibly repeated) points; a
    shape with more rows than there are points correctly evaluates to 0.
    The cost grows with lambda_1, the size of the determinant, and not with
    the number of points, so a shape much wider than long (l(lambda)^2 <
    lambda_1, such as lambda = (200,)) takes the Jacobi-Trudi determinant
    in h instead, of size l(lambda), read from the same table.
    """
    return _schur_from_table(p, _elementary_all(as_points(pts)))


def schur_bidet(p, pts: Iterable) -> Fraction:
    """Schur value as a ratio of alternants.

    s_lambda(x_1..x_n) = det(x_j^(lam_i + n - i)) / det(x_j^(n - i)).
    Both alternants are taken over the integers: with x_j = p_j / q_j and
    E = lam_1 + n - 1, column j of the numerator is scaled by q_j^E to
    p_j^e q_j^(E-e), and the Vandermonde denominator is
    (-1)^(n(n-1)/2) * prod_{i<j} (p_j q_i - p_i q_j) / prod_j q_j^(n-1).
    So s_lambda = (-1)^(n(n-1)/2) * det(p_j^e q_j^(E-e))
    / (prod_{i<j} (p_j q_i - p_i q_j) * prod_j q_j^lam_1), one division.
    The points must be pairwise distinct; shapes longer than n are
    rejected (use schur_nk, which returns 0 for them).
    """
    lam = p if isinstance(p, Partition) else Partition(p)
    points = as_points(pts)
    n = len(points)
    if not distinct(points):
        raise ValueError("schur_bidet requires pairwise distinct points")
    if len(lam) > n:
        raise ValueError("schur_bidet requires at least length(lambda) points")
    top = lam.part(1) + n - 1
    exps = [lam.part(i + 1) + n - (i + 1) for i in range(n)]
    num = [[x.numerator ** e * x.denominator ** (top - e) for x in points] for e in exps]
    den = _vandermonde_numerator(points) * prod(x.denominator for x in points) ** lam.part(1)
    return Fraction(integer_determinant(num), (-1) ** (n * (n - 1) // 2) * den)


def schur_eval(p, pts: Iterable) -> Fraction:
    """Schur value at any points, repeated ones included (``schur_nk``)."""
    return schur_nk(p, pts)


def _vandermonde_numerator(points: EvalPoint) -> int:
    """prod_{i<j} (p_j q_i - p_i q_j) for points x_i = p_i / q_i: the
    Vandermonde product times prod_j q_j^(n-1), an integer."""
    out = 1
    for i, xi in enumerate(points):
        for xj in points[i + 1:]:
            out *= xj.numerator * xi.denominator - xi.numerator * xj.denominator
    return out


def vandermonde_product(pts: Iterable) -> Fraction:
    """Delta(X_n) = prod_{i<j} (x_j - x_i), over the integers and divided once."""
    p = as_points(pts)
    scale = prod(x.denominator for x in p) ** max(len(p) - 1, 0)
    return Fraction(_vandermonde_numerator(p), scale)


# ---------------------------------------------------------------------------
# the index family R(a,b)
# ---------------------------------------------------------------------------

class RabIndex:
    """Index datum (k; i_1..i_{a+1}) with
    -(a+b)/2 <= i_1 < ... < i_k < i_{k+1} = 0 < i_{k+2} < ... <= (a+b)/2.

    k counts the strictly negative entries; a and b are carried along so a
    pair can be checked without outside context.
    """

    __slots__ = ("a", "b", "k", "i")

    def __init__(self, a: int, b: int, k: int, i: Sequence[int]):
        self.a = a
        self.b = b
        self.k = k
        self.i = tuple(i)
        half = (a + b) // 2
        if len(self.i) != a + 1:
            raise ValueError("index vector must have a+1 entries")
        if not 0 <= k <= a:
            raise ValueError("k out of range")
        if self.i[k] != 0:
            raise ValueError("entry k+1 must be 0")
        for t in range(a):
            if self.i[t] >= self.i[t + 1]:
                raise ValueError("index vector must be strictly increasing")
        if self.i[0] < -half or self.i[-1] > half:
            raise ValueError("index vector out of bounds")

    def __repr__(self) -> str:
        return f"RabIndex(a={self.a}, b={self.b}, k={self.k}, i={self.i})"


class RabPair:
    """A pair (lambda, mu) of R(a,b) together with its source index."""

    __slots__ = ("lam", "mu", "source")

    def __init__(self, lam: Partition, mu: Partition, source: RabIndex):
        self.lam = lam
        self.mu = mu
        self.source = source

    def __repr__(self) -> str:
        return f"RabPair(lam={self.lam.parts}, mu={self.mu.parts})"


def _colex_subsets(pool: Sequence[int], k: int):
    """k-subsets of pool (ascending tuples) in colexicographic order."""
    return sorted(combinations(sorted(pool), k), key=lambda s: s[::-1])


def _check_rab(a: int, b: int) -> None:
    """Refuse (a, b) for which R(a,b) is not defined."""
    if a < 1 or b < 1:
        raise ValueError("a and b must be positive")
    if a % 2 != b % 2:
        raise ValueError("generate_rab requires a and b of equal parity")


def _index_vectors(a: int, b: int):
    """Yield every index (k, i) of R(a,b) in ``generate_rab``'s order."""
    _check_rab(a, b)
    half = (a + b) // 2
    for k in range(max(0, a - half), min(a, half) + 1):
        positives = _colex_subsets(range(1, half + 1), a - k)
        for negs in _colex_subsets(range(-half, 0), k):
            for poss in positives:
                yield k, negs + (0,) + poss


def _conjugate_shapes(a: int, b: int, k: int, i: Sequence[int]) -> Tuple[List[int], List[int]]:
    """(lambda', mu') of the pair at index (k; i), weakly decreasing lists of
    a and a+1 parts, zero parts included: lambda'_h = (b-a)/2 + j_{a+1-h} + h
    over the a entries j of i other than its 0, and
    mu'_h = (b-a)/2 - i_h + h - 1."""
    half_diff = (b - a) // 2
    rest = i[:k] + i[k + 1:]
    lam_conj = [half_diff + x + h for h, x in enumerate(reversed(rest), 1)]
    mu_conj = [half_diff - x + h for h, x in enumerate(i)]
    return lam_conj, mu_conj


def generate_rab(a: int, b: int) -> List[RabPair]:
    """All pairs (lambda, mu) of R(a,b), in a fixed deterministic order.

    Enumeration order: k ascending; for each k the negative entries run
    over k-subsets of {-(a+b)/2..-1} in colex order, then the positive
    entries over (a-k)-subsets of {1..(a+b)/2} in colex order.  The number
    of pairs is sum_k C((a+b)/2, k) * C((a+b)/2, a-k) = C(a+b, a).
    """
    out: List[RabPair] = []
    for k, i in _index_vectors(a, b):
        lam_conj, mu_conj = _conjugate_shapes(a, b, k, i)
        out.append(RabPair(conjugate(Partition(lam_conj)), conjugate(Partition(mu_conj)),
                           RabIndex(a, b, k, i)))
    return out


def _rab_sum(a: int, b: int, big: Iterable, small: Iterable) -> Fraction:
    """sum over (lambda, mu) in R(a,b) of s_lambda(big) * s_mu(small), as
    one integer determinant of size a+1 (Cauchy-Binet).

    Let h = (a+b)/2, hd = (b-a)/2, and read the integer e-tables ex, ey of
    the two alphabets (Q_X, Q_Y their first entries) as 0 outside their
    range.  The pair of index vector S + {0}, S an a-subset of the nonzero
    x in [-h, h], has Q_X^a s_lambda = det(ex[hd+1+x+j]) over x in S
    descending, j < a, and Q_Y^(a+1) s_mu = det(ey[hd-x+j]) over x in
    S + {0} ascending, j <= a (the Jacobi-Trudi minors of lambda' and mu';
    a zero part adds only the factor Q).  Take the (2h+1) x (a+1) matrices
    with rows x = -h..h

      G[x][j] = ey[hd-x+j],   F[0] = (1, 0, ..., 0),
      F[x] = (0, sigma_x ex[hd+1+x], ..., sigma_x ex[hd+x+a])  for x != 0,

    sigma_x = -1 for x < 0 and +1 for x > 0.  A row set T without 0 has
    det F_T = 0; expanding det F_{S+{0}} along row 0, at position k = the
    number of negatives in S, gives (-1)^k, which the k signs sigma_x
    cancel, and reversing the rows of the lambda minor gives
    (-1)^(a(a-1)/2).  So by Cauchy-Binet
    det(F^T G) = (-1)^(a(a-1)/2) Q_X^a Q_Y^(a+1) times the sum.
    """
    _check_rab(a, b)
    ex, ey = _elementary_all(as_points(big)), _elementary_all(as_points(small))
    h, hd = (a + b) // 2, (b - a) // 2

    def at(table: Tuple[int, ...], s: int) -> int:
        return table[s] if 0 <= s < len(table) else 0

    # rows x != 0 of F (columns 1..a) and G
    fg = [([(1 if x > 0 else -1) * at(ex, hd + x + i) for i in range(1, a + 1)],
           [at(ey, hd - x + j) for j in range(a + 1)])
          for x in range(-h, h + 1) if x]
    # column 0 of F is 1 at x = 0 and 0 elsewhere: row 0 of F^T G is G[0]
    ftg = [[at(ey, hd + j) for j in range(a + 1)]]
    ftg += [[sum(f[i] * g[j] for f, g in fg) for j in range(a + 1)] for i in range(a)]
    sign = -1 if a * (a - 1) // 2 % 2 else 1
    return Fraction(sign * integer_determinant(ftg), ex[0] ** a * ey[0] ** (a + 1))


def lemma8_check(pair: RabPair) -> bool:
    """Structural check on a pair (lambda, mu) of R(a,b).

    Build J = { lambda_{b+2-h} + h - 1 : h = 1..b+1 } and
          J' = { mu_{b+1-h} + h - 1 : h = 1..b },
    reading parts beyond the length as 0.  The pair passes iff
    (1) (a+b)/2 is an element of J, and
    (2) J' = { a+b-j : j in J, j != (a+b)/2 }.
    """
    a, b = pair.source.a, pair.source.b
    s = (a + b) // 2
    # lambda_1..lambda_(b+1) and mu_1..mu_b, zero-padded, read last part first
    lam = (pair.lam + (0,) * (b + 1))[:b + 1][::-1]
    mu = (pair.mu + (0,) * b)[:b][::-1]
    J = [x + h for h, x in enumerate(lam)]
    Jp = [x + h for h, x in enumerate(mu)]
    if len(set(J)) != b + 1 or len(set(Jp)) != b:
        return False
    if s not in J:
        return False
    expected = {a + b - j for j in J if j != s}
    return set(Jp) == expected


# ---------------------------------------------------------------------------
# rectangular-shape product decomposition
# ---------------------------------------------------------------------------

def rect_product_decomposition_check(s: int, t: int, m: int, n: int, pts: Iterable) -> bool:
    """Verify s_{(s^m)} * s_{(t^n)} = sum of s_lambda over the staircase-
    complementary family, evaluated exactly at pts.

    The sum ranges over partitions lambda of length <= m+n with
    lambda_i + lambda_{m+n-i+1} = s+t for i <= m, lambda_m >= max(s,t),
    and lambda_{m+1} = ... = lambda_n = t.  Requires m <= n.
    """
    if m > n:
        raise ValueError("rect_product_decomposition_check requires m <= n")
    points = as_points(pts)
    lhs = schur_eval(Partition([s] * m), points) * schur_eval(Partition([t] * n), points)
    total = Fraction(0)
    lo, hi = max(s, t), s + t
    # weakly decreasing choices for the first m parts, each in [lo, hi]
    for head_desc in combinations_with_replacement(range(lo, hi + 1), m):
        head = tuple(reversed(head_desc))
        tail_mid = [t] * (n - m)
        tail_end = [s + t - x for x in reversed(head)]
        lam = Partition(list(head) + tail_mid + tail_end)
        total += schur_eval(lam, points)
    return lhs == total
