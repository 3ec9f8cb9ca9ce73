"""Exact symmetric-function evaluation and the R(a,b) index family.

Evaluations read the points x_j = p_j / q_j as an ``Alphabet`` of (p_j, q_j)
int pairs (``as_pairs``, ``seeded_pairs``) and return unreduced (numerator,
denominator) pairs of ints, which the public functions divide once into a
``Fraction``.  Schur polynomials are evaluated two independent ways:

* ``schur_nk`` (``_schur``) — determinant of elementary symmetric functions
  over the conjugate shape (the "dual" Jacobi-Trudi form), of size
  lambda_1.  With Q = prod_j q_j, its entries come from the integer table
  Q e_0, ..., Q e_n of the alphabet (``_elementary_all``, the one cache of
  values, keyed by the pairs), so the determinant runs over ``int``, over
  Q^lambda_1.  A shape with l(lambda)^2 < lambda_1 takes the
  Jacobi-Trudi determinant det(h_{lambda_i - i + j}) of size l(lambda)
  instead, its entries Q^k h_k built point by point (``_complete_table``).
  ``schur_eval`` calls it.  An R(a,b) sum reads each
  alphabet's table once and never visits the C(a+b, a) pairs: each pair's
  two minors are maximal minors of two fixed matrices on the same index
  rows, so by Cauchy-Binet the sum is one integer determinant of size a+1
  (``_rab_sum``) over a power of each Q.  It accepts repeated points
  (all-ones specializations); its cost grows with lambda_1, not the points.
* ``schur_bidet`` — ratio of two alternants det(x_j^(lam_i+n-i)) /
  det(x_j^(n-i)), both cleared of denominators so the determinant and the
  Vandermonde product (``_vandermonde``) run over ``int`` and divide once.
  Requires pairwise distinct points.  Nothing in the package calls it: it
  is the independent route the tests check ``schur_nk`` against.

``generate_rab`` produces the family R(a,b) of partition pairs (lambda, mu)
indexed by (k; i_1..i_{a+1}) that the summation identities range over, and
``lemma8_check`` verifies the structural property linking each pair to a
subset of {0..a+b} paired around the midpoint (a+b)/2.

The other caches hold the work functions (``table_work``, ``schur_work``,
``rab_sum_work``, ``lemma8_work``): pure functions of ints, memoised per
process by ``core.cached_work`` and returning read-only mappings.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, repeat
from math import gcd, prod
from operator import add, itemgetter, lt, sub
from typing import Iterable, List, Sequence, Tuple

from .core import (_WORD, Partition, Work, binomial, cached_work, conjugate, elimination_work,
                   integer_determinant, poly_mul, poly_sum, product_digits, total)

# EvalPoint: a tuple of evaluation values x_1..x_n (ints or Fractions).
# Identity checks need pairwise-distinct points only where an alternant
# ratio divides by the Vandermonde; the e-determinant route has no such
# restriction.
EvalPoint = Tuple[Fraction, ...]
# Alphabet: the points x_j = p_j / q_j as pairs (p_j, q_j) of ints in lowest
# terms, q_j > 0; a tuple of int pairs hashes without a modular inverse.
Alphabet = Tuple[Tuple[int, int], ...]


def as_points(pts: Iterable) -> EvalPoint:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in pts)


def as_pairs(pts: Iterable) -> Alphabet:
    """The points as an ``Alphabet``.  Each is a number (anything ``Fraction``
    reads) or a pair (p, q), which must be in lowest terms with q > 0."""
    out = []
    for x in pts:
        if not isinstance(x, tuple):
            x = x if isinstance(x, (int, Fraction)) else Fraction(x)
            x = x.numerator, x.denominator
        elif x[1] < 1 or gcd(*x) != 1:
            raise ValueError(f"a point pair (p, q) must be in lowest terms with q > 0, not {x}")
        out.append(x)
    return tuple(out)


def distinct(pts: Sequence) -> bool:
    return len(set(pts)) == len(pts)


def _denominator(pts: Alphabet) -> int:
    """Q = prod_j q_j, the alphabet's common denominator."""
    return prod(map(itemgetter(1), pts))


# ``seeded_pairs`` draws p/q with 1 <= p, q <= _DRAW_MAX: _SEEDED_VALUES
# (115) distinct values, the coprime pairs
_DRAW_MAX = 13
_SEEDED_VALUES = sum(gcd(p, q) == 1 for p in range(1, _DRAW_MAX + 1)
                     for q in range(1, _DRAW_MAX + 1))
# bits of a drawn numerator or denominator, at most
_POINT_BITS = _DRAW_MAX.bit_length()


def seeded_pairs(count: int, seed: int) -> Alphabet:
    """Reproducible pairwise-distinct positive rationals in lowest terms, a
    duplicate drawn again.  p and q are drawn from 1.._DRAW_MAX as
    ``random.Random(seed).randint`` draws them (_POINT_BITS bits, drawn
    again while _DRAW_MAX or more, plus 1).  A count above the
    _SEEDED_VALUES distinct values p/q is refused, not drawn forever."""
    if count > _SEEDED_VALUES:
        raise ValueError(f"seeded points are the {_SEEDED_VALUES} distinct values p/q "
                         f"with 1 <= p, q <= {_DRAW_MAX}; {count} were asked for")
    bits = partial(random.Random(seed).getrandbits, _POINT_BITS)
    draws = (r + 1 for r in iter(bits, -1) if r < _DRAW_MAX)
    kept = {}  # (p, q) in lowest terms, in the order first drawn
    while len(kept) < count:
        p, q = next(draws), next(draws)
        g = gcd(p, q)
        kept[p // g, q // g] = None
    return tuple(kept)


def seeded_points(count: int, seed: int) -> EvalPoint:
    """``seeded_pairs`` as ``Fraction``s."""
    return tuple(Fraction(p, q) for p, q in seeded_pairs(count, seed))


# ---------------------------------------------------------------------------
# elementary symmetric functions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _elementary_all(pts: Alphabet) -> Tuple[int, ...]:
    """(Q e_0, Q e_1, ..., Q e_n) at pts, all integers, with Q = prod_j q_j.

    With x_j = p_j / q_j these are the coefficients of prod_j (q_j + p_j t),
    multiplied out one factor at a time; the first entry is Q itself.
    """
    e = [1] + [0] * len(pts)
    m = 0
    for p, q in pts:
        m += 1
        for s in range(m, 0, -1):
            e[s] = q * e[s] + p * e[s - 1]
        e[0] *= q
    return tuple(e)


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


def _complete_table(pts: Alphabet, m: int) -> List[int]:
    """(Q^0 h_0, Q^1 h_1, ..., Q^m h_m) at pts, Q = prod_j q_j, all integers,
    built one point at a time: with H_k = Q^k h_k over the points so far
    (Q still the product over all of them) and x = p/q the next,
    h_k(X + x) = h_k(X) + x h_(k-1)(X + x) reads H'_k = H_k + (p Q/q) H'_(k-1),
    one product of an integer of the size of Q per entry."""
    Q = _denominator(pts)
    H = [1] + [0] * m
    for p, q in pts:
        c = p * (Q // q)
        for k in range(1, m + 1):
            H[k] += c * H[k - 1]
    return H


def _denominator_bits(points: int) -> int:
    """Q = prod_j q_j's bits over seeded points (the 115 have log2 q 2.44)."""
    return 5 * points // 2 + 1


def _uses_h(rows: int, first: int) -> bool:
    """Whether a shape of ``rows`` parts, the largest ``first``, takes the
    determinant in h (size rows, larger entries) rather than the dual one
    (size first): the faster when rows^2 < first, in timings at 2-115 points."""
    return rows ** 2 < first


def _schur(lam: Partition, pts: Alphabet) -> Tuple[int, int]:
    """s_lambda(pts) as an unreduced pair: det(Q e_{lambda'_i - i + j}) of size
    lambda_1 over Q^lambda_1, at any points (a shape longer than them gives
    0).  A shape much wider than long (``_uses_h``, such as (200,)) takes
    det(h_{lambda_i - i + j}), row i scaled by Q^(lambda_i - i) and column j
    by Q^j, from ``_complete_table``'s H_k = Q^k h_k, over Q^|lambda|."""
    if _uses_h(len(lam), lam.part(1)):
        return (_jt_minor(lam, _complete_table(pts, lam[0] + len(lam) - 1)),
                _denominator(pts) ** sum(lam))
    ev = _elementary_all(pts)
    conj = conjugate(lam)
    return _jt_minor(conj, ev), ev[0] ** len(conj)


def schur_nk(p, pts: Iterable) -> Fraction:
    """Schur value via the dual Jacobi-Trudi determinant (``_schur``)."""
    return Fraction(*_schur(p if isinstance(p, Partition) else Partition(p), as_pairs(pts)))


@cached_work
def table_work(points: int, m: int = 0) -> Work:
    """The work of ``_elementary_all`` at ``points`` seeded points (point j
    updates e_1..e_j with two products by p and q, e_0 with one), or for
    m > 0 of ``_complete_table`` to H_m (p Q/q: a product and a division,
    Q a product, each H_k one); e_s has j _POINT_BITS bits, H_k k times."""
    P, W = _POINT_BITS, _WORD
    if m:
        return {"call": 1, "product": points * (m + 3), "digit": points * (P * points + W) * (
            P * points * m * (m + 1) // 2 + W * m)}
    s1, s2 = poly_sum((0, 1), 1, points), poly_sum((0, 0, 1), 1, points)
    return {"call": 1, "product": 2 * s1 + points, "digit": 2 * (P + W) * (P * s2 + W * s1)}


@cached_work
def schur_work(first: int, rows: int, points: int) -> Work:
    """The work of ``schur_nk`` on a shape of ``rows`` parts, the largest
    ``first``, at ``points`` seeded points: its table, its determinant
    (``_uses_h``), whose steps grow the entries by the bits of Q (Q^first
    in h)."""
    Q = _denominator_bits(points)
    if _uses_h(rows, first):
        return total(table_work(points, first + rows - 1), elimination_work(rows, Q * first))
    return total(table_work(points), elimination_work(first, Q))


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
    points = as_pairs(pts)
    n = len(points)
    if not distinct(points):
        raise ValueError("schur_bidet requires pairwise distinct points")
    if len(lam) > n:
        raise ValueError("schur_bidet requires at least length(lambda) points")
    top = lam.part(1) + n - 1
    exps = [lam.part(i + 1) + n - (i + 1) for i in range(n)]
    num = [[u ** e * v ** (top - e) for u, v in points] for e in exps]
    den = _vandermonde(points)[0] * _denominator(points) ** lam.part(1)
    return Fraction(integer_determinant(num), (-1) ** (n * (n - 1) // 2) * den)


def schur_eval(p, pts: Iterable) -> Fraction:
    """Schur value at any points, repeated ones included (``schur_nk``)."""
    return schur_nk(p, pts)


def _vandermonde(pts: Alphabet) -> Tuple[int, int]:
    """Delta(X_n) = prod_{i<j} (x_j - x_i) as an unreduced pair: the numerator
    prod_{i<j} (p_j q_i - p_i q_j) over prod_j q_j^(n-1)."""
    out = 1
    for i, (p, q) in enumerate(pts):
        for u, v in pts[i + 1:]:
            out *= u * q - p * v
    return out, _denominator(pts) ** max(len(pts) - 1, 0)


def vandermonde_product(pts: Iterable) -> Fraction:
    """Delta(X_n) = prod_{i<j} (x_j - x_i), over the integers and divided once."""
    return Fraction(*_vandermonde(as_pairs(pts)))


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
        if not all(map(lt, self.i, self.i[1:])):
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


def generate_rab(a: int, b: int) -> List[RabPair]:
    """All pairs (lambda, mu) of R(a,b), in a fixed deterministic order.

    Enumeration order: k ascending; for each k the negative entries run
    over k-subsets of {-(a+b)/2..-1} in colex order, then the positive
    entries over (a-k)-subsets of {1..(a+b)/2} in colex order.  The number
    of pairs is sum_k C((a+b)/2, k) * C((a+b)/2, a-k) = C(a+b, a).

    At index (k; i), lambda and mu are the conjugates of lambda', a parts
    lambda'_h = (b-a)/2 + j_{a+1-h} + h over the a entries j of i other
    than its 0, and of mu', a+1 parts mu'_h = (b-a)/2 - i_h + h - 1.  Write
    T ++ B for top rows T over bottom rows B, each top row at least each
    bottom row.  A column j <= B_1 meets all len(T) top rows and a column
    past B_1 no bottom row, so (Macdonald, Symmetric Functions and Hall
    Polynomials, I.1)

      conj(T ++ B) = (conj(B) + len(T)) ++ conj(T)[B_1:],  B_1 = len(conj(B)).

    lambda' is T = the m = a-k rows from the positive entries over B = the
    k rows from the negative ones; mu' is T = the k rows from the negative
    entries over B = the row of the 0 and the m rows from the positive
    ones.  Consecutive rows of either differ by i_(h+1) - i_h - 1 >= 0 (by
    at least 1 across the 0, which lambda' skips), as i is strictly
    increasing: every top row is at least every bottom row.  So for each k
    the two halves of each positive and each negative subset are
    conjugated once, 2 (C(h,k) + C(h,m)) conjugations (h = (a+b)/2) in
    place of 2 C(h,k) C(h,m) of whole shapes, and a pair joins one of
    each.
    """
    _check_rab(a, b)
    half, hd = (a + b) // 2, (b - a) // 2
    out: List[RabPair] = []
    for k in range(max(0, a - half), min(a, half) + 1):
        m = a - k
        # the halves of each positive subset: lambda's top rows, and mu's
        # bottom rows raised by the k above them; then of each negative one:
        # lambda's bottom rows raised by the m above them, and mu's top rows
        pos = [(p, conjugate([hd + x + h for h, x in enumerate(reversed(p), 1)]),
                _raised(conjugate([hd + k, *(hd - x + h for h, x in enumerate(p, k + 1))]), k))
               for p in _colex_subsets(range(1, half + 1), m)]
        for n in _colex_subsets(range(-half, 0), k):
            lam_low = _raised(conjugate([hd + m + x + g for g, x in enumerate(reversed(n), 1)]), m)
            mu_high = conjugate([hd - x + h for h, x in enumerate(n)])
            n0 = n + (0,)
            for p, lam_high, mu_low in pos:
                out.append(RabPair(_stacked(lam_low, lam_high), _stacked(mu_low, mu_high),
                                   RabIndex(a, b, k, n0 + p)))
    return out


def _raised(p: Partition, s: int) -> Partition:
    """p with s added to each part, conj(B) + len(T) in ``generate_rab``."""
    return tuple.__new__(Partition, map(add, p, repeat(s))) if s else p


def _stacked(low: Partition, high: Partition) -> Partition:
    """conj(T ++ B) = low ++ high[len(low):] in ``generate_rab``, from
    low = conj(B) + len(T) and high = conj(T).  Where one adds nothing
    the other is returned itself, and the pairs share it."""
    cut = len(low)
    if not cut:
        return high
    if len(high) <= cut:
        return low
    return tuple.__new__(Partition, low + high[cut:])


def _rab_sum(a: int, b: int, big: Alphabet, small: Alphabet) -> Tuple[int, int]:
    """sum over (lambda, mu) in R(a,b) of s_lambda(big) * s_mu(small), as an
    unreduced pair: one integer determinant of size a+1 (Cauchy-Binet) over
    Q_X^a Q_Y^(a+1).

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
    ex, ey = _elementary_all(big), _elementary_all(small)
    h, hd = (a + b) // 2, (b - a) // 2

    # the tables read 0 outside their range: index s sits at s + a, s >= -a
    px, py = ([0] * a + list(t) + [0] * (a + b + 1) for t in (ex, ey))
    signed = {1: px, -1: [-v for v in px]}
    # rows x != 0 of F (columns 1..a) and G, sliced from the tables
    fg = [(signed[1 if x > 0 else -1][hd + x + a + 1:hd + x + 2 * a + 1],
           py[hd - x + a:hd - x + 2 * a + 1])
          for x in range(-h, h + 1) if x]
    # column 0 of F is 1 at x = 0 and 0 elsewhere: row 0 of F^T G is G[0]
    ftg = [py[hd + a:hd + 2 * a + 1]]
    ftg += [[sum(f[i] * g[j] for f, g in fg) for j in range(a + 1)] for i in range(a)]
    sign = -1 if a * (a - 1) // 2 % 2 else 1
    return sign * integer_determinant(ftg), ex[0] ** a * ey[0] ** (a + 1)


@cached_work
def rab_sum_work(a: int, b: int, big: int, small: int) -> Work:
    """The work of ``_rab_sum`` over ``big`` and ``small`` seeded points:
    the e-tables, the a+b rows of F and G, the a (a+1) (a+b) products of
    F^T G (min(big, small)+1 nonzero ones an entry) and its determinant of
    size a+1.  Its entries i + j < a-b are zero, and in instrumented runs
    that triangle loses one antidiagonal a step; the entries grow by about
    (4a + 2 min(a, b)) / 5a times Q_X Q_Y's bits a step (0.85 at b = 8,
    a = 60; 1.2 at b = a = 56)."""
    ex, ey, cells = _POINT_BITS * big, _POINT_BITS * small, a * (a + 1)
    n, z = a + 1, max(a - b, 0)
    grow = (_denominator_bits(big) + _denominator_bits(small)) * (4 * a + 2 * min(a, b)) // (5 * max(a, 1))
    det, beta = dict(elimination_work(n, grow)), grow + (n.bit_length() + 1) // 2
    # step j leaves the T(z-j) entries i + j' < z-j zero, of j beta bits each
    det["digit"] -= 3 * beta ** 2 * poly_sum(poly_mul((0, 0, 1), (z * z + z, -2 * z - 1, 1)), 1, min(z, n) - 1) // 2
    return total(table_work(big), table_work(small), det,
                 {"call": a + b, "product": (a + b) * cells,
                  "digit": cells * (min(big, small) + 1) * product_digits(ex, ey)})


@cached_work
def lemma8_work(a: int, b: int, limit: int) -> Work:
    """The work of ``generate_rab(a, b)`` and ``lemma8_check`` on its
    C(a+b, a) pairs: a call for each of the a+1 entries of a pair's index
    vector, and four interpreted operations for each of the b+1 rows of its
    shapes and its check (``product``'s price).  That prices conjugating
    each pair's two shapes whole (``generate_rab_by_pairs`` in the tests);
    ``generate_rab`` conjugates each half once per subset, so it
    over-prices the generation and stays an upper bound (its refit is left
    to ROADMAP item 7).  Past
    ``limit``, a+b pairs, a lower bound, so huge sides are refused at once."""
    pairs = a + b if a + b > limit else binomial(a + b, a)
    return {"call": pairs * (a + 1), "product": 4 * pairs * (b + 1)}


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
    J, Jp = set(map(add, lam, range(b + 1))), set(map(add, mu, range(b)))
    if len(J) != b + 1 or len(Jp) != b or s not in J:
        return False
    J.remove(s)
    return Jp == set(map(sub, repeat(a + b), J))


# ---------------------------------------------------------------------------
# rectangular-shape product decomposition
# ---------------------------------------------------------------------------

