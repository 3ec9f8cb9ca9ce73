"""Pfaffian summation machinery: structured index sets and matrices, the
minor summation formula, and the determinant/Pfaffian evaluation chain
connecting the partition-pair sums to closed products.

The central identity (``minor_summation``): for G (n x p), H (n x q) with
n + q even and 0 <= n - q <= p, and any skew-symmetric A (p x p),

    sum_K Pf(A^K_K) det(G_K | H) = (-1)^(q(q-1)/2) Pf([[G A G^T, H], [-H^T, 0]]),

K running over (n-q)-subsets of the columns of G.  Both sides are
computed over ``int``: each row of [G | H] and the whole of A are cleared
of denominators, the sub-Pfaffians, the minors and the bordered Pfaffian
go to ``core.integer_pfaffian`` and ``core.integer_determinant``, and each
side is divided once by the common scale.  Applied to block
moment matrices over two nested point sets and a fixed skew matrix of
+-1 entries, it turns the sum over R(a,b) of products of Schur values
into a single Pfaffian (``chain_5_3_check``).  There G A G^T is
[[0, N], [-N^T, 0]], so only the block N = M_P(X_{n+1}) B M_P(X_n)^T is
computed, B the +-1 block of A, each entry in the closed form of
``_scaled_n_entry`` over integers.  Every nonzero entry of the bordered
matrix then joins one side of a bipartition to the other, so its
Pfaffian is a signed determinant of half the size, which goes to
``core.integer_determinant``.  Up to sign that Pfaffian is the product of
two moment Pfaffians, and Lemma 10 (``lemma10_check``, on the same closed
block ``_n_block`` over one alphabet, its Pfaffian taken by
``core.integer_pfaffian`` with each point's row paired with a border
column, which leaves the sign (-1)^floor(b/2) with an M_Q border and +
with an M_R border) evaluates each as Delta(X) s_R(X) s_R'(X):
(R, R') = (R_A, R_B) on X_n and (R_B, R_C) on X_{n+1}, where
R_A = (ceil((a+1)/2))^(floor(b/2)), R_B = (ceil(a/2))^(ceil(b/2)) and
R_C = (floor(a/2))^(ceil((b+1)/2)).
The Vandermonde products cancel and leave Theorem 3: the R(a,b) sum
(``theorem3_lhs``) is s_{R_A}(X_n) s_{R_B}(X_n) s_{R_B}(X_{n+1})
s_{R_C}(X_{n+1}) (``theorem3_rhs``).  ``lemma9_check`` verifies the
bordered-determinant factorization of skew matrices, on integers too: both
of its sides are homogeneous, so one common denominator clears them.

The checks at points (``theorem3_check``, ``conjecture5_check``,
``chain_5_3_check``, ``lemma10_check``) read them once into (p, q) int pairs
(``symfun.as_pairs``), hold every side as an unreduced (numerator,
denominator) pair of ints and decide by one cross-multiplication (``_same``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from operator import mul
from typing import Iterable, List, Sequence, Tuple

from .core import (ExactMatrix, Partition, Work, _check_rectangular, _check_skew, _cleared,
                   binomial, cached_work, elimination_work, integer_determinant, integer_pfaffian,
                   poly_mul, poly_sum, product_digits, total)
from .symfun import (_POINT_BITS, Alphabet, _denominator, _rab_sum, _schur, _vandermonde, as_pairs,
                     distinct, rab_sum_work, schur_work)


# ---------------------------------------------------------------------------
# index sets and structured matrices
# ---------------------------------------------------------------------------

class IndexSets:
    """The four index sets attached to parameters (a, b, n), n >= b.

    With s = (a+b)/2:
      Gamma = {0..a+b} minus {s}          (a+b values)
      P     = n-b + Gamma                 (a+b values)
      Q     = {0..n-b-1} + {n-b+s}        (n-b+1 values)
      R     = {0..n-b-1}                  (n-b values)
    """

    __slots__ = ("a", "b", "n", "P", "Q", "R", "Gamma")

    def __init__(self, a: int, b: int, n: int):
        if a < 1 or b < 1:
            raise ValueError("a and b must be positive")
        if a % 2 != b % 2:
            raise ValueError("index sets require a and b of equal parity")
        if n < b:
            raise ValueError("index sets require n >= b")
        s = (a + b) // 2
        self.a, self.b, self.n = a, b, n
        self.Gamma = [g for g in range(a + b + 1) if g != s]
        self.P = [n - b + g for g in self.Gamma]
        self.Q = list(range(0, n - b)) + [n - b + s]
        self.R = list(range(0, n - b))

    def __repr__(self) -> str:
        return f"IndexSets(a={self.a}, b={self.b}, n={self.n})"


def _moment_rows(I: Sequence[int], pts: Alphabet, E: int) -> List[List[int]]:
    """The moment matrix M_I(pts) with row k scaled by q_k^E, x_k = p_k/q_k,
    as ``int`` rows p_k^e q_k^(E-e) (e in I); E is at least max(I)."""
    return [[p ** e * q ** (E - e) for e in I] for p, q in pts]


def _skew_border(m: ExactMatrix, cols: ExactMatrix) -> ExactMatrix:
    """[[m, cols], [-cols^T, 0]] — skew whenever m is."""
    n = len(m)
    t = len(cols[0]) if n and cols else 0
    out = []
    for r in range(n):
        out.append(list(m[r]) + list(cols[r]))
    for i in range(t):
        out.append([-cols[r][i] for r in range(n)] + [0] * t)
    return out


def _scaled_n_entry(x: Tuple[int, int], y: Tuple[int, int], s: int, shift: int) -> int:
    """The closed entry (x y)^shift (y^(s+1) - x^(s+1)) sum_{r<s} x^r y^(s-1-r)
    of N times (q v)^(shift+2s), for x = p/q and y = u/v: with A = p v and
    B = q u, the integer
    (p u)^shift * (B^(s+1) - A^(s+1)) * sum_{r<s} A^r B^(s-1-r).  The sum,
    s >= 1, is the divided difference (B^s - A^s) / (B - A), an exact
    division, or s A^(s-1) when A = B."""
    (p, q), (u, v) = x, y
    A, B = p * v, q * u
    acc = (B ** s - A ** s) // (B - A) if A != B else s * A ** (s - 1)
    return (p * u) ** shift * (B ** (s + 1) - A ** (s + 1)) * acc


def _n_block(a: int, b: int, n: int, xs: Alphabet, ys: Alphabet) -> List[List[int]]:
    """N = M_P(xs) B M_P(ys)^T over ``int``, with P the index set of
    (a, b, n), B the off-diagonal block of the structured skew matrix and
    row k of each moment matrix scaled by q_k^(n+a), x_k = p_k / q_k, n+a
    being the largest exponent in P: each entry the closed form
    ``_scaled_n_entry`` with s = (a+b)/2 and shift n-b."""
    s, shift = (a + b) // 2, n - b
    return [[_scaled_n_entry(x, y, s, shift) for y in ys] for x in xs]


# ---------------------------------------------------------------------------
# the minor summation formula
# ---------------------------------------------------------------------------

def minor_summation(G: ExactMatrix, H: ExactMatrix, A: ExactMatrix) -> Tuple[Fraction, Fraction]:
    """Both sides of the minor summation identity, computed independently.

    Left: sum over (n-q)-subsets K of columns of G of
    Pf(A^K_K) * det(G_K | H).  Right: (-1)^(q(q-1)/2) times the Pfaffian
    of [[G A G^T, H], [-H^T, 0]].  Preconditions: A skew-symmetric and
    p x p, n + q even and 0 <= n - q <= p.

    Both sides run over ``int``.  Row r of [G | H] is scaled by the lcm
    d_r of its denominators and A by the lcm L of all of its denominators,
    so each term of the left side gains the factor prod d_r L^((n-q)/2).
    The bordered matrix becomes [[L D G A G^T D, D H], [-(D H)^T, 0]]
    with D = diag(d_r), whose Pfaffian gains the same factor (scale the
    first n rows and columns by 1/sqrt(L) and the last q by sqrt(L)).
    Each side is divided by it once.
    """
    n = len(G)
    p = len(G[0]) if n else 0
    if len(H) != n:
        raise ValueError("G and H must have the same number of rows")
    q = len(H[0]) if (H and H[0]) else 0
    if len(A) != p or (p and len(A[0]) != p):
        raise ValueError("A must be p x p for G with p columns")
    if (n + q) % 2 != 0:
        raise ValueError("minor summation requires n + q even")
    if not 0 <= n - q <= p:
        raise ValueError("minor summation requires 0 <= n - q <= p")
    _check_rectangular(G)
    _check_rectangular(H)
    # checked whole: when n = q no sub-Pfaffian of A is taken
    _check_skew(A)

    rows = [_cleared(list(g) + list(h)) for g, h in zip(G, H)]
    gi = [ints[:p] for _, ints in rows]
    hi = [ints[p:] for _, ints in rows]
    L = lcm(*(x.denominator for row in A for x in row))
    ai = [[x.numerator * (L // x.denominator) for x in row] for row in A]
    scale = prod(d for d, _ in rows) * L ** ((n - q) // 2)

    lhs = 0
    for K in combinations(range(p), n - q):
        pf = integer_pfaffian([[ai[r][c] for c in K] for r in K])
        if pf:
            lhs += pf * integer_determinant([[g[k] for k in K] + h for g, h in zip(gi, hi)])

    ga = [[sum(map(mul, g, col)) for col in zip(*ai)] for g in gi]
    gag = [[sum(map(mul, row, g)) for g in gi] for row in ga]
    rhs = integer_pfaffian(_skew_border(gag, hi))
    sign = -1 if (q * (q - 1) // 2) % 2 else 1
    return Fraction(lhs, scale), Fraction(sign * rhs, scale)


def lemma9_check(A: ExactMatrix, bvec: Sequence, cvec: Sequence, d) -> bool:
    """Verify the bordered-determinant factorization of a skew matrix.

    With A_tilde = [[A, b], [-c^T, d]]:
      n even:  det(A_tilde) = -Pf(A) * Pf([[A, b, c], [-b^T, 0, -d], [-c^T, d, 0]])
      n odd:   det(A_tilde) = Pf([[A, b], [-b^T, 0]]) * Pf([[A, c], [-c^T, 0]])

    Both sides are homogeneous of degree n+1 in the entries of A, b, c and
    d, so all four are scaled by one common denominator and the sides are
    compared over ``int``.
    """
    n = len(A)
    bcol, ccol = ([x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
                  for v in (bvec, cvec))
    dval = d if isinstance(d, (int, Fraction)) else Fraction(d)
    if len(bcol) != n or len(ccol) != n:
        raise ValueError("border vectors must have length n")
    _check_skew(A)
    den = lcm(dval.denominator, *(x.denominator for x in bcol + ccol),
              *(x.denominator for row in A for x in row))

    def scaled(v):
        return [x.numerator * (den // x.denominator) for x in v]

    a, b, c = [scaled(row) for row in A], scaled(bcol), scaled(ccol)
    dd = scaled([dval])[0]
    det_tilde = integer_determinant([row + [x] for row, x in zip(a, b)]
                                    + [[-x for x in c] + [dd]])
    if n % 2 == 0:
        big = [row + [x, y] for row, x, y in zip(a, b, c)]
        big.append([-x for x in b] + [0, -dd])
        big.append([-x for x in c] + [dd, 0])
        return det_tilde == -integer_pfaffian(big) * integer_pfaffian(a)
    pf_b = integer_pfaffian(_skew_border(a, [[x] for x in b]))
    pf_c = integer_pfaffian(_skew_border(a, [[x] for x in c]))
    return det_tilde == pf_b * pf_c


# ---------------------------------------------------------------------------
# the summation identities
# ---------------------------------------------------------------------------

def _rectangle_sides(a: int, b: int) -> Tuple[Tuple[int, int], ...]:
    """(width, rows) of R_A = (ceil((a+1)/2))^(floor(b/2)),
    R_B = (ceil(a/2))^(ceil(b/2)) and R_C = (floor(a/2))^(ceil((b+1)/2)),
    the shapes of Theorem 3."""
    return ((a + 2) // 2, b // 2), ((a + 1) // 2, (b + 1) // 2), (a // 2, (b + 2) // 2)


def _rectangles(a: int, b: int) -> Tuple[Partition, Partition, Partition]:
    """R_A, R_B and R_C (``_rectangle_sides``)."""
    if a % 2 != b % 2:
        raise ValueError("requires a and b of equal parity")
    return tuple(Partition([w] * r) for w, r in _rectangle_sides(a, b))


def _times(*values: Tuple[int, int]) -> Tuple[int, int]:
    """The product of unreduced (numerator, denominator) pairs."""
    return tuple(map(prod, zip(*values)))


def _same(lhs: Tuple[int, int], rhs: Tuple[int, int]) -> bool:
    """Whether two unreduced (numerator, denominator) pairs are one value:
    a verdict by one cross-multiplication, ln rd = rn ld."""
    return lhs[0] * rhs[1] == rhs[0] * lhs[1]


def _rect_product(a: int, b: int, xa, xb1, xb2, xc) -> Tuple[int, int]:
    """s_{R_A}(xa) * s_{R_B}(xb1) * s_{R_B}(xb2) * s_{R_C}(xc), over ``Alphabet``s."""
    ra, rb, rc = _rectangles(a, b)
    return _times(_schur(ra, xa), _schur(rb, xb1), _schur(rb, xb2), _schur(rc, xc))


def _nested(n: int, pts1: Iterable, pts0: Iterable) -> Tuple[Alphabet, Alphabet]:
    """(X_{n+1}, X_n) as ``Alphabet``s, checked to hold n+1 and n values
    with X_n the first n values of X_{n+1}."""
    p1, p0 = as_pairs(pts1), as_pairs(pts0)
    if len(p1) != n + 1 or len(p0) != n:
        raise ValueError("need n+1 points for X_{n+1} and n points for X_n")
    if p0 != p1[:n]:
        raise ValueError("pts0 must be the first n values of pts1")
    return p1, p0


def theorem3_lhs(a: int, b: int, n: int, pts1: Iterable, pts0: Iterable) -> Fraction:
    """sum over (lambda, mu) in R(a,b) of s_lambda(X_{n+1}) * s_mu(X_n),
    where pts0 (X_n) must be the first n values of pts1 (X_{n+1})."""
    return Fraction(*_rab_sum(a, b, *_nested(n, pts1, pts0)))


def theorem3_rhs(a: int, b: int, n: int, pts1: Iterable, pts0: Iterable) -> Fraction:
    """Product of four rectangular Schur values equal to theorem3_lhs:
    s_{R_A}(X_n) * s_{R_B}(X_n) * s_{R_B}(X_{n+1}) * s_{R_C}(X_{n+1}),
    with R_A, R_B and R_C as in the module docstring.
    """
    p1, p0 = _nested(n, pts1, pts0)
    return Fraction(*_rect_product(a, b, p0, p0, p1, p1))


def theorem3_check(a: int, b: int, n: int, pts1: Iterable, pts0: Iterable) -> bool:
    """Whether ``theorem3_lhs`` equals ``theorem3_rhs`` at the points: both
    sides as integer pairs, compared by one cross-multiplication."""
    p1, p0 = _nested(n, pts1, pts0)
    return _same(_rab_sum(a, b, p1, p0), _rect_product(a, b, p0, p0, p1, p1))


def conjecture5_check(a: int, b: int, n: int, pts2: Iterable) -> bool:
    """Exact-evaluation verdict on the two-extra-variables analogue.

    Compares sum over R(a,b) of s_lambda(X_{n+2}) * s_mu(X_n) with

      s_{R_A}(X_n) * s_{R_B}(X_n + {x_{n+1}}) * s_{R_B}(X_n + {x_{n+2}})
      * s_{R_C}(X_{n+2})

    where pts2 supplies x_1..x_{n+2}.  This equality is unproven in
    general; the function reports whether it holds at the given points.
    """
    p2 = as_pairs(pts2)
    if len(p2) != n + 2:
        raise ValueError("need n+2 points")
    p0 = p2[:n]
    return _same(_rab_sum(a, b, p2, p0), _rect_product(a, b, p0, p2[:n + 1], p0 + p2[n + 1:], p2))


def chain_5_3_check(a: int, b: int, n: int, pts1: Iterable, pts0: Iterable) -> bool:
    """Verify the Pfaffian evaluation of the R(a,b) sum:

    sum s_lambda(X_{n+1}) s_mu(X_n)
      = (-1)^(bn + n - b) / (Delta(X_{n+1}) Delta(X_n))
        * Pf([[G A G^T, H], [-H^T, 0]])
      = (-1)^(n + floor(b/2)) det(C) / (Delta(X_{n+1}) Delta(X_n))

    with G = diag(M_P(X_{n+1}), M_P(X_n)), H = diag(M_Q(X_{n+1}), M_R(X_n))
    and A = [[0, B], [B, 0]], B skew with one +-1 a row, pairing the
    values k and a+b-k of Gamma.  Needs pairwise distinct points (the right
    side divides by both Vandermonde products).  G A G^T = [[0, N], [-N^T, 0]]
    with N = M_P(X_{n+1}) B M_P(X_n)^T, so every nonzero entry of the
    bordered matrix joins X_{n+1} or a column of M_R(X_n) to X_n or a
    column of M_Q(X_{n+1}).  Such a Pfaffian is a signed determinant of
    half the size, Pf([[0, C], [-C^T, 0]]) = (-1)^(m(m-1)/2) det C: here C
    is the (2n-b+1)-square [[0, -M_R(X_n)^T], [M_Q(X_{n+1}), N]], its rows
    the n-b columns of M_R(X_n) and then X_{n+1}, its columns the n-b+1
    of M_Q(X_{n+1}) and then X_n.  The sign (-1)^(n + floor(b/2)) takes in
    (-1)^(bn + n - b), that one and the sign of moving the blocks into this
    order (counted for every b < 60 and b <= n < b+60).  Laid out the
    other way, C = [[N, M_Q], [-M_R^T, 0]], the elimination ran 1.03-3.6x
    slower at seven shapes (631 ms against 177 ms at (9, 9, 30),
    BENCH_28.json).  N is computed entry by entry in closed form
    (``_n_block``).  Row k of the moment matrices is scaled by
    d_k = q_k^(n+a), x_k = p_k / q_k, n+a being the largest exponent in P,
    Q and R.  Scaling C's row of each point of X_{n+1} and column of each
    point of X_n so makes it integer and multiplies det C
    (``integer_determinant``) by prod d_k, divided out once.
    """
    p1, p0 = _nested(n, pts1, pts0)
    if not distinct(p1):
        raise ValueError("requires pairwise distinct points")
    sets = IndexSets(a, b, n)
    E, q = n + a, len(sets.Q)
    C = [[0] * q + [-x for x in column] for column in zip(*_moment_rows(sets.R, p0, E))]
    C += [mq + row for mq, row in zip(_moment_rows(sets.Q, p1, E), _n_block(a, b, n, p1, p0))]
    sign = -1 if (n + b // 2) % 2 else 1
    d = (_denominator(p1) * _denominator(p0)) ** E
    # dividing by a Vandermonde product multiplies by its pair reversed
    rhs = _times((sign * integer_determinant(C), d), _vandermonde(p1)[::-1], _vandermonde(p0)[::-1])
    return _same(_rab_sum(a, b, p1, p0), rhs)


# ---------------------------------------------------------------------------
# closed evaluation of the structured moment-matrix Pfaffians
# ---------------------------------------------------------------------------

def _lemma10_identity(a: int, b: int, ambient: int, pts: Alphabet) -> bool:
    """Lemma 10 for the alphabet pts of L = ambient or ambient + 1 points,
    its Pfaffian taken in the order p_0, b_0, ..., p_(t-1), b_(t-1), p_t,
    ..., p_(L-1) of points p and border columns b.  The point rows of N
    meet in a block of rank at most a+b, so in the given order most pivots
    are zero and need a swap; pairing each point with a border column
    avoids that and keeps the entries smaller (at a = b = 1, n = 45 about
    1.3x faster).  In that order the sign is (-1)^floor(b/2) with an M_Q
    border and + with an M_R border (see ``lemma10_check``)."""
    L, r = len(pts), ambient - b
    t = r + (L + r) % 2  # |R|, or |Q| = |R| + 1, so that L + t is even
    # row and column k of N, and row k of the border, scaled by
    # d_k = q_k^(ambient+a), the largest power of x_k in either: the bordered
    # matrix is integer and its Pfaffian is prod_k d_k times the unscaled one.
    # R is Q without its last entry
    M = _moment_rows(IndexSets(a, b, ambient).Q[:t], pts, ambient + a)
    m = _skew_border(_n_block(a, b, ambient, pts, pts), M)
    order = [i for k in range(t) for i in (k, L + k)] + list(range(t, L))
    pf = integer_pfaffian([[m[i][j] for j in order] for i in order])
    lhs = (-pf if t > r and b // 2 % 2 else pf, _denominator(pts) ** (ambient + a))
    R, R2 = _rectangles(a, b)[L - ambient:L - ambient + 2]
    return _same(lhs, _times(_vandermonde(pts), _schur(R, pts), _schur(R2, pts)))


def lemma10_check(a: int, b: int, n: int, pts: Iterable) -> bool:
    """Verify Lemma 10, the closed evaluation of the moment Pfaffians, at
    the given n distinct points.

    For an alphabet X of L points at ambient n' >= b, with L = n' or n'+1,
    let N = M_P(X) B M_P(X)^T (see ``_n_block``) and let M be
    the t columns of M_R(X) when L + |R| is even and of M_Q(X) otherwise:

        Pf([[N, M], [-M^T, 0]]) = (-1)^e Delta(X) s_R(X) s_R'(X),
        e = (L-t) t + t(t-1)/2, plus (L-t)/2 when M is M_Q(X),

    with (R, R') = (R_A, R_B) when L = n' and (R_B, R_C) when L = n'+1
    (the rectangles of ``theorem3_rhs``).  ``_lemma10_identity`` takes the
    Pfaffian with each point paired with a border column, a reordering of
    sign (-1)^(t(L-1) - t(t-1)/2); with it e collapses to (L-t)/2 =
    floor(b/2) with an M_Q border and to 0 otherwise, as t(2L-t-1) is even.
    The points are checked as X_n at ambient n and, when n-1 >= b, as
    X_{m+1} at ambient m = n-1.  With ``chain_5_3_check`` this gives
    Theorem 3 (see the module docstring).
    """
    p = as_pairs(pts)
    if len(p) != n:
        raise ValueError("need n points")
    if not distinct(p):
        raise ValueError("requires pairwise distinct points")
    # IndexSets rejects a, b of unequal parity and n < b
    ok = _lemma10_identity(a, b, n, p)
    if n - 1 >= b:
        ok = ok and _lemma10_identity(a, b, n - 1, p)
    return ok


# ---------------------------------------------------------------------------
# the work of each check at seeded points, in closed form; those that one
# process reaches again with the same arguments priced once
# (``core.cached_work``)
# ---------------------------------------------------------------------------

def _rect_product_work(a: int, b: int, sizes: Sequence[int]) -> Work:
    ra, rb, rc = _rectangle_sides(a, b)
    return total(*(schur_work(w, r, L) for (w, r), L in zip((ra, rb, rb, rc), sizes)))


@cached_work
def theorem3_work(a: int, b: int, n: int) -> Work:
    """The work of ``theorem3_lhs`` and ``theorem3_rhs`` at n+1 points."""
    return total(rab_sum_work(a, b, n + 1, n), _rect_product_work(a, b, (n, n, n + 1, n + 1)))


@cached_work
def conjecture5_work(a: int, b: int, n: int) -> Work:
    """The work of ``conjecture5_check`` at n+2 points."""
    return total(rab_sum_work(a, b, n + 2, n), _rect_product_work(a, b, (n, n + 1, n + 1, n + 2)))


@cached_work
def _paired_pfaffian_work(points: int, border: int, E: int) -> Work:
    """The work of ``_lemma10_identity``'s Pfaffian on L = ``points``
    rows of E-bit moments and t = ``border`` columns paired with them, K =
    L + t even and t <= L (Lemma 10 chooses the border so, for every b >=
    0: it pairs ambient-b or ambient-b+1 columns with ambient or ambient+1
    points).  An entry after step u is a Pfaffian over the indices taken
    and two more, 0 when it has more columns than points: a paired step
    leaves C(L-u, 2) + (L-u)(t-u) nonzero entries, a point step after the
    pairs C(L+t-2u, 2).
    Instrumented runs show them near 2E bits at first, growing 2E/5 a
    paired step and 5E/4 a point step.  Past 300 bits a step (CPython
    multiplies past 70 digits by Karatsuba's method) the time per bit
    squared fell as the cube root of 300 / E in timings at 200 to 9600
    bits a step."""
    L, t, K = points, border, points + border
    # twice the paired steps' entries, (L-u)(L+2t-1-3u), of (E/5)(2u+10) bits
    paired = poly_sum(poly_mul((L * (L + 2 * t - 1), 1 - 4 * L - 2 * t, 3), (100, 40, 4)), 1, t)
    grown = (40 - 17 * t, 25)  # a point step's entries, of (E/20)(25u+40-17t) bits
    point = poly_sum(poly_mul((K * (K - 1) // 2, 1 - 2 * K, 2), poly_mul(grown, grown)), t + 1, K // 2)
    digit = E * E * (8 * paired + point) // 100
    if E > 300:  # past 10**12 bits a step the estimate is far over any budget
        digit = digit * 300 // round((min(E, 10 ** 12) * 300 ** 2) ** (1 / 3))
    return {"call": 1, "step": elimination_work(K, 0, True)["step"], "pfaffian_digit": digit}


def _n_block_work(rows: int, cols: int, E: int) -> Work:
    """The work of ``_n_block`` on rows x cols entries of E-bit points: a
    call and two E-bit products an entry."""
    return {"call": rows * cols, "digit": 2 * rows * cols * product_digits(E, E)}


@cached_work
def chain53_work(a: int, b: int, n: int) -> Work:
    """The work of ``chain_5_3_check`` at n+1 points: the R(a,b) sum, the
    (n+1) x n entries of N and the moment rows, of E = (n+a) _POINT_BITS
    bits, the m^2 entries of C, m = 2n-b+1, and its determinant.  That runs
    ``elimination_work``'s loop, (m-u)^2 updates at step u, each on minors
    of order u, but its bits are priced as instrumented runs show them, not
    at Hadamard's bound.  Over the first c = 2n-2b+1 steps each adds a
    point to the minors (of X_{n+1} with a column of M_Q, or of X_n with a
    column of M_R), and they came to about (u+1) E/2 bits; over the last
    b-1 each adds a point of both alphabets, and they grew 3E/2 a step, to
    (3u+1-2c) E/2 bits.  At the seed-0 points of 28 shapes with n from 6 to
    50 the loop's operand bits squared (``Counted.product_bits``) came to
    0.80-1.12 of this form's.  ``digit``'s weight was fitted to
    eliminations priced at Hadamard's bound, which at 2E bits an entry
    comes to 2-15 times these bits squared at n = 20..40.  At the bits
    measured an update's two products and exact division are priced at
    9/2 of its operands' bits squared: that put the inputs of
    BENCH_28.json that spend most of their estimate here at 0.62-0.94 of
    it (at 3, one an operation, at 0.92-1.39)."""
    E, m = (n + a) * _POINT_BITS, 2 * n - b + 1
    c, to_m = m - b, (m * m, -2 * m, 1)  # (m-u)^2 updates at step u
    # 4/E^2 times each update's operand bits squared, over both stretches
    grown = (poly_sum(poly_mul(to_m, (1, 2, 1)), 1, c)
             + poly_sum(poly_mul(to_m, poly_mul((1 - 2 * c, 3), (1 - 2 * c, 3))), c + 1, m - 1))
    determinant = {"call": 1, "step": elimination_work(m, 0)["step"], "digit": 9 * E * E * grown // 8}
    return total(rab_sum_work(a, b, n + 1, n), determinant, _n_block_work(n + 1, n, E),
                 {"product": 2 * (2 * n + 1) * (n + a + 1) + m * m})


def _lemma10_identity_work(a: int, b: int, ambient: int, L: int) -> Work:
    """The work of ``_lemma10_identity`` on L points: the L^2 entries of N,
    of E = (ambient+a) _POINT_BITS bits, the t border columns, the Pfaffian
    of size L+t and the two rectangles."""
    t = ambient - b + (L + ambient - b) % 2  # |R|, or |Q| = |R| + 1
    E, K = (ambient + a) * _POINT_BITS, L + t
    (w, r), (w2, r2) = _rectangle_sides(a, b)[L - ambient:L - ambient + 2]
    return total(_paired_pfaffian_work(L, t, E), schur_work(w, r, L), schur_work(w2, r2, L),
                 _n_block_work(L, L, E), {"product": 2 * L * t + K * K})


@cached_work
def lemma10_work(a: int, b: int, n: int) -> Work:
    """The work of ``lemma10_check`` at n points: one alphabet, or two."""
    work = _lemma10_identity_work(a, b, n, n)
    return total(work, _lemma10_identity_work(a, b, n - 1, n)) if n - 1 >= b else work


@cached_work
def minor_summation_work(n: int, p: int, q: int, bits: int) -> Work:
    """The work of ``minor_summation`` on G (n x p), H (n x q) and A of
    ``bits``-bit entries: a sub-Pfaffian and a determinant for each of the
    C(p, n-q) column sets, G A G^T and the bordered Pfaffian."""
    subsets = binomial(p, n - q)
    each = total(elimination_work(n - q, bits, True), elimination_work(n, bits), times=subsets)
    return total(each, elimination_work(n + q, 2 * bits + p.bit_length(), True),
                 {"product": n * p * (n + p)})


@cached_work
def lemma9_work(n: int, bits: int) -> Work:
    """The work of ``lemma9_check`` on A (n x n) and borders of ``bits``-bit
    entries: the bordered determinant and, at most, two Pfaffians."""
    return total(elimination_work(n + 1, bits), elimination_work(n + 2, bits, True),
                 elimination_work(n + 1, bits, True), {"product": (n + 2) ** 2})
