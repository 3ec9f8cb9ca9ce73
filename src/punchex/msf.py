"""Pfaffian summation machinery: structured index sets and matrices, the
minor summation formula, and the determinant/Pfaffian evaluation chain
connecting the partition-pair sums to closed products.

The central identity (``minor_summation``): for G (n x p), H (n x q) with
n + q even and 0 <= n - q <= p, and any skew-symmetric A (p x p),

    sum_K Pf(A^K_K) det(G_K | H) = (-1)^(q(q-1)/2) Pf([[G A G^T, H], [-H^T, 0]]),

K running over (n-q)-subsets of the columns of G.  Applied to block
moment matrices over two nested point sets and a fixed skew matrix of
+-1 entries, it turns the sum over R(a,b) of products of Schur values
into a single Pfaffian (``chain_5_3_check``); ``lemma9_check`` and
``lemma10_check`` verify the factorizations that evaluate that Pfaffian,
and ``theorem3_lhs`` / ``theorem3_rhs`` state the resulting closed-form
identity.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, List, Sequence, Tuple

from .core import (
    ExactMatrix,
    Partition,
    determinant,
    matmul,
    pfaffian,
    pfaffian_minor,
    transpose,
)
from .symfun import (
    as_points,
    distinct,
    generate_rab,
    schur_eval,
    vandermonde_product,
)


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
        self.Gamma = [g for g in range(0, a + b + 1) if g != s]
        self.P = [n - b + g for g in self.Gamma]
        self.Q = list(range(0, n - b)) + [n - b + s]
        self.R = list(range(0, n - b))

    def __repr__(self) -> str:
        return f"IndexSets(a={self.a}, b={self.b}, n={self.n})"


def moment_matrix(I: Sequence[int], pts: Iterable) -> ExactMatrix:
    """len(pts) x len(I) matrix with (k, l) entry pts_k ** I_l."""
    exps = list(I)
    if any(e < 0 for e in exps):
        raise ValueError("moment matrix exponents must be nonnegative")
    points = as_points(pts)
    return [[x ** e for e in exps] for x in points]


def structured_skew(a: int, b: int) -> ExactMatrix:
    """The fixed skew matrix A on Gamma + barred-Gamma (unbarred block
    first, both blocks in ascending order).

    Its only nonzero entries pair k with bar(a+b-k): +1 for k <= (a+b)/2 - 1
    and -1 for k >= (a+b)/2 + 1, making A = [[0, B], [B, 0]] with B skew.
    """
    if a < 1 or b < 1 or a % 2 != b % 2:
        raise ValueError("structured skew matrix requires positive same-parity a, b")
    s = (a + b) // 2
    gamma = [g for g in range(0, a + b + 1) if g != s]
    pos = {g: i for i, g in enumerate(gamma)}
    p = len(gamma)
    m = [[Fraction(0)] * (2 * p) for _ in range(2 * p)]
    for k in gamma:
        val = Fraction(1) if k <= s - 1 else Fraction(-1)
        i = pos[k]
        j = p + pos[a + b - k]
        m[i][j] = val
        m[j][i] = -val
    return m


def _block_diag(top: ExactMatrix, bottom: ExactMatrix) -> ExactMatrix:
    tc = len(top[0]) if top else 0
    bc = len(bottom[0]) if bottom else 0
    out = []
    for row in top:
        out.append(list(row) + [Fraction(0)] * bc)
    for row in bottom:
        out.append([Fraction(0)] * tc + list(row))
    return out


def _skew_border(m: ExactMatrix, cols: ExactMatrix) -> ExactMatrix:
    """[[m, cols], [-cols^T, 0]] — skew whenever m is."""
    n = len(m)
    t = len(cols[0]) if n and cols else 0
    out = []
    for r in range(n):
        out.append(list(m[r]) + list(cols[r]))
    for i in range(t):
        out.append([-cols[r][i] for r in range(n)] + [Fraction(0)] * t)
    return out


def build_msf_instance(a: int, b: int, n: int, pts1: Iterable, pts0: Iterable):
    """The (G, H, A) triple feeding the minor summation formula.

    G = diag(M_P(X_{n+1}), M_P(X_n)), H = diag(M_Q(X_{n+1}), M_R(X_n)),
    A the structured skew matrix; pts1 supplies the n+1 values of X_{n+1}
    and pts0 the n values of X_n.
    """
    p1 = as_points(pts1)
    p0 = as_points(pts0)
    if len(p1) != n + 1 or len(p0) != n:
        raise ValueError("need n+1 points for X_{n+1} and n points for X_n")
    sets = IndexSets(a, b, n)
    G = _block_diag(moment_matrix(sets.P, p1), moment_matrix(sets.P, p0))
    H = _block_diag(moment_matrix(sets.Q, p1), moment_matrix(sets.R, p0))
    return G, H, structured_skew(a, b)


# ---------------------------------------------------------------------------
# the minor summation formula
# ---------------------------------------------------------------------------

def minor_summation(G: ExactMatrix, H: ExactMatrix, A: ExactMatrix) -> Tuple[Fraction, Fraction]:
    """Both sides of the minor summation identity, computed independently.

    Left: sum over (n-q)-subsets K of columns of G of
    Pf(A^K_K) * det(G_K | H).  Right: (-1)^(q(q-1)/2) times the Pfaffian
    of [[G A G^T, H], [-H^T, 0]].  Preconditions: n + q even and
    0 <= n - q <= p.
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

    lhs = Fraction(0)
    for K in combinations(range(p), n - q):
        pf = pfaffian_minor(A, K)
        if pf == 0:
            continue
        block = [[G[r][k] for k in K] + list(H[r]) for r in range(n)]
        lhs += pf * determinant(block)

    gag = matmul(matmul(G, A), transpose(G))
    rhs_pf = pfaffian(_skew_border(gag, H))
    sign = -1 if (q * (q - 1) // 2) % 2 else 1
    return lhs, sign * rhs_pf


def sub_pfaffian_sign(K: Sequence[int], a: int, b: int) -> int:
    """Pfaffian of the K x K principal submatrix of the structured skew
    matrix, evaluated by the pairing rule instead of elimination.

    K holds 0-based positions into the Gamma + barred-Gamma ordering.  The
    value is 0 unless K picks equally many unbarred values j_1 < ... < j_m
    and barred values j'_1 < ... < j'_m with j_h + j'_{m+1-h} = a+b for
    every h; in that case it is (-1)^(number of j_h >= (a+b)/2 + 1).
    """
    s = (a + b) // 2
    gamma = [g for g in range(0, a + b + 1) if g != s]
    p = len(gamma)
    idx = tuple(sorted(K))
    for t, i in enumerate(idx):
        if not 0 <= i < 2 * p:
            raise ValueError(f"position {i} out of range")
        if t > 0 and idx[t - 1] == i:
            raise ValueError("positions must be distinct")
    unbarred = [gamma[i] for i in idx if i < p]
    barred = [gamma[i - p] for i in idx if i >= p]
    m = len(unbarred)
    if m != len(barred):
        return 0
    for h in range(m):
        if unbarred[h] + barred[m - 1 - h] != a + b:
            return 0
    return -1 if sum(1 for j in unbarred if j >= s + 1) % 2 else 1


def lemma9_check(A: ExactMatrix, bvec: Sequence, cvec: Sequence, d) -> bool:
    """Verify the bordered-determinant factorization of a skew matrix.

    With A_tilde = [[A, b], [-c^T, d]]:
      n even:  det(A_tilde) = -Pf(A) * Pf([[A, b, c], [-b^T, 0, -d], [-c^T, d, 0]])
      n odd:   det(A_tilde) = Pf([[A, b], [-b^T, 0]]) * Pf([[A, c], [-c^T, 0]])
    """
    n = len(A)
    bcol = [Fraction(x) for x in bvec]
    ccol = [Fraction(x) for x in cvec]
    dval = Fraction(d)
    if len(bcol) != n or len(ccol) != n:
        raise ValueError("border vectors must have length n")
    tilde = [list(A[r]) + [bcol[r]] for r in range(n)]
    tilde.append([-x for x in ccol] + [dval])
    det_tilde = determinant(tilde)
    if n % 2 == 0:
        big = [list(A[r]) + [bcol[r], ccol[r]] for r in range(n)]
        big.append([-x for x in bcol] + [Fraction(0), -dval])
        big.append([-x for x in ccol] + [dval, Fraction(0)])
        return det_tilde == -pfaffian(A) * pfaffian(big)
    pf_b = pfaffian(_skew_border(A, [[x] for x in bcol]))
    pf_c = pfaffian(_skew_border(A, [[x] for x in ccol]))
    return det_tilde == pf_b * pf_c


# ---------------------------------------------------------------------------
# the summation identities
# ---------------------------------------------------------------------------

def _rect(s: int, m: int) -> Partition:
    return Partition([s] * m)


def theorem3_lhs(a: int, b: int, n: int, pts1: Iterable, pts0: Iterable) -> Fraction:
    """sum over (lambda, mu) in R(a,b) of s_lambda(X_{n+1}) * s_mu(X_n).

    pts0 must be the first n values of pts1 (X_n is a sub-alphabet of
    X_{n+1}).
    """
    p1 = as_points(pts1)
    p0 = as_points(pts0)
    if len(p1) != n + 1 or len(p0) != n:
        raise ValueError("need n+1 points for X_{n+1} and n points for X_n")
    if p0 != p1[:n]:
        raise ValueError("pts0 must be the first n values of pts1")
    total = Fraction(0)
    for pair in generate_rab(a, b):
        total += schur_eval(pair.lam, p1) * schur_eval(pair.mu, p0)
    return total


def theorem3_rhs(a: int, b: int, n: int, pts1: Iterable, pts0: Iterable) -> Fraction:
    """Product of four rectangular Schur values equal to theorem3_lhs:

    s_((ceil((a+1)/2))^(floor(b/2)))(X_n) * s_((ceil(a/2))^(ceil(b/2)))(X_n)
    * s_((ceil(a/2))^(ceil(b/2)))(X_{n+1}) * s_((floor(a/2))^(ceil((b+1)/2)))(X_{n+1})
    """
    p1 = as_points(pts1)
    p0 = as_points(pts0)
    if len(p1) != n + 1 or len(p0) != n:
        raise ValueError("need n+1 points for X_{n+1} and n points for X_n")
    if p0 != p1[:n]:
        raise ValueError("pts0 must be the first n values of pts1")
    if a % 2 != b % 2:
        raise ValueError("requires a and b of equal parity")
    return (
        schur_eval(_rect((a + 2) // 2, b // 2), p0)
        * schur_eval(_rect((a + 1) // 2, (b + 1) // 2), p0)
        * schur_eval(_rect((a + 1) // 2, (b + 1) // 2), p1)
        * schur_eval(_rect(a // 2, (b + 2) // 2), p1)
    )


def conjecture5_check(a: int, b: int, n: int, pts2: Iterable) -> bool:
    """Exact-evaluation verdict on the two-extra-variables analogue.

    Compares sum over R(a,b) of s_lambda(X_{n+2}) * s_mu(X_n) with

      s_((ceil((a+1)/2))^(floor(b/2)))(X_n)
      * s_((ceil(a/2))^(ceil(b/2)))(X_n + {x_{n+1}})
      * s_((ceil(a/2))^(ceil(b/2)))(X_n + {x_{n+2}})
      * s_((floor(a/2))^(ceil((b+1)/2)))(X_{n+2})

    where pts2 supplies x_1..x_{n+2}.  This equality is unproven in
    general; the function reports whether it holds at the given points.
    """
    p2 = as_points(pts2)
    if len(p2) != n + 2:
        raise ValueError("need n+2 points")
    if a % 2 != b % 2:
        raise ValueError("requires a and b of equal parity")
    p0 = p2[:n]
    with_x1 = p0 + (p2[n],)
    with_x2 = p0 + (p2[n + 1],)
    lhs = Fraction(0)
    for pair in generate_rab(a, b):
        lhs += schur_eval(pair.lam, p2) * schur_eval(pair.mu, p0)
    rhs = (
        schur_eval(_rect((a + 2) // 2, b // 2), p0)
        * schur_eval(_rect((a + 1) // 2, (b + 1) // 2), with_x1)
        * schur_eval(_rect((a + 1) // 2, (b + 1) // 2), with_x2)
        * schur_eval(_rect(a // 2, (b + 2) // 2), p2)
    )
    return lhs == rhs


def chain_5_3_check(a: int, b: int, n: int, pts1: Iterable, pts0: Iterable) -> bool:
    """Verify the Pfaffian evaluation of the R(a,b) sum:

    sum s_lambda(X_{n+1}) s_mu(X_n)
      = (-1)^(bn + n - b) / (Delta(X_{n+1}) Delta(X_n))
        * Pf([[G A G^T, H], [-H^T, 0]])

    with (G, H, A) from build_msf_instance.  Needs pairwise distinct
    points (the right side divides by both Vandermonde products).
    """
    p1 = as_points(pts1)
    p0 = as_points(pts0)
    if not distinct(p1) or not distinct(p0):
        raise ValueError("requires pairwise distinct points")
    if p0 != p1[:n]:
        raise ValueError("pts0 must be the first n values of pts1")
    G, H, A = build_msf_instance(a, b, n, p1, p0)
    gag = matmul(matmul(G, A), transpose(G))
    pf = pfaffian(_skew_border(gag, H))
    sign = -1 if (b * n + n - b) % 2 else 1
    rhs = sign * pf / (vandermonde_product(p1) * vandermonde_product(p0))
    return theorem3_lhs(a, b, n, p1, p0) == rhs


# ---------------------------------------------------------------------------
# closed evaluation of the four structured moment-matrix Pfaffians
# ---------------------------------------------------------------------------

def _n_entry(x, y, s: int, shift: int) -> Fraction:
    """(x y)^shift * (y^(s+1) - x^(s+1)) * sum_{r<s} x^r y^(s-1-r)."""
    acc = Fraction(0)
    for r in range(s):
        acc += x ** r * y ** (s - 1 - r)
    return (x ** shift) * (y ** shift) * (y ** (s + 1) - x ** (s + 1)) * acc


def _n_matrix(pts, s: int, shift: int) -> ExactMatrix:
    return [[_n_entry(x, y, s, shift) for y in pts] for x in pts]


def _interval_moment(pts, lo: int, hi: int) -> List[List[Fraction]]:
    if hi < lo:
        return [[] for _ in pts]
    return moment_matrix(list(range(lo, hi + 1)), pts)


def _hstack_det(pts, intervals) -> Fraction:
    cols: List[List[Fraction]] = [[] for _ in pts]
    for lo, hi in intervals:
        block = _interval_moment(pts, lo, hi)
        for r, row in enumerate(block):
            cols[r].extend(row)
    return determinant(cols)


def _lemma10_first(a: int, b: int, n: int, pts) -> bool:
    """Identity for the Pfaffian over X_n at ambient n (needs n >= b)."""
    s = (a + b) // 2
    sets = IndexSets(a, b, n)
    N = _n_matrix(pts, s, n - b)
    if b % 2 == 0:
        lhs = pfaffian(_skew_border(N, moment_matrix(sets.R, pts)))
        e = b * (n - b) + (n - b) * (n - b - 1) // 2
        d1 = _hstack_det(
            pts, [(0, n - b // 2 - 1), (n + a // 2 - b // 2, n + a // 2 - 1)]
        )
        d2 = _hstack_det(
            pts, [(0, n - b // 2 - 1), (n + a // 2 - b // 2 + 1, n + a // 2)]
        )
    else:
        lhs = pfaffian(_skew_border(N, moment_matrix(sets.Q, pts)))
        e = (b - 1) * (n - b) + (b - 1) // 2 + (n - b + 1) * (n - b) // 2
        d1 = _hstack_det(
            pts,
            [(0, n - (b - 1) // 2 - 1), (n + (a + 1) // 2 - (b - 1) // 2, n + (a + 1) // 2 - 1)],
        )
        d2 = _hstack_det(
            pts,
            [(0, n - (b + 1) // 2 - 1), (n + (a + 1) // 2 - (b + 1) // 2, n + (a + 1) // 2 - 1)],
        )
    sign = -1 if e % 2 else 1
    return lhs == sign * d1 * d2 / vandermonde_product(pts)


def _lemma10_second(a: int, b: int, m: int, pts) -> bool:
    """Identity for the Pfaffian over X_{m+1} at ambient m (needs m >= b)."""
    s = (a + b) // 2
    sets = IndexSets(a, b, m)
    N = _n_matrix(pts, s, m - b)
    if b % 2 == 0:
        lhs = pfaffian(_skew_border(N, moment_matrix(sets.Q, pts)))
        e = b * (m - b) + b // 2 + (m - b + 1) * (m - b) // 2
        d1 = _hstack_det(pts, [(0, m - b // 2), (m + a // 2 - b // 2 + 1, m + a // 2)])
        d2 = _hstack_det(pts, [(0, m - b // 2 - 1), (m + a // 2 - b // 2, m + a // 2)])
    else:
        lhs = pfaffian(_skew_border(N, moment_matrix(sets.R, pts)))
        e = (b + 1) * (m - b) + (m - b) * (m - b - 1) // 2
        d1 = _hstack_det(
            pts,
            [(0, m - (b + 1) // 2), (m + (a - 1) // 2 - (b + 1) // 2 + 1, m + (a - 1) // 2)],
        )
        d2 = _hstack_det(
            pts,
            [(0, m - (b + 1) // 2), (m + (a + 1) // 2 - (b + 1) // 2 + 1, m + (a + 1) // 2)],
        )
    sign = -1 if e % 2 else 1
    return lhs == sign * d1 * d2 / vandermonde_product(pts)


def lemma10_check(a: int, b: int, n: int, pts: Iterable) -> bool:
    """Verify the closed evaluations of the structured Pfaffians at the
    given n distinct points.

    There is one identity per parity combination of (a, b): one for the
    Pfaffian built on X_n (checked at ambient n), one for the Pfaffian
    built on X_{n+1} (checked here with pts as X_{m+1}, ambient m = n-1;
    it needs m >= b, so for n == b only the first identity applies).
    """
    p = as_points(pts)
    if len(p) != n:
        raise ValueError("need n points")
    if not distinct(p):
        raise ValueError("requires pairwise distinct points")
    if a % 2 != b % 2:
        raise ValueError("requires a and b of equal parity")
    if n < b:
        raise ValueError("requires n >= b")
    ok = _lemma10_first(a, b, n, p)
    if n - 1 >= b:
        ok = ok and _lemma10_second(a, b, n - 1, p)
    return ok


def n_matrix_entry_check(a: int, b: int, xs: Iterable, ys: Iterable) -> bool:
    """Confirm entrywise that M_P(X) B M_P(Y)^T matches the closed entry
    formula, with the exponent n-b taken from n = len(xs).

    B is the off-diagonal block of the structured skew matrix.  Requires
    x_i != y_j throughout (the closed form is the divided difference
    (y^s - x^s)(y^(s+1) - x^(s+1)) / (y - x) cleared of its denominator).
    """
    x = as_points(xs)
    y = as_points(ys)
    n = len(x)
    for xi in x:
        for yj in y:
            if xi == yj:
                raise ValueError("requires x_i != y_j for all pairs")
    sets = IndexSets(a, b, n)
    s = (a + b) // 2
    p = len(sets.Gamma)
    B = [row[p:] for row in structured_skew(a, b)[:p]]
    mx = moment_matrix(sets.P, x)
    my = moment_matrix(sets.P, y)
    product = matmul(matmul(mx, B), transpose(my))
    for i in range(len(x)):
        for j in range(len(y)):
            if product[i][j] != _n_entry(x[i], y[j], s, n - b):
                return False
    return True
