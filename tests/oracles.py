"""Oracles and instance builders that no command runs, kept for the
tests: they check the kernels the package does run (``punchex.core``'s
integer eliminations, ``symfun``'s Schur values, ``msf``'s identities)
against definitions written out directly."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod
from typing import Iterable, List, Sequence, Tuple

from punchex import msf
from punchex.core import ExactMatrix, Partition, SkewMatrix, conjugate, matmul, pfaffian
from punchex.msf import IndexSets
from punchex.symfun import (_DRAW_MAX, EvalPoint, RabIndex, RabPair, _check_rab, _colex_subsets,
                            _elementary_all, as_pairs, as_points, schur_eval)

def transpose(m: ExactMatrix) -> ExactMatrix:
    return [list(row) for row in zip(*m)] if m else []


def pfaffian_minor(m: SkewMatrix, K: Sequence[int]) -> Fraction:
    """Pfaffian of the principal submatrix of ``m`` on rows/columns ``K``.

    ``K`` is a strictly increasing sequence of 0-based indices.  The empty
    subset gives the empty Pfaffian, 1.
    """
    idx: Tuple[int, ...] = tuple(K)
    n = len(m)
    for t, i in enumerate(idx):
        if not 0 <= i < n:
            raise ValueError(f"index {i} out of range for {n}x{n} matrix")
        if t > 0 and idx[t - 1] >= i:
            raise ValueError("index subset must be strictly increasing")
    sub = [[m[r][c] for c in idx] for r in idx]
    return pfaffian(sub)


def elementary_sym(s: int, pts: Iterable) -> Fraction:
    """e_s evaluated at pts; e_0 = 1 and e_s = 0 outside 0 <= s <= n."""
    p = as_pairs(pts)
    if s < 0 or s > len(p):
        return Fraction(0)
    ev = _elementary_all(p)
    return Fraction(ev[s], ev[0])


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
    and -1 for k >= (a+b)/2 + 1, making A = [[0, B], [B, 0]] with B skew
    (``_pairing``).
    """
    if a < 1 or b < 1 or a % 2 != b % 2:
        raise ValueError("structured skew matrix requires positive same-parity a, b")
    p = a + b
    m = [[Fraction(0)] * (2 * p) for _ in range(2 * p)]
    for i, v in enumerate(msf._pairing(a, b)):
        m[i][2 * p - 1 - i], m[2 * p - 1 - i][i] = Fraction(v), Fraction(-v)
    return m


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
    G = msf._block_diag(moment_matrix(sets.P, p1), moment_matrix(sets.P, p0))
    H = msf._block_diag(moment_matrix(sets.Q, p1), moment_matrix(sets.R, p0))
    return G, H, structured_skew(a, b)


def sub_pfaffian_sign(K: Sequence[int], a: int, b: int) -> int:
    """Pfaffian of the K x K principal submatrix of the structured skew
    matrix, evaluated by the pairing rule instead of elimination.

    K holds 0-based positions into the Gamma + barred-Gamma ordering, p =
    a+b in each block.  The value is 0 unless K picks equally many
    unbarred positions i_1 < ... < i_m and barred positions p + i'_1 < ...
    < p + i'_m with each i_h paired with i'_(m+1-h) = p-1-i_h; in that case
    it is the product of the pairs' entries, -1 for each i_h >= p/2
    (``_pairing``).
    """
    p = a + b
    idx = tuple(sorted(K))
    for t, i in enumerate(idx):
        if not 0 <= i < 2 * p:
            raise ValueError(f"position {i} out of range")
        if t > 0 and idx[t - 1] == i:
            raise ValueError("positions must be distinct")
    unbarred = [i for i in idx if i < p]
    barred = [i - p for i in idx if i >= p]
    paired = barred == [p - 1 - i for i in reversed(unbarred)]
    return prod(msf._pairing(a, b)[i] for i in unbarred) if paired else 0


def n_matrix_entry_check(a: int, b: int, xs: Iterable, ys: Iterable) -> bool:
    """Confirm entrywise that M_P(X) B M_P(Y)^T matches the closed entry
    formula, with the exponent n-b taken from n = len(xs).

    B is the off-diagonal block of the structured skew matrix.  Both sides
    are compared scaled by (q_i v_j)^(n+a), x_i = p_i / q_i, y_j = u_j / v_j:
    ``_n_block``'s entries against ``_scaled_n_entry``, both read from the
    points' (p, q) pairs.  Requires x_i != y_j throughout (the closed form
    is the divided difference (y^s - x^s)(y^(s+1) - x^(s+1)) / (y - x)
    cleared of its denominator).
    """
    x = as_pairs(xs)
    y = as_pairs(ys)
    n = len(x)
    for xi in x:
        for yj in y:
            if xi == yj:
                raise ValueError("requires x_i != y_j for all pairs")
    s = (a + b) // 2
    product = msf._n_block(a, b, n, x, y)
    for i in range(len(x)):
        for j in range(len(y)):
            if product[i][j] != msf._scaled_n_entry(x[i], y[j], s, n - b):
                return False
    return True


def seeded_points_by_fractions(count: int, seed: int) -> EvalPoint:
    """``symfun.seeded_points`` as it was first written: each draw p/q made
    a ``Fraction`` and checked against a set of the ``Fraction``s kept."""
    rng = random.Random(seed)
    out = []
    seen = set()
    while len(out) < count:
        x = Fraction(rng.randint(1, _DRAW_MAX), rng.randint(1, _DRAW_MAX))
        if x not in seen:
            seen.add(x)
            out.append(x)
    return tuple(out)


def lemma8_check_by_lists(pair: RabPair) -> bool:
    """``symfun.lemma8_check`` as it was first written, J and J' built as
    lists by Python loops: (a+b)/2 in J, J' = {a+b-j : j in J, j != (a+b)/2},
    and J (b+1 entries) and J' (b) each without repeats."""
    a, b = pair.source.a, pair.source.b
    s = (a + b) // 2
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


def generate_rab_by_pairs(a: int, b: int) -> List[RabPair]:
    """``symfun.generate_rab`` as it was first written: each pair's two
    conjugate shapes built from its whole index vector, validated as
    ``Partition``s and conjugated on their own."""
    out = []
    for k, i in _index_vectors(a, b):
        lam_conj, mu_conj = _conjugate_shapes(a, b, k, i)
        out.append(RabPair(conjugate(Partition(lam_conj)), conjugate(Partition(mu_conj)),
                           RabIndex(a, b, k, i)))
    return out


# ---------------------------------------------------------------------------
# the identity verdicts as first decided: each side a Fraction, compared by ==
# ---------------------------------------------------------------------------
# Each reads ``msf._rab_sum``, ``msf._rectangles`` and ``msf._vandermonde``
# and this module's ``pfaffian`` at call time, as the checks they mirror
# read their own names, so one corruption can be patched into both.

def _rab_sum_by_fractions(a: int, b: int, big: Iterable, small: Iterable) -> Fraction:
    return Fraction(*msf._rab_sum(a, b, as_pairs(big), as_pairs(small)))


def _vandermonde_by_fractions(pts: Iterable) -> Fraction:
    return Fraction(*msf._vandermonde(as_pairs(pts)))


def _rect_product_by_fractions(a: int, b: int, xa, xb1, xb2, xc) -> Fraction:
    """s_{R_A}(xa) s_{R_B}(xb1) s_{R_B}(xb2) s_{R_C}(xc), a product of Fractions."""
    ra, rb, rc = msf._rectangles(a, b)
    return schur_eval(ra, xa) * schur_eval(rb, xb1) * schur_eval(rb, xb2) * schur_eval(rc, xc)


def theorem3_check_by_fractions(a: int, b: int, n: int, pts1: Iterable, pts0: Iterable) -> bool:
    p1, p0 = as_points(pts1), as_points(pts0)
    return _rab_sum_by_fractions(a, b, p1, p0) == _rect_product_by_fractions(a, b, p0, p0, p1, p1)


def conjecture5_check_by_fractions(a: int, b: int, n: int, pts2: Iterable) -> bool:
    p2 = as_points(pts2)
    p0 = p2[:n]
    return _rab_sum_by_fractions(a, b, p2, p0) == _rect_product_by_fractions(
        a, b, p0, p0 + (p2[n],), p0 + (p2[n + 1],), p2)


def chain53_check_by_fractions(a: int, b: int, n: int, pts1: Iterable, pts0: Iterable) -> bool:
    """The R(a,b) sum against (-1)^(bn + n - b) Pf([[G A G^T, H], [-H^T, 0]])
    / (Delta(X_{n+1}) Delta(X_n)), the Pfaffian taken over Fractions of the
    unscaled matrices of ``build_msf_instance``."""
    G, H, A = build_msf_instance(a, b, n, pts1, pts0)
    sign = -1 if (b * n + n - b) % 2 else 1
    pf = pfaffian(msf._skew_border(matmul(matmul(G, A), transpose(G)), H))
    rhs = sign * pf / (_vandermonde_by_fractions(pts1) * _vandermonde_by_fractions(pts0))
    return _rab_sum_by_fractions(a, b, pts1, pts0) == rhs


def lemma10_check_by_fractions(a: int, b: int, n: int, pts: Iterable) -> bool:
    """Lemma 10 at ambient n and, when n-1 >= b, n-1, as ``msf.lemma10_check``
    states it: Pf([[N, M], [-M^T, 0]]) = (-1)^e Delta(X) s_R(X) s_R'(X), the
    Pfaffian taken over Fractions of N = M_P(X) B M_P(X)^T, B the block of
    ``structured_skew``, and M the moment columns of R or Q."""
    x = as_points(pts)
    p = a + b
    B = [row[p:] for row in structured_skew(a, b)[:p]]
    for ambient in (n, n - 1) if n - 1 >= b else (n,):
        sets = IndexSets(a, b, ambient)
        border = sets.R if (n + len(sets.R)) % 2 == 0 else sets.Q
        t = len(border)
        e = (n - t) * t + t * (t - 1) // 2 + ((n - t) // 2 if border is sets.Q else 0)
        MP = moment_matrix(sets.P, x)
        N = matmul(matmul(MP, B), transpose(MP))
        lhs = pfaffian(msf._skew_border(N, moment_matrix(border, x)))
        R, R2 = msf._rectangles(a, b)[n - ambient:n - ambient + 2]
        rhs = _vandermonde_by_fractions(x) * schur_eval(R, x) * schur_eval(R2, x)
        if lhs != (-rhs if e % 2 else rhs):
            return False
    return True
