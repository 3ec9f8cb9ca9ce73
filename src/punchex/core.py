"""Exact arithmetic substrate: integers, rationals, partitions, dense
matrices, determinants and Pfaffians.

Everything downstream (closed-form counts, lattice-path determinants,
symmetric-function identities) is built on the operations in this module,
so all arithmetic here is exact: Python's arbitrary-precision ``int`` and
``fractions.Fraction``.  Matrices are plain row-major lists of lists.

The matrix kernels (``determinant``, ``pfaffian``, ``matmul``) clear the
denominators of their input first and then work over ``int`` only, with
exact integer divisions (Bareiss elimination and its Pfaffian analogue);
each result is a ``Fraction`` built once, at the end.  Rational
elimination would instead reduce a gcd after every operation.  A caller
whose matrix is already all ``int``, or that clears the denominators
itself, calls the elimination loop under ``determinant`` or ``pfaffian``
directly: ``integer_determinant`` or ``integer_pfaffian``, which skip the
checks and the scaling.  Every determinant and Pfaffian in ``tiling``,
``symfun`` and ``msf`` is taken that way, so ``determinant``,
``pfaffian`` and ``matmul`` are the validating entry points of the
public API and the tests' oracles.  ``elimination_work`` prices the loops;
it and the other modules' work functions are memoised by ``cached_work``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache, wraps
from math import comb, lcm, prod
from types import MappingProxyType
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple, Union

# Every count and evaluation is an int or a Fraction; matrices are dense
# row-major lists of lists of those scalars.
Scalar = Union[int, Fraction]
ExactMatrix = List[List[Scalar]]
# A SkewMatrix is an ExactMatrix with entry(i,j) == -entry(j,i); the
# pfaffian() entry point checks this invariant on every call.
SkewMatrix = ExactMatrix
Work = Mapping[str, int]  # a kernel's work: counts of units by name


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

class Partition(tuple):
    """An integer partition: weakly decreasing nonnegative parts.

    A tuple of its nonzero parts: trailing zeros are stripped on
    construction, so two partitions are equal iff their nonzero parts
    agree, and a partition equals the plain tuple of those parts.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        ps = list(map(int, parts))
        while ps and ps[-1] == 0:
            ps.pop()
        if any(map(int.__lt__, ps, ps[1:])):
            raise ValueError("partition parts must be weakly decreasing")
        if ps and ps[-1] < 0:
            raise ValueError("partition parts must be nonnegative")
        return super().__new__(cls, ps)

    @property
    def parts(self) -> Tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def part(self, h: int) -> int:
        """1-based part access with implicit zeros beyond the length."""
        if h < 1:
            raise IndexError("part index is 1-based")
        return self[h - 1] if h <= len(self) else 0


def conjugate(p: Sequence[int]) -> Partition:
    """Transpose the Young diagram of ``p``, a ``Partition`` or any sequence
    of parts (zero parts allowed); parts that are not weakly decreasing and
    nonnegative raise ``ValueError`` as ``Partition`` does.

    The j-th part of the conjugate is the number of parts of ``p`` that
    are >= j, so i occurs p_i - p_(i+1) times.  conjugate(conjugate(p)) == p.
    """
    parts = p if isinstance(p, (tuple, list)) else list(p)
    # grown as a tuple: the copies grow as the distinct parts times p_1, fewer
    # than a list's (built, then copied twice into a Partition) for few of them
    out: Tuple[int, ...] = ()
    below = 0
    for i in range(len(parts), 0, -1):
        x = parts[i - 1]
        if x < below:
            raise ValueError("partition parts must be "
                             + ("nonnegative" if below == 0 else "weakly decreasing"))
        out += (i,) * (x - below)
        below = x
    # weakly decreasing and positive by construction: no second validation
    return tuple.__new__(Partition, out)


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def binomial(n: int, k: int) -> int:
    """C(n, k), with the lattice-path convention C(n,k)=0 for k<0, k>n or n<0."""
    if n < 0 or k < 0 or k > n:
        return 0
    return comb(n, k)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def _cleared(v: Sequence[Scalar]) -> Tuple[int, List[int]]:
    """(d, [d*x for x in v]) with d the lcm of the denominators of v, so the
    scaled entries are ints (d = 1 for an all-int or empty v)."""
    d = lcm(*(x.denominator for x in v))
    return d, [x.numerator * (d // x.denominator) for x in v]


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Dense exact matrix product, with ``Fraction`` entries.

    Each row of ``a`` and each column of ``b`` is cleared of denominators
    first, so the dot products run over ``int`` and every entry divides
    once: (a b)_ij = (d_i a_i) . (e_j b^j) / (d_i e_j).
    """
    if a and b and len(a[0]) != len(b):
        raise ValueError("matmul: inner dimensions disagree")
    rows = [_cleared(row) for row in a]
    cols = [_cleared(col) for col in zip(*b)]
    return [
        [Fraction(sum(x * y for x, y in zip(row, col)), d * e) for e, col in cols]
        for d, row in rows
    ]


def _check_rectangular(m: ExactMatrix) -> None:
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("matrix rows have unequal lengths")


def integer_determinant(rows: List[List[int]]) -> int:
    """Determinant of a square ``int`` matrix by fraction-free (Bareiss)
    elimination, run in place: ``rows`` is overwritten.

    Each step replaces a_ij by (a_kk a_ij - a_ik a_kj) / p with p the
    previous pivot, a division that is exact by Sylvester's identity (every
    entry is then a minor of the input), so the elimination never leaves
    ``int`` and the last pivot is the determinant.  A zero pivot is replaced
    by a nonzero entry below it, flipping the sign; if there is none the
    determinant is 0.  The empty 0x0 matrix has determinant 1 (empty
    product).  The rows are not checked: ``determinant`` is the validating
    entry point for any exact matrix.
    """
    n = len(rows)
    if n == 0:
        return 1
    a = rows
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            r = next((r for r in range(k + 1, n) if a[r][k]), None)
            if r is None:
                return 0
            a[k], a[r] = a[r], a[k]
            sign = -sign
        rk = a[k]
        p = rk[k]
        for i in range(k + 1, n):
            ri = a[i]
            f = ri[k]
            for j in range(k + 1, n):
                ri[j] = (p * ri[j] - f * rk[j]) // prev
        prev = p
    return sign * a[n - 1][n - 1]


def determinant(m: ExactMatrix) -> Fraction:
    """Exact determinant of a square matrix of ``int`` or ``Fraction``
    entries.

    Row i is scaled by the lcm d_i of its denominators, so
    ``integer_determinant`` runs over ``int``; the result is
    det / prod d_i, one division at the end.  The empty 0x0 matrix has
    determinant 1.  Non-square input is rejected.
    """
    _check_rectangular(m)
    if m and len(m[0]) != len(m):
        raise ValueError("determinant requires a square matrix")
    rows = [_cleared(row) for row in m]
    return Fraction(integer_determinant([ints for _, ints in rows]),
                    prod(d for d, _ in rows))


def _check_skew(m: ExactMatrix) -> None:
    _check_rectangular(m)
    n = len(m)
    if n and len(m[0]) != n:
        raise ValueError("skew-symmetric matrix must be square")
    for i in range(n):
        if m[i][i] != 0:
            raise ValueError("skew-symmetric matrix must have zero diagonal")
        for j in range(i + 1, n):
            if m[i][j] != -m[j][i]:
                raise ValueError("matrix is not skew-symmetric")


def integer_pfaffian(rows: List[List[int]]) -> int:
    """Pfaffian of a skew-symmetric ``int`` matrix by fraction-free
    elimination, run in place: ``rows`` is overwritten.

    Step k takes the pivot p = a_{k,k+1} and replaces a_ij (i, j > k+1) by

        (p a_ij - a_ki a_{k+1,j} + a_kj a_{k+1,i}) / prev,

    prev being the previous step's pivot.  The division is exact by the
    Pfaffian form of Sylvester's identity (Knuth, "Overlapping Pfaffians"):
    each entry becomes the Pfaffian of the leading k+2 indices together
    with i and j, so the last pivot is the Pfaffian.  A zero pivot is
    replaced by swapping row and column k+1 with a later j that has
    a_kj != 0, which flips the sign; if there is none the Pfaffian is 0.
    Conventions: empty matrix -> 1; odd dimension -> 0 (its determinant
    vanishes identically).  The rows are not checked: ``pfaffian`` is the
    validating entry point for any exact matrix.
    """
    n = len(rows)
    if n % 2 == 1:
        return 0
    a = rows
    sign, prev = 1, 1
    for k in range(0, n - 1, 2):
        rk = a[k]
        if rk[k + 1] == 0:
            j = next((j for j in range(k + 2, n) if rk[j]), None)
            if j is None:
                return 0
            a[k + 1], a[j] = a[j], a[k + 1]
            for row in a:
                row[k + 1], row[j] = row[j], row[k + 1]
            sign = -sign
        rk1 = a[k + 1]
        p = rk[k + 1]
        for i in range(k + 2, n):
            ri = a[i]
            aki, ak1i = rk[i], rk1[i]
            for j in range(i + 1, n):
                v = (p * ri[j] - aki * rk1[j] + rk[j] * ak1i) // prev
                ri[j] = v
                a[j][i] = -v  # a later pivot swap moves whole rows and columns
        prev = p
    return sign * prev


def cached_work(fn: Callable[..., Work]) -> Callable[..., Work]:
    """``fn``, a pure function of ints that counts a kernel's work, priced
    once per process for each argument tuple (``functools.cache``, as
    ``symfun._elementary_all``).  Every call returns a read-only mapping,
    the cached one shared by all callers: a caller that edits a work edits
    a ``dict`` copy.  ``__wrapped__`` computes it afresh."""
    @cache
    @wraps(fn)
    def priced(*args, **kwargs) -> Work:
        return MappingProxyType(fn(*args, **kwargs))
    return priced


@cached_work
def elimination_work(n: int, bits: int, pfaffian: bool = False) -> Work:
    """The work of ``integer_determinant`` (``integer_pfaffian``) on n x n
    entries of ``bits`` bits, in closed form: ``step``, the operations on
    entries (3 an update of the loop, 4 for the Pfaffian), and ``digit``
    (``pfaffian_digit``), their operands' bits squared.  After step k an
    entry is a minor of order k+1 (a Pfaffian of order 2k+2), of at most
    (k+1) (bits + log2(n)/2) bits by Hadamard's inequality; the
    determinant's step j-1 updates (n-j)^2 entries, and the Pfaffian's
    step u updates C(n-2u, 2)."""
    beta = bits + (n.bit_length() + 1) // 2
    if not pfaffian:
        n = max(n, 1)
        return {"call": 1, "step": 3 * poly_sum((0, 0, 1), 1, n - 1),
                "digit": 3 * beta ** 2 * poly_sum((0, 0, n * n, -2 * n, 1), 1, n - 1)}
    if n % 2:
        return {"call": 1}
    m = n // 2
    # C(n-2u, 2) = 2u^2 - (2n-1) u + n(n-1)/2 entries, grown to u beta bits
    pairs = (n * (n - 1) // 2, 1 - 2 * n, 2)
    return {"call": 1, "step": 4 * poly_sum(pairs, 1, m - 1),
            "pfaffian_digit": 4 * beta ** 2 * poly_sum(poly_mul(pairs, (0, 0, 1)), 1, m)}


def total(*works: Work, times: int = 1) -> Dict[str, int]:
    """The sum of ``works``, each count multiplied by ``times``."""
    out: Dict[str, int] = {}
    for work in works:
        for unit, count in work.items():
            out[unit] = out.get(unit, 0) + times * count
    return out


# CPython stores an int in digits of this many bits
_WORD = sys.int_info.bits_per_digit
def product_digits(x: int, y: int) -> int:
    """The ``digit`` work of an x-bit by y-bit product (or of a gcd): a
    small factor still costs a pass over the large one's digits."""
    return (x + _WORD) * (y + _WORD)


def poly_mul(p: Sequence[int], q: Sequence[int]) -> Tuple[int, ...]:
    """The product of two polynomials, coefficients from the constant up."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return tuple(out)


def poly_sum(p: Sequence[int], lo: int, hi: int) -> int:
    """sum over u = lo..hi of the polynomial p (degree at most 6,
    coefficients from the constant up), by Faulhaber's power sums; 0 when
    hi < lo."""
    def upto(m: int) -> int:
        s1, s2 = m * (m + 1) // 2, m * (m + 1) * (2 * m + 1) // 6
        s4 = s2 * (3 * m * m + 3 * m - 1) // 5
        s5 = s1 * s1 * (2 * m * m + 2 * m - 1) // 3
        s6 = s2 * (3 * m ** 4 + 6 * m ** 3 - 3 * m + 1) // 7
        return sum(c * s for c, s in zip(p, (m, s1, s2, s1 * s1, s4, s5, s6)))
    return upto(hi) - upto(max(lo - 1, 0)) if hi >= max(lo, 1) else 0


def pfaffian(m: SkewMatrix) -> Fraction:
    """Exact Pfaffian of a skew-symmetric matrix of ``int`` or ``Fraction``
    entries.

    The matrix is scaled to D A D with D = diag(d_i), d_i the lcm of the
    denominators of row i; D A D is a skew integer matrix and
    Pf(D A D) = Pf(A) * prod d_i, so ``integer_pfaffian`` runs over ``int``
    and the result is one division at the end.  Conventions: empty
    matrix -> 1; odd dimension -> 0.  Non-skew input is rejected.
    """
    _check_skew(m)
    ds = [lcm(*(x.denominator for x in row)) for row in m]
    a = [
        [x.numerator * (di // x.denominator) * dj for x, dj in zip(row, ds)]
        for row, di in zip(m, ds)
    ]
    return Fraction(integer_pfaffian(a), prod(ds))


