"""Exact arithmetic substrate: integers, rationals, partitions, dense
matrices, determinants and Pfaffians.

Everything downstream (closed-form counts, lattice-path determinants,
symmetric-function identities) is built on the operations in this module,
so all arithmetic here is exact: Python's arbitrary-precision ``int`` and
``fractions.Fraction``.  Matrices are plain row-major lists of lists.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

# Type aliases used throughout the package.  ExactInt/ExactRational are the
# scalar types every count and evaluation lives in; matrices are dense
# row-major lists of lists of those scalars.
ExactInt = int
ExactRational = Fraction
Scalar = Union[int, Fraction]
ExactMatrix = List[List[Scalar]]
# A SkewMatrix is an ExactMatrix with entry(i,j) == -entry(j,i); the
# pfaffian() entry point checks this invariant on every call.
SkewMatrix = ExactMatrix


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

class Partition:
    """An integer partition: weakly decreasing nonnegative parts.

    Trailing zeros are stripped on construction, so two partitions are
    equal iff their nonzero parts agree.  Instances are immutable and
    hashable (they are used as cache keys by the Schur evaluators).
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        ps = tuple(int(p) for p in parts)
        while ps and ps[-1] == 0:
            ps = ps[:-1]
        for i, p in enumerate(ps):
            if p < 0:
                raise ValueError("partition parts must be nonnegative")
            if i > 0 and ps[i - 1] < p:
                raise ValueError("partition parts must be weakly decreasing")
        object.__setattr__(self, "parts", ps)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"

    def part(self, h: int) -> int:
        """1-based part access with implicit zeros beyond the length."""
        if h < 1:
            raise IndexError("part index is 1-based")
        return self.parts[h - 1] if h <= len(self.parts) else 0

    def conjugate(self) -> "Partition":
        return conjugate(self)


def conjugate(p: Partition) -> Partition:
    """Transpose the Young diagram of ``p``.

    The j-th part of the conjugate is the number of parts of ``p`` that
    are >= j.  conjugate(conjugate(p)) == p.
    """
    if not isinstance(p, Partition):
        p = Partition(p)
    if not p.parts:
        return Partition()
    return Partition(sum(1 for x in p.parts if x >= j) for j in range(1, p.parts[0] + 1))


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

def binomial(n: int, k: int) -> int:
    """C(n, k), with the lattice-path convention C(n,k)=0 for k<0, k>n or n<0."""
    if n < 0 or k < 0 or k > n:
        return 0
    # math.comb is exact for arbitrary precision
    from math import comb

    return comb(n, k)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def transpose(m: ExactMatrix) -> ExactMatrix:
    return [list(row) for row in zip(*m)] if m else []


def matmul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Dense exact matrix product."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("matmul: inner dimensions disagree")
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _check_rectangular(m: ExactMatrix) -> None:
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("matrix rows have unequal lengths")


def determinant(m: ExactMatrix) -> Fraction:
    """Exact determinant by rational Gaussian elimination with pivoting.

    The empty 0x0 matrix has determinant 1 (empty product).  Non-square
    input is rejected.
    """
    _check_rectangular(m)
    n = len(m)
    if n == 0:
        return Fraction(1)
    if len(m[0]) != n:
        raise ValueError("determinant requires a square matrix")
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if a[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col] != 0:
                f = a[r][col] * inv
                arow, crow = a[r], a[col]
                for c in range(col, n):
                    arow[c] -= f * crow[c]
    return det


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


def pfaffian(m: SkewMatrix) -> Fraction:
    """Exact Pfaffian of a skew-symmetric matrix.

    Uses skew-symmetric Gaussian elimination: congruence transforms
    P A P^T with unit determinant leave the Pfaffian unchanged, a
    simultaneous row/column swap flips its sign, and once A is reduced
    to 2x2 diagonal blocks the Pfaffian is the product of the block
    entries A[k][k+1].

    Conventions: empty matrix -> 1; odd dimension -> 0 (its determinant
    vanishes identically).  Non-skew input is rejected.
    """
    _check_skew(m)
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n % 2 == 1:
        return Fraction(0)
    a = [[Fraction(x) for x in row] for row in m]
    result = Fraction(1)
    for k in range(0, n - 1, 2):
        # Bring a nonzero entry into position (k, k+1).
        pivot_row = None
        for j in range(k + 1, n):
            if a[k][j] != 0:
                pivot_row = j
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k + 1:
            a[k + 1], a[pivot_row] = a[pivot_row], a[k + 1]
            for row in a:
                row[k + 1], row[pivot_row] = row[pivot_row], row[k + 1]
            result = -result
        piv = a[k][k + 1]
        result *= piv
        # Zero out rows/columns k and k+1 beyond the 2x2 block.  For each
        # later column j: first clear a[k][j] using row/column k+1, then
        # clear a[k+1][j] using row/column k.  Both are unit-determinant
        # congruence transforms.
        for j in range(k + 2, n):
            f = a[k][j] / piv
            if f:
                rk1 = a[k + 1]
                rj = a[j]
                for t in range(n):
                    rj[t] -= f * rk1[t]
                for t in range(n):
                    a[t][j] -= f * a[t][k + 1]
        for j in range(k + 2, n):
            g = a[k + 1][j] / piv
            if g:
                rk = a[k]
                rj = a[j]
                for t in range(n):
                    rj[t] += g * rk[t]
                for t in range(n):
                    a[t][j] += g * a[t][k]
    return result


def _pfaffian_expand(m: SkewMatrix) -> Fraction:
    """Pfaffian by recursive expansion along the first row.

    O(n!!) — usable as an independent cross-check for dimension <= 8.
    Assumes the skew invariant has already been validated.
    """
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n % 2 == 1:
        return Fraction(0)
    if n == 2:
        return Fraction(m[0][1])
    total = Fraction(0)
    for j in range(1, n):
        if m[0][j] == 0:
            continue
        rest = [r for r in range(1, n) if r != j]
        sub = [[m[r][c] for c in rest] for r in rest]
        sign = -1 if (j % 2) == 0 else 1  # (-1)^j for 1-based column j+1
        total += sign * m[0][j] * _pfaffian_expand(sub)
    return total


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
