"""Closed-form tiling counts and the plane-partition oracle.

A plane partition inside an alpha x beta x gamma box is an alpha x beta
array of integers in [0, gamma] that decreases weakly along rows and
columns.  ``macmahon_box`` evaluates the classical product formula for
their number, ``enumerate_plane_partitions`` counts them by backtracking,
and ``theorem1_count`` / ``theorem4_count`` give the closed-form counts of
rhombus tilings of a hexagon with sides a, b+1, c, a+1, b, c+1 from which
one unit triangle has been removed — located centrally (same-parity case)
or just off-center (mixed-parity case).  Both are products of box counts.
"""

from __future__ import annotations

from math import perm

# backtracking guard: the brute-force oracle refuses boxes beyond this size
MAX_PLANE_CELLS = 16
MAX_PLANE_HEIGHT = 8


def macmahon_box(alpha: int, beta: int, gamma: int) -> int:
    """Number of plane partitions in the alpha x beta x gamma box.

    Computed as the exact product over the base of (i+j+gamma-1)/(i+j-1),
    the telescoped form of prod over the box of (i+j+k-1)/(i+j+k-2).  Row i
    of the base contributes perm(i+beta+gamma-1, beta) to the numerator and
    perm(i+beta-1, beta) to the denominator; one division at the end, checked
    to be exact.  A box with any zero dimension holds exactly the empty plane
    partition.
    """
    if alpha < 0 or beta < 0 or gamma < 0:
        raise ValueError("box dimensions must be nonnegative")
    num = 1
    den = 1
    for i in range(1, alpha + 1):
        num *= perm(i + beta + gamma - 1, beta)
        den *= perm(i + beta - 1, beta)
    value, rest = divmod(num, den)
    if rest:
        raise ArithmeticError("box product did not reduce to an integer")
    return value


def enumerate_plane_partitions(alpha: int, beta: int, gamma: int) -> int:
    """Count plane partitions in the box by exhaustive backtracking.

    Independent of macmahon_box: fills the alpha x beta array cell by cell
    in row-major order, bounding each entry by its upper and left
    neighbors.  Guarded to desk scale (alpha*beta <= 16, gamma <= 8).
    """
    if alpha < 0 or beta < 0 or gamma < 0:
        raise ValueError("box dimensions must be nonnegative")
    if alpha * beta > MAX_PLANE_CELLS or gamma > MAX_PLANE_HEIGHT:
        raise ValueError(
            f"box too large for exhaustive search "
            f"(need alpha*beta <= {MAX_PLANE_CELLS} and gamma <= {MAX_PLANE_HEIGHT})"
        )
    if alpha == 0 or beta == 0 or gamma == 0:
        return 1
    grid = [[0] * beta for _ in range(alpha)]

    def fill(pos: int) -> int:
        if pos == alpha * beta:
            return 1
        i, j = divmod(pos, beta)
        bound = gamma
        if i > 0:
            bound = min(bound, grid[i - 1][j])
        if j > 0:
            bound = min(bound, grid[i][j - 1])
        total = 0
        for v in range(bound + 1):
            grid[i][j] = v
            total += fill(pos + 1)
        return total

    return fill(0)


def theorem1_count(a: int, b: int, c: int) -> int:
    """Closed-form count of rhombus tilings with the central unit triangle
    removed, for a, b, c all of the same parity.

    The count factors into four box counts whose dimensions are halves of
    a, b, c rounded up or down::

        B(ceil(a/2), ceil(b/2), ceil(c/2))
      * B(ceil((a+1)/2), floor(b/2), ceil(c/2))
      * B(ceil(a/2), ceil((b+1)/2), floor(c/2))
      * B(floor(a/2), ceil(b/2), ceil((c+1)/2))
    """
    if a < 1 or b < 1 or c < 1:
        raise ValueError("side lengths must be positive")
    if not (a % 2 == b % 2 == c % 2):
        raise ValueError("theorem1_count requires a, b, c of equal parity")
    up = lambda x: (x + 1) // 2
    dn = lambda x: x // 2
    return (
        macmahon_box(up(a), up(b), up(c))
        * macmahon_box(up(a + 1), dn(b), up(c))
        * macmahon_box(up(a), up(b + 1), dn(c))
        * macmahon_box(dn(a), up(b), up(c + 1))
    )


def theorem4_count(a: int, b: int, c: int) -> int:
    """Closed-form count for the mixed-parity puncture position: a and b of
    one parity, c of the other.  The removed triangle sits on the vertical
    mid-line (equidistant from the sides of lengths a and a+1), two units
    closer to the side of length b+1 and one unit closer to the side of
    length c+1.

    Factors as B(floor((a+2)/2), floor(b/2), floor((c+2)/2))
             * B(floor((a+1)/2), floor((b+1)/2), floor((c+1)/2))^2
             * B(floor(a/2), floor((b+2)/2), floor(c/2)).
    """
    if a < 1 or b < 1 or c < 1:
        raise ValueError("side lengths must be positive")
    if a % 2 != b % 2 or c % 2 == a % 2:
        raise ValueError(
            "theorem4_count requires a and b of equal parity and c of the opposite parity"
        )
    middle = macmahon_box((a + 1) // 2, (b + 1) // 2, (c + 1) // 2)
    return (
        macmahon_box((a + 2) // 2, b // 2, (c + 2) // 2)
        * middle
        * middle
        * macmahon_box(a // 2, (b + 2) // 2, c // 2)
    )
