"""Punctured hexagons, lattice-path families, and tiling counts.

A hexagon with sides a, b+1, c, a+1, b, c+1 (in cyclic order) with one
unit triangle removed admits rhombus tilings that biject with families of
a+1 vertex-disjoint monotone lattice paths:

* path i (1 <= i <= a) runs from A_i = (i-1, c+i) to one of the points
  E_j = (b+j-1, j-1), taking unit east (+1,0) and south (0,-1) steps;
* path a+1 starts at the removed triangle's lattice point.

For the centrally removed triangle (a, b, c all of one parity) that start
is ((a+b)/2, (a+c)/2).  In the mixed-parity case (a and b of one parity,
c of the other) the removed triangle sits on the vertical mid-line, two
units closer to the side of length b+1 and one unit closer to the side of
length c+1, which in path coordinates is ((a+b)/2, (a+c+1)/2).  Any
lattice point of the hexagon on the diagonals -c <= x - y <= b may be the
puncture instead, the E points of x - y = b included: each leaves a
tileable region.  ``PuncturedHexagon.span`` states the hexagon's lattice
points diagonal by diagonal; the two path routes, their work estimates
and the renderer read them from it.

This module provides an exact combinatorial count of such families (a
sweep over the diagonals x - y = d, independent of every closed formula
and of the determinant), the family at any index of the depth-first
order (unranked with the same sweep), a single lattice-path determinant
that counts them for any puncture position, and an SVG renderer that
inverts the bijection back to rhombi.
"""

from __future__ import annotations

from collections import defaultdict
from operator import index, mul
from typing import List, NamedTuple, Sequence, Tuple

from .core import (Work, binomial, elimination_work, integer_determinant, poly_mul, poly_sum,
                   product_digits)


class LatticePoint(NamedTuple):
    x: int
    y: int


class PuncturedHexagon:
    """Hexagon sides a, b+1, c, a+1, b, c+1 with one unit triangle removed.

    ``puncture_offset`` shifts the removed triangle away from its default
    position (the parity-appropriate position described in the module
    docstring); the offset is in path coordinates (east, north).  The
    resulting point may be any lattice point of the hexagon on the
    diagonals -c <= x - y <= b (``in``): each leaves a tileable region.
    """

    __slots__ = ("a", "b", "c", "puncture_offset")

    def __init__(self, a: int, b: int, c: int, puncture_offset: Tuple[int, int] = (0, 0)):
        # index refuses (TypeError) a float or Fraction, which int would truncate
        a, b, c, dx, dy = map(index, (a, b, c, *puncture_offset))
        if a < 1 or b < 1 or c < 1:
            raise ValueError("side parameters must be positive")
        if a % 2 != b % 2:
            raise ValueError(
                "puncture position undefined: a and b must have equal parity"
            )
        self.a = a
        self.b = b
        self.c = c
        self.puncture_offset = (dx, dy)
        if self.puncture_point() not in self:
            raise ValueError(f"puncture must lie in the hexagon on a diagonal {-c} <= x - y <= {b}")

    def span(self, d: int) -> range:
        """The x of the hexagon's lattice points on the diagonal x - y = d:
        0 <= x <= a+b, and 0 <= y <= a+c, that is d <= x <= a+c+d.  So
        max(d, 0) <= x <= min(a+b, a+c+d), spelt with conditionals, as the
        two builtin calls slowed a small ``count brute`` by a few percent."""
        top, last = self.a + self.b, self.a + self.c + d
        return range(d if d > 0 else 0, (top if top < last else last) + 1)

    def __contains__(self, p) -> bool:
        """Whether lattice point p may be the puncture: it lies on a
        diagonal -c <= d <= b, at an x of ``span(d)``."""
        return -self.c <= p[0] - p[1] <= self.b and p[0] in self.span(p[0] - p[1])

    def puncture_point(self) -> LatticePoint:
        dx, dy = self.puncture_offset
        # when c and a share a parity a+c is even and (a+c+1)//2 is (a+c)//2
        return LatticePoint((self.a + self.b) // 2 + dx, (self.a + self.c + 1) // 2 + dy)

    def __repr__(self) -> str:
        return (
            f"PuncturedHexagon(a={self.a}, b={self.b}, c={self.c}, "
            f"puncture_offset={self.puncture_offset})"
        )


class PathFamily(tuple):
    """A family of a+1 pairwise vertex-disjoint monotone lattice paths.

    A tuple of paths: ``family[i]`` is the vertex sequence of the (i+1)-st
    path, each vertex a ``LatticePoint``; consecutive vertices differ by a
    unit east or south step.  Path i starts at A_i for i <= a, the last
    path starts at the puncture, and every path ends at one of the E
    points.
    """

    __slots__ = ()

    def __new__(cls, paths: Sequence[Sequence[LatticePoint]]):
        return super().__new__(cls, (tuple(LatticePoint(*v) for v in p) for p in paths))

    @property
    def paths(self) -> Tuple[Tuple[LatticePoint, ...], ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"PathFamily({len(self)} paths)"


def start_end_points(h: PuncturedHexagon) -> Tuple[List[LatticePoint], List[LatticePoint]]:
    """Start points (A_1..A_a and the puncture) and end points E_1..E_{a+1}."""
    starts = [LatticePoint(x, x + h.c + 1) for x in h.span(-h.c - 1)]
    starts.append(h.puncture_point())
    ends = [LatticePoint(x, x - h.b) for x in h.span(h.b)]
    return starts, ends


def count_paths(p: LatticePoint, q: LatticePoint) -> int:
    """Number of monotone east/south lattice paths from p to q."""
    px, py = p
    qx, qy = q
    east = qx - px
    south = py - qy
    if east < 0 or south < 0:
        return 0
    return binomial(east + south, east)


# ---------------------------------------------------------------------------
# combinatorial count and family unranking
# ---------------------------------------------------------------------------

def _sweep(h: PuncturedHexagon, starts: Sequence[LatticePoint], forbidden=frozenset()) -> int:
    """Number of families of vertex-disjoint monotone paths from ``starts``
    to the E points that avoid every vertex in ``forbidden``.

    Every east or south step raises x - y by 1, so the paths cross each
    diagonal x - y = d once, in an order they keep.  A state is the sorted
    tuple of the paths' x positions on the current diagonal; it maps to the
    number of partial families reaching it.  A start joins on its own
    diagonal.  ``forbidden`` is folded once into the set of forbidden x
    of each diagonal.  To reach the next diagonal the paths step one at a
    time, right to left.  A south step keeps x, so it keeps the state: the
    states carry over whole, less those whose x is forbidden on the next
    diagonal or, for the first path, is d (y would fall below 0).  Only an
    east step (x+1) builds a new tuple, checked against the right
    neighbour's new position (a+b+1 for the last path) and the forbidden
    x.  The points of the last diagonal, d = b, that satisfy those bounds
    are exactly the E points.
    """
    top, last = h.a + h.b, h.b
    joins = defaultdict(list)
    for s in starts:
        joins[s.x - s.y].append(s.x)
    blocked = {}  # the forbidden x of each diagonal
    for x, y in forbidden:
        blocked.setdefault(x - y, set()).add(x)
    states, width = {(): 1}, 0
    for d in range(min(joins, default=last), last + 1):
        for x in joins.get(d, ()):
            if x not in h.span(d) or x in blocked.get(d, ()):
                return 0
            states = {tuple(sorted(xs + (x,))): w for xs, w in states.items() if x not in xs}
            width += 1
        if d == last:
            break
        bad = blocked.get(d + 1, frozenset())
        for i in reversed(range(width)):
            # south keeps x: the states carry over whole unless x is blocked,
            # by a forbidden vertex or, for the first path, by y = 0 (x = d)
            stop = bad if i else bad | {d}
            moved = ({xs: w for xs, w in states.items() if xs[i] not in stop} if stop
                     else states.copy())
            for xs, w in states.items():
                nx = xs[i] + 1
                if nx < (xs[i + 1] if i + 1 < width else top + 1) and nx not in bad:
                    key = xs[:i] + (nx,) + xs[i + 1:]
                    moved[key] = moved.get(key, 0) + w
            states = moved
    return sum(states.values())


def enumerate_tilings(h: PuncturedHexagon) -> int:
    """Count rhombus tilings exactly: the paths from A_1..A_a and from the
    puncture, swept over the diagonals x - y = d (see ``_sweep``).  Purely
    combinatorial — shares nothing with the closed-form or determinant
    routes beyond start_end_points."""
    return _sweep(h, start_end_points(h)[0])


def tiling_family(h: PuncturedHexagon, index: int) -> PathFamily:
    """The ``index``-th path family (0-based) in depth-first order: first
    path major, then lexicographic step order (east before south) per path.

    Path 1 is fixed step by step: east while ``index`` is below the number
    of families that continue east (the sweep from there and the later
    starts, avoiding every vertex fixed so far), otherwise south with that
    number subtracted; then path 2, and so on.
    """
    total = enumerate_tilings(h)
    if not 0 <= index < total:
        raise ValueError(f"index {index} is out of range: there are {total} tilings")
    starts = start_end_points(h)[0]
    fixed: set = set()
    paths = []
    for i, s in enumerate(starts):
        path = [s]
        while path[-1].x - path[-1].y < h.b:
            x, y = path[-1]
            east = LatticePoint(x + 1, y)
            completions = _sweep(h, [east, *starts[i + 1:]], fixed.union(path))
            if index < completions:
                path.append(east)
            else:
                index -= completions
                path.append(LatticePoint(x, y - 1))
        fixed.update(path)
        paths.append(path)
    return PathFamily(paths)


def sweep_updates(h: PuncturedHexagon, limit: int) -> int:
    """The work of one ``_sweep`` over h from every start: ``_carrying``
    its a paths.  Every diagonal holds at least a paths, so a(b+c+1) is
    returned, as a lower bound, when it passes ``limit`` (a cheap refusal
    for huge sides)."""
    a, b, c = h.a, h.b, h.c
    if a * (b + c + 1) > limit:
        return a * (b + c + 1)
    return _carrying(a, _diagonal_runs(h))


def _carrying(a: int, runs: Sequence[Tuple[int, int, int, int]]) -> int:
    """The work of a sweep that carries a paths from A_1..A_a and the
    puncture's over the ``_diagonal_runs``: the sum over the diagonals d it
    steps from, -c-1 <= d < b, of C(w_d, k_d) * k_d.  The k_d = a + pi_d
    paths present step one at a time, so a state met on the way holds them
    in distinct x positions of d or d+1: w_d = a + u_d is the number of x
    admissible on d, plus one.  w_d rises, falls or stays by one a diagonal
    within a run, which sums in closed form: sum_{w=m..M} C(w, k) =
    C(M+1, k+1) - C(m, k+1).  A diagonal before the puncture's path joins
    (pi_d = 0) is priced as two: there the states met fill 0.75-0.98 of
    C(w_d, a) for a <= 4, while after the join the puncture's path holds
    them to about half of C(w_d, a+1) at the central puncture.  A sweep
    from a puncture on d = b-1 or d = b carries the a paths alone almost
    to the end, and took 1.5-2.1 times as long a unit of the sum above as
    one from the central puncture of the same shape (BENCH_32.json)."""
    total = 0
    for n, pi, u0, u1 in runs:
        k, w0, w1 = a + pi, a + u0, a + u1
        total += (2 - pi) * k * (n * binomial(w0, k) if w0 == w1
                                 else binomial(w1 + 1, k + 1) - binomial(w0, k + 1))
    return total


def _diagonal_runs(h: PuncturedHexagon) -> List[Tuple[int, int, int, int]]:
    """The runs of diagonals a sweep over h steps from, split at the
    puncture's diagonal and where the width turns (d = 0 and d = b-c), as
    (length, pi, u0, u1): pi = 1 from the puncture's diagonal on, and
    u0 <= u1 the run's first and last u_d = len(span(d)) - a + 1
    (``_carrying``'s w_d - a), linear in d within a run."""
    a, b, c = h.a, h.b, h.c
    p = h.puncture_point()
    dp = p.x - p.y
    bounds = sorted({-c - 1, dp, b} | {e for e in (0, b - c) if -c - 1 < e < b})
    return [(hi - lo, int(lo >= dp), *sorted(len(h.span(d)) - a + 1 for d in (lo, hi - 1)))
            for lo, hi in zip(bounds, bounds[1:])]


def unranking_updates(h: PuncturedHexagon, limit: int) -> int:
    """A bound on the work of ``tiling_family(h, index)``, in
    ``sweep_updates``' units: its first sweep, then at most b+c+1 for each
    path fixed.  With i paths fixed a sweep carries at most the a' = a-i
    later ones and avoids the i fixed vertices of each diagonal: at most
    ``_carrying`` a' paths, for a' = 0..a.  Past ``limit``, as
    ``sweep_updates``.  The loop is short: below the limit, diagonal d = 0
    alone costs the first sweep at least a^3/2 (u_0 = min(b, c)+2 >= 3),
    so a <= 237 at a limit of 6,666,666."""
    first = sweep_updates(h, limit)
    if first > limit:
        return first
    runs = _diagonal_runs(h)
    return first + (h.b + h.c + 1) * sum(_carrying(k, runs) for k in range(h.a + 1))


def validate_family(h: PuncturedHexagon, family: PathFamily) -> None:
    """Raise ValueError unless ``family`` is a valid nonintersecting family
    for ``h`` (correct starts, unit steps, E endpoints, disjoint)."""
    starts, ends = start_end_points(h)
    end_set = set(ends)
    if len(family) != h.a + 1:
        raise ValueError(f"family must contain {h.a + 1} paths")
    seen = set()
    for idx, path in enumerate(family):
        if not path:
            raise ValueError("empty path")
        if path[0] != starts[idx]:
            raise ValueError(f"path {idx + 1} does not start at its start point")
        if path[-1] not in end_set:
            raise ValueError(f"path {idx + 1} does not end at an end point")
        for u, v in zip(path, path[1:]):
            if (v.x - u.x, v.y - u.y) not in ((1, 0), (0, -1)):
                raise ValueError("paths must take unit east or south steps")
        for v in path:
            if v in seen:
                raise ValueError("paths intersect")
            seen.add(v)


# ---------------------------------------------------------------------------
# lattice-path determinant count
# ---------------------------------------------------------------------------

def count_via_path_determinants(h: PuncturedHexagon) -> int:
    """Count tilings as one (a+1) x (a+1) lattice-path determinant.

    Every east or south step raises x - y by 1, so each path crosses the
    diagonal through the puncture P exactly once: the paths from A_1..A_a
    at distinct midpoints M != P, the puncture path at P itself.  By
    Lindstroem-Gessel-Viennot and Cauchy-Binet the sum over midpoint
    placements folds into a single determinant with columns E_1..E_{a+1}:
    row i is sum_M s_M * paths(A_i -> M) * paths(M -> E_j), with s_M = -1
    for M east of P (the sign of moving P's row past M's) and +1 otherwise;
    the last row is paths(P -> E_j).  Valid for every puncture position.
    """
    starts, ends = start_end_points(h)
    p = starts[-1]
    diag = p.x - p.y
    mids = [LatticePoint(x, x - diag) for x in h.span(diag) if x != p.x]
    # each path count once: s_M paths(A_i -> M), and paths(M -> E_j)
    into = [[(-1 if m.x > p.x else 1) * count_paths(s, m) for m in mids] for s in starts[:-1]]
    out_of = [[count_paths(m, e) for m in mids] for e in ends]
    rows = [[sum(map(mul, u, v)) for v in out_of] for u in into]
    rows.append([count_paths(p, e) for e in ends])
    return integer_determinant(rows)


def path_determinant_work(h: PuncturedHexagon) -> Work:
    """The work of ``count_via_path_determinants(h)``.  With m midpoints
    other than P it takes (2a+1) m path counts, each ``binomial``: half a
    count's bits squared for ``math.comb`` (a path of b+c+1 steps, at most
    min(b, c)+a+1 of one kind), and a(a+1) m products for the entries.
    The determinant has size n = a+1; an entry after step j-1 counts
    families of j nonintersecting paths, growing as the box counts
    B(j, b, c) do, fast at first: beta j (2n-j) / n bits,
    beta n = 17abc / (5 (a+b+c)) (MacMahon's log2 B(m, m, m) ~ 1.133 m^2;
    4217 against 4280 at 61).  An update takes two products and an exact
    division, priced as two: the division took 1.4-2.8 products' time
    from 150 to 6,000 bits (BENCH_17.json)."""
    a, b, c = h.a, h.b, h.c
    p = h.puncture_point()
    half = min(b + c + 1, (min(b, c) + a + 1) * (b + c + 1).bit_length()) // 2
    m = len(h.span(p.x - p.y)) - 1  # midpoints != P
    n = a + 1
    beta = 17 * a * b * c // (5 * (a + b + c) * n) + 1
    grown = poly_mul((0, 2 * n, -1), (0, 2 * n, -1))
    digit = 4 * beta ** 2 * poly_sum(poly_mul((n * n, -2 * n, 1), grown), 1, n - 1) // (n * n)
    return {"call": 1, "step": elimination_work(n, 0)["step"], "digit": digit,
            "product": a * n * m, "binomial": (2 * a + 1) * m * product_digits(half, half)}


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_SQ3H = 0.8660254037844386  # sqrt(3)/2

# unit displacements in figure coordinates (y up)
_U = (_SQ3H, -0.5)  # east path step
_V = (0.0, -1.0)  # south path step
_W = (_SQ3H, 0.5)  # transverse direction

_FILL_EAST = "#a8cbe8"
_FILL_SOUTH = "#f2c48d"
_FILL_THIRD = "#bfd9a8"
_FILL_HOLE = "#000000"


def _figure_points(p, corners) -> List[Tuple[str, str]]:
    """SVG coordinates of lattice point ``p`` moved to each corner.

    A corner is a (path step, half-diagonal) pair, added to p's figure
    point in that order, (m + step) + half, since a reordered float sum can
    change a printed digit.  SVG's y axis points down, so y is negated.
    Each coordinate is formatted once, to four places.
    """
    mx, my = _SQ3H * p[0], p[1] - 0.5 * p[0]
    return [(f"{mx + sx + hx:.4f}", f"{-(my + sy + hy):.4f}")
            for (sx, sy), (hx, hy) in corners]


def render_tiling_svg(h: PuncturedHexagon, family: PathFamily) -> str:
    """Render a path family as the rhombus tiling it encodes (SVG 1.1).

    Each east step becomes one rhombus orientation, each south step the
    second, and every interior lattice point not visited by any path the
    third; the removed triangle is drawn black.  One polygon element per
    rhombus, fill keyed by orientation.
    """
    validate_family(h, family)
    a, b, c = h.a, h.b, h.c
    # every corner is a lattice point, or one path step from it, moved by
    # one of the half-diagonals +-W/2 and +-(U+V)/2
    wx, wy = _W
    sx, sy = _U[0] + _V[0], _U[1] + _V[1]
    stay = (0.0, 0.0)
    w, w_ = (wx / 2, wy / 2), (-wx / 2, -wy / 2)
    s, s_ = (sx / 2, sy / 2), (-sx / 2, -sy / 2)
    polys = []  # (points, fill)
    used = set()
    for path in family:
        used.update(path)
        for p, q in zip(path, path[1:]):
            step, fill = (_U, _FILL_EAST) if q.x == p.x + 1 else (_V, _FILL_SOUTH)
            polys.append((_figure_points(p, [(stay, w_), (stay, w), (step, w), (step, w_)]), fill))
    # the points a puncture may take that are off every path carry the
    # third orientation (the a+1 E points of d = b are all on paths)
    third = [(stay, w), (stay, s), (stay, w_), (stay, s_)]
    for x in range(a + b + 1):
        for y in range(a + c + 1):
            if (x, y) in h and (x, y) not in used:
                polys.append((_figure_points((x, y), third), _FILL_THIRD))
    # the removed triangle
    polys.append((_figure_points(h.puncture_point(), [(stay, w), (stay, w_), (stay, s_)]),
                  _FILL_HOLE))

    xs = [float(x) for points, _fill in polys for x, _y in points]
    ys = [float(y) for points, _fill in polys for _x, y in points]
    pad = 0.3
    x0, y0 = min(xs) - pad, min(ys) - pad
    x1, y1 = max(xs) + pad, max(ys) + pad
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{x0:.4f} {y0:.4f} {x1 - x0:.4f} {y1 - y0:.4f}" '
        f'width="{(x1 - x0) * 60:.0f}" height="{(y1 - y0) * 60:.0f}">',
    ]
    for points, fill in polys:
        coords = " ".join(f"{x},{y}" for x, y in points)
        lines.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="#333333" stroke-width="0.02"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines)
