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
length c+1, which in path coordinates is ((a+b)/2, (a+c+1)/2).

This module provides an exact combinatorial count of such families (a
sweep over the diagonals x - y = d, independent of every closed formula
and of the determinant), a single lattice-path determinant that counts
them for any puncture position, a depth-first lister of the families
themselves, and an SVG renderer that inverts the bijection back to rhombi.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product
from typing import Iterator, List, NamedTuple, Sequence, Tuple

from .core import binomial, determinant

# size guard for enumerate_tilings and tiling_families
MAX_A = 4
MAX_BC = 6

__all__ = [
    "LatticePoint",
    "PuncturedHexagon",
    "PathFamily",
    "start_end_points",
    "count_paths",
    "enumerate_tilings",
    "tiling_families",
    "count_via_path_determinants",
    "render_tiling_svg",
]


class LatticePoint(NamedTuple):
    x: int
    y: int


class PuncturedHexagon:
    """Hexagon sides a, b+1, c, a+1, b, c+1 with one unit triangle removed.

    ``puncture_offset`` shifts the removed triangle away from its default
    position (the parity-appropriate position described in the module
    docstring); the offset is in path coordinates (east, north).  The
    resulting point must lie strictly inside the hexagon.
    """

    __slots__ = ("a", "b", "c", "puncture_offset")

    def __init__(self, a: int, b: int, c: int, puncture_offset: Tuple[int, int] = (0, 0)):
        if a < 1 or b < 1 or c < 1:
            raise ValueError("side parameters must be positive")
        if a % 2 != b % 2:
            raise ValueError(
                "puncture position undefined: a and b must have equal parity"
            )
        dx, dy = puncture_offset
        self.a = a
        self.b = b
        self.c = c
        self.puncture_offset = (int(dx), int(dy))
        px, py = self.puncture_point()
        # strictly inside: between the two horizontal sides, the two
        # vertical extremes, and the two diagonal sides
        if not (0 <= px <= a + b and 0 <= py <= a + c and 1 <= px - py + c + 1 <= b + c):
            raise ValueError("puncture must lie strictly inside the hexagon")

    def _anchor(self) -> LatticePoint:
        a, b, c = self.a, self.b, self.c
        if c % 2 == a % 2:
            return LatticePoint((a + b) // 2, (a + c) // 2)
        return LatticePoint((a + b) // 2, (a + c + 1) // 2)

    def puncture_point(self) -> LatticePoint:
        base = self._anchor()
        dx, dy = self.puncture_offset
        return LatticePoint(base.x + dx, base.y + dy)

    def __repr__(self) -> str:
        return (
            f"PuncturedHexagon(a={self.a}, b={self.b}, c={self.c}, "
            f"puncture_offset={self.puncture_offset})"
        )


class PathFamily:
    """A family of a+1 pairwise vertex-disjoint monotone lattice paths.

    ``paths[i]`` is the vertex sequence of the (i+1)-st path; consecutive
    vertices differ by a unit east or south step.  Path i starts at A_i
    for i <= a, the last path starts at the puncture, and every path ends
    at one of the E points.
    """

    __slots__ = ("paths",)

    def __init__(self, paths: Sequence[Sequence[LatticePoint]]):
        self.paths = tuple(tuple(LatticePoint(*v) for v in p) for p in paths)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self):
        return iter(self.paths)

    def __getitem__(self, i):
        return self.paths[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, PathFamily) and self.paths == other.paths

    def __repr__(self) -> str:
        return f"PathFamily({len(self.paths)} paths)"


def start_end_points(h: PuncturedHexagon) -> Tuple[List[LatticePoint], List[LatticePoint]]:
    """Start points (A_1..A_a and the puncture) and end points E_1..E_{a+1}."""
    a, b, c = h.a, h.b, h.c
    starts = [LatticePoint(i - 1, c + i) for i in range(1, a + 1)]
    starts.append(h.puncture_point())
    ends = [LatticePoint(b + j - 1, j - 1) for j in range(1, a + 2)]
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
# combinatorial count and family listing
# ---------------------------------------------------------------------------

def _check_guard(h: PuncturedHexagon) -> None:
    if h.a > MAX_A or h.b > MAX_BC or h.c > MAX_BC:
        raise ValueError(
            f"region too large for exhaustive search (need a <= {MAX_A}, b, c <= {MAX_BC})"
        )


def enumerate_tilings(h: PuncturedHexagon) -> int:
    """Count rhombus tilings exactly by a sweep over the diagonals x - y = d.

    Every east or south step raises x - y by 1, so the paths from A_1..A_a
    leave the diagonal d = -c-1 together, the puncture path joins them on
    its own diagonal, and all of them advance in lockstep to the E points
    on d = b.  A state is the sorted tuple of the paths' x positions on the
    current diagonal; it maps to the number of partial families reaching
    it.  A move (east: x+1, south: x unchanged, per path) is kept only if
    the positions stay strictly increasing (vertex-disjoint), y >= 0 and
    x <= a+b.  Disjoint paths keep their order, so consecutive states fix
    every step and no family is counted twice.  Purely combinatorial —
    shares nothing with the closed-form or determinant routes beyond
    start_end_points.
    """
    _check_guard(h)
    starts, ends = start_end_points(h)
    p = starts[-1]
    p_diag = p.x - p.y
    top = h.a + h.b
    states = {tuple(s.x for s in starts[:-1]): 1}
    for d in range(starts[0].x - starts[0].y + 1, ends[0].x - ends[0].y + 1):
        reached = defaultdict(int)
        for xs, weight in states.items():
            for steps in product((0, 1), repeat=len(xs)):
                new = [x + e for x, e in zip(xs, steps)]
                if d == p_diag:
                    new.append(p.x)
                    new.sort()
                if new[0] >= d and new[-1] <= top and all(u < v for u, v in zip(new, new[1:])):
                    reached[tuple(new)] += weight
        states = reached
    return states.get(tuple(e.x for e in ends), 0)


def _candidate_paths(h: PuncturedHexagon):
    """For every start, all monotone paths ending at an E point.

    Returns a list (per start, in start order) of (mask, verts) pairs,
    each list in lexicographic step order with east before south.  Masks
    are vertex bitmasks (bit = x * (a+c+1) + y), so two paths are
    vertex-disjoint iff their masks do not intersect.
    """
    a, b, c = h.a, h.b, h.c
    height = a + c + 1
    starts, ends = start_end_points(h)
    end_set = set(ends)

    def feasible(x: int, y: int) -> bool:
        # some E_j must remain reachable: b+j-1 >= x and j-1 <= y
        return max(1, x - b + 1) <= min(a + 1, y + 1)

    all_cands = []
    for s in starts:
        cands = []
        verts: List[LatticePoint] = []

        def walk(x: int, y: int, mask: int) -> None:
            verts.append(LatticePoint(x, y))
            mask |= 1 << (x * height + y)
            if (x, y) in end_set:
                cands.append((mask, tuple(verts)))
            else:
                if feasible(x + 1, y):
                    walk(x + 1, y, mask)
                if feasible(x, y - 1):
                    walk(x, y - 1, mask)
            verts.pop()

        if feasible(s.x, s.y):
            walk(s.x, s.y, 0)
        all_cands.append(cands)
    return all_cands


def tiling_families(h: PuncturedHexagon) -> Iterator[PathFamily]:
    """Yield every vertex-disjoint path family in deterministic DFS order:
    first path major, then lexicographic step order (east before south)
    per path."""
    _check_guard(h)
    cands = _candidate_paths(h)

    def rec(level: int, used: int, chosen):
        if level == len(cands):
            yield PathFamily([v for (_m, v) in chosen])
            return
        for item in cands[level]:
            if not (item[0] & used):
                yield from rec(level + 1, used | item[0], chosen + [item])

    yield from rec(0, 0, [])


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
    mids = [
        LatticePoint(x, x - diag)
        for x in range(h.a + h.b + 1)
        if 0 <= x - diag <= h.a + h.c and x != p.x
    ]
    rows = [
        [
            sum((-1 if m.x > p.x else 1) * count_paths(s, m) * count_paths(m, e) for m in mids)
            for e in ends
        ]
        for s in starts[:-1]
    ]
    rows.append([count_paths(p, e) for e in ends])
    total = determinant(rows)
    assert total.denominator == 1
    return int(total)


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


def _fig(x: int, y: int) -> Tuple[float, float]:
    return (_SQ3H * x, y - 0.5 * x)


def _poly(points, fill: str) -> Tuple[str, str]:
    # svg y axis points down: flip
    coords = " ".join(f"{px:.4f},{-py:.4f}" for px, py in points)
    return (coords, fill)


def render_tiling_svg(h: PuncturedHexagon, family: PathFamily) -> str:
    """Render a path family as the rhombus tiling it encodes (SVG 1.1).

    Each east step becomes one rhombus orientation, each south step the
    second, and every interior lattice point not visited by any path the
    third; the removed triangle is drawn black.  One polygon element per
    rhombus, fill keyed by orientation.
    """
    validate_family(h, family)
    a, b, c = h.a, h.b, h.c
    polys: List[Tuple[str, str]] = []

    def add(points, fill):
        polys.append(_poly(points, fill))

    used = set()
    for path in family:
        used.update(path)
        for p, q in zip(path, path[1:]):
            mx, my = _fig(p.x, p.y)
            if q.x == p.x + 1:
                dx, dy = _U
                fill = _FILL_EAST
            else:
                dx, dy = _V
                fill = _FILL_SOUTH
            wx, wy = _W
            add(
                [
                    (mx - wx / 2, my - wy / 2),
                    (mx + wx / 2, my + wy / 2),
                    (mx + dx + wx / 2, my + dy + wy / 2),
                    (mx + dx - wx / 2, my + dy - wy / 2),
                ],
                fill,
            )
    # interior points off every path carry the third orientation
    for x in range(0, a + b + 1):
        for y in range(0, a + c + 1):
            if not 1 <= x - y + c + 1 <= b + c:
                continue
            if (x, y) in used:
                continue
            mx, my = _fig(x, y)
            wx, wy = _W
            sx, sy = _U[0] + _V[0], _U[1] + _V[1]
            add(
                [
                    (mx + wx / 2, my + wy / 2),
                    (mx + sx / 2, my + sy / 2),
                    (mx - wx / 2, my - wy / 2),
                    (mx - sx / 2, my - sy / 2),
                ],
                _FILL_THIRD,
            )
    # the removed triangle
    px, py = h.puncture_point()
    mx, my = _fig(px, py)
    wx, wy = _W
    sx, sy = _U[0] + _V[0], _U[1] + _V[1]
    add(
        [
            (mx + wx / 2, my + wy / 2),
            (mx - wx / 2, my - wy / 2),
            (mx - sx / 2, my - sy / 2),
        ],
        _FILL_HOLE,
    )

    xs = [float(t.split(",")[0]) for coords, _f in polys for t in coords.split(" ")]
    ys = [float(t.split(",")[1]) for coords, _f in polys for t in coords.split(" ")]
    pad = 0.3
    x0, y0 = min(xs) - pad, min(ys) - pad
    x1, y1 = max(xs) + pad, max(ys) + pad
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{x0:.4f} {y0:.4f} {x1 - x0:.4f} {y1 - y0:.4f}" '
        f'width="{(x1 - x0) * 60:.0f}" height="{(y1 - y0) * 60:.0f}">',
    ]
    for coords, fill in polys:
        lines.append(
            f'<polygon points="{coords}" fill="{fill}" stroke="#333333" stroke-width="0.02"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines)
