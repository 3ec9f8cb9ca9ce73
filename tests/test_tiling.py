"""Tests for the lattice-path model: the diagonal sweep and its unranking,
the lattice-path determinant count, and SVG rendering."""

import hashlib
import inspect
import sys
from collections import Counter
from fractions import Fraction
from math import comb
from typing import List

import pytest

from counting import Counted, counted
from punchex import cli, tiling
from punchex.boxcount import theorem1_count, theorem4_count
from punchex.core import elimination_work, integer_determinant, product_digits
from punchex.tiling import (
    LatticePoint,
    PathFamily,
    PuncturedHexagon,
    count_paths,
    count_via_path_determinants,
    enumerate_tilings,
    path_determinant_work,
    render_tiling_svg,
    start_end_points,
    sweep_updates,
    tiling_family,
    unranking_updates,
    validate_family,
)


def _expect_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        return
    raise AssertionError(f"expected ValueError from {fn.__name__}{args}")


def _every_puncture(max_a, max_bc):
    """Every hexagon with a <= max_a, b, c <= max_bc, punctured at every
    point it admits (both parities of c)."""
    for a in range(1, max_a + 1):
        for b in range(1, max_bc + 1):
            if a % 2 != b % 2:
                continue
            for c in range(1, max_bc + 1):
                anchor = PuncturedHexagon(a, b, c).puncture_point()
                for px in range(a + b + 1):
                    for py in range(a + c + 1):
                        try:
                            h = PuncturedHexagon(a, b, c, (px - anchor.x, py - anchor.y))
                        except ValueError:
                            continue
                        yield h


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


def _listed_families(h: PuncturedHexagon):
    """Oracle for ``tiling_family``: every vertex-disjoint path family in
    depth-first order (first path major, then lexicographic step order,
    east before south, per path), by a bitmask search that shares no code
    with the sweep."""
    cands = _candidate_paths(h)

    def rec(level: int, used: int, chosen):
        if level == len(cands):
            yield PathFamily([v for (_m, v) in chosen])
            return
        for item in cands[level]:
            if not (item[0] & used):
                yield from rec(level + 1, used | item[0], chosen + [item])

    yield from rec(0, 0, [])


def _avoiding_families(h: PuncturedHexagon, forbidden) -> int:
    """Oracle for ``_sweep`` from every start of h: the vertex-disjoint
    path families that avoid every vertex in ``forbidden``, counted by a
    bitmask search that shares no code with the sweep."""
    cands = [[mask for mask, verts in paths if not forbidden.intersection(verts)]
             for paths in _candidate_paths(h)]

    def count(level: int, used: int) -> int:
        if level == len(cands):
            return 1
        return sum(count(level + 1, used | mask) for mask in cands[level] if not mask & used)

    return count(0, 0)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_hexagon_validation():
    _expect_value_error(PuncturedHexagon, 0, 2, 2)
    _expect_value_error(PuncturedHexagon, 1, 2, 1)  # a, b parity differs
    _expect_value_error(PuncturedHexagon, 1, 1, 1, (5, 5))  # puncture outside
    _expect_value_error(PuncturedHexagon, 1, 1, 1, (-3, 0))
    _expect_value_error(PuncturedHexagon, 2, 2, 2, (1, 0, 0))
    # (2,1) is the end point E_2 on the last diagonal x - y = b: admitted
    h = PuncturedHexagon(1, 1, 1, (1, 0))
    assert h.puncture_point() == (2, 1)
    assert enumerate_tilings(h) == count_via_path_determinants(h) == 3


def test_hexagon_admits_exactly_the_tileable_punctures():
    # every lattice point of every hexagon with a <= 3, b, c <= 5, a = b
    # (mod 2), and of a ring around it: off the hexagon's diagonals
    # -c-1 <= x - y <= b it is refused; on them it is admitted iff the
    # sweep counts it positive, and then the determinant route agrees.  The
    # refused points of the hexagon are the A points of x - y = -c-1, which
    # a path already starts from
    admitted, refused = Counter(), 0
    for a in range(1, 4):
        for b in range(2 - a % 2, 6, 2):
            for c in range(1, 6):
                centre = PuncturedHexagon(a, b, c)
                anchor, starts = centre.puncture_point(), start_end_points(centre)[0][:-1]
                for x in range(-1, a + b + 2):
                    for y in range(-1, a + c + 2):
                        offset = (x - anchor.x, y - anchor.y)
                        if not (0 <= x <= a + b and 0 <= y <= a + c and -c - 1 <= x - y <= b):
                            _expect_value_error(PuncturedHexagon, a, b, c, offset)
                            continue
                        count = tiling._sweep(centre, [*starts, LatticePoint(x, y)])
                        try:
                            h = PuncturedHexagon(a, b, c, offset)
                        except ValueError:
                            assert (x, y) in starts and count == 0, (a, b, c, x, y, count)
                            refused += 1
                            continue
                        assert count > 0 and count == count_via_path_determinants(h), (h, count)
                        admitted[a, b, c] += 1
    assert (sum(admitted.values()), refused) == (1200, 80)
    assert [admitted[n, n, n] for n in (1, 2, 3)] == [7, 19, 37]


def test_hexagon_refuses_non_integral_sides_and_offsets():
    # truncated, the offset (0.9, -0.9) was the central puncture and both
    # routes counted its 54 tilings; a float side failed later, in range
    for args in ((2, 2, 2, (0.9, -0.9)), (2, 2, 2, (Fraction(1), 0)), (2.0, 2, 2), (2, 2, 2.5)):
        with pytest.raises(TypeError):
            PuncturedHexagon(*args)
    h = PuncturedHexagon(2, 2, 2, (1, 0))
    assert (h.a, h.b, h.c, h.puncture_offset) == (2, 2, 2, (1, 0))


def test_puncture_positions():
    # equal parity of a and c: dead center
    assert PuncturedHexagon(1, 1, 1).puncture_point() == (1, 1)
    assert PuncturedHexagon(2, 2, 2).puncture_point() == (2, 2)
    assert PuncturedHexagon(3, 5, 5).puncture_point() == (4, 4)
    # opposite parity: one step north of the centered diagonal
    assert PuncturedHexagon(1, 1, 2).puncture_point() == (1, 2)
    assert PuncturedHexagon(2, 2, 1).puncture_point() == (2, 2)
    # offsets shift the removed triangle
    assert PuncturedHexagon(2, 2, 2, (1, 0)).puncture_point() == (3, 2)


def test_start_end_points():
    h = PuncturedHexagon(3, 5, 5)
    starts, ends = start_end_points(h)
    assert len(starts) == 4 and len(ends) == 4
    assert starts[0] == (0, 6)
    assert starts[1] == (1, 7)
    assert starts[2] == (2, 8)
    assert starts[3] == (4, 4)  # the puncture
    assert ends[0] == (5, 0)
    assert ends[3] == (8, 3)


def test_count_paths():
    assert count_paths(LatticePoint(0, 2), LatticePoint(1, 0)) == 3
    assert count_paths(LatticePoint(0, 0), LatticePoint(0, 0)) == 1
    assert count_paths(LatticePoint(2, 0), LatticePoint(0, 0)) == 0  # west
    assert count_paths(LatticePoint(0, 0), LatticePoint(0, 2)) == 0  # north
    assert count_paths(LatticePoint(1, 5), LatticePoint(4, 1)) == 35


# ---------------------------------------------------------------------------
# diagonal sweep and unranking
# ---------------------------------------------------------------------------

def test_enumerate_matches_closed_forms_small():
    for (a, b, c) in [(1, 1, 1), (1, 1, 3), (2, 2, 2), (1, 3, 1), (3, 3, 1), (4, 6, 6)]:
        h = PuncturedHexagon(a, b, c)
        assert enumerate_tilings(h) == theorem1_count(a, b, c), (a, b, c)
    for (a, b, c) in [(1, 1, 2), (2, 2, 1), (1, 3, 2), (3, 1, 2)]:
        h = PuncturedHexagon(a, b, c)
        assert enumerate_tilings(h) == theorem4_count(a, b, c), (a, b, c)


def test_enumerate_off_center_puncture():
    # no closed form applies off the standard positions; the value below
    # was confirmed by listing the path families by hand
    assert enumerate_tilings(PuncturedHexagon(1, 1, 1, (0, 1))) == 3


def test_families_golden_order():
    h = PuncturedHexagon(1, 1, 1)
    fams = [tiling_family(h, k) for k in range(enumerate_tilings(h))]
    assert len(fams) == 2
    # deterministic order: east steps preferred, first start point first
    assert fams[0].paths == (
        ((0, 2), (1, 2), (2, 2), (2, 1)),
        ((1, 1), (1, 0)),
    )
    assert fams[1].paths == (
        ((0, 2), (0, 1), (0, 0), (1, 0)),
        ((1, 1), (2, 1)),
    )
    assert list(_listed_families(h)) == fams


def test_families_are_valid_and_counted_consistently():
    cases = families = 0
    for h in _every_puncture(2, 3):
        fams = list(_listed_families(h))
        assert len(fams) == enumerate_tilings(h), h
        for k, f in enumerate(fams):
            validate_family(h, f)
            assert tiling_family(h, k) == f, (h, k)
        # all families distinct
        assert len(set(f.paths for f in fams)) == len(fams)
        cases += 1
        families += len(fams)
    assert (cases, families) == (141, 7786)


def test_sweep_avoids_forbidden_vertices():
    # against the bitmask count at every puncture, one forbidden vertex at
    # a time: each start (the join check), the next vertex on its own
    # diagonal, its two successors on the next diagonal, each E point and
    # vertices outside the hexagon; then every such neighbour at once
    cases = cut = 0
    for h in _every_puncture(2, 3):
        a, b, c = h.a, h.b, h.c
        starts, ends = start_end_points(h)
        near = [(s.x + dx, s.y + dy) for s in starts for dx, dy in ((1, 1), (1, 0), (0, -1))]
        outside = [(-1, 0), (b, -1), (a + b + 1, a), (0, a + c + 1)]
        full = enumerate_tilings(h)
        for forbidden in [{v} for v in [*starts, *near, *ends, *outside]] + [set(near)]:
            count = tiling._sweep(h, starts, forbidden)
            assert count == _avoiding_families(h, forbidden), (h, forbidden)
            if forbidden & set(starts):
                assert count == 0, (h, forbidden)
            if forbidden <= set(outside):
                assert count == full, (h, forbidden)
            cases += 1
            cut += count < full
    assert (cases, cut) == (2400, 1572)


def test_tiling_family_index_range():
    h = PuncturedHexagon(3, 5, 5)
    for index in (-1, 8750000):
        try:
            tiling_family(h, index)
        except ValueError as exc:
            assert str(exc) == f"index {index} is out of range: there are 8750000 tilings"
        else:
            raise AssertionError(f"index {index} was accepted")
    # the first and last families of a large shape, without listing the rest
    h = PuncturedHexagon(4, 6, 6)
    for index in (0, 41177149999):
        validate_family(h, tiling_family(h, index))


def test_validate_family_rejects_tampering():
    h = PuncturedHexagon(1, 1, 1)
    good = tiling_family(h, 0)
    bad_start = PathFamily([((1, 2),) + good[0][1:], good[1]])
    _expect_value_error(validate_family, h, bad_start)
    bad_step = PathFamily([(good[0][0], good[0][2], good[0][3]), good[1]])
    _expect_value_error(validate_family, h, bad_step)
    # two paths through a shared vertex
    crossing = PathFamily([
        ((0, 2), (1, 2), (1, 1), (1, 0)),
        ((1, 1), (2, 1)),
    ])
    _expect_value_error(validate_family, h, crossing)


# ---------------------------------------------------------------------------
# lattice-path determinant
# ---------------------------------------------------------------------------

def test_determinant_route_matches_closed_form():
    for (a, b, c) in [(1, 1, 1), (1, 1, 3), (1, 3, 3), (2, 2, 2), (2, 2, 4), (3, 3, 3)]:
        h = PuncturedHexagon(a, b, c)
        assert count_via_path_determinants(h) == theorem1_count(a, b, c), (a, b, c)
    for (a, b, c) in [(1, 1, 2), (2, 2, 1), (1, 3, 4), (3, 1, 2), (4, 4, 3), (5, 7, 6)]:
        h = PuncturedHexagon(a, b, c)
        assert count_via_path_determinants(h) == theorem4_count(a, b, c), (a, b, c)


def test_determinant_route_matches_brute_force():
    cases = 0
    for h in _every_puncture(4, 5):
        assert count_via_path_determinants(h) == enumerate_tilings(h), h
        cases += 1
    assert cases == 1640


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_svg_structure():
    h = PuncturedHexagon(1, 1, 1)
    fams = [tiling_family(h, 0), tiling_family(h, 1)]
    svg = render_tiling_svg(h, fams[0])
    assert svg.startswith("<?xml")
    assert "<svg" in svg and svg.rstrip().endswith("</svg>")
    # 13 unit triangles: 6 rhombi plus the removed (black) triangle
    assert svg.count("<polygon") == 7
    assert svg.count("#000000") == 1
    # deterministic output
    assert render_tiling_svg(h, fams[0]) == svg
    assert render_tiling_svg(h, fams[1]) != svg


def test_render_svg_polygon_count_scales():
    h = PuncturedHexagon(1, 1, 2)
    fam = tiling_family(h, 0)
    svg = render_tiling_svg(h, fam)
    # area (a+b+c+1)^2 - a^2 - b^2 - c^2 = 19 triangles -> 9 rhombi + 1 hole
    assert svg.count("<polygon") == 10


def test_render_svg_bytes_are_pinned():
    # SHA-256 of the SVG text; coordinates print to four places, so a
    # reordered float sum can change a digit and the digest
    for (a, b, c, index), digest in (
        ((1, 1, 1, 1), "4a2c573e997b43d8b5fa705ff3188e09104641a33e04e103eecea5054cd0c684"),
        ((2, 2, 1, 0), "016930c8c4a4994a7565604acd6afed2332517b1d58ca0e6a9d7954d0034a5f7"),
        ((3, 5, 5, 2000000), "29bb2e608703a2879b71c1c6fa14467963a774602c93eef5cfd5a2732dcebf4c"),
        ((4, 6, 6, 41177149999),
         "5933e2cb0037f87c2d06b2cf0aafa677b558e572320e64e28c202e7ef748a46c"),
    ):
        h = PuncturedHexagon(a, b, c)
        svg = render_tiling_svg(h, tiling_family(h, index))
        assert hashlib.sha256(svg.encode("utf-8")).hexdigest() == digest, (a, b, c, index)


def test_render_rejects_foreign_family():
    h = PuncturedHexagon(1, 1, 1)
    other = tiling_family(PuncturedHexagon(1, 1, 2), 0)
    _expect_value_error(render_tiling_svg, h, other)


def test_sweep_updates_sums_every_diagonal():
    # against the sum taken diagonal by diagonal, at every puncture, a
    # diagonal before the puncture's priced as two; past the limit only
    # a(b+c+1) is returned, a lower bound
    cases = 0
    for h in _every_puncture(4, 7):
        a, b, c, p = h.a, h.b, h.c, h.puncture_point()
        total = sum(
            comb(min(a + b, a + c + d) - max(d, 0) + 2, a + (d >= p.x - p.y))
            * (a + (d >= p.x - p.y)) * (1 + (d < p.x - p.y))
            for d in range(-c - 1, b)
        )
        assert sweep_updates(h, total) == total, h
        assert a * (b + c + 1) <= total
        cases += 1
    assert cases > 3000
    h = PuncturedHexagon(10 ** 9, 10 ** 9, 10 ** 9)
    assert sweep_updates(h, 10 ** 6) == 10 ** 9 * (2 * 10 ** 9 + 1)


def test_unranking_updates_sums_every_sweep_and_bounds_them():
    # against the sum over the paths carried and the diagonals: a sweep
    # with a' = 0..a paths, b+c+1 of each, and the first
    def every_sweep(h):
        a, b, c, p = h.a, h.b, h.c, h.puncture_point()
        total = sum(comb(min(b, c + d) - max(d, 0) + 2 + k, k + (d >= p.x - p.y))
                    * (k + (d >= p.x - p.y)) * (1 + (d < p.x - p.y))
                    for k in range(a + 1) for d in range(-c - 1, b))
        return sweep_updates(h, 10 ** 30) + (b + c + 1) * total

    for h in _every_puncture(3, 5):
        assert unranking_updates(h, 10 ** 30) == every_sweep(h), h
    # across the CLI's limit on thin shapes: in full below it, only the
    # first sweep past it; the first sweep alone passes it by a = 220
    limit = cli.BUDGET_S * 10 ** 15 // cli.FS_PER["sweep"]
    in_full = []
    for a in range(1, 251):
        h = PuncturedHexagon(a, 2 - a % 2, 2 - a % 2)
        first = sweep_updates(h, limit)
        if first <= limit:
            assert unranking_updates(h, limit) == every_sweep(h), h
            in_full.append(a)
        else:
            assert unranking_updates(h, limit) == first, h
    assert 1 in in_full and max(in_full) <= 220, max(in_full)
    # above the states tiling_family's sweeps step, at the first and the
    # last index: every dict whose items ``_sweep`` reads, whatever its
    # type, counted once (a step reads its states for the south steps and
    # again for the east ones).  And none of those states holds a position
    # that is forbidden, or below y = 0, on its path's diagonal: before the
    # path steps (the line of the loop over i), every path is on d; while
    # path i steps, the paths right of it are on d+1 already
    stepped, seen, blocked = [0], {}, []
    lines, first = inspect.getsourcelines(tiling._sweep)
    steps_from = first + next(k for k, line in enumerate(lines)
                              if "for i in reversed(range(width))" in line)

    def profile(frame, event, arg):
        if event == "c_call" and arg.__name__ == "items" and frame.f_code is tiling._sweep.__code__:
            states = arg.__self__
            if id(states) not in seen:
                seen[id(states)] = states  # held, so that no later dict takes its id
                stepped[0] += len(states)
                at = frame.f_locals
                d, forbidden = at["d"], at["forbidden"]
                last_on_d = at["i"] if frame.f_lineno > steps_from else float("inf")
                blocked.extend(xs for xs in states for j, x in enumerate(xs)
                               for e in (d + (j > last_on_d),) if x < e or (x, x - e) in forbidden)

    for a, b, c in ((1, 1, 1), (2, 2, 2), (3, 3, 3), (2, 4, 6), (5, 1, 1), (1, 5, 3)):
        h = PuncturedHexagon(a, b, c)
        for index in (0, enumerate_tilings(h) - 1):
            stepped[0] = 0
            seen.clear()
            outer = sys.getprofile()
            sys.setprofile(profile)
            try:
                tiling_family(h, index)
            finally:
                sys.setprofile(outer)
            assert 0 < stepped[0] <= unranking_updates(h, 10 ** 30), (h, index)
            assert blocked == [], (h, index, blocked[:3])
    # past the limit only sweep_updates' lower bound, at once
    h = PuncturedHexagon(10 ** 9, 10 ** 9, 10 ** 9)
    assert unranking_updates(h, 10 ** 6) == 10 ** 9 * (2 * 10 ** 9 + 1)


def test_path_determinant_work_counts_the_path_counts_and_the_determinant(monkeypatch):
    # each path count once: a into and a+1 out of each of the m midpoints
    # other than P, and a+1 for the puncture's row; m products for each of
    # the a(a+1) entries; the loop of the determinant of size a+1
    calls, products, log = [0], [0], []

    def counting_paths(p, q):
        calls[0] += 1
        return count_paths(p, q)

    def counting_mul(x, y):
        products[0] += 1
        return x * y

    def counting_determinant(rows):
        Counted.reset()
        value = integer_determinant(counted(rows))
        log.append((len(rows), Counted.ops - 1))
        return int(value)

    monkeypatch.setattr(tiling, "count_paths", counting_paths)
    monkeypatch.setattr(tiling, "mul", counting_mul)
    monkeypatch.setattr(tiling, "integer_determinant", counting_determinant)
    for h in list(_every_puncture(3, 4))[::37]:
        calls[0], products[0], log[:] = 0, 0, []
        count_via_path_determinants(h)
        work, a = path_determinant_work(h), h.a
        diag = h.puncture_point().x - h.puncture_point().y
        m = sum(0 <= x - diag <= a + h.c for x in range(a + h.b + 1)) - 1
        assert calls[0] == (2 * a + 1) * m + a + 1, h
        assert products[0] == a * (a + 1) * m == work["product"], h
        assert log == [(a + 1, elimination_work(a + 1, 0)["step"])] == [(a + 1, work["step"])], h
        # the determinant's digit work, step by step: (n-j)^2 updates of
        # beta j (2n-j) / n bits, two products and a division priced as two;
        # the path counts', half the path each
        n, beta = a + 1, 17 * a * h.b * h.c // (5 * (a + h.b + h.c) * (a + 1)) + 1
        assert work["digit"] == sum(4 * (n - j) ** 2 * (beta * j * (2 * n - j)) ** 2
                                    for j in range(1, n)) // (n * n), h
        half = min(h.b + h.c + 1, (min(h.b, h.c) + a + 1) * (h.b + h.c + 1).bit_length()) // 2
        assert work["binomial"] == (calls[0] - a - 1) * product_digits(half, half), h
