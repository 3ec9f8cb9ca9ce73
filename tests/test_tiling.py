"""Tests for the lattice-path model: brute-force enumeration, the
lattice-path determinant count, and SVG rendering."""

from punchex.boxcount import theorem1_count, theorem4_count
from punchex.tiling import (
    LatticePoint,
    PathFamily,
    PuncturedHexagon,
    count_paths,
    count_via_path_determinants,
    enumerate_tilings,
    render_tiling_svg,
    start_end_points,
    tiling_families,
    validate_family,
)


def _expect_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        return
    raise AssertionError(f"expected ValueError from {fn.__name__}{args}")


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def test_hexagon_validation():
    _expect_value_error(PuncturedHexagon, 0, 2, 2)
    _expect_value_error(PuncturedHexagon, 1, 2, 1)  # a, b parity differs
    _expect_value_error(PuncturedHexagon, 1, 1, 1, (5, 5))  # puncture outside
    _expect_value_error(PuncturedHexagon, 1, 1, 1, (-3, 0))
    # (2,1) sits on the path-end boundary line, not strictly inside
    _expect_value_error(PuncturedHexagon, 1, 1, 1, (1, 0))


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
# brute force
# ---------------------------------------------------------------------------

def test_enumerate_matches_closed_forms_small():
    for (a, b, c) in [(1, 1, 1), (1, 1, 3), (2, 2, 2), (1, 3, 1), (3, 3, 1)]:
        h = PuncturedHexagon(a, b, c)
        assert enumerate_tilings(h) == theorem1_count(a, b, c), (a, b, c)
    for (a, b, c) in [(1, 1, 2), (2, 2, 1), (1, 3, 2), (3, 1, 2)]:
        h = PuncturedHexagon(a, b, c)
        assert enumerate_tilings(h) == theorem4_count(a, b, c), (a, b, c)


def test_enumerate_off_center_puncture():
    # no closed form applies off the standard positions; the value below
    # was confirmed by listing the path families by hand
    assert enumerate_tilings(PuncturedHexagon(1, 1, 1, (0, 1))) == 3


def test_enumerate_guards():
    _expect_value_error(enumerate_tilings, PuncturedHexagon(5, 5, 1))
    _expect_value_error(enumerate_tilings, PuncturedHexagon(1, 7, 1))
    _expect_value_error(enumerate_tilings, PuncturedHexagon(1, 1, 7))


def test_families_golden_order():
    h = PuncturedHexagon(1, 1, 1)
    fams = list(tiling_families(h))
    assert len(fams) == 2 == enumerate_tilings(h)
    # deterministic order: east steps preferred, first start point first
    assert fams[0].paths == (
        ((0, 2), (1, 2), (2, 2), (2, 1)),
        ((1, 1), (1, 0)),
    )
    assert fams[1].paths == (
        ((0, 2), (0, 1), (0, 0), (1, 0)),
        ((1, 1), (2, 1)),
    )
    assert list(tiling_families(h)) == fams  # stable across runs


def test_families_are_valid_and_counted_consistently():
    for (a, b, c) in [(1, 1, 1), (2, 2, 2), (1, 1, 2), (2, 2, 1)]:
        h = PuncturedHexagon(a, b, c)
        fams = list(tiling_families(h))
        assert len(fams) == enumerate_tilings(h)
        for f in fams:
            validate_family(h, f)
        # all families distinct
        assert len(set(f.paths for f in fams)) == len(fams)


def test_validate_family_rejects_tampering():
    h = PuncturedHexagon(1, 1, 1)
    good = next(iter(tiling_families(h)))
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
    # every puncture strictly inside the hexagon, both parities of c
    cases = 0
    for a in range(1, 4):
        for b in range(1, 4):
            if a % 2 != b % 2:
                continue
            for c in range(1, 4):
                anchor = PuncturedHexagon(a, b, c).puncture_point()
                for px in range(a + b + 1):
                    for py in range(a + c + 1):
                        offset = (px - anchor.x, py - anchor.y)
                        try:
                            h = PuncturedHexagon(a, b, c, offset)
                        except ValueError:
                            continue
                        assert count_via_path_determinants(h) == enumerate_tilings(h), (
                            a, b, c, offset)
                        cases += 1
    assert cases == 240
    h = PuncturedHexagon(2, 4, 2)
    assert count_via_path_determinants(h) == enumerate_tilings(h)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_svg_structure():
    h = PuncturedHexagon(1, 1, 1)
    fams = list(tiling_families(h))
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
    fam = next(iter(tiling_families(h)))
    svg = render_tiling_svg(h, fam)
    # area (a+b+c+1)^2 - a^2 - b^2 - c^2 = 19 triangles -> 9 rhombi + 1 hole
    assert svg.count("<polygon") == 10


def test_render_rejects_foreign_family():
    h = PuncturedHexagon(1, 1, 1)
    other = next(iter(tiling_families(PuncturedHexagon(1, 1, 2))))
    _expect_value_error(render_tiling_svg, h, other)
