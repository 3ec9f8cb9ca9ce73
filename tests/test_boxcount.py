"""Tests for box counts and the two closed-form product formulas."""

from fractions import Fraction

from punchex.boxcount import (
    enumerate_plane_partitions,
    macmahon_box,
    theorem1_count,
    theorem4_count,
)


def _expect_value_error(fn, *args):
    try:
        fn(*args)
    except ValueError:
        return
    raise AssertionError(f"expected ValueError from {fn.__name__}{args}")


# ---------------------------------------------------------------------------
# plane partitions in a box
# ---------------------------------------------------------------------------

def test_macmahon_box_values():
    assert macmahon_box(1, 1, 1) == 2
    assert macmahon_box(2, 2, 2) == 20
    assert macmahon_box(3, 3, 3) == 980
    assert macmahon_box(2, 3, 3) == 175
    assert macmahon_box(2, 2, 3) == 50
    assert macmahon_box(1, 2, 3) == 10
    # a zero dimension leaves only the empty plane partition
    assert macmahon_box(0, 5, 5) == 1
    assert macmahon_box(2, 0, 3) == 1
    assert macmahon_box(0, 0, 0) == 1
    _expect_value_error(macmahon_box, -1, 2, 2)


def _oracle_macmahon_box(alpha, beta, gamma):
    """The double product over the base of (i+j+gamma-1)/(i+j-1), one
    factor per cell, accumulated as a Fraction."""
    num = den = 1
    for i in range(1, alpha + 1):
        for j in range(1, beta + 1):
            num *= i + j + gamma - 1
            den *= i + j - 1
    value = Fraction(num, den)
    assert value.denominator == 1
    return int(value)


def test_macmahon_box_matches_cellwise_product():
    for x in range(9):
        for y in range(9):
            for z in range(9):
                assert macmahon_box(x, y, z) == _oracle_macmahon_box(x, y, z), (x, y, z)
    assert macmahon_box(51, 51, 51) == _oracle_macmahon_box(51, 51, 51)


def test_macmahon_box_symmetry():
    triples = [(1, 2, 3), (2, 2, 3), (1, 1, 4), (2, 3, 4)]
    for (x, y, z) in triples:
        vals = {
            macmahon_box(x, y, z), macmahon_box(x, z, y),
            macmahon_box(y, x, z), macmahon_box(y, z, x),
            macmahon_box(z, x, y), macmahon_box(z, y, x),
        }
        assert len(vals) == 1, (x, y, z, vals)


def test_enumerate_matches_product():
    for x in range(0, 3):
        for y in range(0, 3):
            for z in range(0, 4):
                assert enumerate_plane_partitions(x, y, z) == macmahon_box(x, y, z), (x, y, z)


def test_enumerate_guards():
    # base area and height guards keep the recursive fill bounded
    _expect_value_error(enumerate_plane_partitions, 5, 4, 2)
    _expect_value_error(enumerate_plane_partitions, 2, 2, 9)
    # the guard boundary itself is allowed
    assert enumerate_plane_partitions(4, 4, 2) == macmahon_box(4, 4, 2) == 1764
    assert enumerate_plane_partitions(1, 2, 8) == macmahon_box(1, 2, 8)


# ---------------------------------------------------------------------------
# closed-form tiling counts
# ---------------------------------------------------------------------------

def test_theorem1_values():
    assert theorem1_count(1, 1, 1) == 2
    assert theorem1_count(2, 2, 2) == 54
    assert theorem1_count(3, 3, 3) == 4320
    assert theorem1_count(3, 5, 5) == 8750000
    assert theorem1_count(3, 3, 5) == 100000
    assert theorem1_count(1, 5, 5) == 2000
    assert theorem1_count(2, 4, 4) == 12000
    assert theorem1_count(3, 5, 1) == 240


def test_theorem1_validation():
    _expect_value_error(theorem1_count, 1, 2, 1)  # mixed parity
    _expect_value_error(theorem1_count, 2, 2, 1)  # c parity differs
    _expect_value_error(theorem1_count, 0, 2, 2)
    _expect_value_error(theorem1_count, 1, 1, -1)


def test_theorem1_is_symmetric_in_b_and_c():
    # the region is unchanged under the reflection swapping the b and c sides
    for (a, b, c) in [(1, 1, 3), (3, 3, 5), (2, 2, 4), (3, 5, 1), (1, 3, 5)]:
        assert theorem1_count(a, b, c) == theorem1_count(a, c, b), (a, b, c)


def test_theorem4_values():
    assert theorem4_count(1, 1, 2) == 4
    assert theorem4_count(2, 2, 1) == 12
    assert theorem4_count(2, 2, 3) == 162
    assert theorem4_count(3, 3, 2) == 648
    assert theorem4_count(1, 3, 2) == 27


def test_theorem4_validation():
    _expect_value_error(theorem4_count, 1, 2, 2)  # a, b parity differs
    _expect_value_error(theorem4_count, 2, 2, 2)  # c must have opposite parity
    _expect_value_error(theorem4_count, 1, 1, 1)
    _expect_value_error(theorem4_count, 0, 2, 1)


def test_theorem4_is_not_symmetric_in_a_and_b():
    # unlike the equal-parity case, the removed triangle sits off center
    # here, so swapping a and b genuinely changes the region (the brute
    # force route confirms both values; see the tiling tests)
    assert theorem4_count(1, 3, 2) == 27
    assert theorem4_count(3, 1, 2) == 18


def test_theorem1_is_invariant_under_cyclic_rotation():
    for (a, b, c) in [(1, 1, 3), (3, 5, 1), (2, 2, 4), (1, 3, 5)]:
        assert theorem1_count(a, b, c) == theorem1_count(b, c, a), (a, b, c)
