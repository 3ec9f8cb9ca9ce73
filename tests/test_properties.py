"""Property tests: Lemma 10, the block-Pfaffian chain and Theorem 3 at
drawn distinct rational points, 0 and negative values included; the
counting routes against each other at drawn hexagons and punctures; and the
command line's plain reader against argparse at drawn argv."""

import os
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from test_cli import _parse_outcome  # noqa: E402

from punchex import cli  # noqa: E402
from punchex.boxcount import theorem1_count, theorem4_count  # noqa: E402
from punchex.core import Partition, conjugate  # noqa: E402
from punchex.msf import (  # noqa: E402
    chain_5_3_check,
    lemma10_check,
    theorem3_lhs,
    theorem3_rhs,
)
from punchex.tiling import (  # noqa: E402
    PuncturedHexagon,
    count_via_path_determinants,
    enumerate_tilings,
    tiling_family,
    validate_family,
)


@st.composite
def instances(draw):
    """(a, b, n, X_{n+1}): same-parity a, b <= 4, b <= n <= b + 2 and n + 1
    distinct rationals, one of them set to 0 in about half the draws."""
    a = draw(st.integers(1, 4))
    b = draw(st.sampled_from([x for x in range(1, 5) if x % 2 == a % 2]))
    n = draw(st.integers(b, b + 2))
    pts = draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=6),
                        min_size=n + 1, max_size=n + 1, unique=True))
    if Fraction(0) not in pts and draw(st.booleans()):
        pts[draw(st.integers(0, n))] = Fraction(0)
    return a, b, n, tuple(pts)


@settings(max_examples=16, derandomize=True, deadline=None, database=None)
@given(instances())
def test_theorem3_chain_and_lemma10_at_drawn_points(case):
    a, b, n, pts1 = case
    pts0 = pts1[:n]
    # Lemma 10 on X_n (ambient n), and on X_{n+1} (ambients n + 1 and n)
    assert lemma10_check(a, b, n, pts0)
    assert lemma10_check(a, b, n + 1, pts1)
    assert chain_5_3_check(a, b, n, pts1, pts0)
    assert theorem3_lhs(a, b, n, pts1, pts0) == theorem3_rhs(a, b, n, pts1, pts0)


@st.composite
def hexagons(draw):
    """A punctured hexagon with a <= 3, b, c <= 5, a and b of equal parity,
    punctured at a drawn point strictly inside it (the default in about a
    quarter of the draws)."""
    a = draw(st.integers(1, 3))
    b = draw(st.sampled_from([x for x in range(1, 6) if x % 2 == a % 2]))
    c = draw(st.integers(1, 5))
    if draw(st.integers(0, 3)) == 0:
        return PuncturedHexagon(a, b, c)
    # strictly inside: 0 <= x <= a+b, 0 <= y <= a+c, -c <= x - y <= b - 1
    x = draw(st.integers(0, a + b))
    y = draw(st.integers(max(0, x - b + 1), min(a + c, x + c)))
    anchor = PuncturedHexagon(a, b, c).puncture_point()
    return PuncturedHexagon(a, b, c, (x - anchor.x, y - anchor.y))


def _steps(family):
    """A family's steps in depth-first order, east (0) before south (1)."""
    return [int(v.x == u.x) for path in family for u, v in zip(path, path[1:])]


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(hexagons(), st.integers(0, 10 ** 12))
def test_counting_routes_agree_and_unranking_is_ordered(h, draw):
    count = enumerate_tilings(h)
    assert count == count_via_path_determinants(h)
    if h.puncture_offset == (0, 0):
        closed = theorem1_count if h.c % 2 == h.a % 2 else theorem4_count
        assert count == closed(h.a, h.b, h.c)
    if count > 1:
        k = draw % (count - 1)
        first, second = tiling_family(h, k), tiling_family(h, k + 1)
        validate_family(h, first)
        assert _steps(first) < _steps(second)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(st.lists(st.integers(0, 12), max_size=10))
def test_conjugate_is_a_partition_and_an_involution(parts):
    p = Partition(sorted(parts, reverse=True))
    conj = conjugate(p)
    assert type(conj) is Partition
    assert conj == Partition(conj)  # weakly decreasing, positive parts
    assert sum(conj) == sum(p) and len(conj) == (p[0] if p else 0)
    assert conjugate(conj) == p


# option strings spelt out, abbreviated and with "=v"; values, negative,
# malformed and blank ones; positionals, "--" and help
_FLAGS = sorted({flag for _, arguments in cli.COMMANDS.values()
                 for flags, _ in arguments for flag in flags if flag[0] == "-"})
_VALUES = ("0", "1", "4", "-1", "-12", "-2.5", "x", "", " 3", "-x")
_TOKENS = (*_FLAGS, *_VALUES, "--the", "--pun", "--ind", "--out", "--tri", "--se", "--h",
           "--a=1", "--puncture=-1", "--output=x.svg", "--theorem=4", "--", "-h", "--help",
           "theorem3", "lemma8", "theorem12")


@st.composite
def argvs(draw):
    """A command's words, then in drawn order: its required arguments with
    valid values (in about half the draws), some of its options each with
    its number of values, and a few chunks of any tokens: one token, or an
    option string with one or two values."""
    words = draw(st.sampled_from(sorted(cli.COMMANDS)))
    arguments = cli.COMMANDS[words][1]
    chunks = [((keywords["choices"][0],) if flags[0][0] != "-" else (flags[-1], "1"))
              for flags, keywords in arguments
              if flags[0][0] != "-" or keywords.get("required")] if draw(st.booleans()) else []
    own = [(flags[-1], keywords.get("nargs", 1)) for flags, keywords in arguments
           if flags[0][0] == "-"]
    chunks += draw(st.lists(st.sampled_from(own).flatmap(lambda option: st.tuples(
        st.just(option[0]), *[st.sampled_from(("1", "-1", "-x"))] * option[1])), max_size=3))
    chunks += draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(_TOKENS)),
        st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES)),
        st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES), st.sampled_from(_VALUES))),
        max_size=2))
    return [*words, *(token for chunk in draw(st.permutations(chunks)) for token in chunk)]


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(argvs())
def test_plain_reader_matches_the_tree_on_drawn_argv(argv):
    # argparse wraps help at the terminal's width
    with mock.patch.dict(os.environ, COLUMNS="80"):
        assert _parse_outcome(cli._parse, argv) == _parse_outcome(
            cli._build_parser().parse_args, argv)
