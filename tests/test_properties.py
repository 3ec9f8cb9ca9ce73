"""Property tests: Lemma 10, the block-Pfaffian chain and Theorem 3 at
drawn distinct rational points, 0 and negative values included."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from punchex.msf import (  # noqa: E402
    chain_5_3_check,
    lemma10_check,
    theorem3_lhs,
    theorem3_rhs,
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
