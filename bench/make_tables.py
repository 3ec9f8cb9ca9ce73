"""Regenerate the expected-value tables the benchmark checks against.

    python3 bench/make_tables.py        # from the repository root

Writes two files under bench/data/:

* ``offcentre_counts.json`` — the tiling count of every shape of the
  ``enumerate`` workload (a <= 3, b, c <= 4, a = b mod 2) at every
  off-centre puncture offset the package accepts.  The counts come from a
  column transfer-matrix count of vertex-disjoint path families written
  here, which shares no code with the package; each one is also required
  to equal ``punchex.tiling.enumerate_tilings``, and the transfer count at
  the default puncture is required to equal the closed forms.
* ``closed_band.json`` — SHA-256 digests of the decimal counts of every
  triple the ``determinants`` workload can draw from the band 21..51.
  The counts come from MacMahon's formula in factorial form,
  prod_{i<alpha} i! (i+beta+gamma)! / ((i+beta)! (i+gamma)!), combined as
  the paper's Theorems 1 and 4 state; each is also required to equal
  ``punchex.boxcount.theorem1_count`` / ``theorem4_count``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import defaultdict
from math import factorial
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import BAND_STRATA, ENUMERATE_SHAPES, band_pool  # noqa: E402


# ---------------------------------------------------------------------------
# independent tiling count: column transfer over vertex-disjoint path families
# ---------------------------------------------------------------------------

def valid_punctures(a: int, b: int, c: int):
    """Every puncture point strictly inside the hexagon (path coordinates)."""
    return [(x, y) for x in range(a + b + 1) for y in range(a + c + 1)
            if 1 <= x - y + c + 1 <= b + c]


def default_puncture(a: int, b: int, c: int):
    return ((a + b) // 2, (a + c + (c % 2 != a % 2)) // 2)


def transfer_count(a: int, b: int, c: int, puncture) -> int:
    """Families of a+1 vertex-disjoint east/south paths from A_1..A_a and the
    puncture to E_1..E_{a+1}, each path stopping at the first E it meets.

    Sweeps the columns x = 0..a+b.  The state is the set of rows at which
    paths enter a column from the west; inside a column each path runs
    south from its entry row over an interval disjoint from the others,
    then either stops at the column's E point or steps east.
    """
    starts = defaultdict(list)
    for i in range(1, a + 1):
        starts[i - 1].append(c + i)
    starts[puncture[0]].append(puncture[1])
    states = {(): 1}
    for x in range(a + b + 1):
        end_row = x - b if 0 <= x - b <= a else None
        last = x == a + b
        nxt = defaultdict(int)
        for entering, ways in states.items():
            tops = sorted(set(entering) | set(starts[x]), reverse=True)
            if len(tops) != len(entering) + len(starts[x]):
                continue  # a start lies on another path's row

            def place(i: int, exits: tuple) -> None:
                if i == len(tops):
                    nxt[exits] += ways
                    return
                top = tops[i]
                lo = tops[i + 1] + 1 if i + 1 < len(tops) else 0
                if end_row is not None and lo <= end_row <= top:
                    place(i + 1, exits)  # stops at the E point
                    lo = end_row + 1
                if not last:
                    for row in range(lo, top + 1):
                        place(i + 1, exits + (row,))

            place(0, ())
        states = nxt
    return states.get((), 0)


# ---------------------------------------------------------------------------
# independent closed forms
# ---------------------------------------------------------------------------

def box(alpha: int, beta: int, gamma: int) -> int:
    num = den = 1
    for i in range(alpha):
        num *= factorial(i) * factorial(i + beta + gamma)
        den *= factorial(i + beta) * factorial(i + gamma)
    assert num % den == 0
    return num // den


def closed(a: int, b: int, c: int) -> int:
    up = lambda x: (x + 1) // 2  # noqa: E731
    if a % 2 == b % 2 == c % 2:
        return (box(up(a), up(b), up(c)) * box(up(a + 1), b // 2, up(c))
                * box(up(a), up(b + 1), c // 2) * box(a // 2, up(b), up(c + 1)))
    middle = box((a + 1) // 2, (b + 1) // 2, (c + 1) // 2)
    return (box((a + 2) // 2, b // 2, (c + 2) // 2) * middle * middle
            * box(a // 2, (b + 2) // 2, c // 2))


def digest(value: int) -> str:
    return hashlib.sha256(str(value).encode()).hexdigest()


def main() -> None:
    from punchex.boxcount import theorem1_count, theorem4_count
    from punchex.tiling import PuncturedHexagon, enumerate_tilings

    counts = {}
    for a, b, c in ENUMERATE_SHAPES:
        centre = default_puncture(a, b, c)
        expected = (theorem1_count if c % 2 == a % 2 else theorem4_count)(a, b, c)
        if transfer_count(a, b, c, centre) != expected:
            raise SystemExit(f"transfer count disagrees with the closed form at {(a, b, c)}")
        row = {}
        for p in valid_punctures(a, b, c):
            if p == centre:
                continue
            offset = (p[0] - centre[0], p[1] - centre[1])
            value = transfer_count(a, b, c, p)
            if value != enumerate_tilings(PuncturedHexagon(a, b, c, offset)):
                raise SystemExit(f"transfer count disagrees with enumerate_tilings "
                                 f"at {(a, b, c)} offset {offset}")
            row[f"{offset[0]},{offset[1]}"] = value
        counts[f"{a},{b},{c}"] = row
    write("offcentre_counts.json", {
        "produced_by": "bench/make_tables.py: column transfer count of path "
                       "families, each equal to punchex enumerate_tilings",
        "counts": counts,
    })

    digests = {}
    for stratum in BAND_STRATA:
        for a, b, c in band_pool(stratum):
            value = closed(a, b, c)
            package = (theorem1_count if c % 2 == a % 2 else theorem4_count)(a, b, c)
            if value != package:
                raise SystemExit(f"closed forms disagree at {(a, b, c)}")
            digests[f"{a},{b},{c}"] = digest(value)
    write("closed_band.json", {
        "produced_by": "bench/make_tables.py: MacMahon's formula in factorial "
                       "form, each equal to punchex theorem1_count/theorem4_count; "
                       "values are SHA-256 of the decimal count",
        "sha256": digests,
    })


def write(name: str, payload) -> None:
    path = HERE / "data" / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main()
