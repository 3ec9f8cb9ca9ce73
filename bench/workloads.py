"""The benchmark's three workloads: inputs drawn from a seed, each with its check.

Every instance drives the package from outside, through ``punchex.cli.run``
(stdout captured) or a public library function, and checks the answer
against an oracle.  Library entry points are looked up on their module at
call time, so the wrappers that ``tracing`` installs see every call.

* ``enumerate`` — ``count brute`` on every shape with a <= 3, b, c <= 4 and
  a = b (mod 2), both parities of c, at the default puncture and at four
  off-centre offsets (one drawn from each quartile of the shape's offsets
  ordered by count, so every seed does a similar amount of work), plus four
  larger shapes at the default puncture: the exhaustive search in
  ``tiling``.  No determinant or Schur code runs.
* ``determinants`` — ``count lgv`` on all 54 same-parity triples with
  a, b, c <= 6, each checked against ``count closed``, plus ``count closed``
  for Theorems 1 and 4 at one triple drawn from each of eight strata of the
  band 21..51: the midpoint sum (``core.determinant`` on small integer
  matrices, ``count_paths``) and ``macmahon_box`` at large sides.  No Schur
  or Pfaffian code runs.
* ``identities`` — ``verify conjecture5`` at a = b = 4, n = 6 and the CLI's
  default points, then ``verify theorem3|chain53|lemma10|conjecture5`` for
  same-parity a, b <= 4 and n in {b, b+1, b+2} at two point seeds shared by
  the four targets, ``verify minor-summation|lemma9`` at drawn seeds,
  ``verify lemma8`` for a, b <= 6, and the all-ones and zero-appended
  specialisations of ``msf.theorem3_lhs``.  The time is Schur evaluation,
  ``core.determinant`` over Fraction and ``core.pfaffian``; no ``tiling``
  code runs.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Callable, List, NamedTuple

DATA = Path(__file__).resolve().parent / "data"

ENUMERATE_SHAPES = [(a, b, c) for a in (1, 2, 3) for b in (1, 2, 3, 4)
                    for c in (1, 2, 3, 4) if a % 2 == b % 2]
ENUMERATE_EXTRA = [(3, 3, 5), (3, 5, 3), (2, 4, 6), (4, 4, 3)]
ENUMERATE_LARGEST = (4, 4, 3)
LGV_LARGEST = (6, 6, 6)
OFFSETS_PER_SHAPE = 4

# The band 21..51 in eight strata of width 3; even strata use Theorem 1,
# odd strata Theorem 4.  One triple per stratum keeps the cost of the band
# nearly the same for every seed, since macmahon_box grows like its volume.
BAND_STRATA = tuple(range(21, 50, 4))

IDENTITY_TARGETS = ("theorem3", "chain53", "lemma10", "conjecture5")


class Instance(NamedTuple):
    label: str
    check: Callable[[], bool]  # runs the instance; True iff the answer is right
    largest: bool = False


def band_theorem(stratum: int) -> int:
    return 1 if BAND_STRATA.index(stratum) % 2 == 0 else 4


def band_pool(stratum: int):
    """Every triple of the stratum with the parity pattern of its theorem."""
    sides = range(stratum, stratum + 3)
    same = band_theorem(stratum) == 1
    return [(a, b, c) for a in sides for b in sides for c in sides
            if a % 2 == b % 2 and (c % 2 == a % 2) == same]


def cli(argv: List[str]):
    """Run the CLI in-process; (exit code, parsed report or None)."""
    from punchex import cli as front

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = front.run([str(x) for x in argv])
    return code, (json.loads(out.getvalue()) if code in (0, 1) else None)


def cli_result(argv: List[str]):
    code, report = cli(argv)
    return report["result"] if code == 0 else None


def _load(name: str):
    return json.loads((DATA / name).read_text())


# ---------------------------------------------------------------------------
# enumerate and determinants
# ---------------------------------------------------------------------------

def _closed(a: int, b: int, c: int) -> int:
    from punchex.boxcount import theorem1_count, theorem4_count

    return (theorem1_count if c % 2 == a % 2 else theorem4_count)(a, b, c)


def _brute(a: int, b: int, c: int, offset, expected: int, largest=False) -> Instance:
    argv = ["count", "brute", "--a", a, "--b", b, "--c", c, "--puncture", *offset]
    return Instance(f"brute {a},{b},{c} @{offset[0]},{offset[1]}",
                    lambda: cli_result(argv) == str(expected), largest)


def build_enumerate(rng: random.Random) -> List[Instance]:
    table = _load("offcentre_counts.json")["counts"]
    out = []
    for a, b, c in ENUMERATE_SHAPES:
        out.append(_brute(a, b, c, (0, 0), _closed(a, b, c)))
        ranked = sorted(table[f"{a},{b},{c}"].items(), key=lambda kv: (kv[1], kv[0]))
        n = len(ranked)
        for q in range(OFFSETS_PER_SHAPE):
            key, count = rng.choice(ranked[q * n // OFFSETS_PER_SHAPE:
                                           (q + 1) * n // OFFSETS_PER_SHAPE])
            out.append(_brute(a, b, c, tuple(int(v) for v in key.split(",")), count))
    for shape in ENUMERATE_EXTRA:
        out.append(_brute(*shape, (0, 0), _closed(*shape), shape == ENUMERATE_LARGEST))
    return out


def _lgv(a: int, b: int, c: int) -> Instance:
    def check() -> bool:
        value = cli_result(["count", "lgv", "--a", a, "--b", b, "--c", c])
        return value is not None and value == cli_result(
            ["count", "closed", "--a", a, "--b", b, "--c", c])
    return Instance(f"lgv {a},{b},{c}", check, (a, b, c) == LGV_LARGEST)


def _band(a: int, b: int, c: int, theorem: int, digest: str) -> Instance:
    def check() -> bool:
        value = cli_result(["count", "closed", "--a", a, "--b", b, "--c", c,
                            "--theorem", theorem])
        return value is not None and hashlib.sha256(value.encode()).hexdigest() == digest
    return Instance(f"closed {a},{b},{c} theorem {theorem}", check)


def build_determinants(rng: random.Random) -> List[Instance]:
    digests = _load("closed_band.json")["sha256"]
    out = [_lgv(a, b, c) for a in range(1, 7) for b in range(1, 7) for c in range(1, 7)
           if a % 2 == b % 2 == c % 2]
    for stratum in BAND_STRATA:
        a, b, c = rng.choice(band_pool(stratum))
        out.append(_band(a, b, c, band_theorem(stratum), digests[f"{a},{b},{c}"]))
    return out


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def _verify(target: str, *args, largest=False) -> Instance:
    argv = ["verify", target, *args]

    def check() -> bool:
        code, report = cli(argv)
        return code == 0 and report["result"] is True
    return Instance(" ".join(str(x) for x in argv), check, largest)


def _specialisation(a: int, b: int, n: int, pts, expected: int, tag: str) -> Instance:
    from punchex import msf

    return Instance(f"theorem3_lhs {tag} {a},{b},{n}",
                    lambda: msf.theorem3_lhs(a, b, n, pts, pts[:n]) == expected)


def build_identities(rng: random.Random) -> List[Instance]:
    # The largest instance is the top size at the CLI's default points, run
    # first so its caches are cold, as for a user's own invocation.  At drawn
    # points its cost varied by a third between seeds.
    out = [_verify("conjecture5", "--a", 4, "--b", 4, "--n", 6, largest=True)]
    point_seeds = rng.sample(range(10 ** 6), 2)
    same_parity = [(a, b) for a in range(1, 5) for b in range(1, 5) if a % 2 == b % 2]
    for a, b in same_parity:
        for n in (b, b + 1, b + 2):
            for s in point_seeds:
                for target in IDENTITY_TARGETS:
                    out.append(_verify(target, "--a", a, "--b", b, "--n", n,
                                       "--seed", s, "--trials", 1))
    for target in ("minor-summation", "lemma9"):
        for s in rng.sample(range(10 ** 6), 2):
            out.append(_verify(target, "--seed", s))
    out += [_verify("lemma8", "--a", a, "--b", b)
            for a in range(1, 7) for b in range(1, 7) if a % 2 == b % 2]
    one, zero = Fraction(1), Fraction(0)
    for a, b in same_parity:
        for c in range(1, 6):
            if c % 2 == b % 2 and c <= 4:
                n = (b + c) // 2
                out.append(_specialisation(a, b, n, (one,) * (n + 1), _closed(a, b, c), "ones"))
            elif c % 2 != b % 2:
                n = (b + c + 1) // 2
                out.append(_specialisation(a, b, n, (one,) * n + (zero,), _closed(a, b, c), "zero"))
    return out


BUILDERS = {"enumerate": build_enumerate, "determinants": build_determinants,
            "identities": build_identities}


def build(workload: str, seed: int) -> List[Instance]:
    instances = BUILDERS[workload](random.Random(seed))
    if sum(inst.largest for inst in instances) != 1:
        raise RuntimeError(f"{workload}: expected exactly one largest instance")
    return instances
