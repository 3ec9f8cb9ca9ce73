"""Command-line front end.

Every invocation prints a single-line JSON report on stdout:

    {"command": ..., "params": {...}, "result": ..., "elapsed_ms": ..., "seed": ...}

``result`` is the exact decimal count (as a string) for count commands, a
boolean for verify commands, and the output path for render.  Exit codes:
0 success / verified, 1 verification found a counterexample (reported in
params), 2 usage error or an output file that cannot be written (diagnostic
on stderr, no JSON).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction
from typing import Optional

from .boxcount import macmahon_box, theorem1_count, theorem4_count
from .core import binomial
from .msf import (
    chain_5_3_check,
    conjecture5_check,
    lemma9_check,
    lemma10_check,
    minor_summation,
    theorem3_lhs,
    theorem3_rhs,
)
from .symfun import generate_rab, lemma8_check, seeded_points
from .tiling import (
    PuncturedHexagon,
    count_via_path_determinants,
    enumerate_tilings,
    render_tiling_svg,
    tiling_family,
)


# Largest R(a,b) that ``verify theorem3|conjecture5|chain53|lemma8`` walk,
# C(14, 7) pairs.  It is lemma8's only bound (about 0.1 s at this size), and
# it keeps the cost estimate below from computing C(a+b, a) for huge sides.
MAX_RAB_PAIRS = 3432
RAB_TARGETS = ("theorem3", "conjecture5", "chain53", "lemma8")

# ``verify`` refuses up front any input whose estimated run time is longer.
VERIFY_BUDGET_S = 5
# Femtoseconds per unit of work, fitted to timings with cold caches (one
# core of a 2-core x86 host, Python 3.11) and then raised by 60%, so that
# few admitted inputs run much past the budget; see ``_estimated_fs``.
FS_PER = {"schur_value": 93_000_000_000, "schur_step": 78_000_000, "schur_digit": 13_000,
          "rectangle_step": 32_000_000, "rectangle_digit": 10_000,
          "pfaffian_step": 150_000_000, "chain53_digit": 460, "lemma10_digit": 1_100,
          "minor-summation": 360_000_000_000, "lemma9": 125_000_000_000}

# The targets checked at seeded points: how many points beyond n each draws,
# and its check on (a, b, n, points).  The lambdas look the checks up at call
# time, so a wrapper bound over a module global (a tracer's) sees every call.
POINT_TARGETS = {
    "theorem3": (1, lambda a, b, n, pts: theorem3_lhs(a, b, n, pts, pts[:n])
                 == theorem3_rhs(a, b, n, pts, pts[:n])),
    "conjecture5": (2, lambda a, b, n, pts: conjecture5_check(a, b, n, pts)),
    "chain53": (1, lambda a, b, n, pts: chain_5_3_check(a, b, n, pts, pts[:n])),
    "lemma10": (0, lambda a, b, n, pts: lemma10_check(a, b, n, pts)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="punchex",
        description="Exact counts and identity checks for rhombus tilings of punctured hexagons",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the hexagon's sides; argparse lists a parent's arguments first
    sides = argparse.ArgumentParser(add_help=False)
    for side in ("--a", "--b", "--c"):
        sides.add_argument(side, type=int, required=True)

    count = sub.add_parser("count", help="compute a tiling or box count")
    cmodes = count.add_subparsers(dest="mode", required=True)

    closed = cmodes.add_parser("closed", parents=[sides], help="closed-form product count")
    closed.add_argument("--theorem", type=int, choices=(1, 4), default=None,
                        help="force the same-parity (1) or mixed-parity (4) formula")

    box = cmodes.add_parser("box", help="plane partitions in a box")
    box.add_argument("--x", type=int, required=True)
    box.add_argument("--y", type=int, required=True)
    box.add_argument("--z", type=int, required=True)

    brute = cmodes.add_parser("brute", parents=[sides],
                              help="exact diagonal sweep over path families")
    brute.add_argument("--puncture", type=int, nargs=2, default=(0, 0),
                       metavar=("DX", "DY"),
                       help="offset of the removed triangle from its default position")

    cmodes.add_parser("lgv", parents=[sides], help="lattice-path determinant count")

    verify = sub.add_parser("verify", help="check an identity exactly")
    verify.add_argument("target", choices=(
        "theorem3", "conjecture5", "minor-summation", "lemma9",
        "lemma10", "chain53", "lemma8",
    ))
    verify.add_argument("--a", type=int, default=1)
    verify.add_argument("--b", type=int, default=1)
    verify.add_argument("--n", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--trials", type=int, default=None)

    render = sub.add_parser("render", parents=[sides], help="write one tiling as SVG")
    render.add_argument("--index", type=int, required=True,
                        help="0-based index into the deterministic enumeration order")
    render.add_argument("-o", "--output", required=True)

    return parser


# ---------------------------------------------------------------------------
# verify targets
# ---------------------------------------------------------------------------

def _estimated_fs(target: str, a: int, b: int, n: int, trials: int) -> int:
    """Estimated run time of ``verify target`` in femtoseconds, in integers
    so that huge inputs cannot overflow.

    ``minor-summation`` and ``lemma9`` cost a fixed time per trial.  A trial
    of the other targets evaluates Schur values, each an integer
    Jacobi-Trudi determinant of size k over the e-table of an alphabet of
    L points: a fixed cost, about k^3 elimination steps, and about
    k^4 L^2 digit operations as the entries grow.  An R(a,b) target
    evaluates m = 2 C(a+b, a) values, plus four rectangles for theorem3
    and conjecture5, with k <= a+1 (lambda_1 <= a+1 over R(a,b)) and
    L = n+1 (n+2 for conjecture5).  Few of them reach that bound when b is
    small (the mean of lambda_1^3 / (a+1)^3 is about 0.27 at b = 1, 0.48 at
    b = 3 and 0.62 at b = 7), so both terms carry the factor b/(b+2).
    lemma10 evaluates two rectangles per alphabet, with k <= (a+2)/2,
    L = n and at most r = b/2+1 rows; they are priced apart, since k is
    nearly exact for them, and their digit work grows with r as well.
    The moment Pfaffians are integer: chain53 takes one of size
    K = 4n-2b+2, and lemma10 one of size K = 2n-b+2 per alphabet (two when
    n-1 >= b).  Each costs about K^3 elimination steps and
    K^5 (n+a) (s+1) digit operations, s = (a+b)/2.  The digit terms and
    the factor b/(b+2) are forms fitted to timings, not derived.  Measured
    times of 440 inputs that took 0.2 s or more were 0.38x..1.21x the
    estimate.  lemma8 is bounded by MAX_RAB_PAIRS alone.

    The weights were fitted when each R(a,b) term was its own Fraction.
    An R(a,b) sum now reads each pair's two minors from its index vector,
    adds the terms over ``int`` and divides once per sum; no admitted
    input got slower, so ``FS_PER`` still bounds them all and is left as
    it was, but it now overstates the R(a,b) targets at a ~ b by about
    2.4x more than before (theorem3 at a = b = 7, n = 8: 0.75 s -> 0.32 s
    on a 2-core x86 host, Python 3.11) and at a << b by about 3.7x more
    (a = 4, b = 14, n = 14: 0.44 s -> 0.12 s).
    """
    if target in ("minor-summation", "lemma9"):
        return trials * FS_PER[target]
    if target == "lemma8":
        return 0
    n, s = max(n, 0), (a + b) // 2
    work = dict.fromkeys(FS_PER, 0)
    if target in RAB_TARGETS:
        m = 2 * binomial(a + b, a) + (0 if target == "chain53" else 4)
        k, L, b0 = a + 1, n + (2 if target == "conjecture5" else 1), max(b, 0)
        work["schur_value"] += m
        work["schur_step"] += m * k ** 3 * b0 // (b0 + 2)
        work["schur_digit"] += m * k ** 4 * L ** 2 * b0 // (b0 + 2)
    if target == "chain53":
        K = 4 * n - 2 * b + 2
        work["pfaffian_step"] += K ** 3
        work["chain53_digit"] += K ** 5 * (n + a) * (s + 1)
    if target == "lemma10":
        alphabets, K = (2 if n - 1 >= b else 1), 2 * n - b + 2
        work["pfaffian_step"] += alphabets * K ** 3
        work["lemma10_digit"] += alphabets * K ** 5 * (n + a) * (s + 1)
        k = (a + 2) // 2
        work["rectangle_step"] += 2 * alphabets * k ** 3
        work["rectangle_digit"] += 2 * alphabets * k ** 4 * n ** 2 * (b // 2 + 1)
    return trials * sum(FS_PER[unit] * w for unit, w in work.items())


def _verify(target: str, a: int, b: int, n: Optional[int], seed: int,
            trials: Optional[int]):
    """Run one verification target; returns (params, verdict, counterexample)."""
    t = (50 if target in ("minor-summation", "lemma9") else 3) if trials is None else trials
    nn = b if n is None else n
    if t < 1:
        # a verdict over zero instances would be vacuous
        raise ValueError("--trials must be at least 1")
    if target in RAB_TARGETS + ("lemma10",) and a % 2 != b % 2:
        raise ValueError(f"verify {target} needs --a and --b of equal parity "
                         f"(got --a {a}, --b {b})")
    # C(a+b, a) >= a+b once a, b >= 1, so the first test spares computing a
    # huge binomial for huge sides
    if target in RAB_TARGETS and (
        a + b > MAX_RAB_PAIRS or binomial(a + b, a) > MAX_RAB_PAIRS
    ):
        raise ValueError(
            f"R({a},{b}) has C(a+b, a) > {MAX_RAB_PAIRS} pairs, "
            f"more than verify {target} admits"
        )
    estimate = _estimated_fs(target, a, b, nn, t)
    if estimate > VERIFY_BUDGET_S * 10 ** 15:
        raise ValueError(
            f"verify {target} at a={a}, b={b}, n={nn}, trials={t} would take about "
            f"{Decimal(estimate) / 10 ** 15:.2g} s, more than the {VERIFY_BUDGET_S} s "
            "verify admits"
        )
    if target == "lemma8":
        pairs = generate_rab(a, b)
        params = {"a": a, "b": b, "pairs": len(pairs)}
        bad = [p for p in pairs if not lemma8_check(p)]
        if bad or len(pairs) != binomial(a + b, a):
            ce = {"pairs": len(pairs), "expected_pairs": binomial(a + b, a)}
            if bad:
                ce["pair"] = {"lam": list(bad[0].lam.parts), "mu": list(bad[0].mu.parts)}
            return params, False, ce
        return params, True, None

    if target == "minor-summation":
        rng = random.Random(seed)
        params = {"trials": t}
        for trial in range(t):
            size = rng.randint(1, 4)
            q = rng.choice([x for x in (0, 1, 2) if (size + x) % 2 == 0 and x <= size])
            p = rng.randint(max(1, size - q), 6)
            G = [[Fraction(rng.randint(-3, 3)) for _ in range(p)] for _ in range(size)]
            H = [[Fraction(rng.randint(-3, 3)) for _ in range(q)] for _ in range(size)]
            lhs, rhs = minor_summation(G, H, _random_skew(rng, p))
            if lhs != rhs:
                return params, False, {"trial": trial, "n": size, "p": p, "q": q,
                                       "lhs": str(lhs), "rhs": str(rhs)}
        return params, True, None

    if target == "lemma9":
        rng = random.Random(seed)
        params = {"trials": t}
        for trial in range(t):
            size = rng.randint(1, 5)
            A = _random_skew(rng, size)
            bvec = [rng.randint(-3, 3) for _ in range(size)]
            cvec = [rng.randint(-3, 3) for _ in range(size)]
            d = rng.randint(-3, 3)
            if not lemma9_check(A, bvec, cvec, d):
                return params, False, {"trial": trial, "n": size}
        return params, True, None

    # the remaining targets are parameterized by (a, b, n) and seeded points
    extra, check = POINT_TARGETS[target]
    params = {"a": a, "b": b, "n": nn, "trials": t}
    for trial in range(t):
        pts = seeded_points(nn + extra, seed + trial)
        if not check(a, b, nn, pts):
            ce = {"trial": trial, "seed": seed + trial, "points": [str(x) for x in pts]}
            return params, False, ce
    return params, True, None


def _random_skew(rng: random.Random, size: int):
    """A size x size skew matrix, its upper triangle drawn row by row from -3..3."""
    A = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            A[i][j] = Fraction(rng.randint(-3, 3))
            A[j][i] = -A[i][j]
    return A


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _count(args):
    """Run one ``count`` mode; returns (params, value)."""
    if args.mode == "box":
        return {"x": args.x, "y": args.y, "z": args.z}, macmahon_box(args.x, args.y, args.z)
    params = {"a": args.a, "b": args.b, "c": args.c}
    if args.mode == "closed":
        theorem = args.theorem
        if theorem is None:
            if args.a % 2 == args.b % 2 == args.c % 2:
                theorem = 1
            elif args.a % 2 == args.b % 2:
                theorem = 4
            else:
                raise ValueError("no closed formula: a and b must have equal parity")
        params["theorem"] = theorem
        fn = theorem1_count if theorem == 1 else theorem4_count
        return params, fn(args.a, args.b, args.c)
    if args.mode == "brute":
        params["puncture"] = list(args.puncture)
        hexagon = PuncturedHexagon(args.a, args.b, args.c, tuple(args.puncture))
        return params, enumerate_tilings(hexagon)
    return params, count_via_path_determinants(PuncturedHexagon(args.a, args.b, args.c))


def _report(command: str, params, result, t0: float, seed=None) -> str:
    """The single-line JSON report, timed from ``t0``; ``seed`` only if given."""
    payload = {"command": command, "params": params, "result": result,
               "elapsed_ms": int((time.monotonic() - t0) * 1000)}
    if seed is not None:
        payload["seed"] = seed
    return json.dumps(payload, separators=(",", ":"))


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    t0 = time.monotonic()
    try:
        if args.command == "count":
            params, value = _count(args)
            print(_report(f"count {args.mode}", params, _digits(value), t0))
            return 0

        if args.command == "verify":
            params, verdict, counterexample = _verify(
                args.target, args.a, args.b, args.n, args.seed, args.trials
            )
            if counterexample is not None:
                params = dict(params, counterexample=counterexample)
            print(_report(f"verify {args.target}", params, verdict, t0, seed=args.seed))
            return 0 if verdict else 1

        # render
        hexagon = PuncturedHexagon(args.a, args.b, args.c)
        svg = render_tiling_svg(hexagon, tiling_family(hexagon, args.index))
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
        params = {"a": args.a, "b": args.b, "c": args.c, "index": args.index,
                  "output": args.output}
        print(_report("render", params, args.output, t0))
        return 0
    except (ValueError, OSError) as exc:
        # OSError: an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _digits(value: int) -> str:
    """Exact decimal form of ``value``.  ``str`` on an int refuses more than
    ``sys.get_int_max_str_digits()`` digits (4300 by default); ``Decimal``
    converts any int exactly and prints it in full."""
    return str(Decimal(value))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
