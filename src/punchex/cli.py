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
    sweep_updates,
    tiling_family,
)


# Largest R(a,b) that ``verify lemma8`` admits, C(14, 7) pairs: it walks the
# pairs, and this is its only bound (about 0.1 s at this size).  The other
# R(a,b) targets are priced past it by two more terms (``_estimated_fs``).
MAX_RAB_PAIRS = 3432
RAB_TARGETS = ("theorem3", "conjecture5", "chain53", "lemma8")

# ``count brute``, ``render`` and ``verify`` refuse up front any input whose
# estimated run time is longer (``_admit``).
BUDGET_S = 5
# Femtoseconds per unit of work, fitted to timings on one core of a 2-core
# x86 host (Python 3.11) and raised, so that few admitted inputs run much
# past the budget; see ``_estimated_fs`` and the README.
FS_PER = {"schur_sum": 400_000_000_000, "schur_point": 1_300_000_000, "schur_row": 13_000_000_000,
          "schur_cell": 400_000_000, "schur_step": 470_000_000, "schur_digit": 140_000,
          "schur_dense": 8_000, "rectangle_step": 32_000_000, "rectangle_digit": 10_000,
          "pfaffian_step": 150_000_000, "chain53_entry": 2_000_000_000, "chain53_digit": 460,
          "lemma10_digit": 1_100, "lemma10_point": 240, "lemma10_tail": 880,
          "rectangle_h_table": 100_000, "rectangle_h_digit": 1_800,
          "minor-summation": 250_000_000_000, "lemma9": 100_000_000_000,
          "sweep": 2_400_000_000, "sweep_path": 18_000_000}

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

    ``minor-summation`` and ``lemma9`` cost a fixed time per trial, all
    of it integer elimination on matrices of size at most 7.  A trial
    of an R(a,b) target draws L points (n+1, n+2 for conjecture5), builds
    their e-tables and evaluates the sum over R(a,b) as one integer
    determinant of size k = a+1; theorem3 and conjecture5 add four
    rectangles of at most half that size and up to (b+2)/2 rows.  So a
    trial costs a fixed time, about L^2 operations for the points and
    tables, a+b for the a+b+1 rows of the sum's two matrices F and G and
    the rectangles' parts, k^3 elimination steps and k^4 L^2 digit
    operations as the entries grow.  Those weights were fitted up to
    C(14, 7) pairs, where they also cover the product F^T G; past it, a
    large b adds its (k-1) k (a+b) products, and b near a fills it in,
    k^4 L^2 min(a, b) more digit operations.  lemma10 evaluates two rectangles per alphabet at
    L = n points, R_A and R_B on the first and R_B and R_C on the second,
    each priced by the determinant ``symfun._schur_from_table`` takes.  A
    rectangle of r rows and k columns with r^2 < k is the determinant in
    h of size r: its table of Q^j h_j, j < k+r, takes about k L products
    of entries of up to k L digits, priced k^2 (L+1)^3, and its
    elimination r^5 (k L)^2.  Any other rectangle is the dual determinant,
    priced by the bound k = (a+2)/2 columns and r = b/2+1 rows at about
    k^3 steps and k^4 L^2 r digit operations.  chain53 computes only the
    (n+1) x n block N of G A G^T, a+b products an entry, priced per
    product.  The moment Pfaffians are integer: chain53 takes one of size
    K = 4n-2b+2, at about K^3 elimination steps and K^5 (n+a) (s+1) digit
    operations, s = (a+b)/2.  lemma10 takes one of size K = 2n-b+2 per
    alphabet (two when n-1 >= b), at K^3 steps and the smaller of two
    digit bounds, K^5 (n+a) (s+1) and K^3 (n (n+a))^2 + b^5 (n+a)^2: its
    n point rows carry entries of about n+a digits, and the b or so
    points left without a border column cost the most.  The digit terms
    are forms fitted to timings, not derived;
    the weights, in ``FS_PER``, are the fits raised.  lemma8 is bounded by
    MAX_RAB_PAIRS alone.
    """
    if target in ("minor-summation", "lemma9", "lemma8"):  # lemma8 has no FS_PER weight
        return trials * FS_PER.get(target, 0)
    n, s, digit_fs = max(n, 0), (a + b) // 2, 0
    work = dict.fromkeys(FS_PER, 0)
    if target in RAB_TARGETS:
        k, L = max(a, 0) + 1, n + (2 if target == "conjecture5" else 1)
        work["schur_sum"] += 1
        work["schur_point"] += L ** 2
        work["schur_row"] += max(a + b, 0)
        work["schur_step"] += k ** 3
        work["schur_digit"] += k ** 4 * L ** 2
        # the weights above hold where they were fitted, up to C(14, 7) pairs
        if a + b > MAX_RAB_PAIRS or binomial(a + b, a) > MAX_RAB_PAIRS:
            work["schur_cell"] += (k - 1) * k * (a + b)
            work["schur_dense"] += k ** 4 * L ** 2 * max(min(a, b), 0)
    if target == "chain53":
        K = 4 * n - 2 * b + 2
        work["pfaffian_step"] += K ** 3
        work["chain53_entry"] += (n + 1) * n * max(a + b, 0)
        work["chain53_digit"] += K ** 5 * (n + a) * (s + 1)
    if target == "lemma10":
        alphabets, K = (2 if n - 1 >= b else 1), 2 * n - b + 2
        work["pfaffian_step"] += alphabets * K ** 3
        # digit operations: the smaller of two fitted bounds, one growing as
        # (n+a)(s+1), one following the n point rows and the b rows that the
        # pairing leaves without a border column
        digit_fs += alphabets * min(
            FS_PER["lemma10_digit"] * K ** 5 * (n + a) * (s + 1),
            FS_PER["lemma10_point"] * K ** 3 * (n * (n + a)) ** 2
            + FS_PER["lemma10_tail"] * b ** 5 * (n + a) ** 2)
        # (R_A, R_B) on the first alphabet and (R_B, R_C) on the second, as
        # (columns, rows), each by the determinant _schur_from_table takes
        widest = (a + 2) // 2
        rects = [(widest, b // 2), ((a + 1) // 2, (b + 1) // 2)]
        rects += [rects[1], (a // 2, (b + 2) // 2)]
        for k, r in rects[:2 * alphabets]:
            if k < 1 or r < 1:  # an empty shape: no determinant
                continue
            if r * r < k:
                work["rectangle_h_table"] += k ** 2 * (n + 1) ** 3
                work["rectangle_h_digit"] += r ** 5 * (k * n) ** 2
            else:
                work["rectangle_step"] += widest ** 3
                work["rectangle_digit"] += widest ** 4 * n ** 2 * (b // 2 + 1)
    return trials * (digit_fs + sum(FS_PER[unit] * w for unit, w in work.items()))


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
    if target == "lemma8" and (a + b > MAX_RAB_PAIRS or binomial(a + b, a) > MAX_RAB_PAIRS):
        raise ValueError(f"R({a},{b}) has C(a+b, a) > {MAX_RAB_PAIRS} pairs, "
                         "more than verify lemma8 admits")
    _admit(f"verify {target}", _estimated_fs(target, a, b, nn, t), a=a, b=b, n=nn, trials=t)
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
            G = [[rng.randint(-3, 3) for _ in range(p)] for _ in range(size)]
            H = [[rng.randint(-3, 3) for _ in range(q)] for _ in range(size)]
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


def _admit(command: str, fs: int, **params) -> None:
    """Refuse (ValueError, so exit 2) an input of ``command`` whose estimated
    run time ``fs``, in femtoseconds, is over the budget; ``params`` name
    the input in the message."""
    if fs > BUDGET_S * 10 ** 15:
        raise ValueError(f"{command} at {', '.join(f'{k}={v}' for k, v in params.items())} "
                         f"would take about {Decimal(fs) / 10 ** 15:.2g} s, "
                         f"more than the {BUDGET_S} s {command.split()[0]} admits")


def _random_skew(rng: random.Random, size: int):
    """A size x size skew matrix, its upper triangle drawn row by row from -3..3."""
    A = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            A[i][j] = rng.randint(-3, 3)
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
        _admit("count brute", _sweep_fs(hexagon, 1), **params)
        return params, enumerate_tilings(hexagon)
    return params, count_via_path_determinants(PuncturedHexagon(args.a, args.b, args.c))


def _sweep_fs(hexagon: PuncturedHexagon, sweeps: int) -> int:
    """Estimated run time, in femtoseconds, of ``sweeps`` full diagonal
    sweeps over ``hexagon``: ``sweep_updates`` state updates each, an update
    copying and hashing a tuple of up to a+1 positions.  Past the budget it
    may be only ``sweep_updates``' lower bound."""
    per = FS_PER["sweep"] + FS_PER["sweep_path"] * (hexagon.a + 1)
    return sweeps * per * sweep_updates(hexagon, BUDGET_S * 10 ** 15 // (per * sweeps))


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

        # render: tiling_family runs one sweep, then one per path step, b+c+1
        # for each path from A_i and b-d from the puncture on diagonal d
        hexagon = PuncturedHexagon(args.a, args.b, args.c)
        p = hexagon.puncture_point()
        sweeps = 1 + args.a * (args.b + args.c + 1) + args.b - (p.x - p.y)
        params = {"a": args.a, "b": args.b, "c": args.c, "index": args.index,
                  "output": args.output}
        _admit("render", _sweep_fs(hexagon, sweeps), **params)
        svg = render_tiling_svg(hexagon, tiling_family(hexagon, args.index))
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
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
