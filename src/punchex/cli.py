"""Command-line front end.

Every invocation prints a single-line JSON report on stdout:

    {"command": ..., "params": {...}, "result": ..., "elapsed_ms": ..., "seed": ...}

``result`` is the exact decimal count (as a string) for count commands, a
boolean for verify commands, and the output path for render.  Exit codes:
0 success / verified, 1 verification found a counterexample (reported in
params), 2 usage error (diagnostic on stderr, no JSON).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from itertools import islice
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
    tiling_families,
)


class Report:
    """Machine-readable invocation report (single-line JSON)."""

    def __init__(self, command, params, result, elapsed_ms, seed=None):
        self.command = command
        self.params = params
        self.result = result
        self.elapsed_ms = elapsed_ms
        self.seed = seed

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "params": self.params,
            "result": self.result,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.seed is not None:
            payload["seed"] = self.seed
        return json.dumps(payload, separators=(",", ":"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="punchex",
        description="Exact counts and identity checks for rhombus tilings of punctured hexagons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="compute a tiling or box count")
    cmodes = count.add_subparsers(dest="mode", required=True)

    closed = cmodes.add_parser("closed", help="closed-form product count")
    closed.add_argument("--a", type=int, required=True)
    closed.add_argument("--b", type=int, required=True)
    closed.add_argument("--c", type=int, required=True)
    closed.add_argument("--theorem", type=int, choices=(1, 4), default=None,
                        help="force the same-parity (1) or mixed-parity (4) formula")

    box = cmodes.add_parser("box", help="plane partitions in a box")
    box.add_argument("--x", type=int, required=True)
    box.add_argument("--y", type=int, required=True)
    box.add_argument("--z", type=int, required=True)

    brute = cmodes.add_parser("brute", help="exact diagonal sweep over path families")
    brute.add_argument("--a", type=int, required=True)
    brute.add_argument("--b", type=int, required=True)
    brute.add_argument("--c", type=int, required=True)
    brute.add_argument("--puncture", type=int, nargs=2, default=(0, 0),
                       metavar=("DX", "DY"),
                       help="offset of the removed triangle from its default position")

    lgv = cmodes.add_parser("lgv", help="lattice-path determinant count")
    lgv.add_argument("--a", type=int, required=True)
    lgv.add_argument("--b", type=int, required=True)
    lgv.add_argument("--c", type=int, required=True)

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

    render = sub.add_parser("render", help="write one tiling as SVG")
    render.add_argument("--a", type=int, required=True)
    render.add_argument("--b", type=int, required=True)
    render.add_argument("--c", type=int, required=True)
    render.add_argument("--index", type=int, required=True,
                        help="0-based index into the deterministic enumeration order")
    render.add_argument("-o", "--output", required=True)

    return parser


# ---------------------------------------------------------------------------
# verify targets
# ---------------------------------------------------------------------------

def _verify(target: str, a: int, b: int, n: Optional[int], seed: int,
            trials: Optional[int]):
    """Run one verification target; returns (params, verdict, counterexample)."""
    if trials is not None and trials < 1:
        # a verdict over zero instances would be vacuous
        raise ValueError("--trials must be at least 1")
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
        t = 50 if trials is None else trials
        rng = random.Random(seed)
        params = {"trials": t}
        for trial in range(t):
            nn = rng.randint(1, 4)
            q = rng.choice([x for x in (0, 1, 2) if (nn + x) % 2 == 0 and x <= nn])
            p = rng.randint(max(1, nn - q), 6)
            G = [[Fraction(rng.randint(-3, 3)) for _ in range(p)] for _ in range(nn)]
            H = [[Fraction(rng.randint(-3, 3)) for _ in range(q)] for _ in range(nn)]
            A = [[Fraction(0)] * p for _ in range(p)]
            for i in range(p):
                for j in range(i + 1, p):
                    A[i][j] = Fraction(rng.randint(-3, 3))
                    A[j][i] = -A[i][j]
            lhs, rhs = minor_summation(G, H, A)
            if lhs != rhs:
                return params, False, {"trial": trial, "n": nn, "p": p, "q": q,
                                       "lhs": str(lhs), "rhs": str(rhs)}
        return params, True, None

    if target == "lemma9":
        t = 50 if trials is None else trials
        rng = random.Random(seed)
        params = {"trials": t}
        for trial in range(t):
            nn = rng.randint(1, 5)
            A = [[Fraction(0)] * nn for _ in range(nn)]
            for i in range(nn):
                for j in range(i + 1, nn):
                    A[i][j] = Fraction(rng.randint(-3, 3))
                    A[j][i] = -A[i][j]
            bvec = [rng.randint(-3, 3) for _ in range(nn)]
            cvec = [rng.randint(-3, 3) for _ in range(nn)]
            d = rng.randint(-3, 3)
            if not lemma9_check(A, bvec, cvec, d):
                return params, False, {"trial": trial, "n": nn}
        return params, True, None

    # the remaining targets are parameterized by (a, b, n) and seeded points
    nn = b if n is None else n
    t = 3 if trials is None else trials
    params = {"a": a, "b": b, "n": nn, "trials": t}
    for trial in range(t):
        trial_seed = seed + trial
        if target == "theorem3":
            pts1 = seeded_points(nn + 1, trial_seed)
            ok = theorem3_lhs(a, b, nn, pts1, pts1[:nn]) == theorem3_rhs(
                a, b, nn, pts1, pts1[:nn]
            )
        elif target == "conjecture5":
            pts2 = seeded_points(nn + 2, trial_seed)
            ok = conjecture5_check(a, b, nn, pts2)
        elif target == "chain53":
            pts1 = seeded_points(nn + 1, trial_seed)
            ok = chain_5_3_check(a, b, nn, pts1, pts1[:nn])
        elif target == "lemma10":
            pts = seeded_points(nn, trial_seed)
            ok = lemma10_check(a, b, nn, pts)
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(f"unknown verify target {target!r}")
        if not ok:
            pts_used = {
                "theorem3": nn + 1, "conjecture5": nn + 2,
                "chain53": nn + 1, "lemma10": nn,
            }[target]
            ce = {
                "trial": trial,
                "seed": trial_seed,
                "points": [str(x) for x in seeded_points(pts_used, trial_seed)],
            }
            return params, False, ce
    return params, True, None


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else 2

    t0 = time.monotonic()
    try:
        if args.command == "count":
            if args.mode == "closed":
                theorem = args.theorem
                if theorem is None:
                    if args.a % 2 == args.b % 2 == args.c % 2:
                        theorem = 1
                    elif args.a % 2 == args.b % 2:
                        theorem = 4
                    else:
                        raise ValueError(
                            "no closed formula: a and b must have equal parity"
                        )
                fn = theorem1_count if theorem == 1 else theorem4_count
                value = fn(args.a, args.b, args.c)
                params = {"a": args.a, "b": args.b, "c": args.c, "theorem": theorem}
                report = Report("count closed", params, str(value), _ms(t0))
            elif args.mode == "box":
                value = macmahon_box(args.x, args.y, args.z)
                params = {"x": args.x, "y": args.y, "z": args.z}
                report = Report("count box", params, str(value), _ms(t0))
            elif args.mode == "brute":
                hexagon = PuncturedHexagon(args.a, args.b, args.c, tuple(args.puncture))
                value = enumerate_tilings(hexagon)
                params = {"a": args.a, "b": args.b, "c": args.c,
                          "puncture": list(args.puncture)}
                report = Report("count brute", params, str(value), _ms(t0))
            else:
                hexagon = PuncturedHexagon(args.a, args.b, args.c)
                value = count_via_path_determinants(hexagon)
                params = {"a": args.a, "b": args.b, "c": args.c}
                report = Report("count lgv", params, str(value), _ms(t0))
            print(report.to_json())
            return 0

        if args.command == "verify":
            params, verdict, counterexample = _verify(
                args.target, args.a, args.b, args.n, args.seed, args.trials
            )
            if counterexample is not None:
                params = dict(params)
                params["counterexample"] = counterexample
            report = Report(f"verify {args.target}", params, verdict, _ms(t0),
                            seed=args.seed)
            print(report.to_json())
            return 0 if verdict else 1

        # render
        hexagon = PuncturedHexagon(args.a, args.b, args.c)
        count = enumerate_tilings(hexagon)
        if not 0 <= args.index < count:
            raise ValueError(f"index {args.index} is out of range: there are {count} tilings")
        family = next(islice(tiling_families(hexagon), args.index, None))
        svg = render_tiling_svg(hexagon, family)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
        params = {"a": args.a, "b": args.b, "c": args.c, "index": args.index,
                  "output": args.output}
        report = Report("render", params, args.output, _ms(t0))
        print(report.to_json())
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _ms(t0: float) -> int:
    return int((time.monotonic() - t0) * 1000)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
