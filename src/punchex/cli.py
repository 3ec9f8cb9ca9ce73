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
import functools
import json
import random
import sys
import time
from decimal import Decimal

from .boxcount import macmahon_box, theorem1_count, theorem4_count
from .core import Work, binomial, total
from .msf import (chain53_work, chain_5_3_check, conjecture5_check, conjecture5_work,
                  lemma9_check, lemma9_work, lemma10_check, lemma10_work, minor_summation,
                  minor_summation_work, theorem3_check, theorem3_work)
from .symfun import generate_rab, lemma8_check, lemma8_work, seeded_pairs
from .tiling import (PuncturedHexagon, count_via_path_determinants, enumerate_tilings,
                     path_determinant_work, render_tiling_svg, sweep_updates, tiling_family,
                     unranking_updates)


# ``count brute|lgv``, ``render`` and ``verify`` refuse up front any input
# whose estimated run time is longer (``_admit``).
BUDGET_S = 5
# Femtoseconds per unit of the work that the function next to each kernel
# counts (README, "Admission"), fitted by ``tools/fit_weights.py`` to the
# reference-clock timings in BENCH_16.json and, for ``sweep``, BENCH_20.json.
FS_PER = {"call": 4_900_000_000, "product": 190_000_000, "step": 130_000_000, "digit": 1_900,
          "pfaffian_digit": 2_500, "binomial": 81_000, "sweep": 930_000_000}

# The random instances of minor-summation and lemma9: a size drawn from
# these ranges, at most MAX_COLUMNS columns of G, entries from ENTRIES.
MINOR_SUMMATION_SIZES, LEMMA9_SIZES = range(1, 5), range(1, 6)
MAX_COLUMNS = 6
ENTRIES = (-3, 3)

# The targets checked at seeded points: how many points beyond n each draws,
# its check on (a, b, n, (p, q) pairs) and its work on (a, b, n).  The lambdas
# look the checks up at call time, so a tracer's wrapper sees every call.
POINT_TARGETS = {
    "theorem3": (1, lambda a, b, n, pts: theorem3_check(a, b, n, pts, pts[:n]), theorem3_work),
    "conjecture5": (2, lambda a, b, n, pts: conjecture5_check(a, b, n, pts), conjecture5_work),
    "chain53": (1, lambda a, b, n, pts: chain_5_3_check(a, b, n, pts, pts[:n]), chain53_work),
    "lemma10": (0, lambda a, b, n, pts: lemma10_check(a, b, n, pts), lemma10_work),
}
# The least n, on b, at which theorem3's and conjecture5's sides do not
# vanish: below it a rectangle on the right has more rows than the points it
# is evaluated at, so both sides are 0 at every point and a verdict would be
# vacuous.
LEAST_N = {"theorem3": lambda b: (b + 1) // 2, "conjecture5": lambda b: b // 2}


def _sides(parser: argparse.ArgumentParser) -> None:
    """The hexagon's sides, ``--a --b --c``."""
    for side in ("--a", "--b", "--c"):
        parser.add_argument(side, type=int, required=True)


def _closed_arguments(parser: argparse.ArgumentParser) -> None:
    _sides(parser)
    parser.add_argument("--theorem", type=int, choices=(1, 4), default=None,
                        help="force the same-parity (1) or mixed-parity (4) formula")


def _box_arguments(parser: argparse.ArgumentParser) -> None:
    for side in ("--x", "--y", "--z"):
        parser.add_argument(side, type=int, required=True)


def _brute_arguments(parser: argparse.ArgumentParser) -> None:
    _sides(parser)
    parser.add_argument("--puncture", type=int, nargs=2, default=(0, 0), metavar=("DX", "DY"),
                        help="offset of the removed triangle from its default position")


def _verify_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("target", choices=(
        "theorem3", "conjecture5", "minor-summation", "lemma9",
        "lemma10", "chain53", "lemma8",
    ))
    parser.add_argument("--a", type=int, default=1)
    parser.add_argument("--b", type=int, default=1)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=None)


def _render_arguments(parser: argparse.ArgumentParser) -> None:
    _sides(parser)
    parser.add_argument("--index", type=int, required=True,
                        help="0-based index into the deterministic enumeration order")
    parser.add_argument("-o", "--output", required=True)


# Every command: the words that name it, its help line in the command list
# and the function that adds its arguments to its parser.  Every default is
# immutable (``--puncture`` a tuple, the rest ints or None), so a parser can
# be shared by every call in a process.
COMMANDS = {
    ("count", "closed"): ("closed-form product count", _closed_arguments),
    ("count", "box"): ("plane partitions in a box", _box_arguments),
    ("count", "brute"): ("exact diagonal sweep over path families", _brute_arguments),
    ("count", "lgv"): ("lattice-path determinant count", _sides),
    ("verify",): ("check an identity exactly", _verify_arguments),
    ("render",): ("write one tiling as SVG", _render_arguments),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole command line as one tree of parsers, built on the first call
    and shared by every caller in the process after it.  ``_parse`` uses it
    only for an argv that names no command (``--help``, ``count --help``,
    unknown words) and to report leftover arguments.  Callers may parse with
    it but must not add arguments or call ``set_defaults``; ``parse_args``
    returns a fresh ``Namespace`` and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="punchex",
        description="Exact counts and identity checks for rhombus tilings of punctured hexagons",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    count = sub.add_parser("count", help="compute a tiling or box count")
    modes = count.add_subparsers(dest="mode", required=True)
    for words, (line, add_arguments) in COMMANDS.items():
        add_arguments((modes if words[0] == "count" else sub).add_parser(words[-1], help=line))
    return parser


@functools.cache
def _command_parser(words: tuple) -> argparse.ArgumentParser:
    """The parser of the command named by ``words``, built on first use and
    kept for the process: a twin of the one ``_build_parser`` places under
    those words, with the same prog and arguments."""
    parser = argparse.ArgumentParser(prog=" ".join(("punchex", *words)))
    COMMANDS[words][1](parser)
    return parser


def _parse(argv) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, with the same namespace, output
    and exit, but an argv that names a command is parsed by that command's
    parser alone: the tree would run one full parse per level."""
    argv = list(argv)
    words = tuple(argv[:2] if argv[:1] == ["count"] else argv[:1])
    if words not in COMMANDS:
        return _build_parser().parse_args(argv)
    args, extras = _command_parser(words).parse_known_args(
        argv[len(words):], argparse.Namespace(**dict(zip(("command", "mode"), words))))
    if extras:
        # the tree reports leftover arguments with the top-level usage
        _build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    return args


# ---------------------------------------------------------------------------
# verify targets
# ---------------------------------------------------------------------------

def _sizes(args):
    """(a, b, n, trials) of a ``verify``: n is b, trials 50 or 3 by default."""
    trials = 50 if args.target in ("minor-summation", "lemma9") else 3
    return (args.a, args.b, args.b if args.n is None else args.n,
            trials if args.trials is None else args.trials)


def _work(args) -> Work:
    """The work of the parsed command, as its modules count it in closed
    form, with the command's own: 1500 calls for building the command's
    parser (once per process), parsing and the report.  That is an upper
    bound, timed in a fresh process for the edges of BENCH_16.json and
    BENCH_17.json when a parse built every command's parser; a repeated
    in-process call costs less again.  A count past the budget may be only
    a lower bound (``limit``)."""
    def limit(unit: str) -> int:
        return BUDGET_S * 10 ** 15 // FS_PER[unit]

    own = {"call": 1500}  # its parser, once per process, the parse and the report
    if args.command != "verify":
        hexagon = PuncturedHexagon(args.a, args.b, args.c, tuple(getattr(args, "puncture", (0, 0))))
        if getattr(args, "mode", "") == "lgv":
            return total(path_determinant_work(hexagon), own)
        updates = (unranking_updates if args.command == "render" else sweep_updates)(
            hexagon, limit("sweep"))
        return total({"sweep": updates}, own)
    a, b, n, trials = _sizes(args)
    if args.target == "lemma8":
        return total(lemma8_work(a, b, limit("call")), own)
    if args.target in POINT_TARGETS:
        # a trial draws its points (a call each) and checks them
        extra, _, target_work = POINT_TARGETS[args.target]
        work = total(target_work(*(max(x, 0) for x in (a, b, n))), {"call": max(n, 0) + extra})
        return total(total(work, times=trials), own)
    # a random instance, priced at the mean over the sizes it draws, each
    # with the middle of its columns' range; a call for each number drawn
    bits = max(ENTRIES).bit_length()
    if args.target == "minor-summation":
        sizes = MINOR_SUMMATION_SIZES
        cols = [(max(1, size - size % 2) + MAX_COLUMNS) // 2 for size in sizes]
        works = [total(minor_summation_work(size, p, size % 2, bits),
                       {"call": 3 + size * (p + size % 2) + p * (p - 1) // 2})
                 for size, p in zip(sizes, cols)]
    else:
        sizes = LEMMA9_SIZES
        works = [total(lemma9_work(size, bits), {"call": 2 + 2 * size + size * (size - 1) // 2})
                 for size in sizes]
    return total({unit: trials * v // len(sizes) for unit, v in total(*works).items()}, own)


def _estimated_fs(args) -> int:
    """Estimated run time in femtoseconds, in integers: ``_work`` by ``FS_PER``."""
    return sum(FS_PER[unit] * v for unit, v in _work(args).items())


def _verify(args):
    """Run one verification target; returns (params, verdict, counterexample)."""
    target, seed = args.target, args.seed
    a, b, nn, t = _sizes(args)
    if t < 1:
        # a verdict over zero instances would be vacuous
        raise ValueError("--trials must be at least 1")
    if target in ("lemma8", *POINT_TARGETS) and a % 2 != b % 2:
        raise ValueError(f"verify {target} needs --a and --b of equal parity "
                         f"(got --a {a}, --b {b})")
    # the inputs the target reads, as its report names them
    params = ({"a": a, "b": b} if target == "lemma8" else {"trials": t} if target in (
        "minor-summation", "lemma9") else {"a": a, "b": b, "n": nn, "trials": t})
    _admit(f"verify {target}", _estimated_fs(args), **params)
    # sides the library refuses keep its own message
    if target in LEAST_N and min(a, b) > 0 and nn < LEAST_N[target](b):
        raise ValueError(f"verify {target} at --b {b} needs --n of at least "
                         f"{LEAST_N[target](b)} (got --n {nn}): below it both sides "
                         f"are 0 at every point")
    if target == "lemma8":
        pairs = generate_rab(a, b)
        params["pairs"] = len(pairs)
        bad = [p for p in pairs if not lemma8_check(p)]
        if bad or len(pairs) != binomial(a + b, a):
            ce = {"pairs": len(pairs), "expected_pairs": binomial(a + b, a)}
            if bad:
                ce["pair"] = {"lam": list(bad[0].lam.parts), "mu": list(bad[0].mu.parts)}
            return params, False, ce
        return params, True, None

    if target == "minor-summation":
        rng = random.Random(seed)
        for trial in range(t):
            size = rng.randrange(MINOR_SUMMATION_SIZES.start, MINOR_SUMMATION_SIZES.stop)
            q = rng.choice([x for x in (0, 1, 2) if (size + x) % 2 == 0 and x <= size])
            p = rng.randint(max(1, size - q), MAX_COLUMNS)
            G = [[rng.randint(*ENTRIES) for _ in range(p)] for _ in range(size)]
            H = [[rng.randint(*ENTRIES) for _ in range(q)] for _ in range(size)]
            lhs, rhs = minor_summation(G, H, _random_skew(rng, p))
            if lhs != rhs:
                return params, False, {"trial": trial, "n": size, "p": p, "q": q,
                                       "lhs": str(lhs), "rhs": str(rhs)}
        return params, True, None

    if target == "lemma9":
        rng = random.Random(seed)
        for trial in range(t):
            size = rng.randrange(LEMMA9_SIZES.start, LEMMA9_SIZES.stop)
            A = _random_skew(rng, size)
            bvec = [rng.randint(*ENTRIES) for _ in range(size)]
            cvec = [rng.randint(*ENTRIES) for _ in range(size)]
            d = rng.randint(*ENTRIES)
            if not lemma9_check(A, bvec, cvec, d):
                return params, False, {"trial": trial, "n": size}
        return params, True, None

    # the remaining targets are parameterized by (a, b, n) and seeded points
    extra, check, _ = POINT_TARGETS[target]
    for trial in range(t):
        pts = seeded_pairs(nn + extra, seed + trial)
        if not check(a, b, nn, pts):
            # each point as str(Fraction) prints it: p/q, or p when q is 1
            return params, False, {"trial": trial, "seed": seed + trial,
                                   "points": [f"{p}/{q}".removesuffix("/1") for p, q in pts]}
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
    """A size x size skew matrix, its upper triangle drawn row by row from ENTRIES."""
    A = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            A[i][j] = rng.randint(*ENTRIES)
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
    _admit(f"count {args.mode}", _estimated_fs(args), **params)
    if args.mode == "brute":
        return params, enumerate_tilings(PuncturedHexagon(args.a, args.b, args.c,
                                                          tuple(args.puncture)))
    return params, count_via_path_determinants(PuncturedHexagon(args.a, args.b, args.c))


def _report(command: str, params, result, t0: float, seed=None) -> str:
    """The single-line JSON report, timed from ``t0``; ``seed`` only if given."""
    payload = {"command": command, "params": params, "result": result,
               "elapsed_ms": int((time.monotonic() - t0) * 1000)}
    if seed is not None:
        payload["seed"] = seed
    return json.dumps(payload, separators=(",", ":"))


def run(argv) -> int:
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    t0 = time.monotonic()
    try:
        if args.command == "count":
            params, value = _count(args)
            print(_report(f"count {args.mode}", params, _digits(value), t0))
            return 0

        if args.command == "verify":
            params, verdict, counterexample = _verify(args)
            if counterexample is not None:
                params = dict(params, counterexample=counterexample)
            print(_report(f"verify {args.target}", params, verdict, t0, seed=args.seed))
            return 0 if verdict else 1

        hexagon = PuncturedHexagon(args.a, args.b, args.c)
        params = {"a": args.a, "b": args.b, "c": args.c, "index": args.index,
                  "output": args.output}
        _admit("render", _estimated_fs(args), **params)
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
