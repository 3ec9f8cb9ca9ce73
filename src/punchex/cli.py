"""Command-line front end.

Every invocation prints a single-line JSON report on stdout:

    {"command": ..., "params": {...}, "result": ..., "elapsed_ms": ..., "seed": ...}

``result`` is the exact decimal count (as a string) for count commands, a
boolean for verify commands, and the output path for render.  Exit codes:
0 success / verified, 1 verification found a counterexample (reported in
params), 2 a usage error, an input refused as over the time budget, an
input the library rejects or an output file that cannot be written
(diagnostic on stderr, no JSON).
"""

from __future__ import annotations

import functools
import json
import re
import sys
import time
import types
from decimal import Decimal

from .boxcount import macmahon_box, theorem1_count, theorem4_count
from .core import Work, binomial, total
from .tiling import (PuncturedHexagon, count_via_path_determinants, enumerate_tilings,
                     path_determinant_work, render_tiling_svg, sweep_updates, tiling_family,
                     unranking_updates)


# ``count brute|lgv``, ``render`` and ``verify`` refuse up front any input
# whose estimated run time is longer (``_admit``).
BUDGET_S = 5
# Femtoseconds per unit of the work that the function next to each kernel
# counts (README, "Admission"), fitted by ``tools/fit_weights.py`` to the
# reference-clock timings in BENCH_16.json and, for ``sweep``, BENCH_20.json
# and BENCH_32.json.
FS_PER = {"call": 4_900_000_000, "product": 190_000_000, "step": 130_000_000, "digit": 1_900,
          "pfaffian_digit": 2_500, "binomial": 81_000, "sweep": 750_000_000}

# The random instances of minor-summation and lemma9: a size drawn from
# these ranges, at most MAX_COLUMNS columns of G, entries from ENTRIES.
MINOR_SUMMATION_SIZES, LEMMA9_SIZES = range(1, 5), range(1, 6)
MAX_COLUMNS = 6
ENTRIES = (-3, 3)

# The targets checked at seeded points: how many points beyond n each draws,
# its check on (a, b, n, (p, q) pairs) and its work on (a, b, n).  The lambdas
# look both up in ``msf`` (bound by ``_load_identity_layer``) at call time, so
# a tracer's wrapper sees every call.
POINT_TARGETS = {
    "theorem3": (1, lambda a, b, n, pts: msf.theorem3_check(a, b, n, pts, pts[:n]),
                 lambda a, b, n: msf.theorem3_work(a, b, n)),
    "conjecture5": (2, lambda a, b, n, pts: msf.conjecture5_check(a, b, n, pts),
                    lambda a, b, n: msf.conjecture5_work(a, b, n)),
    "chain53": (1, lambda a, b, n, pts: msf.chain_5_3_check(a, b, n, pts, pts[:n]),
                lambda a, b, n: msf.chain53_work(a, b, n)),
    "lemma10": (0, lambda a, b, n, pts: msf.lemma10_check(a, b, n, pts),
                lambda a, b, n: msf.lemma10_work(a, b, n)),
}
# The least n, on b, at which theorem3's and conjecture5's sides do not
# vanish: below it a rectangle on the right has more rows than the points it
# is evaluated at, so both sides are 0 at every point and a verdict would be
# vacuous.
LEAST_N = {"theorem3": lambda b: (b + 1) // 2, "conjecture5": lambda b: b // 2}


_SIDES = tuple(((side,), {"type": int, "required": True}) for side in ("--a", "--b", "--c"))
_A_B = tuple(((side,), {"type": int, "default": 1}) for side in ("--a", "--b"))
_SEED = (("--seed",), {"type": int, "default": 0})
# the options of the targets checked at seeded points, and of those that draw random instances
_POINTS = (*_A_B, (("--n",), {"type": int, "default": None}), _SEED,
           (("--trials",), {"type": int, "default": 3}))
_DRAWS = (_SEED, (("--trials",), {"type": int, "default": 50}))
# Every command: the words that name it, its help line in the command list
# and its arguments, each the flags and keywords of one ``add_argument``, in
# the order its report's params name them (``_params``).  ``_build_parser``
# builds argparse's tree from this table and ``_read`` reads a plain argv
# with it.  Every default is immutable (``--puncture`` a tuple, the rest
# ints or None), so a parser can be shared by every call in a process.
COMMANDS = {
    ("count", "closed"): ("closed-form product count", (*_SIDES, (("--theorem",), {
        "type": int, "choices": (1, 4), "default": None,
        "help": "force the same-parity (1) or mixed-parity (4) formula"}))),
    ("count", "box"): ("plane partitions in a box", tuple(
        ((side,), {"type": int, "required": True}) for side in ("--x", "--y", "--z"))),
    ("count", "brute"): ("exact diagonal sweep over path families", (*_SIDES, (("--puncture",), {
        "type": int, "nargs": 2, "default": (0, 0), "metavar": ("DX", "DY"),
        "help": "offset of the removed triangle from its default position"}))),
    ("count", "lgv"): ("lattice-path determinant count", _SIDES),
    ("verify", "theorem3"): ("Theorem 3: the R(a,b) sum against four rectangles", _POINTS),
    ("verify", "conjecture5"): ("Conjecture 5: Theorem 3 with two more points", _POINTS),
    ("verify", "minor-summation"): ("the minor summation formula on random matrices", _DRAWS),
    ("verify", "lemma9"): ("Lemma 9 on random skew matrices", _DRAWS),
    ("verify", "lemma10"): ("Lemma 10: chain53's moment Pfaffians as Schur values", _POINTS),
    ("verify", "chain53"): ("the R(a,b) sum as a block Pfaffian", _POINTS),
    ("verify", "lemma8"): ("Lemma 8 on every pair of R(a,b)", (*_A_B, _SEED)),
    ("render",): ("write one tiling as SVG", (*_SIDES, (("--index",), {
        "type": int, "required": True,
        "help": "0-based index into the deterministic enumeration order"}),
        (("-o", "--output"), {"required": True}))),
}

# argparse's pattern for an argument that looks like a negative number: as
# no option string looks like one, such an argument is a value, not an option
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


@functools.cache
def _build_parser():
    """The whole command line as one tree of argparse parsers, built from
    COMMANDS on the first call and shared by every caller in the process
    after it; only it prints help pages and usage errors.  Callers may parse
    with it but must not add arguments or call ``set_defaults``."""
    import argparse

    parser = argparse.ArgumentParser(prog="punchex", description=(
        "Exact counts and identity checks for rhombus tilings of punctured hexagons"))
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {word: sub.add_parser(word, help=line).add_subparsers(dest="mode", required=True)
              for word, line in (("count", "compute a tiling or box count"),
                                 ("verify", "check an identity exactly"))}
    for words, (line, arguments) in COMMANDS.items():
        command = groups.get(words[0], sub).add_parser(words[-1], help=line)
        for flags, keywords in arguments:
            command.add_argument(*flags, **keywords)
    return parser


def _parse(argv):
    """``_build_parser().parse_args(argv)``, with the same ``vars``, output
    and exit; ``_read`` reads a plain argv that names a command without it."""
    argv = list(argv)
    words = tuple(argv[:1] if argv[:1] == ["render"] else argv[:2])
    args = _read(words, argv[len(words):]) if words in COMMANDS else None
    return _build_parser().parse_args(argv) if args is None else args


@functools.cache
def _arguments(words):
    """The table ``_read`` reads the command ``words`` with, built once:
    each flag's dest (its last, long, form without the dashes) and
    keywords, the values before any argument and the required dests."""
    arguments = {flag: (flags[-1].lstrip("-"), keywords)
                 for flags, keywords in COMMANDS[words][1] for flag in flags}
    values = dict(zip(("command", "mode"), words))
    values.update((dest, keywords.get("default")) for dest, keywords in arguments.values())
    required = {dest for dest, keywords in arguments.values() if keywords.get("required")}
    return arguments, values, frozenset(required)


def _read(words, rest):
    """What argparse makes of ``rest`` under the command ``words``, or None
    (argparse must parse it) unless each argument is an option of the
    command spelt out with its number of values, none like an option but a
    negative number, each converted and in its choices, and every required
    option is given."""
    arguments, values, missing = _arguments(words)
    values, missing = dict(values), set(missing)
    i = 0
    while i < len(rest):
        if rest[i] not in arguments:
            return None
        dest, keywords = arguments[rest[i]]
        count = keywords.get("nargs", 1)
        raw, i = rest[i + 1:i + 1 + count], i + 1 + count
        if len(raw) < count or any(v[:1] == "-" and not _NEGATIVE.match(v) for v in raw):
            return None
        try:
            got = [keywords.get("type", str)(v) for v in raw]
        except ValueError:
            return None
        if any(v not in keywords.get("choices", (v,)) for v in got):
            return None
        values[dest] = got if "nargs" in keywords else got[0]
        missing.discard(dest)
    return None if missing else types.SimpleNamespace(**values)


def _words(args):
    """The words that name the parsed command, its key in COMMANDS."""
    return (args.command, args.mode) if hasattr(args, "mode") else (args.command,)


def _params(args):
    """The params of the parsed command's report, which ``_admit`` names
    too: each argument of its row in order but ``--seed``, a pair as a
    list, n as b when not given and ``--theorem`` as the formula that runs."""
    params = {}
    for flags, keywords in COMMANDS[_words(args)][1]:
        dest = flags[-1].lstrip("-")
        value = getattr(args, dest)
        if dest == "n" and value is None:
            value = args.b
        elif dest == "theorem" and value is None:
            if args.a % 2 != args.b % 2:
                raise ValueError("no closed formula: a and b must have equal parity")
            value = 1 if args.b % 2 == args.c % 2 else 4
        if dest != "seed":
            params[dest] = list(value) if "nargs" in keywords else value
    return params


# ---------------------------------------------------------------------------
# verify targets
# ---------------------------------------------------------------------------

@functools.cache
def _load_identity_layer() -> None:
    """Bind ``msf``, ``symfun`` and ``random`` in this module, once a process,
    for the first ``verify``: ``count`` and ``render`` never import them.
    ``_work`` calls it, and every ``verify`` is priced before it runs.  Every
    use looks its function up on the module at call time."""
    global msf, random, symfun
    import random

    from . import msf, symfun


def _work(args) -> Work:
    """The work of the parsed command, as its modules count it in closed
    form, with the command's own: 1500 calls for the parse and the report.
    That is an upper bound, timed in a fresh process for the edges of
    BENCH_16.json and BENCH_17.json when every parse built argparse's whole
    tree; the plain reader, which builds no parser, costs less again.  A
    count past the budget may be only a lower bound (``limit``)."""
    def limit(unit: str) -> int:
        return BUDGET_S * 10 ** 15 // FS_PER[unit]

    own = {"call": 1500}  # the parse and the report
    if args.command != "verify":
        hexagon = _hexagon(args)
        if getattr(args, "mode", "") == "lgv":
            return total(path_determinant_work(hexagon), own)
        updates = (unranking_updates if args.command == "render" else sweep_updates)(
            hexagon, limit("sweep"))
        return total({"sweep": updates}, own)
    _load_identity_layer()
    if args.mode == "lemma8":
        return total(symfun.lemma8_work(args.a, args.b, limit("call")), own)
    if args.mode in POINT_TARGETS:
        # a trial draws its points (a call each) and checks them
        extra, _, target_work = POINT_TARGETS[args.mode]
        a, b, n = (max(x, 0) for x in (args.a, args.b, _params(args)["n"]))
        work = total(target_work(a, b, n), {"call": n + extra})
        return total(total(work, times=args.trials), own)
    # a random instance, priced at the mean over the sizes it draws, each
    # with the middle of its columns' range; a call for each number drawn
    bits = max(ENTRIES).bit_length()
    if args.mode == "minor-summation":
        sizes = MINOR_SUMMATION_SIZES
        cols = [(max(1, size - size % 2) + MAX_COLUMNS) // 2 for size in sizes]
        works = [total(msf.minor_summation_work(size, p, size % 2, bits),
                       {"call": 3 + size * (p + size % 2) + p * (p - 1) // 2})
                 for size, p in zip(sizes, cols)]
    else:
        sizes = LEMMA9_SIZES
        works = [total(msf.lemma9_work(size, bits), {"call": 2 + 2 * size + size * (size - 1) // 2})
                 for size in sizes]
    return total({unit: args.trials * v // len(sizes) for unit, v in total(*works).items()}, own)


def _estimated_fs(args) -> int:
    """Estimated run time in femtoseconds, in integers: ``_work`` by ``FS_PER``."""
    return sum(FS_PER[unit] * v for unit, v in _work(args).items())


def _verify(args, params):
    """Run one verification target on its report's ``params``, to which
    lemma8 adds its count of pairs; returns (verdict, counterexample)."""
    target, seed = args.mode, args.seed
    a, b, nn, t = (params.get(name) for name in ("a", "b", "n", "trials"))
    if "trials" in params and t < 1:
        # a verdict over zero instances would be vacuous
        raise ValueError("--trials must be at least 1")
    if "b" in params and a % 2 != b % 2:
        raise ValueError(f"verify {target} needs --a and --b of equal parity "
                         f"(got --a {a}, --b {b})")
    _admit(f"verify {target}", _estimated_fs(args), **params)
    # sides the library refuses keep its own message
    if target in LEAST_N and min(a, b) > 0 and nn < LEAST_N[target](b):
        raise ValueError(f"verify {target} at --b {b} needs --n of at least "
                         f"{LEAST_N[target](b)} (got --n {nn}): below it both sides "
                         f"are 0 at every point")
    if target == "lemma8":
        # each pair is checked as it is made and then dropped; the first refused is kept
        pairs, bad = 0, None
        for pairs, pair in enumerate(symfun.iter_rab(a, b), 1):
            if not symfun.lemma8_check(pair):
                bad = bad or pair
        params["pairs"] = pairs
        if bad or pairs != binomial(a + b, a):
            ce = {"pairs": pairs, "expected_pairs": binomial(a + b, a)}
            if bad:
                ce["pair"] = {"lam": list(bad.lam.parts), "mu": list(bad.mu.parts)}
            return False, ce
        return True, None

    if target == "minor-summation":
        rng = random.Random(seed)
        for trial in range(t):
            size = rng.randrange(MINOR_SUMMATION_SIZES.start, MINOR_SUMMATION_SIZES.stop)
            q = rng.choice([x for x in (0, 1, 2) if (size + x) % 2 == 0 and x <= size])
            p = rng.randint(max(1, size - q), MAX_COLUMNS)
            G = [[rng.randint(*ENTRIES) for _ in range(p)] for _ in range(size)]
            H = [[rng.randint(*ENTRIES) for _ in range(q)] for _ in range(size)]
            lhs, rhs = msf.minor_summation(G, H, _random_skew(rng, p))
            if lhs != rhs:
                return False, {"trial": trial, "n": size, "p": p, "q": q,
                               "lhs": str(lhs), "rhs": str(rhs)}
        return True, None

    if target == "lemma9":
        rng = random.Random(seed)
        for trial in range(t):
            size = rng.randrange(LEMMA9_SIZES.start, LEMMA9_SIZES.stop)
            A = _random_skew(rng, size)
            bvec = [rng.randint(*ENTRIES) for _ in range(size)]
            cvec = [rng.randint(*ENTRIES) for _ in range(size)]
            d = rng.randint(*ENTRIES)
            if not msf.lemma9_check(A, bvec, cvec, d):
                return False, {"trial": trial, "n": size}
        return True, None

    # the remaining targets are parameterized by (a, b, n) and seeded points
    extra, check, _ = POINT_TARGETS[target]
    for trial in range(t):
        pts = symfun.seeded_pairs(nn + extra, seed + trial)
        if not check(a, b, nn, pts):
            # each point as str(Fraction) prints it: p/q, or p when q is 1
            return False, {"trial": trial, "seed": seed + trial,
                           "points": [f"{p}/{q}".removesuffix("/1") for p, q in pts]}
    return True, None


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

def _hexagon(args) -> PuncturedHexagon:
    """The hexagon of a parsed ``count brute|lgv`` or ``render``, punctured
    at ``--puncture``'s offset where the command takes one."""
    return PuncturedHexagon(args.a, args.b, args.c, tuple(getattr(args, "puncture", (0, 0))))


def _count(args, params):
    """Run one ``count`` mode on its report's ``params``; returns the count."""
    if args.mode == "box":
        return macmahon_box(args.x, args.y, args.z)
    if args.mode == "closed":
        fn = theorem1_count if params["theorem"] == 1 else theorem4_count
        return fn(args.a, args.b, args.c)
    _admit(f"count {args.mode}", _estimated_fs(args), **params)
    count = enumerate_tilings if args.mode == "brute" else count_via_path_determinants
    return count(_hexagon(args))


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
        command, params = " ".join(_words(args)), _params(args)
        if args.command == "count":
            print(_report(command, params, _digits(_count(args, params)), t0))
            return 0

        if args.command == "verify":
            verdict, counterexample = _verify(args, params)
            if counterexample is not None:
                params["counterexample"] = counterexample
            print(_report(command, params, verdict, t0, seed=args.seed))
            return 0 if verdict else 1

        hexagon = _hexagon(args)
        _admit(command, _estimated_fs(args), **params)
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
