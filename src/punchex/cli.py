"""Command-line front end.

Every invocation prints a single-line JSON report on stdout:

    {"command": ..., "params": {...}, "result": ..., "elapsed_ms": ..., "seed": ...}

``result`` is the exact decimal count (as a string) for count commands, a
boolean for verify commands, and the output path for render.  Exit codes:
0 success / verified, 1 verification found a counterexample (reported in
params), 2 a usage error, an input refused as over the time budget, an
input the library rejects or an output file that cannot be written
(diagnostic on stderr, no JSON).

Each command is one row of ``COMMANDS``: its help line, its arguments, its
price (the work it will do, which ``_admit`` holds to the budget before it
runs) and its run.  ``run`` takes every command through the same steps.
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

# The least n, on b, at which theorem3's and conjecture5's sides do not
# vanish: below it a rectangle on the right has more rows than the points it
# is evaluated at, so both sides are 0 at every point and a verdict would be
# vacuous.
LEAST_N = {"theorem3": lambda b: (b + 1) // 2, "conjecture5": lambda b: b // 2}


# ---------------------------------------------------------------------------
# the prices and runs of the commands
# ---------------------------------------------------------------------------

def _hexagon(args) -> PuncturedHexagon:
    """The hexagon of a parsed ``count brute|lgv`` or ``render``, punctured
    at ``--puncture``'s offset where the command takes one."""
    return PuncturedHexagon(args.a, args.b, args.c, tuple(getattr(args, "puncture", (0, 0))))


def _render(args, params) -> str:
    """Write the ``--index``-th tiling as SVG to ``--output``; returns the path."""
    hexagon = _hexagon(args)
    svg = render_tiling_svg(hexagon, tiling_family(hexagon, args.index))
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(svg)
    return args.output


@functools.cache
def _load_identity_layer() -> None:
    """Bind ``msf``, ``symfun`` and ``random`` in this module, once a process,
    for the first ``verify``: ``count`` and ``render`` never import them.
    ``_work`` calls it, and every ``verify`` is priced before it runs.  Every
    use looks its function up on the module at call time."""
    global msf, random, symfun
    import random

    from . import msf, symfun


def _at_points(extra: int, check, work):
    """The price and the run of a target checked at ``--trials`` sets of
    n + ``extra`` seeded points: ``check(a, b, n, (p, q) pairs)`` and
    ``work(a, b, n)``, the work of one check, look their kernels up in
    ``msf`` at call time, so a tracer's wrapper sees every call."""
    def price(args, limit) -> Work:
        # a trial draws its points (a call each) and checks them
        a, b, n = (max(x, 0) for x in (args.a, args.b, _params(args)["n"]))
        return total(total(work(a, b, n), {"call": n + extra}), times=args.trials)

    def run(args, params) -> bool:
        a, b, n = params["a"], params["b"], params["n"]
        # sides the library refuses keep its own message
        if args.mode in LEAST_N and min(a, b) > 0 and n < LEAST_N[args.mode](b):
            raise ValueError(f"verify {args.mode} at --b {b} needs --n of at least "
                             f"{LEAST_N[args.mode](b)} (got --n {n}): below it both sides "
                             f"are 0 at every point")
        for trial in range(args.trials):
            pts = symfun.seeded_pairs(n + extra, args.seed + trial)
            if not check(a, b, n, pts):
                # each point as str(Fraction) prints it: p/q, or p when q is 1
                params["counterexample"] = {"trial": trial, "seed": args.seed + trial, "points": [
                    f"{p}/{q}".removesuffix("/1") for p, q in pts]}
                return False
        return True
    return price, run


def _random_instances(sizes: range, work, check):
    """The price and the run of a target checked on ``--trials`` random
    instances, each of a size drawn from ``sizes``: ``work(size, bits)`` is
    the work of drawing and checking one, ``check(rng, size)`` draws one and
    returns None or its counterexample."""
    def price(args, limit) -> Work:
        # priced at the mean over the sizes it draws
        each = total(*(work(size, max(ENTRIES).bit_length()) for size in sizes))
        return {unit: args.trials * v // len(sizes) for unit, v in each.items()}

    def run(args, params) -> bool:
        rng = random.Random(args.seed)
        for trial in range(args.trials):
            bad = check(rng, rng.randrange(sizes.start, sizes.stop))
            if bad is not None:
                params["counterexample"] = {"trial": trial, **bad}
                return False
        return True
    return price, run


def _minor_summation_work(size: int, bits: int) -> Work:
    """An instance of ``size`` rows, with the middle of its columns' range;
    a call for each number drawn."""
    p = (max(1, size - size % 2) + MAX_COLUMNS) // 2
    return total(msf.minor_summation_work(size, p, size % 2, bits),
                 {"call": 3 + size * (p + size % 2) + p * (p - 1) // 2})


def _minor_summation(rng: random.Random, size: int):
    """Draw G, H and A with ``size`` rows and check the minor summation formula."""
    q = rng.choice([x for x in (0, 1, 2) if (size + x) % 2 == 0 and x <= size])
    p = rng.randint(max(1, size - q), MAX_COLUMNS)
    G = [[rng.randint(*ENTRIES) for _ in range(p)] for _ in range(size)]
    H = [[rng.randint(*ENTRIES) for _ in range(q)] for _ in range(size)]
    lhs, rhs = msf.minor_summation(G, H, _random_skew(rng, p))
    return None if lhs == rhs else {"n": size, "p": p, "q": q, "lhs": str(lhs), "rhs": str(rhs)}


def _lemma9(rng: random.Random, size: int):
    """Draw a skew matrix of ``size``, two vectors and a number, and check Lemma 9."""
    A = _random_skew(rng, size)
    bvec = [rng.randint(*ENTRIES) for _ in range(size)]
    cvec = [rng.randint(*ENTRIES) for _ in range(size)]
    return None if msf.lemma9_check(A, bvec, cvec, rng.randint(*ENTRIES)) else {"n": size}


def _random_skew(rng: random.Random, size: int):
    """A size x size skew matrix, its upper triangle drawn row by row from ENTRIES."""
    A = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            A[i][j] = rng.randint(*ENTRIES)
            A[j][i] = -A[i][j]
    return A


def _lemma8(args, params) -> bool:
    """Check every pair of R(a, b), each as it is made and then dropped, and
    add their count to ``params``; the first refused pair is kept."""
    a, b = args.a, args.b
    pairs, bad = 0, None
    for pairs, pair in enumerate(symfun.iter_rab(a, b), 1):
        if not symfun.lemma8_check(pair):
            bad = bad or pair
    params["pairs"] = pairs
    if bad or pairs != binomial(a + b, a):
        ce = params["counterexample"] = {"pairs": pairs, "expected_pairs": binomial(a + b, a)}
        if bad:
            ce["pair"] = {"lam": list(bad.lam.parts), "mu": list(bad.mu.parts)}
        return False
    return True


# ---------------------------------------------------------------------------
# the command table
# ---------------------------------------------------------------------------

_SIDES = tuple(((side,), {"type": int, "required": True}) for side in ("--a", "--b", "--c"))
_A_B = tuple(((side,), {"type": int, "default": 1}) for side in ("--a", "--b"))
_SEED = (("--seed",), {"type": int, "default": 0})
# the options of the targets checked at seeded points, and of those that draw random instances
_POINTS = (*_A_B, (("--n",), {"type": int, "default": None}), _SEED,
           (("--trials",), {"type": int, "default": 3}))
_DRAWS = (_SEED, (("--trials",), {"type": int, "default": 50}))
# Every command, one row each: the words that name it, its help line in the
# command list, its arguments, its price and its run.  Each argument is the
# flags and keywords of one ``add_argument``, in the order its report's
# params name them (``_params``).  ``_build_parser`` builds argparse's tree
# from this table and ``_read`` reads a plain argv with it.  Every default
# is immutable (``--puncture`` a tuple, the rest ints or None), so a parser
# can be shared by every call in a process.  The price, on the parsed
# arguments and the limit of each unit (``_work``), is the work the command
# will do, None for the two that are not priced; the run, on the parsed
# arguments and the report's params, returns the count, the verdict (a
# counterexample written into the params) or the path it wrote.
COMMANDS = {
    ("count", "closed"): ("closed-form product count", (*_SIDES, (("--theorem",), {
        "type": int, "choices": (1, 4), "default": None,
        "help": "force the same-parity (1) or mixed-parity (4) formula"})), None,
        lambda args, params: (theorem1_count if params["theorem"] == 1 else theorem4_count)(
            args.a, args.b, args.c)),
    ("count", "box"): ("plane partitions in a box", tuple(
        ((side,), {"type": int, "required": True}) for side in ("--x", "--y", "--z")), None,
        lambda args, params: macmahon_box(args.x, args.y, args.z)),
    ("count", "brute"): ("exact diagonal sweep over path families", (*_SIDES, (("--puncture",), {
        "type": int, "nargs": 2, "default": (0, 0), "metavar": ("DX", "DY"),
        "help": "offset of the removed triangle from its default position"})),
        lambda args, limit: {"sweep": sweep_updates(_hexagon(args), limit("sweep"))},
        lambda args, params: enumerate_tilings(_hexagon(args))),
    ("count", "lgv"): ("lattice-path determinant count", _SIDES,
        lambda args, limit: path_determinant_work(_hexagon(args)),
        lambda args, params: count_via_path_determinants(_hexagon(args))),
    ("verify", "theorem3"): ("Theorem 3: the R(a,b) sum against four rectangles", _POINTS,
        *_at_points(1, lambda a, b, n, pts: msf.theorem3_check(a, b, n, pts, pts[:n]),
                    lambda a, b, n: msf.theorem3_work(a, b, n))),
    ("verify", "conjecture5"): ("Conjecture 5: Theorem 3 with two more points", _POINTS,
        *_at_points(2, lambda a, b, n, pts: msf.conjecture5_check(a, b, n, pts),
                    lambda a, b, n: msf.conjecture5_work(a, b, n))),
    ("verify", "minor-summation"): ("the minor summation formula on random matrices", _DRAWS,
        *_random_instances(MINOR_SUMMATION_SIZES, _minor_summation_work, _minor_summation)),
    ("verify", "lemma9"): ("Lemma 9 on random skew matrices", _DRAWS,
        *_random_instances(LEMMA9_SIZES, lambda size, bits: total(
            msf.lemma9_work(size, bits), {"call": 2 + 2 * size + size * (size - 1) // 2}), _lemma9)),
    ("verify", "lemma10"): ("Lemma 10: chain53's moment Pfaffians as Schur values", _POINTS,
        *_at_points(0, lambda a, b, n, pts: msf.lemma10_check(a, b, n, pts),
                    lambda a, b, n: msf.lemma10_work(a, b, n))),
    ("verify", "chain53"): ("the R(a,b) sum as a block Pfaffian", _POINTS,
        *_at_points(1, lambda a, b, n, pts: msf.chain_5_3_check(a, b, n, pts, pts[:n]),
                    lambda a, b, n: msf.chain53_work(a, b, n))),
    ("verify", "lemma8"): ("Lemma 8 on every pair of R(a,b)", (*_A_B, _SEED),
        lambda args, limit: symfun.lemma8_work(args.a, args.b, limit("call")), _lemma8),
    ("render",): ("write one tiling as SVG", (*_SIDES, (("--index",), {
        "type": int, "required": True,
        "help": "0-based index into the deterministic enumeration order"}),
        (("-o", "--output"), {"required": True})),
        lambda args, limit: {"sweep": unranking_updates(_hexagon(args), limit("sweep"))}, _render),
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
    for words, (line, arguments, *_) in COMMANDS.items():
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
# admission and dispatch
# ---------------------------------------------------------------------------

def _work(args) -> Work:
    """The work of the parsed command, its row's price, with the command's
    own: 1500 calls for the parse and the report.  That is an upper bound,
    timed in a fresh process for the edges of BENCH_16.json and
    BENCH_17.json when every parse built argparse's whole tree; the plain
    reader, which builds no parser, costs less again.  A count past the
    budget may be only a lower bound (``limit``)."""
    def limit(unit: str) -> int:
        return BUDGET_S * 10 ** 15 // FS_PER[unit]

    if args.command == "verify":
        _load_identity_layer()
    return total(COMMANDS[_words(args)][2](args, limit), {"call": 1500})


def _estimated_fs(args) -> int:
    """Estimated run time in femtoseconds, in integers: ``_work`` by ``FS_PER``."""
    return sum(FS_PER[unit] * v for unit, v in _work(args).items())


def _admit(command: str, fs: int, **params) -> None:
    """Refuse (ValueError, so exit 2) an input of ``command`` whose estimated
    run time ``fs``, in femtoseconds, is over the budget; ``params`` name
    the input in the message."""
    if fs > BUDGET_S * 10 ** 15:
        raise ValueError(f"{command} at {', '.join(f'{k}={v}' for k, v in params.items())} "
                         f"would take about {Decimal(fs) / 10 ** 15:.2g} s, "
                         f"more than the {BUDGET_S} s {command.split()[0]} admits")


def run(argv) -> int:
    """Run one command: parse ``argv``, refuse a vacuous, unequal-parity or
    negative-n input, admit a priced one, run its row and print its report;
    returns the exit code."""
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    t0 = time.monotonic()
    try:
        words = _words(args)
        command, params = " ".join(words), _params(args)
        if params.get("trials", 1) < 1:
            # a verdict over zero instances would be vacuous
            raise ValueError("--trials must be at least 1")
        if args.command == "verify" and "b" in params and params["a"] % 2 != params["b"] % 2:
            raise ValueError(f"{command} needs --a and --b of equal parity "
                             f"(got --a {params['a']}, --b {params['b']})")
        if (getattr(args, "n", None) or 0) < 0:
            # no alphabet has fewer than 0 points
            raise ValueError("--n must be at least 0")
        price, execute = COMMANDS[words][2:]
        if price is not None:
            _admit(command, _estimated_fs(args), **params)
        result = execute(args, params)
        report = {"command": command, "params": params,
                  "result": _digits(result) if type(result) is int else result,
                  "elapsed_ms": int((time.monotonic() - t0) * 1000)}
        if hasattr(args, "seed"):
            report["seed"] = args.seed
        print(json.dumps(report, separators=(",", ":")))
        return 1 if result is False else 0
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
