"""Fit ``cli.FS_PER`` to the timings recorded in the files of ``RECORDS``.

    python3 tools/fit_weights.py [--check]

Each recorded input (its slowest reference-clock time ``ref_s``, and the
parent's verdict ``admitted_before``) becomes one row of the work units
``cli._work`` counts.  A mixed-integer program (scipy's ``milp``; scipy is
needed here only) picks the weights and which inputs are admitted so that
no input breaks the admission check (``violations``):

* every input measured above ``cli.BUDGET_S`` is refused (estimate > budget),
* every admitted input is estimated at ``MARGIN`` times its time or more,

and as few inputs as possible that the parent admitted and that were
measured under ``KEEP_S`` are refused, with the weights of the kernels that
did not change since the last fit held (``HELD``): only ``sweep`` is
fitted, to BENCH_20.json's timings of every ``count brute`` and ``render``
input on the sweep that carries a south step's states over whole, and
BENCH_32.json's of ``count brute`` punctured on the last two diagonals,
where the sweep carries the a paths alone almost to the end.  Inputs
measured between ``KEEP_S`` and the budget may go either way: a timing
there is within the spread of repeated runs of one input.  Among the
solutions it takes the one whose estimates exceed the times least.  It
prints the weights, rounded up to two digits, and then the verdicts under
them, class by class; the run takes a few seconds.  ``--check`` prints the
verdicts under the weights in ``cli``, which tier-1 holds to the same
check (``test_recorded_edge_timings_keep_their_verdicts``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from punchex import cli  # noqa: E402

KEEP_S = 4.5
# an admitted input is estimated at this many times its slowest run or more
MARGIN = 1.1
# the weights of the determinant, Pfaffian and Schur kernels, whose code
# and timings (BENCH_16.json, BENCH_17.json) did not change since their fit
HELD = ("call", "product", "step", "digit", "pfaffian_digit", "binomial")
# the timings held to the check, earliest first; BENCH_28.json's re-timing of
# chain53 is not among them, as its host's reference clock read unchanged code
# 1.1-1.3x what these files' hosts read
RECORDS = ("BENCH_14.json", "BENCH_16.json", "BENCH_17.json", "BENCH_20.json", "BENCH_23.json",
           "BENCH_32.json")


def recorded():
    """(argv, ref_s, admitted_before) for each input in ``RECORDS``; a later
    file's timing of an input replaces an earlier one (the code it timed
    changed).  A record without ``admitted_before`` counts as admitted
    before.  A record without ``input`` (BENCH_14 names its sweep inputs by
    shape) is skipped: a later file re-timed each of them."""
    rows = {}
    for name in RECORDS:
        for edge in json.loads((ROOT / name).read_text())["edges"].values():
            for run in edge["runs"]:
                if "input" in run:
                    argv = run["input"].split()
                    rows[tuple(argv)] = (argv, run["ref_s"], run.get("admitted_before") is not False)
    return list(rows.values())


def violations(rows):
    """(argv, ref_s, estimate in s) for each row that breaks the admission
    check under ``cli.FS_PER``: admitted (estimated within ``cli.BUDGET_S``)
    although measured above the budget, or admitted with an estimate below
    ``MARGIN`` times its slowest run."""
    budget = cli.BUDGET_S * 10 ** 15
    found = []
    for argv, t, _ in rows:
        fs = cli._estimated_fs(cli._parse(argv))
        if fs <= budget and (t > cli.BUDGET_S or fs < MARGIN * t * 10 ** 15):
            found.append((argv, t, fs / 1e15))
    return found


def fit(rows):
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    units = list(cli.FS_PER)
    budget = cli.BUDGET_S
    # seconds of each row at the current weights, unit by unit
    X = np.array([[cli._work(cli._parse(argv)).get(u, 0) * cli.FS_PER[u] / 1e15 for u in units]
                  for argv, _, _ in rows])
    # a row priced by held weights alone keeps its verdict: it constrains nothing
    fitted = [i for i, x in enumerate(X) if any(x[units.index(u)] for u in units if u not in HELD)]
    rows, X = [rows[i] for i in fitted], X[fitted]
    free = [i for i, (_, t, _) in enumerate(rows) if t <= budget]
    nu, nf, big = len(units), len(free), 1e3
    A, lo, hi = [], [], []

    def add(coef, low, high):
        A.append(coef)
        lo.append(low)
        hi.append(high)

    for i, (_, t, _) in enumerate(rows):
        if t > budget:
            add(np.concatenate([X[i], np.zeros(nf)]), budget * 1.001, np.inf)
    for j, i in enumerate(free):
        t = rows[i][1]
        y = np.zeros(nf)
        y[j] = 1
        add(np.concatenate([X[i], big * y]), -np.inf, budget + big)        # admitted: within budget
        add(np.concatenate([X[i], big * y]), budget * 1.001, np.inf)       # refused: over it
        add(np.concatenate([X[i], -big * y]), MARGIN * t - big, np.inf)    # admitted: margin
    keep = [j for j, i in enumerate(free) if rows[i][1] <= KEEP_S and rows[i][2]]
    tight = sum(X[i] / max(t, 0.3) for i, (_, t, _) in enumerate(rows) if 0.3 <= t <= budget)
    c = np.concatenate([1e-4 * tight / max(tight.max(), 1e-12), np.zeros(nf)])
    for j in keep:
        c[nu + j] = -1.0  # maximise the kept inputs admitted
    lb, ub = np.zeros(nu + nf), np.concatenate([np.full(nu, np.inf), np.ones(nf)])
    for u in HELD:
        lb[units.index(u)] = ub[units.index(u)] = 1.0
    # the estimates' cost only breaks ties between solutions that keep as
    # many inputs, far inside the solver's default gap: solve to optimality
    res = milp(c, constraints=LinearConstraint(np.array(A), lo, hi),
               integrality=np.concatenate([np.zeros(nu), np.ones(nf)]),
               bounds=Bounds(lb, ub), options={"time_limit": 300, "mip_rel_gap": 0})
    if res.x is None:
        raise SystemExit(f"no weights satisfy the constraints: {res.message}")
    return {u: cli.FS_PER[u] if u in HELD else _round_up(cli.FS_PER[u] * x)
            for u, x in zip(units, res.x[:nu])}


def _round_up(x: float) -> int:
    """x rounded up to two significant digits."""
    digits = max(len(str(int(x))) - 2, 0)
    return -(-int(x) // 10 ** digits) * 10 ** digits


def report(rows, weights) -> int:
    """Print the verdicts under ``weights`` class by class (a class is a
    command), with each input that ``violations`` flags; return how many
    it flags."""
    saved = dict(cli.FS_PER)
    cli.FS_PER.update(weights)
    try:
        classes, flagged = {}, 0
        for argv, t, before in rows:
            kind = "render" if argv[0] == "render" else "_".join(argv[:2])
            classes.setdefault(kind, []).append((argv, t, before))
        for kind, runs in sorted(classes.items()):
            ests = [cli._estimated_fs(cli._parse(argv)) / 1e15 for argv, _, _ in runs]
            ratios = [t / est for (_, t, _), est in zip(runs, ests) if est <= cli.BUDGET_S and t >= 0.3]
            gained = sum(not before and est <= cli.BUDGET_S for (_, _, before), est in zip(runs, ests))
            print(f"{kind}: {len(runs)} inputs, time/estimate of the admitted over 0.3 s "
                  f"{min(ratios, default=0):.2f}-{max(ratios, default=0):.2f}, "
                  f"{gained} newly admitted")
            for (argv, t, before), est in zip(runs, ests):
                if before and t <= KEEP_S and est > cli.BUDGET_S:
                    print(f"  newly refused, measured {t:.2f} s: {' '.join(argv)}")
            for argv, t, est in violations(runs):
                print(f"  admitted at {est:.2f} s, measured {t:.2f} s: {' '.join(argv)}")
                flagged += 1
        return flagged
    finally:
        cli.FS_PER.update(saved)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="only report the verdicts under the current weights")
    args = parser.parse_args()
    rows = recorded()
    weights = dict(cli.FS_PER) if args.check else fit(rows)
    print("FS_PER =", json.dumps(weights))
    sys.exit(1 if report(rows, weights) else 0)


if __name__ == "__main__":
    main()
