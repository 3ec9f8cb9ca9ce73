"""Fit ``cli.FS_PER`` to the timings recorded in the files of ``RECORDS``.

    python3 tools/fit_weights.py [--margin 1.1]

Each recorded input (its slowest reference-clock time ``ref_s``, and the
parent's verdict ``admitted_before``) becomes one row of the work units
``cli._work`` counts.  A mixed-integer program (scipy's ``milp``; scipy is
needed here only) picks the weights and which inputs are admitted so that

* every input measured above ``REFUSE_S`` is refused (estimate > budget),
* every admitted input is estimated at ``margin`` times its time or more,
* as few inputs as possible that the parent admitted and that were measured
  under ``KEEP_S`` are refused,

with the weights of the kernels that did not change since the last fit
held (``HELD``): only ``sweep`` is fitted, to BENCH_20.json's timings of
every ``count brute`` and ``render`` input on the sweep that carries a
south step's states over whole.  Inputs measured between ``KEEP_S`` and
``REFUSE_S`` may go either way: a timing there is within the spread of
repeated runs of one input.  Among the solutions it takes the one whose
estimates exceed the times least.  It prints the weights, rounded up to
two digits, and then the verdicts under them, class by class; the run
takes a few minutes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from punchex import cli  # noqa: E402

KEEP_S, REFUSE_S = 4.5, 5.5
# the weights of the determinant, Pfaffian and Schur kernels, whose code
# and timings (BENCH_16.json, BENCH_17.json) did not change since their fit
HELD = ("call", "product", "step", "digit", "pfaffian_digit", "binomial")
# the timings fitted to, earliest first; tests/test_cli.py reads each too
RECORDS = ("BENCH_16.json", "BENCH_17.json", "BENCH_20.json")


def recorded():
    """(class, argv, ref_s, admitted_before) for each input in ``RECORDS``;
    a later file's timing of an input replaces an earlier one (the code it
    timed changed), as in tests/test_cli.py."""
    rows = {}
    for name in RECORDS:
        for kind, edge in json.loads((ROOT / name).read_text())["edges"].items():
            for run in edge["runs"]:
                rows[run["input"]] = (kind, run["input"].split(), run["ref_s"],
                                      run["admitted_before"] is not False)
    return list(rows.values())


def work(argv):
    return cli._work(cli._parse(argv))


def fit(rows, margin: float):
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    units = list(cli.FS_PER)
    budget = cli.BUDGET_S
    # seconds of each row at the current weights, unit by unit
    X = np.array([[work(argv).get(u, 0) * cli.FS_PER[u] / 1e15 for u in units]
                  for _, argv, _, _ in rows])
    # a row priced by held weights alone keeps its verdict: it constrains nothing
    fitted = [i for i, x in enumerate(X) if any(x[units.index(u)] for u in units if u not in HELD)]
    rows, X = [rows[i] for i in fitted], X[fitted]
    free = [i for i, (_, _, t, _) in enumerate(rows) if t <= REFUSE_S]
    nu, nf, big = len(units), len(free), 1e3
    A, lo, hi = [], [], []

    def add(coef, low, high):
        A.append(coef)
        lo.append(low)
        hi.append(high)

    for i, (_, _, t, _) in enumerate(rows):
        if t > REFUSE_S:
            add(np.concatenate([X[i], np.zeros(nf)]), budget * 1.001, np.inf)
    for j, i in enumerate(free):
        t = rows[i][2]
        y = np.zeros(nf)
        y[j] = 1
        add(np.concatenate([X[i], big * y]), -np.inf, budget + big)        # admitted: within budget
        add(np.concatenate([X[i], big * y]), budget * 1.001, np.inf)       # refused: over it
        add(np.concatenate([X[i], -big * y]), margin * t - big, np.inf)    # admitted: margin
    keep = [j for j, i in enumerate(free) if rows[i][2] <= KEEP_S and rows[i][3]]
    tight = sum(X[i] / max(t, 0.3) for i, (_, _, t, _) in enumerate(rows) if 0.3 <= t <= budget)
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


def report(rows, weights, margin: float) -> int:
    """Print the verdicts under ``weights`` class by class; return how many
    inputs break the rules the fit keeps."""
    saved = dict(cli.FS_PER)
    cli.FS_PER.update(weights)
    try:
        classes, broken = {}, 0
        for kind, argv, t, before in rows:
            est = cli._estimated_fs(cli._parse(argv)) / 1e15
            classes.setdefault(kind, []).append((" ".join(argv), t, est, before))
        for kind, runs in sorted(classes.items()):
            admitted = [(t / est, line) for line, t, est, _ in runs if est <= cli.BUDGET_S and t >= 0.3]
            lost = [(line, t) for line, t, est, before in runs
                    if before and t <= KEEP_S and est > cli.BUDGET_S]
            gained = [line for line, t, est, before in runs if not before and est <= cli.BUDGET_S]
            short = [(line, t, est) for line, t, est, _ in runs
                     if est <= cli.BUDGET_S and est < margin * t or t > REFUSE_S and est <= cli.BUDGET_S]
            ratios = [r for r, _ in admitted]
            print(f"{kind}: {len(runs)} inputs, time/estimate of the admitted over 0.3 s "
                  f"{min(ratios, default=0):.2f}-{max(ratios, default=0):.2f}, "
                  f"{len(gained)} newly admitted")
            for line, t in lost:
                print(f"  newly refused, measured {t:.2f} s: {line}")
            for line, t, est in short:
                print(f"  estimate {est:.2f} s below {margin} x {t:.2f} s: {line}")
            broken += len(short)
        return broken
    finally:
        cli.FS_PER.update(saved)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--margin", type=float, default=1.1)
    parser.add_argument("--check", action="store_true",
                        help="only report the verdicts under the current weights")
    args = parser.parse_args()
    rows = recorded()
    weights = dict(cli.FS_PER) if args.check else fit(rows, args.margin)
    print("FS_PER =", json.dumps(weights))
    sys.exit(1 if report(rows, weights, args.margin) else 0)


if __name__ == "__main__":
    main()
