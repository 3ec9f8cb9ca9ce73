"""End-to-end tests of the command-line interface.

Each invocation goes through a real subprocess and must print exactly one
JSON object on stdout; the byte-level report tests call ``cli.run`` in
process.
"""

import contextlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from decimal import Decimal
from pathlib import Path

import pytest

import punchex
from punchex import cli, core, msf, symfun, tiling
from punchex.boxcount import macmahon_box, theorem1_count
from punchex.cli import BUDGET_S as VERIFY_BUDGET_S
from punchex.symfun import seeded_pairs, seeded_points

# the subprocess imports the same punchex as this test run, installed or not
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [os.path.dirname(os.path.dirname(punchex.__file__))]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def _run(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "punchex", *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=_ENV,
    )
    return proc


def _report(proc):
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    assert len(lines) == 1, f"expected one JSON line, got: {proc.stdout!r}"
    return json.loads(lines[0])


def _stable(report):
    """The report minus the timing field, for determinism comparisons."""
    return {k: v for k, v in report.items() if k != "elapsed_ms"}


# ---------------------------------------------------------------------------
# count commands
# ---------------------------------------------------------------------------

def test_count_closed_same_parity():
    proc = _run("count", "closed", "--a", "3", "--b", "3", "--c", "3")
    assert proc.returncode == 0
    rep = _report(proc)
    assert rep["command"] == "count closed"
    assert rep["result"] == "4320"
    assert rep["params"] == {"a": 3, "b": 3, "c": 3, "theorem": 1}
    assert isinstance(rep["elapsed_ms"], int)
    assert "seed" not in rep


def test_count_closed_mixed_parity_autoselects():
    rep = _report(_run("count", "closed", "--a", "1", "--b", "1", "--c", "2"))
    assert rep["params"]["theorem"] == 4
    assert rep["result"] == "4"


def test_count_closed_forced_formula():
    rep = _report(_run("count", "closed", "--a", "2", "--b", "2", "--c", "3",
                       "--theorem", "4"))
    assert rep["result"] == "162"


def test_count_closed_rejects_bad_parity():
    proc = _run("count", "closed", "--a", "1", "--b", "2", "--c", "1")
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""
    assert "parity" in proc.stderr


def test_count_box():
    rep = _report(_run("count", "box", "--x", "3", "--y", "3", "--z", "3"))
    assert rep["result"] == "980"


def test_counts_beyond_int_string_limit_print_every_digit():
    # more digits than str(int) allows by default (4300)
    for args, value in (
        (("closed", "--a", "130", "--b", "130", "--c", "130"), theorem1_count(130, 130, 130)),
        (("box", "--x", "120", "--y", "120", "--z", "120"), macmahon_box(120, 120, 120)),
    ):
        proc = _run("count", *args)
        assert proc.returncode == 0, proc.stderr
        digits = _report(proc)["result"]
        assert digits.isdigit() and len(digits) > 4300
        assert Decimal(digits) == value, args


def test_count_brute_and_lgv_agree():
    # the last three lie outside the fixed box the sweep once refused
    for (a, b, c), expected in (((2, 2, 2), "54"), ((1, 1, 2), "4"), ((5, 5, 1), "2000"),
                                ((6, 6, 6), str(theorem1_count(6, 6, 6))),
                                ((2, 20, 20), str(theorem1_count(2, 20, 20)))):
        sides = ("--a", str(a), "--b", str(b), "--c", str(c))
        brute = _report(_run("count", "brute", *sides))
        lgv = _report(_run("count", "lgv", *sides))
        assert brute["result"] == lgv["result"] == expected, (a, b, c)


def test_count_brute_with_offset_puncture():
    rep = _report(_run("count", "brute", "--a", "1", "--b", "1", "--c", "1",
                       "--puncture", "0", "1"))
    assert rep["result"] == "3"
    assert rep["params"]["puncture"] == [0, 1]


def test_count_brute_guard_is_usage_error():
    # measured above 5 s
    proc = _run("count", "brute", "--a", "10", "--b", "10", "--c", "10")
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""


def test_huge_sides_are_refused_at_once(capsys, tmp_path):
    # refused on a lower bound of the estimate, before any work
    big = str(10 ** 9 - 1)
    for args, verb in ((("count", "brute", "--a", big, "--b", big, "--c", big), "count"),
                       (("count", "lgv", "--a", big, "--b", big, "--c", big), "count"),
                       (("render", "--a", big, "--b", big, "--c", "1", "--index", "0",
                         "-o", str(tmp_path / "x.svg")), "render"),
                       (("verify", "theorem3", "--a", big, "--b", big, "--n", "5"), "verify")):
        t0 = time.monotonic()
        code = cli.run(list(args))
        out, err = capsys.readouterr()
        assert time.monotonic() - t0 < 1, args
        assert code == 2 and out == "", args
        assert err.endswith(f"more than the {cli.BUDGET_S} s {verb} admits\n"), args


def test_count_lgv_is_priced():
    # 41 and 61 (0.15 and 1.7 s) are admitted; 81, measured at 9.5 s on
    # the reference clock, is refused before any path is counted
    for side in (41, 61):
        args = cli._parse(["count", "lgv", *(f"--{k}={side}" for k in "abc")])
        assert cli._estimated_fs(args) <= cli.BUDGET_S * 10 ** 15, side
    proc = _run("count", "lgv", "--a", "81", "--b", "81", "--c", "81")
    assert proc.returncode == 2 and proc.stdout.strip() == ""
    assert proc.stderr.startswith("error: count lgv at a=81, b=81, c=81 would take about ")
    assert proc.stderr.endswith(f"more than the {VERIFY_BUDGET_S} s count admits\n")


def test_every_priced_command_goes_through_the_one_refusal(capsys, monkeypatch, tmp_path):
    # with no budget, each priced command refuses with _admit's message:
    # none has a path around the estimate
    monkeypatch.setattr(cli, "BUDGET_S", 0)
    commands = [(("count", "brute", "--a", "1", "--b", "1", "--c", "1"), "count"),
                (("count", "lgv", "--a", "1", "--b", "1", "--c", "1"), "count"),
                (("render", "--a", "1", "--b", "1", "--c", "1", "--index", "0",
                  "-o", str(tmp_path / "x.svg")), "render")]
    commands += [(("verify", target), "verify") for target in (
        "theorem3", "conjecture5", "minor-summation", "lemma9", "lemma10", "chain53", "lemma8")]
    for args, verb in commands:
        code = cli.run(list(args))
        out, err = capsys.readouterr()
        assert code == 2 and out == "", args
        assert re.fullmatch(rf"error: {' '.join(args[:2]) if verb != 'render' else 'render'} at "
                            rf".* would take about \S+ s, more than the 0 s {verb} admits\n",
                            err), (args, err)
    assert not (tmp_path / "x.svg").exists()



def test_verify_refusals_name_only_the_inputs_the_target_reads(capsys):
    # lemma8 reads --a and --b, minor-summation and lemma9 --trials: a
    # refusal names those, the keys of the target's report, in _admit's form
    for args, named in ((("lemma9", "--a", "5", "--trials", "100000000"), "trials=100000000"),
                        (("minor-summation", "--n", "3", "--trials", "10000000"), "trials=10000000"),
                        (("lemma8", "--a", "41", "--b", "41", "--n", "7"), "a=41, b=41"),
                        (("theorem3", "--a", "41", "--b", "41", "--n", "60"),
                         "a=41, b=41, n=60, trials=3")):
        code = cli.run(["verify", *args])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", args
        assert re.fullmatch(rf"error: verify {args[0]} at {named} would take about \S+ s, "
                            rf"more than the {VERIFY_BUDGET_S} s verify admits\n", err), err

# tools/fit_weights.py states the admission check: which recorded inputs
# the weights in cli.FS_PER must refuse or price with a margin
_spec = importlib.util.spec_from_file_location(
    "fit_weights", Path(__file__).resolve().parent.parent / "tools" / "fit_weights.py")
fit_weights = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fit_weights)


def test_recorded_edge_timings_keep_their_verdicts():
    # every input measured above the budget is refused, and every admitted
    # one is estimated at fit_weights.MARGIN times what it took or more: a
    # change of weight or of work function that underprices a recorded
    # input fails here
    rows = fit_weights.recorded()
    assert len(rows) > 250
    assert fit_weights.violations(rows) == []


def test_violations_flag_exactly_the_inputs_that_break_the_check():
    cheap = ["count", "brute", "--a", "2", "--b", "2", "--c", "2"]
    costly = ["count", "lgv", "--a", "81", "--b", "81", "--c", "81"]
    est = cli._estimated_fs(cli._parse(cheap)) / 10 ** 15
    assert est <= cli.BUDGET_S < cli._estimated_fs(cli._parse(costly)) / 10 ** 15
    rows = [(cheap, cli.BUDGET_S + 0.2, True),   # admitted, measured above the budget
            (cheap, est / 1.05, True),           # admitted, estimated at 1.05x its time
            (costly, 30.0, True),                # refused, measured above the budget
            (cheap, est / 2, False)]             # admitted with room to spare
    assert [row[:2] for row in fit_weights.violations(rows)] == [row[:2] for row in rows[:2]]


# the work functions memoised per process (core.cached_work)
CACHED_WORK = (core.elimination_work, symfun.table_work, symfun.schur_work, symfun.rab_sum_work,
               symfun.lemma8_work, msf._rect_product_work, msf._paired_pfaffian_work,
               msf._lemma10_identity_work, msf.theorem3_work, msf.conjecture5_work,
               msf.chain53_work, msf.lemma10_work, msf.minor_summation_work, msf.lemma9_work)


def test_memoised_work_changes_no_estimate(monkeypatch):
    # every work function of core, symfun and msf with a cache is listed
    cached = {f for m in (core, symfun, msf) for name, f in vars(m).items()
              if name.endswith("_work") and hasattr(f, "cache_clear")}
    assert cached == set(CACHED_WORK)
    # every recorded and every costly input: each estimate cold (every
    # cache cleared before it), warm (each cache holding all the inputs')
    # and through the uncached functions alone
    parsed = [cli._parse(argv) for argv, _, _ in fit_weights.recorded()]
    parsed += [cli._parse(["verify", *args]) for args in COSTLY_VERIFY]
    cold = []
    for args in parsed:
        for fn in CACHED_WORK:
            fn.cache_clear()
        cold.append(cli._estimated_fs(args))
    warm = [cli._estimated_fs(args) for args in parsed]
    for fn in CACHED_WORK:
        fn.cache_clear()
        for module in (core, symfun, msf, tiling, cli):
            if vars(module).get(fn.__name__) is fn:
                monkeypatch.setattr(module, fn.__name__, fn.__wrapped__)
    for target, (extra, check, work) in cli.POINT_TARGETS.items():
        monkeypatch.setitem(cli.POINT_TARGETS, target, (extra, check, work.__wrapped__))
    uncached = [cli._estimated_fs(args) for args in parsed]
    assert all(fn.cache_info().currsize == 0 for fn in CACHED_WORK)
    assert cold == warm == uncached
    monkeypatch.undo()
    # a cached work is read-only, and rab_sum_work, which takes the zero
    # triangle of a > b off the determinant's work, edits a copy: the
    # entry it read stays what elimination_work computes afresh
    with pytest.raises(TypeError):
        msf.theorem3_work(2, 2, 3)["call"] = 0
    read = []

    def reading(*args):
        read.append((args, core.elimination_work(*args)))
        return read[-1][1]
    monkeypatch.setattr(symfun, "elimination_work", reading)
    symfun.rab_sum_work.cache_clear()
    symfun.rab_sum_work(6, 2, 4, 3)
    assert read
    for args, work in read:
        assert core.elimination_work(*args) is work == core.elimination_work.__wrapped__(*args)


# ---------------------------------------------------------------------------
# verify commands
# ---------------------------------------------------------------------------

def test_verify_lemma9():
    proc = _run("verify", "lemma9", "--seed", "7", "--trials", "50")
    assert proc.returncode == 0
    rep = _report(proc)
    assert rep["result"] is True
    assert rep["seed"] == 7
    assert rep["params"]["trials"] == 50


def test_verify_theorem3_and_chain():
    for target in ("theorem3", "chain53"):
        proc = _run("verify", target, "--a", "1", "--b", "1", "--n", "2",
                    "--trials", "2")
        assert proc.returncode == 0, proc.stderr
        rep = _report(proc)
        assert rep["result"] is True
        assert rep["params"]["n"] == 2


def test_verify_defaults_n_to_b():
    rep = _report(_run("verify", "lemma10", "--a", "2", "--b", "2"))
    assert rep["params"]["n"] == 2
    assert rep["result"] is True


def test_verify_lemma8():
    rep = _report(_run("verify", "lemma8", "--a", "3", "--b", "3"))
    assert rep["result"] is True
    assert rep["params"]["pairs"] == 20


def test_verify_minor_summation():
    rep = _report(_run("verify", "minor-summation", "--seed", "1", "--trials", "25"))
    assert rep["result"] is True


def test_verify_conjecture5():
    rep = _report(_run("verify", "conjecture5", "--a", "1", "--b", "1", "--n", "1"))
    assert rep["result"] is True


def test_verify_rejects_bad_parameters():
    for args in (
        ("theorem3", "--a", "1", "--b", "2"),
        # a verdict over zero instances would be vacuous
        ("lemma9", "--trials", "0"),
        ("theorem3", "--trials", "-5"),
        ("minor-summation", "--trials", "0"),
    ) + tuple(
        # non-positive sides: the cost estimate runs first and must not fail
        (target, "--a", a, "--b", b)
        for target in ("theorem3", "conjecture5", "chain53", "lemma10", "lemma8")
        for a, b in (("2", "-2"), ("0", "0"))
    ):
        proc = _run("verify", *args)
        assert proc.returncode == 2, args
        assert proc.stdout.strip() == "", args
        assert proc.stderr.startswith("error: "), args


def test_verify_rab_targets_refuse_a_zero_side():
    # a = 0 passes the CLI's own parity and size checks; the library refuses it
    for target in ("theorem3", "conjecture5", "chain53"):
        proc = _run("verify", target, "--a", "0", "--b", "2")
        assert proc.returncode == 2, target
        assert proc.stdout.strip() == "", target
        assert proc.stderr == "error: a and b must be positive\n", target


def test_verify_refuses_unequal_parity_up_front():
    for target in ("theorem3", "conjecture5", "chain53", "lemma10", "lemma8"):
        for a, b in (("1", "2"), ("4", "1")):
            proc = _run("verify", target, "--a", a, "--b", b)
            assert proc.returncode == 2, (target, a, b)
            assert proc.stdout.strip() == "", (target, a, b)
            assert proc.stderr == (f"error: verify {target} needs --a and --b of equal "
                                   f"parity (got --a {a}, --b {b})\n"), (target, a, b)


def test_verify_refuses_large_rab_up_front():
    # lemma8 walks the pairs: C(28, 14) = 40,116,600 of them, and sides too
    # large for C(a+b, a) to be computed, are refused before any is generated
    for a, b in (("14", "14"), ("1", "10000001")):
        proc = _run("verify", "lemma8", "--a", a, "--b", b, "--n", b)
        assert proc.returncode == 2, (a, b)
        assert proc.stdout.strip() == "", (a, b)
        assert f"more than the {VERIFY_BUDGET_S} s verify admits" in proc.stderr, (a, b)
    # C(14, 7) pairs, the largest family the old pair cap admitted
    rep = _report(_run("verify", "lemma8", "--a", "7", "--b", "7"))
    assert rep["params"]["pairs"] == 3432 and rep["result"] is True
    # the other three evaluate the sum as one determinant of size a+1, so
    # they have no pair cap
    for target, a, b in (("theorem3", "14", "14"), ("conjecture5", "14", "14"),
                         ("chain53", "8", "8")):
        rep = _report(_run("verify", target, "--a", a, "--b", b, "--n", b))
        assert rep["result"] is True, target


def test_verify_prices_the_work_the_old_limits_hid(capsys):
    # each measured above 5 s on the reference clock with the budget
    # lifted.  The first four lie past C(14, 7) pairs, where the sum's
    # matrix product and its fill-in are priced; the last three were
    # admitted by Lemma 10's fitted digit bound at lower weights
    for args in (("theorem3", "--a", "20", "--b", "355710", "--n", "113", "--trials", "1"),
                 ("theorem3", "--a", "8", "--b", "384262", "--n", "40", "--trials", "1"),
                 ("theorem3", "--a", "40", "--b", "50000", "--n", "5", "--trials", "1"),
                 ("chain53", "--a", "79", "--b", "23", "--n", "23", "--trials", "1"),
                 ("lemma10", "--a", "13", "--b", "67", "--n", "67"),
                 ("lemma10", "--a", "8", "--b", "50", "--n", "58"),
                 ("lemma10", "--a", "3", "--b", "15", "--n", "58", "--trials", "1")):
        code = cli.run(["verify", *args])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", args
        assert err.endswith(f"more than the {cli.BUDGET_S} s verify admits\n"), args


# each measured above 5 s, most far beyond
COSTLY_VERIFY = (("lemma10", "--a", "11", "--b", "11", "--n", "50"),
                 ("lemma10", "--a", "2", "--b", "2", "--n", "60"),
                 ("lemma10", "--a", "41", "--b", "41", "--n", "51"),
                 ("lemma10", "--a", "101", "--b", "101", "--n", "101"),
                 ("lemma10", "--a", "200001", "--b", "1", "--n", "1"),
                 ("theorem3", "--a", "7", "--b", "7", "--n", "100", "--trials", "5000"),
                 ("theorem3", "--a", "40", "--b", "2", "--n", "10", "--trials", "1000"),
                 ("chain53", "--a", "1", "--b", "1", "--n", "46"),
                 ("conjecture5", "--a", "1", "--b", "1", "--n", "10" * 200),
                 ("lemma9", "--trials", "1000000"),
                 ("minor-summation", "--trials", "100000"))


def test_verify_refuses_costly_inputs_up_front():
    # refused before any work, huge n and --trials included
    for args in COSTLY_VERIFY:
        proc = _run("verify", *args)
        assert proc.returncode == 2, args
        assert proc.stdout.strip() == "", args
        assert f"more than the {VERIFY_BUDGET_S} s verify admits" in proc.stderr, args


def test_verify_refuses_n_where_both_sides_vanish(capsys):
    # below LEAST_N a rectangle on the right side has more rows than X_n
    # has points, so both sides are 0 and "true" would be vacuous; at it the
    # sides are nonzero and the check runs
    for args, least in ((("theorem3", "--a", "1", "--b", "3", "--n", "1"), 2),
                        (("conjecture5", "--a", "1", "--b", "5", "--n", "0"), 2)):
        code = cli.run(["verify", *args])
        out, err = capsys.readouterr()
        assert code == 2 and out == "", args
        assert err == (f"error: verify {args[0]} at --b {args[4]} needs --n of at least "
                       f"{least} (got --n {args[6]}): below it both sides are 0 at every "
                       f"point\n"), args
    for target, b, n in (("theorem3", 3, 2), ("theorem3", 4, 2),
                         ("conjecture5", 5, 2), ("conjecture5", 4, 2)):
        code = cli.run(["verify", target, "--a", str(b % 2 + 2), "--b", str(b), "--n", str(n)])
        out, _ = capsys.readouterr()
        assert code == 0 and json.loads(out)["result"] is True, (target, b, n)


def test_least_n_is_where_the_sums_stop_vanishing():
    # the R(a,b) sums of theorem3 (X_{n+1}, X_n) and conjecture5
    # (X_{n+2}, X_n) are 0 at every n below LEAST_N and at no n from it on
    for a in range(1, 5):
        for b in range(a % 2 or 2, 7, 2):
            for n in range(b + 1):
                for seed in (0, 1):
                    p1, p2 = seeded_pairs(n + 1, seed), seeded_pairs(n + 2, seed)
                    for target, pts in (("theorem3", p1), ("conjecture5", p2)):
                        vanishes = msf._rab_sum(a, b, pts, pts[:n])[0] == 0
                        assert vanishes == (n < cli.LEAST_N[target](b)), (target, a, b, n)


def test_verify_refuses_more_points_than_seeded_points_has():
    # the 115 distinct values p/q with 1 <= p, q <= 13 are the most that
    # can be drawn: n + 1 = 115 runs, n + 1 = 116 is a usage error
    rep = _report(_run("verify", "theorem3", "--a", "1", "--b", "1", "--n", "114"))
    assert rep["result"] is True
    proc = _run("verify", "theorem3", "--a", "1", "--b", "1", "--n", "115")
    assert proc.returncode == 2
    assert proc.stdout.strip() == "" and "115 distinct values" in proc.stderr


def test_unknown_target_is_usage_error():
    proc = _run("verify", "theorem12")
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# determinism and rendering
# ---------------------------------------------------------------------------

def test_reports_are_deterministic():
    for args in (
        ("count", "closed", "--a", "3", "--b", "5", "--c", "5"),
        ("verify", "theorem3", "--a", "2", "--b", "2", "--n", "2", "--seed", "3"),
        ("verify", "lemma9", "--seed", "11", "--trials", "10"),
    ):
        first = _stable(_report(_run(*args)))
        second = _stable(_report(_run(*args)))
        assert first == second, args


# exact report lines, keys in order and no spaces, with elapsed_ms zeroed
GOLDEN_REPORTS = (
    (("count", "closed", "--a", "3", "--b", "3", "--c", "3"),
     '{"command":"count closed","params":{"a":3,"b":3,"c":3,"theorem":1},'
     '"result":"4320","elapsed_ms":0}'),
    (("count", "closed", "--a", "1", "--b", "1", "--c", "2"),
     '{"command":"count closed","params":{"a":1,"b":1,"c":2,"theorem":4},'
     '"result":"4","elapsed_ms":0}'),
    (("count", "closed", "--a", "2", "--b", "2", "--c", "3", "--theorem", "4"),
     '{"command":"count closed","params":{"a":2,"b":2,"c":3,"theorem":4},'
     '"result":"162","elapsed_ms":0}'),
    (("count", "box", "--x", "2", "--y", "3", "--z", "4"),
     '{"command":"count box","params":{"x":2,"y":3,"z":4},"result":"490","elapsed_ms":0}'),
    (("count", "brute", "--a", "1", "--b", "1", "--c", "1", "--puncture", "0", "1"),
     '{"command":"count brute","params":{"a":1,"b":1,"c":1,"puncture":[0,1]},'
     '"result":"3","elapsed_ms":0}'),
    (("count", "lgv", "--a", "2", "--b", "2", "--c", "2"),
     '{"command":"count lgv","params":{"a":2,"b":2,"c":2},"result":"54","elapsed_ms":0}'),
    (("render", "--a", "1", "--b", "1", "--c", "1", "--index", "1", "-o", "t.svg"),
     '{"command":"render","params":{"a":1,"b":1,"c":1,"index":1,"output":"t.svg"},'
     '"result":"t.svg","elapsed_ms":0}'),
    (("verify", "theorem3", "--a", "1", "--b", "1", "--n", "2", "--trials", "2"),
     '{"command":"verify theorem3","params":{"a":1,"b":1,"n":2,"trials":2},'
     '"result":true,"elapsed_ms":0,"seed":0}'),
    (("verify", "conjecture5", "--a", "1", "--b", "1", "--n", "1", "--trials", "1"),
     '{"command":"verify conjecture5","params":{"a":1,"b":1,"n":1,"trials":1},'
     '"result":true,"elapsed_ms":0,"seed":0}'),
    (("verify", "chain53", "--a", "1", "--b", "1", "--n", "2", "--trials", "1"),
     '{"command":"verify chain53","params":{"a":1,"b":1,"n":2,"trials":1},'
     '"result":true,"elapsed_ms":0,"seed":0}'),
    (("verify", "lemma10", "--a", "2", "--b", "2", "--trials", "1"),
     '{"command":"verify lemma10","params":{"a":2,"b":2,"n":2,"trials":1},'
     '"result":true,"elapsed_ms":0,"seed":0}'),
    (("verify", "lemma8", "--a", "2", "--b", "2"),
     '{"command":"verify lemma8","params":{"a":2,"b":2,"pairs":6},'
     '"result":true,"elapsed_ms":0,"seed":0}'),
    (("verify", "minor-summation", "--seed", "1", "--trials", "5"),
     '{"command":"verify minor-summation","params":{"trials":5},'
     '"result":true,"elapsed_ms":0,"seed":1}'),
    (("verify", "lemma9", "--seed", "7", "--trials", "5"),
     '{"command":"verify lemma9","params":{"trials":5},"result":true,"elapsed_ms":0,"seed":7}'),
)


def _zero_elapsed(out):
    return re.sub(r'"elapsed_ms":\d+', '"elapsed_ms":0', out)


def _run_in_process(capsys, *args):
    code = cli.run(list(args))
    out, err = capsys.readouterr()
    return code, _zero_elapsed(out), err


def test_report_bytes_are_pinned(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for args, line in GOLDEN_REPORTS:
        assert _run_in_process(capsys, *args) == (0, line + "\n", ""), args


def test_counterexample_report_bytes_are_pinned(capsys, monkeypatch):
    # POINT_TARGETS looks theorem3_check up at call time, so this forces exit 1
    monkeypatch.setattr(cli, "theorem3_check", lambda *args: False)
    assert _run_in_process(capsys, "verify", "theorem3", "--a", "1", "--b", "1", "--n", "1",
                           "--trials", "2", "--seed", "4") == (
        1,
        '{"command":"verify theorem3","params":{"a":1,"b":1,"n":1,"trials":2,'
        '"counterexample":{"trial":0,"seed":4,"points":["4/5","1/6"]}},'
        '"result":false,"elapsed_ms":0,"seed":4}\n',
        "",
    )



def test_counterexample_points_print_as_their_fractions_do(capsys, monkeypatch):
    # drawn as (p, q) pairs, each point prints as str(Fraction(p, q)) does:
    # p/q, or p alone when q is 1
    monkeypatch.setattr(cli, "theorem3_check", lambda *args: False)
    integers = 0
    for seed in range(12):
        code, out, _ = _run_in_process(capsys, "verify", "theorem3", "--n", "40", "--seed",
                                       str(seed), "--trials", "1")
        points = json.loads(out)["params"]["counterexample"]["points"]
        assert code == 1 and points == [str(x) for x in seeded_points(41, seed)], seed
        integers += sum("/" not in x for x in points)
    assert integers > 12

def test_minor_summation_counterexample_bytes_are_pinned(capsys, monkeypatch):
    # the drawn instances, through both sides of the identity: a right side
    # off by one forces exit 1 and reports the true left side
    real = cli.minor_summation

    def off_by_one(G, H, A):
        lhs, rhs = real(G, H, A)
        return lhs, rhs + 1

    monkeypatch.setattr(cli, "minor_summation", off_by_one)
    for seed, ce in (
        (5, '{"trial":0,"n":3,"p":6,"q":1,"lhs":"102","rhs":"103"}'),
        (11, '{"trial":0,"n":4,"p":5,"q":2,"lhs":"103","rhs":"104"}'),
    ):
        assert _run_in_process(capsys, "verify", "minor-summation", "--seed", str(seed),
                               "--trials", "1") == (
            1,
            '{"command":"verify minor-summation","params":{"trials":1,'
            f'"counterexample":{ce}}},"result":false,"elapsed_ms":0,"seed":{seed}}}\n',
            "",
        )


def test_shared_parser_carries_nothing_between_runs(capsys, monkeypatch):
    # run parses with one parser per process: a puncture, a usage error, a
    # help page and explicit --n/--trials must leave the next call's
    # defaults as they were, and every call prints what a fresh process does
    assert cli._build_parser() is cli._build_parser()
    # argparse wraps help at the terminal's width
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setitem(_ENV, "COLUMNS", "80")
    sides = ("--a", "1", "--b", "1", "--c", "1")
    sequence = (("count", "brute", *sides, "--puncture", "0", "1"),
                ("count", "brute", *sides, "--puncture", "0"),
                ("--help",),
                ("count", "brute", *sides),
                ("verify", "theorem3", "--a", "1", "--b", "1", "--n", "3", "--trials", "1"),
                ("verify", "theorem3", "--a", "1", "--b", "1"))
    runs = []
    for args in sequence:
        fresh = _run(*args)
        got = _run_in_process(capsys, *args)
        assert got == (fresh.returncode, _zero_elapsed(fresh.stdout), fresh.stderr), args
        runs.append(got)
    assert [code for code, _, _ in runs] == [0, 2, 0, 0, 0, 0]
    assert runs[2][1].startswith("usage: punchex ")
    assert '"puncture":[0,0]' in runs[3][1]
    assert '"params":{"a":1,"b":1,"n":1,"trials":3}' in runs[5][1]


# argv for the parse contract: every help page, one usage error of each
# kind and valid input for every command
_SIDES = ("--a", "1", "--b", "1", "--c", "1")
PARSE_CONTRACT = (
    (), ("--help",), ("count",), ("count", "--help"), ("verify", "--help"), ("render", "--help"),
    *(("count", mode, "--help") for mode in ("closed", "box", "brute", "lgv")),
    ("count", "lgv", "--a", "1", "--b", "1"),                            # missing required option
    ("count", "closed", *_SIDES, "--theorem", "2"),                      # bad choice
    ("verify", "theorem12"),
    ("count", "lgv", "--a", "x", "--b", "1", "--c", "1"),                # not an int
    ("count", "lgv", *_SIDES, "--bogus"),                                # unknown option
    ("count", "lgv", *_SIDES, "-x", "y", "--zz"),
    ("count", "brute", *_SIDES, "extra"),                                # extra positional
    ("verify", "lemma8", "theorem3"),
    ("verify", "theorem3", "--tri", "2", "--se", "4"),                   # abbreviated options
    ("count", "lgv", "--he"),
    ("verify", "theorem3", "--n", "1", "--n", "2"),                      # repeated option
    ("verify", "--", "theorem3"), ("count", "lgv", *_SIDES, "--"),       # --
    ("count", "lgv", "--", *_SIDES), ("count", "--", "lgv", *_SIDES),
    ("bogus",), ("count", "lgx", *_SIDES), ("--a", "1"),                 # no command
    ("count", "closed", *_SIDES), ("count", "closed", *_SIDES, "--theorem", "4"),
    ("count", "box", "--x", "1", "--y", "2", "--z", "3"),
    ("count", "brute", *_SIDES), ("count", "brute", *_SIDES, "--puncture", "0", "1"),
    ("count", "brute", *_SIDES, "--puncture", "0"),
    ("count", "lgv", "--a=-1", "--b", "1", "--c", "1"),
    ("verify", "lemma9"),
    ("verify", "theorem3", "--a", "3", "--b", "1", "--n", "4", "--seed", "2", "--trials", "5"),
    ("render", *_SIDES, "--index", "0", "-o", "x.svg"),
    ("render", *_SIDES, "--index", "0", "--output=x.svg"),
)


def _parse_outcome(parse, argv):
    """(exit code or None, stdout, stderr, vars of the namespace or None)."""
    out, err = io.StringIO(), io.StringIO()
    code, namespace = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


def test_command_parsers_match_the_tree(monkeypatch):
    # run parses an argv that names a command with that command's parser
    # alone; it must exit, print and return what the whole tree does
    monkeypatch.setenv("COLUMNS", "80")
    for argv in PARSE_CONTRACT:
        assert _parse_outcome(cli._parse, argv) == _parse_outcome(
            cli._build_parser().parse_args, argv), argv


def test_render_writes_svg():
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "tiling.svg")
        proc = _run("render", "--a", "1", "--b", "1", "--c", "1",
                    "--index", "1", "-o", out)
        assert proc.returncode == 0, proc.stderr
        rep = _report(proc)
        assert rep["result"] == out
        with open(out, "r", encoding="utf-8") as fh:
            svg = fh.read()
        assert svg.startswith("<?xml") and "</svg>" in svg
        assert svg.count("<polygon") == 7


def test_render_large_index_by_unranking():
    # the first (3,5,5) index a one-by-one walk took 104 s to reach, the
    # last of 41,177,150,000 (4,6,6) tilings, and the last (6,6,6) one,
    # refused while every unranking sweep was priced as a full one.  Of
    # T = (a+b+c+1)^2 - a^2 - b^2 - c^2 unit triangles one is the hole, so
    # (T - 1) / 2 + 1 polygons
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "tiling.svg")
        for a, b, c, index, polygons in ((3, 5, 5, 2000000, 69),
                                         (4, 6, 6, 41177149999, 101),
                                         (5, 5, 5, 5252187499, 91),
                                         (6, 6, 6, 68336412238079, 127)):
            proc = _run("render", "--a", str(a), "--b", str(b), "--c", str(c),
                        "--index", str(index), "-o", out)
            assert proc.returncode == 0, proc.stderr
            assert _report(proc)["params"]["index"] == index
            with open(out, "r", encoding="utf-8") as fh:
                svg = fh.read()
            assert svg.count("<polygon") == polygons, (a, b, c)
            assert svg.count("#000000") == 1


def test_render_index_out_of_range():
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "x.svg")
        for a, b, c, index in (("1", "1", "1", "99"), ("3", "5", "5", "8750000")):
            proc = _run("render", "--a", a, "--b", b, "--c", c,
                        "--index", index, "-o", out)
            assert proc.returncode == 2, (a, b, c, index)
            assert not os.path.exists(out)


def test_render_unwritable_output_is_usage_error():
    with tempfile.TemporaryDirectory() as tmp:
        # a missing directory, and a directory where the file should go
        for out in (os.path.join(tmp, "missing", "x.svg"), tmp):
            proc = _run("render", "--a", "1", "--b", "1", "--c", "1",
                        "--index", "0", "-o", out)
            assert proc.returncode == 2, out
            assert proc.stdout.strip() == "", out
            assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr, out
