"""End-to-end tests of the command-line interface.

Each invocation goes through a real subprocess and must print exactly one
JSON object on stdout; the byte-level report tests call ``cli.run`` in
process.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from decimal import Decimal

import punchex
from punchex import cli
from punchex.boxcount import macmahon_box, theorem1_count
from punchex.cli import MAX_RAB_PAIRS, VERIFY_BUDGET_S

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
    for (a, b, c), expected in (((2, 2, 2), "54"), ((1, 1, 2), "4")):
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
    proc = _run("count", "brute", "--a", "5", "--b", "5", "--c", "1")
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""


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
    # C(28, 14) = 40,116,600 pairs, and sides too large for C(a+b, a) to be
    # computed: refused before any pair is generated
    for target, a, b in (("theorem3", "14", "14"), ("conjecture5", "14", "14"),
                         ("chain53", "8", "8"), ("lemma8", "1", "10000001")):
        proc = _run("verify", target, "--a", a, "--b", b, "--n", b)
        assert proc.returncode == 2, target
        assert proc.stdout.strip() == "" and f"> {MAX_RAB_PAIRS} pairs" in proc.stderr
    # the largest admitted family, C(14, 7)
    rep = _report(_run("verify", "lemma8", "--a", "7", "--b", "7"))
    assert rep["params"]["pairs"] == MAX_RAB_PAIRS and rep["result"] is True


def test_verify_refuses_costly_inputs_up_front():
    # each measured above 5 s, most far beyond; refused before any work,
    # huge n and --trials included
    for args in (("lemma10", "--a", "11", "--b", "11", "--n", "50"),
                 ("lemma10", "--a", "2", "--b", "2", "--n", "60"),
                 ("lemma10", "--a", "41", "--b", "41", "--n", "51"),
                 ("lemma10", "--a", "101", "--b", "101", "--n", "101"),
                 ("lemma10", "--a", "401", "--b", "1", "--n", "10"),
                 ("theorem3", "--a", "7", "--b", "7", "--n", "100", "--trials", "5000"),
                 ("theorem3", "--a", "40", "--b", "2", "--n", "10", "--trials", "1000"),
                 ("chain53", "--a", "1", "--b", "1", "--n", "46"),
                 ("conjecture5", "--a", "1", "--b", "1", "--n", "10" * 200),
                 ("lemma9", "--trials", "1000000"),
                 ("minor-summation", "--trials", "100000")):
        proc = _run("verify", *args)
        assert proc.returncode == 2, args
        assert proc.stdout.strip() == "", args
        assert f"more than the {VERIFY_BUDGET_S} s verify admits" in proc.stderr, args


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


def _run_in_process(capsys, *args):
    code = cli.run(list(args))
    out, err = capsys.readouterr()
    return code, re.sub(r'"elapsed_ms":\d+', '"elapsed_ms":0', out), err


def test_report_bytes_are_pinned(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    for args, line in GOLDEN_REPORTS:
        assert _run_in_process(capsys, *args) == (0, line + "\n", ""), args


def test_counterexample_report_bytes_are_pinned(capsys, monkeypatch):
    # POINT_TARGETS looks theorem3_rhs up at call time, so this forces exit 1
    monkeypatch.setattr(cli, "theorem3_rhs", lambda *args: 0)
    assert _run_in_process(capsys, "verify", "theorem3", "--a", "1", "--b", "1", "--n", "1",
                           "--trials", "2", "--seed", "4") == (
        1,
        '{"command":"verify theorem3","params":{"a":1,"b":1,"n":1,"trials":2,'
        '"counterexample":{"trial":0,"seed":4,"points":["4/5","1/6"]}},'
        '"result":false,"elapsed_ms":0,"seed":4}\n',
        "",
    )


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
    # the first (3,5,5) index a one-by-one walk took 104 s to reach, and the
    # last of 41,177,150,000 (4,6,6) tilings.  Of T = (a+b+c+1)^2 - a^2 -
    # b^2 - c^2 unit triangles one is the hole, so (T - 1) / 2 + 1 polygons
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "tiling.svg")
        for a, b, c, index, polygons in ((3, 5, 5, 2000000, 69),
                                         (4, 6, 6, 41177149999, 101)):
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
