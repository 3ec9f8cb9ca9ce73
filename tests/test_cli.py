"""End-to-end tests of the command-line interface.

Each invocation goes through a real subprocess and must print exactly one
JSON object on stdout.
"""

import json
import os
import subprocess
import sys
import tempfile

import punchex

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
    ):
        proc = _run("verify", *args)
        assert proc.returncode == 2, args
        assert proc.stdout.strip() == "", args


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


def test_render_index_out_of_range():
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "x.svg")
        for a, b, c, index in (("1", "1", "1", "99"), ("3", "5", "5", "8750000")):
            proc = _run("render", "--a", a, "--b", b, "--c", c,
                        "--index", index, "-o", out)
            assert proc.returncode == 2, (a, b, c, index)
            assert not os.path.exists(out)
