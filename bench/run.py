"""The punchex benchmark.

    python3 bench/run.py --workload {enumerate,determinants,identities}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/``; it
needs nothing but the standard library, so there is no build step.

Each repetition is a fresh ``worker.py`` process (single-threaded, one at a
time) that builds the workload's inputs from the seed, runs every instance
once and checks every answer.  Repetitions continue until ``--seconds`` have
passed.  Between repetitions, two more processes only set up, so set-up
time is sampled often.  The host's speed drifts: repetitions of identical
code ran up to 1.85x apart (see README.md).  So every worker reads its
times from ``calibrate.ReferenceClock``, in seconds at a fixed reference
speed.  The metrics are the medians of these scaled times over the run;
the raw medians are printed beside them.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced repetitions and prints the per-layer
metrics, each with the end-to-end metric and workload it should move, plus
``trace.overhead_s``.  Work counts must repeat exactly between the traced
repetitions.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("enumerate", "determinants", "identities")
SETUP_PROBES = 2  # set-up-only processes per repetition
BUDGET_S = 170  # every run ends within this, whatever --seconds says
EXACT_UNITS = ("count", "rows", "ratio")  # per-layer values that must repeat exactly
SCALED = ("setup_s", "wall_s", "largest_s")  # reference-speed times, with a raw_ twin


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker process.  It writes no bytecode cache, so in a checkout
    without one every set-up compiles the package's source."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed), mode],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    sys.stderr.write(proc.stderr)
    report = json.loads(proc.stdout.splitlines()[-1])
    key = "wall_s" if "wall_s" in report else "setup_s"
    report["speed"] = report[key] / report["raw_" + key]
    return report


def repeat(step, seconds: float, start: float) -> None:
    """Call step() until the next call would end after ``seconds``; at least once."""
    durations = []
    while True:
        t = time.monotonic()
        step()
        durations.append(time.monotonic() - t)
        if time.monotonic() - start + statistics.median(durations) > seconds:
            return


def spread(values, raw=None) -> str:
    if len(values) < 2:
        text = f"n={len(values)}"
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text = f"n={len(values)}, quartiles {q1:.4g}..{q3:.4g}"
    if raw:
        text += f"; raw median {statistics.median(raw):.4g}"
    return text


def end_to_end(args, start: float, deadline: float):
    runs, setups = [], []

    def step():
        for _ in range(SETUP_PROBES):
            setups.append(worker(args.workload, args.seed, "setup", deadline))
        runs.append(worker(args.workload, args.seed, "run", deadline))
        setups.append(runs[-1])

    repeat(step, args.seconds, start)
    samples = {"wall_s": runs, "largest_s": runs, "peak_rss_mb": runs, "setup_s": setups}
    metrics = {}
    for name, reports in samples.items():
        values = [r[name] for r in reports]
        raw = [r["raw_" + name] for r in reports] if name in SCALED else None
        metrics[name] = statistics.median(values)
        print(f"{name:>12} {metrics[name]:.6g}  (median, {spread(values, raw)})")
    speeds = [r["speed"] for r in runs + setups]
    print(f"{'speed':>12} {statistics.median(speeds):.4g}  (scaled over raw time, "
          f"median; range {min(speeds):.3g}..{max(speeds):.3g})")
    return runs, metrics, True


def traced(args, start: float, deadline: float):
    from tracing import moves

    plain, runs = [], []

    def step():
        plain.append(worker(args.workload, args.seed, "run", deadline))
        runs.append(worker(args.workload, args.seed, "trace", deadline))

    repeat(step, args.seconds, start)
    units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
    # per-layer times are scaled by their repetition's speed
    power = {"ms": 1, "1/s": -1}
    layers = [{name: value * r["speed"] ** power[units[name]] if units.get(name) in power
               else value for name, value in r["layers"].items()} for r in runs]
    metrics, consistent = {}, True
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if units.get(name) in EXACT_UNITS:
            metrics[name] = values[0]
            if len(set(values)) != 1:
                consistent = False
                print(f"work count {name} differs between repetitions: {values}")
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in runs)
                                   - statistics.median(r["wall_s"] for r in plain))
    for name, value in metrics.items():
        print(f"{name:>44} {value:<14.6g} {units.get(name, '?'):<6} moves: {moves(name)}")
    return plain + runs, metrics, consistent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "punchex" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"python {platform.python_version()}, {os.cpu_count()} cpus")

    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    start = time.monotonic()
    deadline = start + BUDGET_S
    try:
        runs, metrics, consistent = (traced if args.trace else end_to_end)(args, start, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    declared = {m["name"]: m["unit"]
                for m in load_benchmark()["per_layer" if args.trace else "end_to_end"]}
    if set(declared) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} "
              f"disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for label in sorted({label for r in runs for label in r["failures"]}):
        print(f"failed: {label}")
    print(f"{'fail_ratio':>12} {failed / attempted:.6g}  ({failed} failed of {attempted} "
          f"instances attempted, {len(runs)} processes of {runs[0]['attempted']})")
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": declared[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
