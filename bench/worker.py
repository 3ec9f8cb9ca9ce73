"""One benchmark process: set up, run every instance of a workload once, report.

    python3 bench/worker.py WORKLOAD SEED MODE     # MODE: setup | run | trace

``run.py`` starts a fresh worker for every repetition, so the package's
unbounded ``lru_cache``s (``_schur_cached``, ``_elementary_all``) start cold
each time, as they do for every CLI invocation.  Inside one long-lived
process they would not: seeded point prefixes are shared between sweeps, so
a warm cache hides most of the Schur work (one acceptance sweep took 12.6 s
cold but 3.0 s after another had filled the cache).

Prints one JSON line: ``setup_s`` (importing ``punchex`` and building the
inputs and their expected answers), and for ``run``/``trace`` also
``wall_s`` (every instance, run and checked), ``largest_s``, ``peak_rss_mb``,
``attempted``, ``failed`` and, when traced, the per-layer ``layers``.  The
times are read from ``calibrate.ReferenceClock``: seconds at a fixed
reference speed of the host, whose speed drifts; ``raw_<name>`` gives each
time as measured.
"""

import resource
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(workload: str, seed: int, mode: str) -> dict:
    clock = calibrate.ReferenceClock()
    try:
        return measure(workload, seed, mode, clock)
    finally:
        clock.stop()


def measure(workload: str, seed: int, mode: str, clock) -> dict:
    report = {}

    def record(name: str, start) -> None:
        end = clock.read()
        report[f"raw_{name}"] = end[0] - start[0]
        report[name] = end[1] - start[1]

    start = clock.read()
    sys.path.insert(0, str(SRC))
    import punchex

    if Path(punchex.__file__).resolve().parent != SRC / "punchex":
        raise SystemExit(f"imported punchex from {punchex.__file__}, not from {SRC}")
    import workloads

    instances = workloads.build(workload, seed)
    record("setup_s", start)
    if mode == "setup":
        return report

    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    failures = []
    start = clock.read()
    for inst in instances:
        t = clock.read()
        try:
            ok = inst.check()
        except Exception as exc:  # an instance that raises counts as failed
            ok = False
            print(f"{inst.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        if inst.largest:
            record("largest_s", t)
        if not ok:
            failures.append(inst.label)
    record("wall_s", start)
    report.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        attempted=len(instances),
        failed=len(failures),
        failures=failures[:5],
    )
    if tracer is not None:
        tracer.write(ROOT / ".bench_out" / f"spans-{workload}-{seed}.jsonl")
        report["layers"] = tracer.metrics()
    return report


if __name__ == "__main__":
    import json

    name, seed_arg, mode_arg = sys.argv[1:4]
    print(json.dumps(main(name, int(seed_arg), mode_arg)))
