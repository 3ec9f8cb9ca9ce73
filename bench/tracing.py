"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public functions of ``punchex`` with wrappers
that record a span (name, start, end, parent span) or, for the hottest leaf
``count_paths``, only a call count.  A name bound by ``from .core import
determinant`` is a separate global in each importing module, so a function
is wrapped in the namespace of every module that binds it; for the ``core``
kernels each binding gets its own name (``core.determinant.from_tiling``),
which splits their cost by caller.  Spans stay in memory until the run
ends; ``metrics`` then derives calls, total and self time (a span's
duration minus its direct children's) and the work counts below.

Wrapping costs time on every call, so end-to-end figures come only from
untraced runs; ``run.py`` reports the difference as ``trace.overhead_s``.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

MODULES = ("punchex", "punchex.cli", "punchex.core", "punchex.boxcount",
           "punchex.tiling", "punchex.symfun", "punchex.msf")
CORE_CALLERS = ("tiling", "symfun", "msf")
MSF_CHECKS = ("theorem3_lhs", "theorem3_rhs", "conjecture5_check", "chain_5_3_check",
              "lemma10_check", "minor_summation", "lemma9_check")

# (defining module, function) pairs recorded as spans
SPANNED = [("cli", "run"), ("tiling", "enumerate_tilings"),
           ("tiling", "count_via_path_determinants"), ("boxcount", "macmahon_box"),
           ("symfun", "schur_eval"), ("symfun", "schur_bidet"), ("symfun", "schur_nk"),
           ("symfun", "vandermonde_product"), ("symfun", "generate_rab")]
SPANNED += [("msf", name) for name in MSF_CHECKS]
CORE_SPANNED = ("determinant", "pfaffian", "matmul")

# The end-to-end metric and workload each layer metric should move; every
# other pairing is predicted to stay unchanged.
MOVES = {
    "cli.": "wall_s on enumerate, determinants, identities (a little)",
    "tiling.enumerate_tilings.": "wall_s, largest_s on enumerate",
    "tiling.families": "wall_s, largest_s on enumerate",
    "tiling.": "wall_s, largest_s on determinants",
    "core.determinant.from_tiling.": "wall_s, largest_s on determinants",
    "core.": "wall_s, largest_s on identities",
    "boxcount.": "wall_s on determinants",
    "symfun.": "wall_s, largest_s, peak_rss_mb on identities",
    "msf.": "wall_s, largest_s on identities",
    "trace.": "none (cost of tracing: traced minus untraced wall_s)",
}


def moves(metric: str) -> str:
    return next(v for k, v in MOVES.items() if metric.startswith(k))


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.stack = []
        self.counts = defaultdict(int)
        self.max_dim = defaultdict(int)
        self.schur_seen = set()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, hook=None):
        """Wrap fn in a span; hook(args, result) records work counts."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _add(self, counter, amount):
        def hook(args, result):
            self.counts[counter] += amount(args, result)
        return hook

    def _max_dim(self, name):
        def hook(args, _result):
            self.max_dim[name] = max(self.max_dim[name], len(args[0]))
        return hook

    def _schur_repeats(self, partition, as_points):
        def hook(args, _result):
            p, pts = args
            key = (p.parts if isinstance(p, partition) else partition(p).parts, as_points(pts))
            if key in self.schur_seen:
                self.counts["symfun.schur_eval.repeats"] += 1
            self.schur_seen.add(key)
        return hook

    def install(self) -> None:
        modules = {m: importlib.import_module(m) for m in MODULES}
        symfun = modules["punchex.symfun"]

        def rebind(original, make, only=None):
            for mname, mod in modules.items():
                short = mname.rpartition(".")[2]
                if (only is None or short in only) and vars(mod).get(original.__name__) is original:
                    setattr(mod, original.__name__, make(short))

        hooks = {
            "tiling.enumerate_tilings": self._add("tiling.families", lambda _a, r: r),
            "boxcount.macmahon_box": self._add(
                "boxcount.macmahon_box.factors", lambda a, _r: a[0] * a[1] * a[2]),
            "symfun.schur_eval": self._schur_repeats(symfun.Partition, symfun.as_points),
            "symfun.generate_rab": self._add("symfun.generate_rab.pairs", lambda _a, r: len(r)),
        }
        for owner, fname in SPANNED:
            name = f"{owner}.{fname}"
            fn = getattr(modules[f"punchex.{owner}"], fname)
            wrapped = self._span(name, fn, hooks.get(name))
            rebind(fn, lambda _short, w=wrapped: w)
        for fname in CORE_SPANNED:
            fn = getattr(modules["punchex.core"], fname)

            def per_caller(short, fn=fn, fname=fname):
                name = f"core.{fname}.from_{short}"
                return self._span(name, fn, self._max_dim(name))
            rebind(fn, per_caller, only=CORE_CALLERS)
        count_paths = modules["punchex.tiling"].count_paths
        rebind(count_paths, lambda _short: self._counter("tiling.count_paths.calls", count_paths))

    # -- results ------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")

    def metrics(self) -> dict:
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = defaultdict(int)
        total_ns = defaultdict(int)
        self_ns = defaultdict(int)
        parent_calls = defaultdict(int)  # (name, parent name) -> calls
        for i, (name, start, end, parent) in enumerate(spans):
            calls[name] += 1
            total_ns[name] += end - start
            own = end - start - child_ns[i]
            if own < 0:
                raise RuntimeError(f"negative self time in {name}")
            self_ns[name] += own
            if parent >= 0:
                parent_calls[name, spans[parent][0]] += 1

        out = {}

        def timed(name, *fields):
            for f in fields:
                if f == "calls":
                    out[f"{name}.calls"] = calls[name]
                elif f == "ms":
                    out[f"{name}.ms"] = total_ns[name] / 1e6
                elif f == "self_ms":
                    out[f"{name}.self_ms"] = self_ns[name] / 1e6
                elif f == "max_dim":
                    out[f"{name}.max_dim"] = self.max_dim[name]

        timed("cli.run", "calls", "self_ms")
        timed("tiling.enumerate_tilings", "calls", "ms")
        families = self.counts["tiling.families"]
        out["tiling.families"] = families
        seconds = total_ns["tiling.enumerate_tilings"] / 1e9
        out["tiling.families_per_s"] = families / seconds if seconds else 0.0
        timed("tiling.count_via_path_determinants", "calls", "ms", "self_ms")
        # the midpoint sum evaluates two determinants per midpoint configuration
        out["tiling.midpoint_pairs"] = parent_calls[
            "core.determinant.from_tiling", "tiling.count_via_path_determinants"] // 2
        out["tiling.count_paths.calls"] = self.counts["tiling.count_paths.calls"]
        for caller in CORE_CALLERS:
            timed(f"core.determinant.from_{caller}", "calls", "ms", "max_dim")
        timed("core.pfaffian.from_msf", "calls", "ms", "max_dim")
        timed("core.matmul.from_msf", "calls", "ms")
        timed("boxcount.macmahon_box", "calls", "ms")
        out["boxcount.macmahon_box.factors"] = self.counts["boxcount.macmahon_box.factors"]
        timed("symfun.schur_eval", "calls", "ms")
        schur_calls = calls["symfun.schur_eval"]
        out["symfun.schur_eval.repeat_ratio"] = (
            self.counts["symfun.schur_eval.repeats"] / schur_calls if schur_calls else 0.0)
        for fname in ("schur_bidet", "schur_nk", "vandermonde_product"):
            timed(f"symfun.{fname}", "calls", "ms")
        timed("symfun.generate_rab", "calls", "ms")
        out["symfun.generate_rab.pairs"] = self.counts["symfun.generate_rab.pairs"]
        for fname in MSF_CHECKS:
            timed(f"msf.{fname}", "ms", "self_ms")
        return out
