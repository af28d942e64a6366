"""Per-layer tracing of sigspace from outside the program.

A traced run replaces public functions with wrappers in every ``sigspace``
module namespace that binds them. Modules import functions by name (for
example ``recovery`` calls ``select``, ``ls_synthesize`` and ``project``
through its own globals), so each binding is replaced, and a call is recorded
whichever module makes it. Each wrapper records a span ``[name, start, end,
parent]`` in memory; the spans are written out when the run ends.

The layers are the package's modules. ``METRICS`` lists every per-layer
metric the traced run reports, with its unit and better direction.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

SELECT_KINDS = ("threshold", "omp", "eps-omp", "eps-threshold", "oracle")


def _metric_table() -> list[tuple[str, str, str]]:
    rows: list[tuple[str, str, str]] = []

    def calls_ms(name: str, self_ms: bool = False) -> None:
        rows.append((f"{name}.calls", "count/op", "lower"))
        rows.append((f"{name}.ms", "ms/op", "lower"))
        if self_ms:
            rows.append((f"{name}.self_ms", "ms/op", "lower"))

    for kind in SELECT_KINDS:
        calls_ms(f"projections.select.{kind}", self_ms=True)
    for fn in ("orthonormal_range", "project", "ls_synthesize", "captured_and_residual_sq"):
        calls_ms(f"linalg.{fn}")
    calls_ms("recovery.sscosamp")
    rows.append(("recovery.iterations", "count/op", "lower"))
    rows.append(("recovery.stop.residual", "count/op", "higher"))
    rows.append(("recovery.stop.stagnation", "count/op", "lower"))
    rows.append(("recovery.stop.max_iters", "count/op", "lower"))
    calls_ms("recovery.eps_omp_recover")
    calls_ms("dictionaries.gaussian_measurements")
    rows.append(("dictionaries.neighbor_table.builds", "count/op", "lower"))
    rows.append(("dictionaries.neighbor_table.ms", "ms/op", "lower"))
    rows.append(("dictionaries.overcomplete_dft.ms", "ms/op", "lower"))
    for fn in ("run_trial", "gen_sparse_signal", "emit_outputs"):
        rows.append((f"experiments.{fn}.ms", "ms/op", "lower"))
    rows.append(("experiments.pool_startup_ms", "ms", "lower"))
    for fn in ("exact_rip", "exact_drip", "drip_invariant_suite"):
        calls_ms(f"theory.{fn}")
    calls_ms("projections.oracle_stats")
    rows.append(("projections.estimate_near_optimality.ms", "ms/op", "lower"))
    rows.append(("cli.main.self_ms", "ms/op", "lower"))
    return rows


METRICS: list[tuple[str, str, str]] = _metric_table()

# Metrics counted by the wrappers rather than read from the spans.
_COUNTED = (
    "recovery.iterations",
    "recovery.stop.residual",
    "recovery.stop.stagnation",
    "recovery.stop.max_iters",
    "dictionaries.neighbor_table.builds",
)

# (module, attribute, span name); the span name of ``select`` carries the kind.
_SPANNED = (
    ("linalg", "orthonormal_range", "linalg.orthonormal_range"),
    ("linalg", "project", "linalg.project"),
    ("linalg", "ls_synthesize", "linalg.ls_synthesize"),
    ("linalg", "captured_and_residual_sq", "linalg.captured_and_residual_sq"),
    ("recovery", "eps_omp_recover", "recovery.eps_omp_recover"),
    ("dictionaries", "gaussian_measurements", "dictionaries.gaussian_measurements"),
    ("dictionaries", "overcomplete_dft", "dictionaries.overcomplete_dft"),
    ("experiments", "run_trial", "experiments.run_trial"),
    ("experiments", "gen_sparse_signal", "experiments.gen_sparse_signal"),
    ("experiments", "emit_outputs", "experiments.emit_outputs"),
    ("experiments", "run_sweep", "experiments.run_sweep"),
    ("theory", "exact_rip", "theory.exact_rip"),
    ("theory", "exact_drip", "theory.exact_drip"),
    ("theory", "drip_invariant_suite", "theory.drip_invariant_suite"),
    ("projections", "oracle_stats", "projections.oracle_stats"),
    ("projections", "estimate_near_optimality", "projections.estimate_near_optimality"),
    ("cli", "main", "cli.main"),
)


def _select_span(args: tuple, kwargs: dict) -> str:
    scheme = args[0] if args else kwargs["scheme"]
    return f"projections.select.{scheme.kind}"


class Tracer:
    """Records spans around the calls into each sigspace module."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._tables_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    # -- recording ---------------------------------------------------------
    def wrap(self, fn, name, after=None):
        """fn wrapped in a span; name is a string or a function of (args, kwargs)."""

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [span_name, time.perf_counter(), None, parent]
            self.spans.append(record)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                record[2] = time.perf_counter()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def _count_report(self, report) -> None:
        self.counts["recovery.iterations"] += report.iterations
        self.counts[f"recovery.stop.{report.stop_reason}"] += 1

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _patch_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "sigspace" or mod_name.startswith("sigspace.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function wherever a sigspace module binds it."""
        import importlib

        def module(short: str):
            return importlib.import_module(f"sigspace.{short}")

        # import every module first, so none binds a wrapper at its own import
        for short in ("dictionaries", "linalg", "projections", "recovery", "theory",
                      "experiments", "cli"):
            module(short)

        for short, attr, span in _SPANNED:
            original = getattr(module(short), attr)
            self._patch_everywhere(original, self.wrap(original, span))
        select = module("projections").select
        self._patch_everywhere(select, self.wrap(select, _select_span))
        sscosamp = module("recovery").sscosamp
        self._patch_everywhere(
            sscosamp, self.wrap(sscosamp, "recovery.sscosamp", after=self._count_report)
        )
        dictionary_cls = module("dictionaries").Dictionary
        table = dictionary_cls.neighbor_table
        wrapped_table = self.wrap(table, "dictionaries.neighbor_table")
        seen = self._tables_seen

        def neighbor_table(dictionary, eps):
            # the program caches one table per (dictionary, eps): the first
            # request for a pair is the build
            keys = seen.setdefault(dictionary, set())
            if float(eps) not in keys:
                keys.add(float(eps))
                self.counts["dictionaries.neighbor_table.builds"] += 1
            return wrapped_table(dictionary, eps)

        self._patch(dictionary_cls, "neighbor_table", neighbor_table)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------
    def _children(self) -> list[list[int]]:
        children: list[list[int]] = [[] for _ in self.spans]
        for index, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append(index)
        return children

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Busy time counts a span only when no ancestor has the same name, so
        nested calls of one function are not counted twice. Self time is a
        span's duration minus that of its direct children.
        """
        children = self._children()
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            duration = end - start
            row["self_s"] += duration - sum(
                self.spans[c][2] - self.spans[c][1] for c in children[index]
            )
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                row["busy_s"] += duration
        return out

    def metrics(self, ops: int, pool_startup_ms: float = 0.0) -> dict[str, dict]:
        """Every metric of METRICS, per op (pool_startup_ms is per pool start)."""
        spans = self.summary()
        values: dict[str, float] = {}
        for name, unit, _ in METRICS:
            if name == "experiments.pool_startup_ms":
                values[name] = pool_startup_ms
                continue
            if name in _COUNTED:
                values[name] = self.counts.get(name, 0) / ops
                continue
            span, _, field = name.rpartition(".")
            row = spans.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            if field == "calls":
                values[name] = row["calls"] / ops
            elif field == "ms":
                values[name] = 1000.0 * row["busy_s"] / ops
            elif field == "self_ms":
                values[name] = 1000.0 * row["self_s"] / ops
            else:  # pragma: no cover - METRICS and this reader disagree
                raise KeyError(name)
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_s": start - origin,
                            "end_s": end - origin,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
