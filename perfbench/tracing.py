"""Spans around the simulator's public functions, recorded from outside.

Each wrapped function is replaced, in the namespace its caller looks it up
in, by a wrapper that records a span: name, start, end, parent span and
report id. Spans stay in memory and are written out at the end of the run;
the per-layer metrics are derived from them. Wrapping changes no result: the
benchmark requires traced reports to be byte-identical to untraced ones.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

# span name -> the modules (under budgetbandits) whose global the caller
# looks up. A function a module imports by name is wrapped in the importing
# module, so that calls from there are seen.
FUNCTIONS = {
    "core": {
        "sample_round": ("ucb", "exp3"),
        "lookup_round": ("exp3",),
    },
    "sampling": {
        "compute_cap": ("exp3",),
        "compute_probabilities": ("exp3",),
        "dependent_rounding": ("exp3",),
    },
    "exp3": {
        "exp3mb_round": ("exp3",),
        "estimate": ("exp3",),
        "exp3mb_weight_update": ("exp3",),
        "exp31mb_epoch_done": ("exp3",),
        "exp3mb_run_episode": ("harness",),
        "exp31mb_run": ("harness",),
        "exp3pm_run": ("harness",),
        "exp3pmb_run": ("harness",),
    },
    "ucb": {
        "ucb_init": ("ucb",),
        "ucb_select": ("ucb",),
        "ucb_update": ("ucb",),
        "ucb_run_episode": ("harness",),
    },
    "harness": {
        "run_replications": ("cli", "harness"),
        "sweep": ("harness",),
        "materialize_environment": ("cli", "harness"),
        "oracle_gain_adversarial": ("cli", "harness"),
        "oracle_gain_stochastic": ("harness",),
        "simulate_fixed_subset": ("harness",),
    },
    "bounds": {
        name: ("bounds",) for name in (
            "thm1_bound", "thm2_bound", "prop1_bound", "thm3_lower_bound", "thm4_bound",
            "thm5_bound", "bang_per_buck_gaps", "make_lower_bound_env")
    },
    "serialize": {"dumps": ("serialize",)},
    "cli": {"main": ("cli",)},
}

SPAN_NAMES = [f"{layer}.{func}" for layer, funcs in FUNCTIONS.items() for func in funcs]


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in output order."""
    out = []
    for span in SPAN_NAMES:
        out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s"), (f"{span}.us_p50", "us")]
    out += [(f"{layer}.self_share", "frac") for layer in FUNCTIONS]
    out += [("sampling.capped_frac", "frac"), ("harness.rounds_simulated", "count"),
            ("trace_overhead_frac", "frac")]
    return out


class Tracer:
    """Records spans while installed; one instance per benchmark run."""

    def __init__(self) -> None:
        self.report_id = 0
        self.capped = 0  # compute_cap results with a non-empty capped set
        self._name = array("H")
        self._report = array("I")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, span_id: int, fn, on_result=None):
        names, reports, parents = self._name, self._report, self._parent
        starts, ends, stack = self._start, self._end, self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(span_id)
            reports.append(tracer.report_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_capped(self, cap) -> None:
        if cap.capped.size:
            self.capped += 1

    @contextmanager
    def installed(self, report_id: int):
        """Wrap every traced function for the duration of one report."""
        self.report_id = report_id
        span_id = 0
        try:
            for layer, funcs in FUNCTIONS.items():
                for func, modules in funcs.items():
                    hook = self._count_capped if func == "compute_cap" else None
                    for mod_name in modules:
                        module = importlib.import_module(f"budgetbandits.{mod_name}")
                        original = getattr(module, func, None)
                        if original is None:
                            self.missing.append(f"budgetbandits.{mod_name}.{func}")
                            continue
                        self._originals.append((module, func, original))
                        setattr(module, func, self._wrap(span_id, original, hook))
                    span_id += 1
            yield self
        finally:
            for module, func, original in reversed(self._originals):
                setattr(module, func, original)
            self._originals.clear()

    def _arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.uint16),
            "report": np.frombuffer(self._report, dtype=np.uint32),
            "parent": np.frombuffer(self._parent, dtype=np.int32),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
        }

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(SPAN_NAMES), **self._arrays())

    def metrics(self, reports: int) -> dict[str, float]:
        """Per-layer metrics per report, derived from the spans.

        calls and self_s are totals over the traced reports divided by their
        number; us_p50 is the median inclusive duration of one call.
        """
        a = self._arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(FUNCTIONS, 0.0)
        for span_id, span in enumerate(SPAN_NAMES):
            mask = a["name"] == span_id
            calls = int(mask.sum())
            own = float(self_time[mask].sum())
            layer_self[span.split(".")[0]] += own
            out[f"{span}.calls"] = calls / reports
            out[f"{span}.self_s"] = own / reports
            out[f"{span}.us_p50"] = float(np.median(dur[mask])) * 1e6 if calls else 0.0
        total = sum(layer_self.values())
        for layer, own in layer_self.items():
            out[f"{layer}.self_share"] = own / total if total else 0.0
        cap_calls = out["sampling.compute_cap.calls"] * reports
        out["sampling.capped_frac"] = self.capped / cap_calls if cap_calls else 0.0
        out["harness.rounds_simulated"] = (out["exp3.exp3mb_round.calls"]
                                           + out["ucb.ucb_select.calls"])
        return out


def report_missing(tracer: Tracer) -> None:
    if tracer.missing:
        print("not traced (no such name): " + ", ".join(sorted(set(tracer.missing))),
              file=sys.stderr)
