"""Self-check of the benchmark. Run from the repository root:

    python3 perfbench/selfcheck.py

1. A reduced-size smoke pass: every workload at one replication and one
   report, untraced and traced, with every check. Each must pass and print
   every metric named in BENCHMARK.json.
2. Corrupted outputs must be counted as failed calls: the program is patched
   in-process to write a gain above K (tau - 1), a wrong oracle gain, or a
   sweep that drops a budget, and each workload's error count must show it.

Exits 0 when every case holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from run import OUT, ROOT, load_program, measure, run_reports
from workloads import WORKLOADS


@contextmanager
def patched(module, name, make):
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _gain_above_bound(dumps):
    def corrupt(obj):
        if isinstance(obj, dict) and obj.get("per_replication"):
            rep = obj["per_replication"][0]
            rep["gain"] = 2.0 * rep["stopping_time"]  # K = 2 plays: above K (tau - 1)
        return dumps(obj)
    return corrupt


def _wrong_oracle(oracle):
    def corrupt(env, cfg, mode="exact"):
        arms, gain = oracle(env, cfg, mode)
        return arms, gain + 1.0
    return corrupt


def _drop_last_budget(sweep):
    return lambda spec, budgets: sweep(spec, budgets)[:-1]


def main() -> int:
    cli = load_program()
    if cli is None:
        print("no budgetbandits sources under src/", file=sys.stderr)
        return 1
    import budgetbandits.harness as harness
    import budgetbandits.serialize as serialize

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    small = {name: replace(w, replications=1) for name, w in WORKLOADS.items()}
    for name, w in small.items():
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = measure(cli, w, seed=11, seconds=0, trace=bool(trace), setup_probes=1)
            wanted = {m["name"] for m in spec[group]}
            expect(result["correct"] and result["failed"] == 0
                   and set(result["metrics"]) == wanted,
                   f"smoke {name} --trace {trace}: correct, every {group} metric")

    cases = (
        ("exp3_adversarial", serialize, "dumps", _gain_above_bound, 4),
        ("oracle_large", harness, "oracle_gain_adversarial", _wrong_oracle, 1),
        ("ucb_sweep", harness, "sweep", _drop_last_budget, 1),
    )
    OUT.mkdir(exist_ok=True)
    for name, module, attr, make, bad_calls in cases:
        with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp, \
                patched(module, attr, make):
            passes = run_reports(cli, small[name], seed=11, seconds=0, workdir=Path(tmp))
        expect(len(passes.problems) == bad_calls,
               f"corrupted {name} ({module.__name__}.{attr}): "
               f"{len(passes.problems)} of {passes.attempted} calls counted as failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
