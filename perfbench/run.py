"""Benchmark of the budgetbandits simulator, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload ucb_sweep --seed 1 --seconds 30 --trace 0

The benchmark drives the program as a user does: one in-process
``budgetbandits.cli.main([...])`` call per CLI command, reading a JSON config
and writing the output file. Iteration i of a run builds its inputs from seed
``seed + i``, so no report repeats an earlier input. New reports start until
``--seconds`` have passed; every output is checked after the timed loop.

--trace 0 prints the end-to-end metrics, measured with tracing off:
  report_s     median wall seconds of the run's reports (all CLI calls of one
               seed); the quartiles and sample count are printed above the
               result, and a p90 once ten reports lie beyond it
  setup_s      median seconds a fresh process takes to import the package,
               over probes spread evenly through the timed loop (between
               reports, untimed), so that they see the same host speeds as
               the reports do
  peak_rss_mb  peak resident memory of this process over the timed loop
--trace 1 runs each seed untraced and then traced, requires the two outputs
to be byte-identical, and prints the per-layer metrics derived from the spans
(see tracing.py). The spans are written to perfbench/out/spans-<workload>.npz.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A CLI call fails when it exits non-zero,
raises, or writes an output that fails a check (checks.py); failed /
attempted is the error rate. The benchmark exits 2 without a result when the
program's sources are not in src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from tracing import Tracer, metric_names, report_missing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_PROBES = 9  # fresh-process imports per run; the median is reported

_IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import budgetbandits, budgetbandits.cli\n"
    "print(time.perf_counter() - t0, budgetbandits.__file__)\n"
)


def load_program():
    """Import budgetbandits.cli from this checkout's src/, or return None."""
    if not (SRC / "budgetbandits" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import budgetbandits.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        return None
    return cli


def import_seconds() -> float:
    """Seconds a fresh process takes to import the package from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    seconds, path = proc.stdout.split()
    if Path(path).resolve().parent.parent != SRC:
        raise RuntimeError(f"fresh process imported budgetbandits from {path}")
    return float(seconds)


@dataclass
class Passes:
    """Outcome of a run's reports: timings and every call's failures."""

    report_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    attempted: int = 0
    peak_rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)  # one entry per failed call


def _run_report(cli, calls) -> tuple[float, list[str | None]]:
    errors: list[str | None] = []
    t0 = perf_counter()
    for call in calls:
        try:
            rc = cli.main(call.argv)
            errors.append(None if rc == 0 else f"exit code {rc}")
        except SystemExit as exc:
            errors.append(None if exc.code in (0, None) else f"exit code {exc.code}")
        except Exception:  # a raising call is a counted failure, not a benchmark crash
            errors.append("raised:\n" + traceback.format_exc())
    return perf_counter() - t0, errors


def _outputs(calls, errors) -> list[bytes | None]:
    return [call.out.read_bytes() if err is None and call.out.is_file() else None
            for call, err in zip(calls, errors)]


def run_reports(cli, workload: Workload, seed: int, seconds: float, workdir: Path,
                tracer: Tracer | None = None, setup_probes: int = 0) -> Passes:
    """Run reports for ``seconds``, then check every output.

    With a tracer, each seed is run untraced and then traced, and the traced
    outputs must equal the untraced ones byte for byte. ``setup_probes``
    fresh-process imports run between reports, spread evenly over the loop;
    one extra import runs first so that byte-compiling a fresh checkout is
    not charged to set-up.
    """
    passes = Passes()
    done = []  # (seed, calls, errors, outputs)
    if setup_probes:
        import_seconds()
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        calls = workload.calls(seed + i, workdir)
        elapsed, errors = _run_report(cli, calls)
        passes.report_s.append(elapsed)
        outputs = _outputs(calls, errors)
        passes.attempted += len(calls)
        if tracer is not None:
            with tracer.installed(report_id=i):
                elapsed, traced_errors = _run_report(cli, calls)
            passes.traced_s.append(elapsed)
            passes.attempted += len(calls)
            for call, err, out, traced in zip(calls, traced_errors,
                                              outputs, _outputs(calls, traced_errors)):
                if err is not None:
                    passes.problems.append(f"seed {seed + i} traced {call.argv[0]}: {err}")
                elif traced != out:
                    passes.problems.append(
                        f"seed {seed + i} {call.out.name}: traced output differs from untraced")
        done.append((seed + i, calls, errors, outputs))
        i += 1
        share_done = (perf_counter() - start) / seconds if seconds > 0 else 1.0
        if len(passes.setup_s) < min(setup_probes, setup_probes * share_done):
            passes.setup_s.append(import_seconds())
    while len(passes.setup_s) < setup_probes:
        passes.setup_s.append(import_seconds())
    passes.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for report_seed, calls, errors, outputs in done:
        for call, err, out in zip(calls, errors, outputs):
            if err is None and out is None:
                err = "wrote no output"
            if err is None:
                found = call.check(out.decode("utf-8"))
                err = "; ".join(found) if found else None
            if err is not None:
                passes.problems.append(f"seed {report_seed} {call.out.name}: {err}")
    return passes


def machine_record(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "seed": seed}


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.4f} median={q2:.4f} q3={q3:.4f} n={len(values)}"


def measure(cli, workload: Workload, seed: int, seconds: float, trace: bool,
            setup_probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        if trace:
            tracer = Tracer()
            passes = run_reports(cli, workload, seed, seconds, Path(tmp), tracer)
            report_missing(tracer)
            tracer.save(OUT / f"spans-{workload.name}.npz")
            values = tracer.metrics(len(passes.traced_s))
            # each traced report runs right after its untraced twin, so the
            # ratio of a pair is taken at one host speed
            values["trace_overhead_frac"] = statistics.median(
                t / u for t, u in zip(passes.traced_s, passes.report_s)) - 1.0
            units = dict(metric_names())
            metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
            print(f"traced report_s {_quartiles(passes.traced_s)}")
        else:
            passes = run_reports(cli, workload, seed, seconds, Path(tmp),
                                 setup_probes=setup_probes)
            metrics = {
                "report_s": {"value": statistics.median(passes.report_s), "unit": "s"},
                "setup_s": {"value": statistics.median(passes.setup_s), "unit": "s"},
                "peak_rss_mb": {"value": passes.peak_rss_mb, "unit": "MB"},
            }
            print(f"setup_s {_quartiles(passes.setup_s)}")
    n = len(passes.report_s)
    print(f"report_s {_quartiles(passes.report_s)}"
          + ("" if n < 100 else f" p90={statistics.quantiles(passes.report_s, n=10)[-1]:.4f}"))
    failed = len(passes.problems)
    print(f"error_rate {failed / passes.attempted} ({failed} of {passes.attempted} CLI calls)")
    for problem in passes.problems[:20]:
        print("FAILED " + problem, file=sys.stderr)
    print("machine " + json.dumps(machine_record(seed)))
    return {"correct": failed == 0, "attempted": passes.attempted, "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = load_program()
    if cli is None:
        print(f"no budgetbandits sources under {SRC}", file=sys.stderr)
        return 2
    result = measure(cli, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
