"""maskcov benchmark: one workload, one seed, one measured run.

Run from the repository root:

    python3 perfbench/run.py --workload minor-large-n --seed 1 \
        --seconds 25 --trace 0

Ops are CLI invocations through ``maskcov.cli.main(argv)`` in this
process (closed loop, one client).  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
The last line of stdout is the result object; the line before it records
the environment.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env
import spans
import workloads as wl

START = time.perf_counter()

#: p90 needs ten samples beyond it.
MIN_OPS = 100
#: Fresh ``python3 -m maskcov.cli`` runs of the first op timed for
#: setup_s; the median is reported.
SETUP_PROBES = 11
#: Probing stops early after this long, but not below 3 probes.
PROBE_BUDGET_S = 30.0
#: Measuring stops this long after start even below MIN_OPS, so that a
#: slow commit still exits in time.
DEADLINE_S = 150.0


def _time_left() -> float:
    return DEADLINE_S - (time.perf_counter() - START)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="maskcov benchmark run")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def _declared_metrics(trace_on: bool) -> dict:
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace_on else "end_to_end"]}


class Run:
    """Executes ops, gates them, and keeps the failure tally."""

    def __init__(self, cli, workload: str, seed: int, work: Path):
        self.cli = cli
        self.gate = wl.Gate()
        self.schedule = wl.Schedule(workload, seed, work)
        self.attempted = 0
        self.failed = 0

    def op(self):
        """Run and gate the next op; return (op, wall seconds)."""
        op = self.schedule.next_op()
        seconds, codes, text = wl.run_op(self.cli, op)
        self._tally(op, codes, text)
        return op, seconds

    def setup(self) -> list:
        """Wall seconds of fresh CLI processes running the next op.

        Each probe runs the op's command lines as ``python3 -m maskcov.cli``
        processes one after another, as a user would, so it covers
        interpreter start, imports, BLAS warm-up and the op itself.  The
        output of the last probe is gated as one op.
        """
        op = self.schedule.next_op()
        child_env = dict(os.environ, PYTHONPATH=str(env.SRC))
        times: list = []
        start = time.perf_counter()
        while len(times) < SETUP_PROBES and (
                len(times) < 3 or time.perf_counter() - start < PROBE_BUDGET_S):
            codes, text = [], ""
            probe_start = time.perf_counter()
            for argv in op.calls:
                proc = subprocess.run([sys.executable, "-m", "maskcov.cli", *argv],
                                      cwd=env.ROOT, env=child_env, text=True,
                                      capture_output=True, timeout=120)
                codes.append(proc.returncode)
                text += proc.stdout + proc.stderr
            times.append(time.perf_counter() - probe_start)
            if codes != [0] * len(op.calls):
                break
        self._tally(op, codes, text)
        return times

    def _tally(self, op, codes: list, text: str) -> None:
        problems = self.gate.check(op, codes)
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"op {op.index} {op.calls} failed: {problems}\n{text}",
                      file=sys.stderr)


def _end_to_end(run: Run, args) -> tuple:
    setup = run.setup()
    run.op()  # warm-up op, excluded from the op statistics
    times, items = [], 0
    start = time.perf_counter()
    while ((time.perf_counter() - start < args.seconds or len(times) < MIN_OPS)
           and _time_left() > 0):
        op, seconds = run.op()
        times.append(seconds)
        items += op.items
    metrics = {
        "items_per_s": items / sum(times),
        "op_s.p90": statistics.quantiles(times, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {"op_samples": len(times), "op_s.p50": statistics.median(times),
                     "setup_samples": setup}


def _per_layer(run: Run, args) -> tuple:
    """Alternate untraced and traced blocks of one op cycle each."""
    tracer = spans.Tracer()
    run.op()  # warm-up op
    block = run.schedule.cycle_length
    plain, traced_s, traced_ops = [], 0.0, 0
    start = time.perf_counter()
    while True:
        for _ in range(block):
            plain.append(run.op()[1])
        tracer.install()
        try:
            for _ in range(block):
                tracer.op_id = run.schedule.index
                traced_s += run.op()[1]
                traced_ops += 1
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= args.seconds or _time_left() <= 0:
            break
    metrics = tracer.summary(traced_ops, traced_s)
    metrics["trace.overhead"] = traced_s / sum(plain)
    # unbounded here: too unsteady on a shared host to be an end-to-end metric
    metrics["op_s.p50"] = statistics.median(plain)
    metrics["failed_ratio"] = run.failed / run.attempted
    return metrics, {"traced_ops": traced_ops, "spans": len(tracer.spans),
                     "computed_counts": list(spans.COMPUTED_COUNTS)}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cli = env.import_maskcov()
    except env.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    work = env.work_dir(args.workload)
    try:
        run = Run(cli, args.workload, args.seed, work)
        declared = _declared_metrics(bool(args.trace))
        measure = _per_layer if args.trace else _end_to_end
        values, detail = measure(run, args)
    finally:
        env.remove_work_dir(work)
    missing = sorted(set(declared) - set(values))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2
    pooled = run.gate.run_problems()
    for problem in pooled:
        print(f"run failed the gate: {problem}", file=sys.stderr)
    record = dict(env.environment(args.workload, args.seed),
                  ops=run.attempted, failed_ratio=run.failed / run.attempted,
                  gate_max_abs_z=run.gate.max_abs_z, **detail)
    print(json.dumps({"env": record}))
    print(json.dumps({
        "correct": run.failed == 0 and not pooled,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
