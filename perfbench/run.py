"""Time-to-verdict benchmark for the ``nkoszul`` command line.

    python3 perfbench/run.py --workload ideal --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Each pass starts a fresh interpreter
(``worker.py``) that imports ``nkoszul.cli`` from ``src/`` and calls
``cli.main`` once per task of the workload, so the algebra caches start cold
as they do for a CLI user.  Passes repeat, one at a time, until the next
would end after ``--seconds``; every task output is checked against the
oracles in ``workloads.py``.

With ``--trace 0`` the last stdout line reports the medians over passes of
``verdict_s`` (the pass's ``cli.main`` calls) and ``setup_s`` (interpreter
start plus ``import nkoszul.cli``), both at the host's usual speed (see
``at_reference_speed``), and of ``peak_rss_mb``.  With ``--trace 1``
untraced and traced passes alternate; it reports the per-layer metrics of
``tracer.py``, checks that every traced output is byte-identical to the
untraced one and that the exact counts repeat across traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_PASSES = 3
# worker.calibrate() on a 2-core x86-64 host at its usual speed
REFERENCE_CALIBRATION_S = 0.025
TIME_LIMIT_S = 170  # a run must end well inside three minutes


class BenchError(Exception):
    pass


def run_pass(tasks, trace, deadline):
    """One fresh-process pass over ``tasks``; returns the worker's report."""
    payload = json.dumps(
        {"src": str(SRC), "trace": trace, "tasks": [[t.id, list(t.argv)] for t in tasks]}
    )
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=payload,
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=max(1.0, deadline - spawned_at),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass did not finish within {TIME_LIMIT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout)
    report["setup_s"] = report["imported_at"] - spawned_at
    return report


def measure(tasks, seconds, trace):
    """Passes until the next would overrun ``seconds``; at least MIN_PASSES.

    Returns (untraced reports, traced reports); traced passes alternate with
    untraced ones when ``trace`` is set.
    """
    hard_deadline = time.monotonic() + TIME_LIMIT_S
    run_pass([], False, hard_deadline)  # untimed: bytecode and file caches
    deadline = time.monotonic() + seconds
    plain, traced = [], []
    while True:
        t = time.monotonic()
        plain.append(run_pass(tasks, False, hard_deadline))
        if trace:
            traced.append(run_pass(tasks, True, hard_deadline))
        now = time.monotonic()
        if len(plain) >= MIN_PASSES and now + (now - t) > deadline:
            return plain, traced


def task_problems(tasks, passes):
    """Failed task executions, as (task id, problem) pairs."""
    by_id = {t.id: t for t in tasks}
    failures = []
    for report in passes:
        for res in report["tasks"]:
            problems = workloads.check_document(by_id[res["id"]], res["code"], res["stdout"])
            if problems:
                why = "; ".join(problems)
                if res["stderr"]:
                    why += "\n" + res["stderr"][-2000:]
                failures.append((res["id"], why))
    return failures


def trace_problems(plain, traced):
    """Coverage, byte-identity and exact-count repeat checks of a traced run."""
    problems = []
    reference = {res["id"]: res["stdout"] for res in plain[0]["tasks"]}
    for report in plain + traced:
        for res in report["tasks"]:
            if res["stdout"] != reference[res["id"]]:
                problems.append(f"{res['id']}: output differs between passes")
    for report in traced:
        if report["uncovered"]:
            problems.append(f"unwrapped originals still bound: {report['uncovered']}")
    exact = tracer.exact_metric_names()
    first = tracer.pass_metrics(traced[0]["trace"])
    for report in traced[1:]:
        again = tracer.pass_metrics(report["trace"])
        moved = [k for k in exact if again[k] != first[k]]
        if moved:
            problems.append(f"exact counts differ between traced passes: {moved}")
    return problems


def median_of(passes, key):
    return statistics.median(p[key] for p in passes)


def at_reference_speed(report):
    """A pass's verdict and setup times rescaled to the host's usual speed.

    The host's speed drifts by 20-50% over minutes, on the CPU clock as well
    as the wall clock, and that drift dominates run-to-run spread.  The
    worker times a fixed kernel (worker.calibrate) after the import and
    after each task; each task's time is divided by the mean of the kernel
    times around it, and the setup time by the first kernel time.
    """
    cal = report["calibration_s"]
    verdict = sum(
        res["seconds"] * 2 * REFERENCE_CALIBRATION_S / (before + after)
        for res, before, after in zip(report["tasks"], cal, cal[1:])
    )
    return verdict, report["setup_s"] * REFERENCE_CALIBRATION_S / cal[0]


def task_times(tasks, passes):
    return {
        t.id: statistics.median(
            res["seconds"] for p in passes for res in p["tasks"] if res["id"] == t.id
        )
        for t in tasks
    }


def end_to_end_metrics(plain):
    verdict, setup = zip(*(at_reference_speed(p) for p in plain))
    return {
        "verdict_s": (statistics.median(verdict), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (median_of(plain, "peak_rss_mb"), "MB"),
    }


def per_layer_metrics(tasks, plain, traced):
    per_pass = [tracer.pass_metrics(p["trace"]) for p in traced]
    units = {name: unit for name, unit, _ in tracer.metric_specs()}
    values = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    for field in ("sympy", "fraction"):
        ids = {t.id for t in tasks if t.field == field}
        values[f"scalar.{field}_tasks.verdict_s"] = statistics.median(
            sum(res["seconds"] for res in p["tasks"] if res["id"] in ids) for p in plain
        )
    for key in ("verdict_s", "setup_s"):
        values[f"wall.{key}"] = median_of(plain, key)
    values["wall.calibration_s"] = statistics.median(c for p in plain for c in p["calibration_s"])
    values["trace.overhead_ratio"] = median_of(traced, "verdict_s") / median_of(
        plain, "verdict_s"
    )
    return {name: (values[name], units[name]) for name, _, _ in tracer.metric_specs()}


def evaluate(tasks, plain, traced, trace):
    """The result object of a run, and the problems that make it incorrect."""
    passes = plain + traced
    failures = task_problems(tasks, passes)
    problems = [f"{tid}: {why}" for tid, why in failures]
    if trace and not failures:
        problems += trace_problems(plain, traced)
    metrics = per_layer_metrics(tasks, plain, traced) if trace else end_to_end_metrics(plain)
    result = {
        "correct": not problems,
        "attempted": sum(len(p["tasks"]) for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    return result, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nkoszul" / "cli.py").is_file():
        print(f"error: no nkoszul sources under {SRC}", file=sys.stderr)
        return 2

    tasks = workloads.tasks(args.workload, args.seed)
    try:
        plain, traced = measure(tasks, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result, problems = evaluate(tasks, plain, traced, bool(args.trace))
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced "
          f"and {len(traced)} traced passes of {len(tasks)} tasks")
    for key in ("verdict_s", "setup_s"):
        print(f"  {key} per pass, wall: " + " ".join(f"{p[key]:.4f}" for p in plain))
    print("  calibration_s per pass, median: " + " ".join(
        f"{statistics.median(p['calibration_s']):.4f}" for p in plain))
    for tid, sec in task_times(tasks, plain).items():
        print(f"  task {tid}: {sec:.4f} s")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
