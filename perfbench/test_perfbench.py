"""Tests of the benchmark itself: oracles, trace coverage, self-time
accounting, exact counts and the BENCHMARK.json declaration.

    python3 -m pytest perfbench
"""

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from nkoszul import algebras, koszul, manin, mmt  # noqa: E402


def _hilbert_poly2(expected):
    return workloads._task(
        "hilbert-poly2", "hilbert", workloads._algebra("poly", 2), 4,
        workloads.expect_equal("coefficients", expected),
    )


def _small_tasks():
    rng = random.Random(3)
    return [
        workloads._task("koszul-antisym33", "koszul-check",
                        workloads._algebra("antisym", 3, 3), 4,
                        workloads.expect_exact_complex(4)),
        workloads._master_task("nmt-antisym33", "nmt", 3, 3, 3,
                               workloads.random_matrix(rng, 3)),
    ]


def test_oracles_are_independent_values():
    assert workloads.commutative_hilbert(3, 4) == [1, 3, 6, 10, 15]
    assert workloads.descent_avoiding_counts(4, 3, 6) == [1, 4, 16, 60, 225, 840, 3136]
    assert workloads.antisym_dual_dims(6, 3, 8) == [1, 6, 36, 20, 15, 6, 1, 0, 0]
    check = workloads.expect_exact_complex(2)
    good = {"passed": True, "first_failure": None, "degrees": [
        {"total_degree": m, "homology_dims": {"1": 0}, "d1_surjective": True}
        for m in (1, 2)
    ]}
    assert check(good) == []
    bad = copy.deepcopy(good)
    bad["degrees"][1]["homology_dims"]["1"] = 1
    assert check(bad)


def test_wrong_expected_value_raises_tasks_failed():
    right = _hilbert_poly2([1, 2, 3, 4, 5])
    wrong = _hilbert_poly2([1, 2, 3, 4, 6])
    plain, _ = run.measure([right], 0, False)
    result, _ = run.evaluate([right], plain, [], False)
    assert (result["correct"], result["failed"]) == (True, 0)
    result, problems = run.evaluate([wrong], plain, [], False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == len(plain)
    assert "coefficients" in problems[0]


def test_trace_covers_from_imports_and_restores():
    original = koszul.dual_koszul_subspace
    with tracer.Tracer() as tr:
        assert tr.uncovered() == []
        assert manin.dual_koszul_subspace is koszul.dual_koszul_subspace
        assert koszul.dual_koszul_subspace is not original
        assert mmt.enumerate_admissible is algebras.enumerate_admissible
        manin.dual_koszul_subspace = original
        assert tr.uncovered() == ["nkoszul.manin.dual_koszul_subspace"]
    assert koszul.dual_koszul_subspace is original
    assert manin.dual_koszul_subspace is original


def test_self_times_and_unattributed_add_up_under_recursion():
    A = algebras.antisymmetrizer(3, 3)
    with tracer.Tracer() as tr:
        tr.start()
        koszul.dual_koszul_subspace(A, 6)  # recurses 6 -> 5 -> 4 -> 3
        A.ideal_rank(5)  # nests Echelon.add in ideal_rank
        tr.stop()
    assert tr.calls["koszul.dual_koszul_subspace"] == 4
    assert tr.calls["homog.AlgebraPresentation.ideal_rank"] == 1
    assert tr.calls["linalg.Echelon.add.rank_mode"] > 0
    assert all(ns >= 0 for ns in tr.self_ns.values())
    assert tr.unattributed_ns >= 0
    assert sum(tr.self_ns.values()) + tr.unattributed_ns == tr.window_ns


def test_traced_run_repeats_counts_and_output():
    tasks = _small_tasks()
    plain, traced = run.measure(tasks, 0, True)
    result, problems = run.evaluate(tasks, plain, traced, True)
    assert problems == [] and result["correct"]
    first, second = (tracer.pass_metrics(p["trace"]) for p in traced[:2])
    assert {k: first[k] for k in tracer.exact_metric_names()} == {
        k: second[k] for k in tracer.exact_metric_names()
    }
    assert first["mmt.g_table.words"] > 0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0

    moved = copy.deepcopy(traced)
    moved[1]["trace"]["counts"]["linalg.Echelon.add.reduced_mode.kept"] += 1
    assert any("exact counts" in p for p in run.trace_problems(plain, moved))
    changed = copy.deepcopy(traced)
    changed[0]["tasks"][0]["stdout"] += " "
    assert any("output differs" in p for p in run.trace_problems(plain, changed))


def test_seed_fixes_the_inputs():
    argv = lambda seed: [t.argv for t in workloads.tasks("master", seed)]  # noqa: E731
    assert argv(5) == argv(5)
    assert argv(5) != argv(6)


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == tracer.metric_specs()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    ref = run.REFERENCE_CALIBRATION_S
    plain = [{"setup_s": 0.5, "peak_rss_mb": 50.0, "calibration_s": [ref, ref, 3 * ref],
              "tasks": [{"seconds": 1.0}, {"seconds": 2.0}]}] * 3
    metrics = run.end_to_end_metrics(plain)
    assert e2e == {k: unit for k, (_, unit) in metrics.items()}
    assert metrics["verdict_s"][0] == pytest.approx(1.0 + 2.0 / 2)
    assert metrics["setup_s"][0] == pytest.approx(0.5)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ideal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
