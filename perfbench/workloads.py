"""Workloads of the benchmark: CLI tasks and their independent oracles.

Each task is one ``nkoszul`` command run with ``--format json``.  Expected
values are computed here, never with nkoszul's own functions, so that a
wrong answer from the program counts as a failed task.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Callable


@dataclass(frozen=True)
class Task:
    id: str
    argv: tuple
    field: str  # scalar field of the computation: "fraction" or "sympy"
    check: Callable  # report dict -> list of problems


def check_document(task, code, stdout):
    """Problems with one task's exit code and JSON output; empty if none."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    problems = []
    if doc.get("verdict") != "holds":
        problems.append(f"verdict {doc.get('verdict')!r}")
    if doc.get("config", {}).get("command") != task.argv[0]:
        problems.append("config does not echo the command")
    report = doc.get("report")
    if not isinstance(report, dict):
        return problems + ["no report object"]
    return problems + task.check(report)


# ----------------------------------------------------------------------
# oracles


def expect_equal(key, expected):
    def check(report):
        got = report.get(key)
        return [] if got == expected else [f"{key} = {got}, expected {expected}"]

    return check


def expect_all(*checks):
    return lambda report: [p for c in checks for p in c(report)]


def commutative_hilbert(n, D):
    """dim of degree-d polynomials in n commuting variables: C(d+n-1, n-1)."""
    return [math.comb(d + n - 1, n - 1) for d in range(D + 1)]


def descent_avoiding_counts(n, N, D):
    """Brute-force count of length-d words over n letters with no N
    consecutive strictly decreasing letters, d = 0..D."""
    counts = []
    for d in range(D + 1):
        count = 0
        for w in product(range(n), repeat=d):
            run = 1
            for a, b in zip(w, w[1:]):
                run = run + 1 if a > b else 1
                if run >= N:
                    break
            else:
                count += 1
        counts.append(count)
    return counts


def antisym_dual_dims(n, N, D):
    """dim A^!_m for the antisymmetrizer algebra: n^m below N, then C(n, m)."""
    return [n**m if m < N else math.comb(n, m) for m in range(D + 1)]


def expect_exact_complex(D):
    """Every total degree 1..D has zero homology and a surjective d_1."""

    def check(report):
        problems = []
        if not report.get("passed") or report.get("first_failure") is not None:
            problems.append("certificate not passed")
        degrees = report.get("degrees", [])
        if [deg.get("total_degree") for deg in degrees] != list(range(1, D + 1)):
            problems.append("total degrees are not 1..D")
        for deg in degrees:
            if any(h != 0 for h in deg.get("homology_dims", {}).values()):
                problems.append(f"nonzero homology at degree {deg.get('total_degree')}")
            if deg.get("d1_surjective") is not True:
                problems.append(f"d_1 not onto at degree {deg.get('total_degree')}")
        return problems

    return check


def expect_passed(null_key):
    def check(report):
        if report.get("passed") is True and report.get(null_key, 0) is None:
            return []
        return [f"passed={report.get('passed')}, {null_key}={report.get(null_key)}"]

    return check


# ----------------------------------------------------------------------
# inputs


def random_matrix(rng, n):
    """An n×n rational matrix, as the matrix JSON.

    The seed shuffles a fixed pool of n² entries ±p/q with p, q in 1..9, so
    the G-table cost varies by about ±4% between seeds; with each entry
    drawn independently it varied by ±18%.
    """
    pool = [Fraction((-1) ** i * (i % 9 + 1), (4 * i + 3) % 9 + 1) for i in range(n * n)]
    rng.shuffle(pool)
    return {"n": n, "entries": [[str(pool[i * n + j]) for j in range(n)] for i in range(n)]}


def _algebra(name, n, N=None):
    argv = ("--algebra", name, "--n", str(n))
    return argv + (("--N", str(N)) if N is not None else ())


def _task(task_id, command, algebra, D, check, field="fraction"):
    argv = (command,) + algebra + ("--max-degree", str(D), "--format", "json")
    return Task(task_id, argv, field, check)


def _master_task(task_id, command, n, N, D, matrix):
    text = json.dumps(matrix, separators=(",", ":"))
    argv = (command, "--n", str(n)) + (("--N", str(N)) if N else ())
    argv += ("--matrix", text, "--max-degree", str(D), "--format", "json")
    check = expect_all(expect_passed("first_mismatch"), expect_equal("matrix", matrix))
    return Task(task_id, argv, "fraction", check)


def ideal(rng):
    return [
        _task("hilbert-poly3", "hilbert", _algebra("poly", 3), 7,
              expect_equal("coefficients", commutative_hilbert(3, 7))),
        _task("hilbert-antisym43", "hilbert", _algebra("antisym", 4, 3), 8,
              expect_equal("coefficients", descent_avoiding_counts(4, 3, 8))),
        _task("hilbert-qspace3", "hilbert", _algebra("qspace", 3), 6,
              expect_equal("coefficients", commutative_hilbert(3, 6)), "sympy"),
    ]


def complex_(rng):
    return [
        _task("koszul-antisym43", "koszul-check", _algebra("antisym", 4, 3), 6,
              expect_exact_complex(6)),
        _task("koszul-qspace3", "koszul-check", _algebra("qspace", 3), 7,
              expect_exact_complex(7), "sympy"),
        _task("dualdims-antisym63", "dual-dims", _algebra("antisym", 6, 3), 10,
              expect_equal("dual_dims", antisym_dual_dims(6, 3, 10))),
    ]


def master(rng):
    return [
        _master_task("nmt-antisym33-a", "nmt", 3, 3, 5, random_matrix(rng, 3)),
        _master_task("nmt-antisym33-b", "nmt", 3, 3, 5, random_matrix(rng, 3)),
        _master_task("nmt-antisym43", "nmt", 4, 3, 4, random_matrix(rng, 4)),
        _master_task("mmt-poly3", "mmt", 3, None, 7, random_matrix(rng, 3)),
    ]


def envelope(rng):
    check = expect_passed("first_failure_degree")
    return [
        _task("kmt-antisym33", "kmt-check", _algebra("antisym", 3, 3), 5, check),
        _task("kmt-qspace2", "kmt-check", _algebra("qspace", 2), 5, check, "sympy"),
        _task("kmt-poly2", "kmt-check", _algebra("poly", 2), 6, check),
    ]


WORKLOADS = {
    "ideal": ideal,
    "complex": complex_,
    "master": master,
    "envelope": envelope,
}


def tasks(workload, seed):
    """The workload's tasks; the seed draws the rational matrices of ``master``."""
    return WORKLOADS[workload](random.Random(seed))
