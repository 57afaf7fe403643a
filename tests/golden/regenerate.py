"""Rewrite the golden outputs of this directory from the current tree.

Each case is one file ``<name>.json`` holding the command line, the
environment it sets (optional), the exit code and the exact stdout and
stderr of ``nkoszul.cli.main`` run in-process, with this directory as the
working directory, so that the ``file:`` inputs under ``inputs/`` have
relative paths and their OSError texts do not depend on the checkout.
``tests/test_golden.py`` runs every file it finds and compares the bytes.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

It prints the names of the files whose bytes changed, and nothing when
none did.  Regenerate only for an intended change of output, and name
every changed file, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# every environment variable the program or argparse reads; a case sets
# the ones it names and runs with the others unset
ENV_KEYS = ("KOSZUL_MAX_AMBIENT", "COLUMNS")
# argparse wraps its usage and help text to the terminal width
WIDTH = {"COLUMNS": "80"}
MONO_XYX = "file:inputs/mono_xyx.json"
MATRIX3 = "file:inputs/matrix3.json"


def _json(command, *algebra, D):
    return [command, *algebra, "--max-degree", str(D), "--format", "json"]


CASES = {
    "koszul-antisym43-d9": _json("koszul-check", "--algebra", "antisym", "--n", "4",
                                 "--N", "3", D=9),
    "koszul-antisym53-d8": _json("koszul-check", "--algebra", "antisym", "--n", "5",
                                 "--N", "3", D=8),
    "koszul-antisym33-d7": _json("koszul-check", "--algebra", "antisym", "--n", "3",
                                 "--N", "3", D=7),
    "koszul-antisym44-d9-text": ["koszul-check", "--algebra", "antisym", "--n", "4",
                                 "--N", "4", "--max-degree", "9"],
    "koszul-poly3-d7": _json("koszul-check", "--algebra", "poly", "--n", "3", D=7),
    "koszul-qspace3-d7": _json("koszul-check", "--algebra", "qspace", "--n", "3", D=7),
    "koszul-qspace3-qm1-d6": _json("koszul-check", "--algebra", "qspace", "--n", "3",
                                   "--q", "-1", D=6),
    "koszul-qspace2-q2_3-d6": _json("koszul-check", "--algebra", "qspace", "--n", "2",
                                    "--q", "2/3", D=6),
    "koszul-free2-d5": _json("koszul-check", "--algebra", "free", "--n", "2", D=5),
    "kmt-qspace2-d5": _json("kmt-check", "--algebra", "qspace", "--n", "2", D=5),
    "hilbert-qspace3-d6": _json("hilbert", "--algebra", "qspace", "--n", "3", D=6),
    "dvp-qspace3-d7": _json("dvp-check", "--algebra", "qspace", "--n", "3", D=7),
    # a negative verdict, exit 1
    "koszul-mono_xyx-d6": _json("koszul-check", "--algebra", MONO_XYX, D=6),
    # the usage errors, exit 2
    "error-missing-file": ["info", "--algebra", "file:inputs/missing.json"],
    "error-malformed-file": ["info", "--algebra", "file:inputs/malformed.json"],
    "error-schema-invalid-file": ["info", "--algebra", "file:inputs/schema-invalid.json"],
    "error-missing-n": ["hilbert", "--algebra", "poly"],
    "error-missing-N": ["hilbert", "--algebra", "antisym", "--n", "3"],
    "error-unknown-algebra": ["hilbert", "--algebra", "nosuch", "--n", "2"],
    "error-negative-degree": ["hilbert", "--n", "2", "--max-degree", "-1"],
    "error-guardrail": ["hilbert", "--n", "4", "--max-degree", "20"],
    "error-bad-max-ambient": ["hilbert", "--n", "2"],
    "error-unknown-command": ["frobnicate"],
    "error-empty-argv": [],
    "help": ["-h"],
}

# each algebra of the command grid below, with the degree bound of its cases
GRID_ALGEBRAS = {
    "poly2": (("--algebra", "poly", "--n", "2"), 5),
    "antisym33": (("--algebra", "antisym", "--n", "3", "--N", "3"), 6),
    "qspace2": (("--algebra", "qspace", "--n", "2"), 6),
    "qspace2-q2_3": (("--algebra", "qspace", "--n", "2", "--q", "2/3"), 5),
    "free2": (("--algebra", "free", "--n", "2"), 4),
    "mono_xyx": (("--algebra", MONO_XYX), 5),
}
GRID_COMMANDS = {
    "info": "info",
    "hilbert": "hilbert",
    "dualdims": "dual-dims",
    "koszul": "koszul-check",
    "dvp": "dvp-check",
    "kmt": "kmt-check",
}


def _formats(name, argv):
    """The case ``name`` in json and, as ``name-text``, in text."""
    return {name: [*argv, "--format", "json"], f"{name}-text": list(argv)}


def _grid_cases():
    """Every algebra command on each algebra of the grid, and the commands
    that take no algebra, with the matrix from a file or a seed, in json
    and text."""
    cases = {}
    for alg, (algebra, D) in GRID_ALGEBRAS.items():
        for short, command in GRID_COMMANDS.items():
            argv = [command, *algebra, "--max-degree", str(D)]
            cases.update(_formats(f"{short}-{alg}-d{D}", argv))
    cases.update(_formats("admissible-n3-N3-d8",
                          ["admissible", "--n", "3", "--N", "3", "--max-degree", "8"]))
    cases.update(_formats("eq1-n4-d6", ["eq1", "--n", "4", "--max-degree", "6"]))
    cases.update(_formats("mmt-file-matrix3-d5",
                          ["mmt", "--n", "3", "--matrix", MATRIX3, "--max-degree", "5"]))
    cases.update(_formats("nmt-file-matrix3-antisym33-d5",
                          ["nmt", "--n", "3", "--N", "3", "--matrix", MATRIX3,
                           "--max-degree", "5"]))
    cases.update(_formats("mmt-seed7-n3-d5",
                          ["mmt", "--n", "3", "--random-seed", "7", "--max-degree", "5"]))
    cases.update(_formats("nmt-seed7-antisym33-d5",
                          ["nmt", "--n", "3", "--N", "3", "--random-seed", "7",
                           "--max-degree", "5"]))
    return cases


CASES.update(_grid_cases())
# guardrail edges: n^0 = 1 against a bound of 0; a built-in whose
# relations span n^N above the bound while n^D is within it; dual-dims,
# which builds A_N, on a file algebra with n^N above the bound
CASES.update({
    "guard-degree0-free2": ["hilbert", "--algebra", "free", "--n", "2", "--max-degree", "0",
                            "--max-ambient", "0"],
    "guard-relations-antisym43": ["hilbert", "--algebra", "antisym", "--n", "4", "--N", "3",
                                  "--max-degree", "2", "--max-ambient", "20"],
    "guard-dualdims-mono_xyx": ["dual-dims", "--algebra", MONO_XYX, "--max-degree", "3",
                                "--max-ambient", "5"],
})
# refusals whose message names the check that fails first: every
# presentation, mmt's and nmt's included, is validated, guarded and built
# in one place; antisym with N > n has no relations to bound; eq1 checks
# its n at every degree bound
CASES.update({
    "error-mmt-missing-n": ["mmt", "--random-seed", "1"],
    "error-nmt-missing-N": ["nmt", "--n", "3", "--random-seed", "1"],
    "guard-relations-nmt43": ["nmt", "--n", "4", "--N", "3", "--max-degree", "20",
                              "--random-seed", "1", "--max-ambient", "10"],
    "error-nmt-N-above-n": ["nmt", "--n", "3", "--N", "5", "--max-degree", "3",
                            "--matrix", "{bad"],
    "error-antisym-N-above-n": ["hilbert", "--algebra", "antisym", "--n", "10", "--N", "20"],
    "error-eq1-negative-n-d0": ["eq1", "--n", "-5", "--max-degree", "0"],
})
# info reads the relation rank from A_N at every degree bound, so it also
# bounds n^N when D < N
CASES.update({
    "guard-info-free400-d1": ["info", "--algebra", "free", "--n", "400", "--max-degree", "1",
                              "--max-ambient", "1000"],
    "guard-info-mono_xyx-d1": ["info", "--algebra", MONO_XYX, "--max-degree", "1",
                               "--max-ambient", "5"],
})
# antisym(4,3) with the leading coefficient of relation 1 doubled: its
# completion adds rules of lengths 4 and 5, above N
PERTURBED = "file:inputs/perturbed_antisym43.json"
# parameter files: a coefficient in Laurent form, and ones whose reduced
# denominator is no monomial, which stay in sympy's form
QPLANE_Q = "file:inputs/qplane_q.json"
QSPACE3_RATIONAL = "file:inputs/qspace3_rational.json"
CASES.update({
    "hilbert-perturbed43-d7": _json("hilbert", "--algebra", PERTURBED, D=7),
    "info-perturbed43-d6": _json("info", "--algebra", PERTURBED, D=6),
    "koszul-perturbed43-d6": _json("koszul-check", "--algebra", PERTURBED, D=6),
    "info-qplane_q-d5": _json("info", "--algebra", QPLANE_Q, D=5),
    "koszul-qplane_q-d5": _json("koszul-check", "--algebra", QPLANE_Q, D=5),
    "dvp-qplane_q-d5": _json("dvp-check", "--algebra", QPLANE_Q, D=5),
    # end(A) on relations that are no built-in's, R^⊥ in Laurent form for qplane_q
    "kmt-perturbed43-d4": _json("kmt-check", "--algebra", PERTURBED, D=4),
    "kmt-qplane_q-d5": _json("kmt-check", "--algebra", QPLANE_Q, D=5),
    "info-qspace3_rational-d4": _json("info", "--algebra", QSPACE3_RATIONAL, D=4),
    "koszul-qspace3_rational-d4": _json("koszul-check", "--algebra", QSPACE3_RATIONAL, D=4),
    "dvp-qspace3_rational-d4": _json("dvp-check", "--algebra", QSPACE3_RATIONAL, D=4),
})
# the orbit path of koszul-check: an S_3-stable file algebra that is not
# Koszul (exit 1), thirty letters, and letters of two digits
SYM_XYX3 = "file:inputs/sym_xyx3.json"
CASES.update({
    "koszul-sym_xyx3-d6": _json("koszul-check", "--algebra", SYM_XYX3, D=6),
    "koszul-poly30-d2": _json("koszul-check", "--algebra", "poly", "--n", "30", D=2),
    "koszul-qspace11-qm1-d3": _json("koszul-check", "--algebra", "qspace", "--n", "11",
                                    "--q", "-1", D=3),
})
# the usage errors of the commands that take no algebra and of the matrix:
# "{bad" fails in the JSON reader, '{"n": 2}' in the matrix schema
CASES.update({
    "error-admissible-missing-N": ["admissible", "--n", "3"],
    "error-eq1-missing-n": ["eq1"],
    "error-mmt-matrix-size": ["mmt", "--n", "3", "--matrix",
                              '{"n": 2, "entries": [["1", "0"], ["0", "1"]]}'],
    "error-nmt-no-matrix": ["nmt", "--n", "3", "--N", "3"],
    "error-mmt-malformed-matrix": ["mmt", "--n", "2", "--matrix", "{bad"],
    "error-mmt-schema-invalid-matrix": ["mmt", "--n", "2", "--matrix", '{"n": 2}'],
})

# the environment of a case, where it needs one
ENVS = {
    "error-bad-max-ambient": {"KOSZUL_MAX_AMBIENT": "lots"},
    "error-unknown-command": WIDTH,
    "error-empty-argv": WIDTH,
    "help": WIDTH,
}


def _workload_cases():
    """Every task of the four benchmark workloads at seeds 1 and 51 whose
    command line no case above has; the seed draws only the matrices of
    ``master``, so a task with one command line at both seeds is one case."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    taken = list(CASES.values())
    cases = {}
    for workload in workloads.WORKLOADS:
        for first, last in zip(workloads.tasks(workload, 1), workloads.tasks(workload, 51)):
            seeded = first.argv != last.argv
            for seed, task in (1, first), (51, last):
                argv = list(task.argv)
                if argv not in taken:
                    taken.append(argv)
                    cases[f"{workload}-{task.id}" + (f"-seed{seed}" if seeded else "")] = argv
    return cases


def run(argv, env=None):
    """(exit code, stdout, stderr) of ``nkoszul.cli.main(argv)`` in this
    process, with the variables of ``ENV_KEYS`` set as ``env`` says."""
    from nkoszul import cli

    for key in ENV_KEYS:
        os.environ.pop(key, None)
    os.environ.update(env or {})
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main():
    cases = {**CASES, **_workload_cases()}
    os.chdir(HERE)
    for name, argv in cases.items():
        env = ENVS.get(name)
        code, stdout, stderr = run(argv, env)
        case = {"argv": argv, **({"env": env} if env else {}),
                "exit_code": code, "stdout": stdout, "stderr": stderr}
        path = HERE / f"{name}.json"
        text = json.dumps(case, indent=1) + "\n"
        if not path.exists() or path.read_text() != text:
            path.write_text(text)
            print(path.name)


if __name__ == "__main__":
    main()
