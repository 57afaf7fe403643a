"""Rewrite the golden outputs of this directory from the current tree.

Each case is one file ``<name>.json`` holding the command line, the exit
code and the exact stdout of ``nkoszul.cli.main`` run in-process.
``tests/test_golden.py`` runs every file it finds and compares the bytes.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

Regenerate only for an intended change of output, and name every file
whose bytes changed, and why, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib

CASES = {
    "koszul-antisym43-d9": ["koszul-check", "--algebra", "antisym", "--n", "4", "--N", "3",
                            "--max-degree", "9", "--format", "json"],
    "koszul-antisym53-d8": ["koszul-check", "--algebra", "antisym", "--n", "5", "--N", "3",
                            "--max-degree", "8", "--format", "json"],
    "koszul-antisym33-d7": ["koszul-check", "--algebra", "antisym", "--n", "3", "--N", "3",
                            "--max-degree", "7", "--format", "json"],
    "koszul-antisym44-d9-text": ["koszul-check", "--algebra", "antisym", "--n", "4", "--N", "4",
                                 "--max-degree", "9"],
    "koszul-poly3-d7": ["koszul-check", "--algebra", "poly", "--n", "3",
                        "--max-degree", "7", "--format", "json"],
    "koszul-qspace3-d7": ["koszul-check", "--algebra", "qspace", "--n", "3",
                          "--max-degree", "7", "--format", "json"],
    "koszul-qspace3-qm1-d6": ["koszul-check", "--algebra", "qspace", "--n", "3", "--q", "-1",
                              "--max-degree", "6", "--format", "json"],
    "koszul-qspace2-q2_3-d6": ["koszul-check", "--algebra", "qspace", "--n", "2", "--q", "2/3",
                               "--max-degree", "6", "--format", "json"],
    "koszul-free2-d5": ["koszul-check", "--algebra", "free", "--n", "2",
                        "--max-degree", "5", "--format", "json"],
    "kmt-qspace2-d5": ["kmt-check", "--algebra", "qspace", "--n", "2",
                       "--max-degree", "5", "--format", "json"],
    "hilbert-qspace3-d6": ["hilbert", "--algebra", "qspace", "--n", "3",
                           "--max-degree", "6", "--format", "json"],
    "dvp-qspace3-d7": ["dvp-check", "--algebra", "qspace", "--n", "3",
                       "--max-degree", "7", "--format", "json"],
}


def run(argv):
    """(exit code, stdout) of ``nkoszul.cli.main(argv)`` in this process."""
    from nkoszul import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def main():
    os.environ.pop("KOSZUL_MAX_AMBIENT", None)
    here = pathlib.Path(__file__).parent
    for name, argv in CASES.items():
        code, stdout = run(argv)
        case = {"argv": argv, "exit_code": code, "stdout": stdout}
        (here / f"{name}.json").write_text(json.dumps(case, indent=1) + "\n")
        print(f"{name}: exit {code}, {len(stdout)} bytes")


if __name__ == "__main__":
    main()
