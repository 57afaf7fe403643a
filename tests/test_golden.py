"""The golden corpus: each file of ``tests/golden`` pins the exit code and
the exact stdout and stderr of one command line, run in ``tests/golden``
with the environment the file names (see ``tests/golden/regenerate.py``).
These pin what the program prints; they are no oracle of its mathematics."""

import contextlib
import difflib
import io
import json
import pathlib

import pytest

from nkoszul import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
CASES = sorted(GOLDEN.glob("*.json"))
ENV_KEYS = ("KOSZUL_MAX_AMBIENT", "COLUMNS")


def test_corpus_is_present():
    assert len(CASES) == 154


def _diff(name, golden, now):
    return "".join(difflib.unified_diff(
        golden.splitlines(True), now.splitlines(True), f"golden {name}", f"now {name}"
    ))


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_output_matches_golden(path, monkeypatch):
    case = json.loads(path.read_text())
    for key in ENV_KEYS:
        monkeypatch.delenv(key, raising=False)
    for key, value in case.get("env", {}).items():
        monkeypatch.setenv(key, value)
    monkeypatch.chdir(GOLDEN)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(case["argv"])
    stdout, stderr = out.getvalue(), err.getvalue()
    assert stdout == case["stdout"], _diff("stdout", case["stdout"], stdout)
    assert stderr == case["stderr"], _diff("stderr", case["stderr"], stderr)
    assert code == case["exit_code"]
