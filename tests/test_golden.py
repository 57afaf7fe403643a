"""The golden corpus: each file of ``tests/golden`` pins the exit code and
the exact stdout of one command line (see ``tests/golden/regenerate.py``).
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


def test_corpus_is_present():
    assert len(CASES) == 12


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_output_matches_golden(path, monkeypatch):
    monkeypatch.delenv("KOSZUL_MAX_AMBIENT", raising=False)
    case = json.loads(path.read_text())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(case["argv"])
    stdout = out.getvalue()
    diff = "".join(difflib.unified_diff(
        case["stdout"].splitlines(True), stdout.splitlines(True), "golden", "now"
    ))
    assert stdout == case["stdout"], diff
    assert code == case["exit_code"]
