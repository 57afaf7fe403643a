import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from sympy.polys.fields import FracElement

from conftest import doubled_first_slice
from nkoszul import __version__, koszul, manin, mmt
from nkoszul.cli import HANDLERS, _power_exceeds, build_parser, main
from nkoszul.homog import AlgebraPresentation
from nkoszul.scalar import ParameterField, ParameterValue, axpy
from nkoszul.series import MultiSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eq1_holds(capsys):
    code, out, _ = run(capsys, "eq1", "--n", "5", "--max-degree", "10")
    assert code == 0
    assert "all zero" in out


def test_dvp_antisym(capsys):
    code, out, _ = run(
        capsys, "dvp-check", "--algebra", "antisym", "--n", "4", "--N", "3",
        "--max-degree", "8",
    )
    assert code == 0
    assert "holds" in out


def test_koszul_check_wording(capsys):
    code, out, _ = run(
        capsys, "koszul-check", "--algebra", "poly", "--n", "2", "--max-degree", "4"
    )
    assert code == 0
    assert "up to degree 4" in out


def test_negative_verdict_exit_code(capsys, tmp_path):
    # the empirically non-Koszul cubic monomial algebra: exit code 1, not 2
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(_mono_xyx()))
    code, out, _ = run(
        capsys, "koszul-check", "--algebra", f"file:{path}", "--max-degree", "6"
    )
    assert code == 1
    assert "FAILS" in out and "5" in out


def test_internal_error_exit_3(capsys, monkeypatch):
    # a failed invariant check is a program fault; exit 1 would read as a
    # negative verdict; a doubled slice of J_1 breaks d_1 ∘ d_2 = 0
    monkeypatch.setattr(koszul, "_j_slices", doubled_first_slice(koszul._j_slices, (1, 1)))
    code, out, err = run(
        capsys, "koszul-check", "--algebra", "poly", "--n", "2", "--max-degree", "2"
    )
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        "internal error: RuntimeError: d∘d != 0: the slices of J_2 and J_1 compose "
        "outside span(R); internal error"
    ]


def test_memory_error_exit_2(capsys, monkeypatch):
    # running out of memory is a configuration the guardrail let through,
    # not a program fault: one error line that names the guardrail, exit 2
    def exhausted(args, A):
        raise MemoryError

    monkeypatch.setitem(HANDLERS, "hilbert", exhausted)
    code, out, err = run(capsys, "hilbert", "--n", "2", "--max-degree", "2")
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: out of memory")
    assert "--max-ambient" in line and "KOSZUL_MAX_AMBIENT" in line


def test_other_exceptions_still_exit_3(capsys, monkeypatch):
    def broken(args, A):
        raise KeyError("lost")

    monkeypatch.setitem(HANDLERS, "hilbert", broken)
    code, out, err = run(capsys, "hilbert", "--n", "2", "--max-degree", "2")
    assert (code, out, err) == (3, "", "internal error: KeyError: 'lost'\n")


@pytest.fixture
def perturbed_denominator(monkeypatch):
    # the master identity is a theorem on poly and antisym, so only a
    # perturbed side reaches the failing report: 1 more at t_1
    exact = mmt.nmt_rhs_denominator

    def perturbed(n, N, Z, max_degree):
        terms = dict(exact(n, N, Z, max_degree).terms)
        axpy(terms, 1, {(1,) + (0,) * (n - 1): 1})
        return MultiSeries(n, max_degree, terms)

    monkeypatch.setattr(mmt, "nmt_rhs_denominator", perturbed)


@pytest.mark.parametrize("command, name", [("mmt", "master identity"),
                                           ("nmt", "N=2 master identity")])
def test_master_report_of_a_violated_identity(capsys, perturbed_denominator, command, name):
    argv = (command, "--n", "3", "--N", "2", "--random-seed", "3", "--max-degree", "3")
    code, out, _ = run(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "violated"
    assert doc["report"]["passed"] is False
    mismatch = doc["report"]["first_mismatch"]
    assert set(mismatch) == {"exponents", "lhs", "rhs"}
    assert mismatch["exponents"] == [1, 0, 0]
    assert isinstance(mismatch["lhs"], str) and isinstance(mismatch["rhs"], str)
    assert mismatch["lhs"] != mismatch["rhs"]
    code, out, _ = run(capsys, *argv)
    [line] = out.splitlines()
    assert code == 1
    assert line == (
        f"{name} FAILS at monomial (1, 0, 0): lhs={mismatch['lhs']}, rhs={mismatch['rhs']}"
    )


def test_mmt_seeded(capsys):
    code, out, _ = run(
        capsys, "mmt", "--n", "3", "--random-seed", "7", "--max-degree", "4"
    )
    assert code == 0


def test_master_report_keys(capsys):
    # mmt is the N = 2 case of nmt, but its report has no "N"
    common = ("--n", "2", "--random-seed", "3", "--max-degree", "3", "--format", "json")
    keys = {"n", "max_degree", "matrix", "passed", "first_mismatch"}
    code, out, _ = run(capsys, "mmt", *common)
    assert code == 0 and set(json.loads(out)["report"]) == keys
    code, out, _ = run(capsys, "nmt", "--N", "2", *common)
    assert code == 0 and set(json.loads(out)["report"]) == keys | {"N"}


CONFIG = {
    "command", "algebra", "n", "N", "q", "max-degree", "matrix", "random-seed",
    "max-ambient", "format",
}


@pytest.mark.parametrize("command", HANDLERS)
def test_config_echoes_every_option(capsys, command):
    # the config echo is the parsed arguments: one key per option, no more
    code, out, _ = run(
        capsys, command, "--n", "2", "--N", "2", "--random-seed", "1",
        "--max-degree", "2", "--format", "json",
    )
    assert code == 0
    assert set(json.loads(out)["config"]) == CONFIG


def test_json_reports_byte_identical(capsys):
    args = (
        "nmt", "--n", "3", "--N", "3", "--random-seed", "5",
        "--max-degree", "4", "--format", "json",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verdict"] == "holds"
    assert doc["config"]["random-seed"] == 5
    assert doc["version"]
    assert doc["max_degree"] == 4


def test_kmt_json_records_convention(capsys):
    code, out, _ = run(
        capsys, "kmt-check", "--algebra", "poly", "--n", "2", "--max-degree", "3",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["determinant_convention"] == "row-permuted"


def test_version_flag(capsys):
    assert main(["--version"]) == 0


def test_parser_is_built_once():
    # every call of main parses with the same parser
    assert build_parser() is build_parser()


def test_parser_adds_each_option_once(monkeypatch):
    # --version, the command and the nine shared options; a subparser per
    # command would repeat the nine (91 explicit calls)
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args[0])
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    build_parser.cache_clear()
    try:
        build_parser()
    finally:
        build_parser.cache_clear()
    calls.remove("-h")  # argparse adds its help option through the same method
    assert len(calls) == len(set(calls)) == 11


def test_kmt_guardrail(capsys):
    code, _, err = run(
        capsys, "kmt-check", "--algebra", "poly", "--n", "9", "--max-degree", "8"
    )
    assert code == 2
    assert "guardrail" in err


def test_kmt_guardrail_counts_degree_N(capsys):
    # build_end works in degree N = 3 even at D = 1: 9^3 = 729 > 100
    code, out, err = run(
        capsys, "kmt-check", "--algebra", "antisym", "--n", "3", "--N", "3",
        "--max-degree", "1", "--max-ambient", "100",
    )
    assert code == 2 and out == ""
    assert "n^(2·max(D, N)) = 9^3 exceeds the guardrail 100" in err


@pytest.mark.parametrize(
    "n, N, D, bound, refused",
    [
        (2, 2, 1, 16, False),  # D < N: (2·2)^2 = 16, the bound is inclusive
        (2, 2, 1, 15, True),
        (3, 3, 2, 729, False),  # D < N: 9^3
        (3, 3, 2, 728, True),
        (2, 2, 4, 256, False),  # D >= N: 4^4
        (2, 2, 4, 255, True),
        (3, 3, 4, 6560, True),  # D >= N: 9^4 = 6561
    ],
)
def test_kmt_guardrail_quantity(capsys, monkeypatch, n, N, D, bound, refused):
    # n^(2·max(D, N)) against the bound, decided before end(A) is built
    def no_build(A):
        raise AssertionError("kmt-check built end(A) past the guardrail")

    if refused:
        monkeypatch.setattr(manin, "build_end", no_build)
    code, _, err = run(
        capsys, "kmt-check", "--algebra", "antisym", "--n", str(n), "--N", str(N),
        "--max-degree", str(D), "--max-ambient", str(bound),
    )
    if refused:
        assert code == 2
        assert f"n^(2·max(D, N)) = {n * n}^{max(D, N)} exceeds the guardrail {bound}" in err
    else:
        assert code == 0, err


def test_kmt_guardrail_huge_degree(capsys, monkeypatch):
    # a huge D is refused without computing (n·n)^D
    def no_build(A):
        raise AssertionError("kmt-check built end(A) past the guardrail")

    monkeypatch.delenv("KOSZUL_MAX_AMBIENT", raising=False)
    monkeypatch.setattr(manin, "build_end", no_build)
    code, out, err = run(
        capsys, "kmt-check", "--algebra", "antisym", "--n", "3", "--N", "3",
        "--max-degree", str(10**9),
    )
    assert code == 2 and out == ""
    assert "n^(2·max(D, N)) = 9^1000000000 exceeds the guardrail 10000000" in err


def test_kmt_guardrail_override(capsys, monkeypatch):
    # raising the bound through the environment lets the check proceed
    monkeypatch.setenv("KOSZUL_MAX_AMBIENT", "100000000000000000")
    code, out, _ = run(
        capsys, "kmt-check", "--algebra", "poly", "--n", "2", "--max-degree", "2"
    )
    assert code == 0


def test_hilbert_guardrail(capsys, monkeypatch):
    # n^D = 10^8 words exceed the default bound 10^7: hilbert and info are
    # refused before any degree is built, so a missing guard fails here
    # instead of allocating
    for command in ("hilbert", "info"):
        monkeypatch.delenv("KOSZUL_MAX_AMBIENT", raising=False)

        def no_degree(self, d):
            raise AssertionError(f"{command} built a degree past the guardrail")

        with monkeypatch.context() as patch:
            patch.setattr(AlgebraPresentation, "_component", no_degree)
            code, out, err = run(
                capsys, command, "--algebra", "free", "--n", "10", "--max-degree", "8"
            )
            assert code == 2 and out == ""
            assert err == (
                "error: ambient dimension n^D = 10^8 exceeds the guardrail "
                "10000000; raise --max-ambient or KOSZUL_MAX_AMBIENT\n"
            )
            # a huge D is refused without computing n^D
            code, _, err = run(
                capsys, command, "--algebra", "free", "--n", "10", "--max-degree", str(10**12)
            )
            assert code == 2 and "guardrail" in err
        monkeypatch.setenv("KOSZUL_MAX_AMBIENT", "7")
        code, _, err = run(capsys, command, "--algebra", "free", "--n", "2", "--max-degree", "3")
        assert code == 2 and "n^D = 2^3 exceeds the guardrail 7" in err


@pytest.mark.parametrize("command", ["dvp-check", "koszul-check"])
def test_complex_guardrail(capsys, monkeypatch, command):
    # both read A_D from flags of n^D bytes, as hilbert does: poly(2) at
    # D = 22 is refused below 2^22 before any degree is built
    monkeypatch.delenv("KOSZUL_MAX_AMBIENT", raising=False)

    def no_degree(self, d):
        raise AssertionError(f"{command} built a degree past the guardrail")

    with monkeypatch.context() as patch:
        patch.setattr(AlgebraPresentation, "_component", no_degree)
        code, out, err = run(
            capsys, command, "--algebra", "poly", "--n", "2", "--max-degree", "22",
            "--max-ambient", "1000000",
        )
        assert code == 2 and out == ""
        assert err == (
            "error: ambient dimension n^D = 2^22 exceeds the guardrail "
            "1000000; raise --max-ambient or KOSZUL_MAX_AMBIENT\n"
        )
    argv = (command, "--algebra", "poly", "--n", "2", "--max-degree", "3")
    assert run(capsys, *argv, "--max-ambient", "7")[0] == 2
    assert run(capsys, *argv, "--max-ambient", "8")[0] == 0


def test_hilbert_guardrail_is_inclusive(capsys):
    # n^D equal to the bound is allowed
    code, out, _ = run(
        capsys, "hilbert", "--algebra", "free", "--n", "2", "--max-degree", "3",
        "--max-ambient", "8", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["report"]["coefficients"] == [1, 2, 4, 8]


@pytest.mark.parametrize("command", ["nmt", "mmt"])
def test_master_guardrail(capsys, monkeypatch, command):
    # n^D bounds I_D and the G walk: a huge D is refused before any degree
    # is built, without computing n^D
    monkeypatch.delenv("KOSZUL_MAX_AMBIENT", raising=False)

    def no_degree(self, d):
        raise AssertionError(f"{command} built a degree past the guardrail")

    with monkeypatch.context() as patch:
        patch.setattr(AlgebraPresentation, "_component", no_degree)
        code, out, err = run(
            capsys, command, "--n", "4", "--N", "3", "--random-seed", "2",
            "--max-degree", "1000000",
        )
        assert code == 2 and out == ""
        assert err == (
            "error: ambient dimension n^D = 4^1000000 exceeds the guardrail "
            "10000000; raise --max-ambient or KOSZUL_MAX_AMBIENT\n"
        )
    argv = (command, "--n", "2", "--N", "2", "--random-seed", "2", "--max-degree", "3")
    code, _, err = run(capsys, *argv, "--max-ambient", "7")
    assert code == 2 and "n^D = 2^3 exceeds the guardrail 7" in err
    # the bound is inclusive, and the flag or the environment lifts it
    assert run(capsys, *argv, "--max-ambient", "8")[0] == 0
    monkeypatch.setenv("KOSZUL_MAX_AMBIENT", "7")
    assert run(capsys, *argv)[0] == 2
    monkeypatch.setenv("KOSZUL_MAX_AMBIENT", "8")
    assert run(capsys, *argv)[0] == 0


def test_power_exceeds_matches_the_power():
    # both branches compare n^k with the bound, n^0 = 1 included
    for n in range(5):
        for k in range(9):
            for bound in range(-1, 301):
                assert _power_exceeds(n, k, bound) == (n**k > bound), (n, k, bound)
    # a huge k returns at once, without building n^k
    t0 = time.perf_counter()
    assert _power_exceeds(2, 10**9, 10**7)
    assert not _power_exceeds(1, 10**9, 1)
    assert not _power_exceeds(0, 10**9, 0)
    # a negative n or k is no dimension, left to the command to refuse
    assert not _power_exceeds(-3, 10**9, 10**7)
    assert not _power_exceeds(0, -1, 10**7)
    assert time.perf_counter() - t0 < 0.1


def _no_presentation(monkeypatch):
    def no_build(self, *args, **kwargs):
        raise AssertionError("a presentation was built past the guardrail")

    monkeypatch.setattr(AlgebraPresentation, "__init__", no_build)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("hilbert", "--algebra", "antisym", "--n", "12", "--N", "6", "--max-degree", "7"),
         "ambient dimension n^N = 12^6 exceeds the guardrail 10"),
        (("info", "--algebra", "poly", "--n", "4", "--max-degree", "1"),
         "ambient dimension n^N = 4^2 exceeds the guardrail 10"),
        (("dual-dims", "--algebra", "qspace", "--n", "4", "--q", "2", "--max-degree", "1"),
         "ambient dimension n^N = 4^2 exceeds the guardrail 10"),
        (("nmt", "--n", "3", "--N", "3", "--max-degree", "2", "--matrix", "file:missing.json"),
         "ambient dimension n^N = 3^3 exceeds the guardrail 10"),
        (("mmt", "--n", "4", "--max-degree", "1", "--matrix", "file:missing.json"),
         "ambient dimension n^N = 4^2 exceeds the guardrail 10"),
    ],
    ids=["hilbert-antisym", "info-poly", "dual-dims-qspace", "nmt", "mmt"],
)
def test_builtin_relations_are_refused_before_they_are_built(capsys, monkeypatch, argv, message):
    # poly, qspace and antisym have at most n^N relation terms: a bound
    # below n^N refuses them, even where n^D is within it, before any
    # presentation is built or the matrix file read
    _no_presentation(monkeypatch)
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv, "--max-ambient", "10")
    assert time.perf_counter() - t0 < 0.1
    assert (code, out) == (2, "")
    assert err == f"error: {message}; raise --max-ambient or KOSZUL_MAX_AMBIENT\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("hilbert", "--algebra", "poly", "--n", "-5000"), "polynomial algebra needs n >= 1"),
        (("hilbert", "--algebra", "antisym", "--n", "0", "--N", "-1"),
         "antisymmetrizer needs 2 <= N <= n, got N=-1, n=0"),
        (("hilbert", "--algebra", "antisym", "--n", "10", "--N", "20"),
         "antisymmetrizer needs 2 <= N <= n, got N=20, n=10"),
        (("nmt", "--n", "30", "--N", "50", "--max-degree", "3"),
         "antisymmetrizer needs 2 <= N <= n, got N=50, n=30"),
        (("info", "--algebra", "qspace", "--n", "3", "--q", "0"), "parameter q must be nonzero"),
        (("dual-dims", "--algebra", "qspace", "--n", "0", "--q", "0"),
         "quantum space needs n >= 1"),
        (("hilbert", "--algebra", "qspace", "--n", "2", "--q", "1/0"),
         "not a rational 'p/q' or 'p' with q > 0: '1/0'"),
    ],
    ids=["poly-negative-n", "antisym-negative-N", "antisym-N-above-n", "nmt-N-above-n",
         "qspace-q0", "qspace-n0", "qspace-bad-q"],
)
def test_bad_builtin_parameters_keep_their_message(capsys, monkeypatch, argv, message):
    # a built-in's parameters are checked before any bound: the message
    # names the bad parameter even where the guardrail would refuse the
    # size too, before any presentation is built
    _no_presentation(monkeypatch)
    for sized in ((), ("--max-degree", "30", "--max-ambient", "0")):
        code, out, err = run(capsys, *argv, *sized)
        assert (code, out, err) == (2, "", f"error: {message}\n"), sized


def test_free_algebra_keeps_only_its_degree_guard(capsys):
    # free has no relations, so n^2 above the bound is no refusal at D = 1
    code, out, _ = run(
        capsys, "hilbert", "--algebra", "free", "--n", "4", "--max-degree", "1",
        "--max-ambient", "10",
    )
    assert (code, out) == (0, "H_A coefficients 0..1: [1, 4]\n")


def test_dual_dims_guardrail(capsys, monkeypatch, tmp_path):
    # dual-dims reads A!_N from the flags of A_N once D >= N: n^N is
    # refused before A_N is built, for a file algebra too
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(_mono_xyx()))
    argv = ("dual-dims", "--algebra", f"file:{path}")

    def no_degree(self, d):
        raise AssertionError("dual-dims built a degree past the guardrail")

    with monkeypatch.context() as patch:
        patch.setattr(AlgebraPresentation, "_component", no_degree)
        t0 = time.perf_counter()
        code, out, err = run(capsys, *argv, "--max-degree", "3", "--max-ambient", "7")
        assert time.perf_counter() - t0 < 0.1
        assert (code, out) == (2, "")
        assert err == (
            "error: ambient dimension n^N = 2^3 exceeds the guardrail 7; "
            "raise --max-ambient or KOSZUL_MAX_AMBIENT\n"
        )
    # below N no A_N is built, and the bound is inclusive
    assert run(capsys, *argv, "--max-degree", "2", "--max-ambient", "7")[0] == 0
    assert run(capsys, *argv, "--max-degree", "3", "--max-ambient", "8")[0] == 0


def test_unknown_algebra_exit_2(capsys):
    code, _, err = run(capsys, "info", "--algebra", "nonesuch", "--n", "2")
    assert code == 2
    assert "unknown algebra" in err
    # a usage error, or a ValueError from the library, exits 2 with its
    # own message on one line
    for argv, message in (
        (("hilbert", "--max-degree", "-1"), "--max-degree must be >= 0"),
        (("hilbert", "--algebra", "antisym", "--n", "2", "--N", "3"),
         "antisymmetrizer needs 2 <= N <= n, got N=3, n=2"),
        (("admissible", "--n", "2", "--N", "3"), "need 2 <= N <= n, got N=3, n=2"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n"), argv


def test_malformed_matrix_json(capsys):
    for text in (
        "{not json",
        '{"n": 1, "entries": [["1.5e1"]]}',
        '{"n": 1, "entries": [["1/0"]]}',
        '{"n": 1, "entries": [[1]]}',
    ):
        code, _, err = run(
            capsys, "mmt", "--n", "1", "--matrix", text, "--max-degree", "2"
        )
        assert code == 2, text
        assert "malformed" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "entries": ["12", "34"]}',
        '{"n": 1, "entries": [{"7": 0}]}',
        '{"n": 1.0, "entries": [["1"]]}',
        '{"n": true, "entries": [["1"]]}',
        '{"n": 1, "entries": {"1": "1"}}',
        '[{"n": 1, "entries": [["1"]]}]',
    ],
    ids=["string-rows", "object-row", "float-n", "bool-n", "object-entries",
         "top-level-array"],
)
def test_malformed_matrix_exit_2(capsys, text):
    # each used to run on a silently misread matrix or crash with exit 1
    code, out, err = run(capsys, "mmt", "--n", "1", "--matrix", text, "--max-degree", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed matrix JSON: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("mmt", "--n", "3", "--max-degree", "2"),
        ("mmt", "--n", "2", "--max-degree", "1"),
        ("nmt", "--n", "4", "--N", "3", "--max-degree", "3"),
    ],
    ids=["mmt-3-2", "mmt-2-1", "nmt-4-3-3"],
)
def test_master_below_the_matrix_size(capsys, argv):
    # minors of more than max_degree rows lie beyond the truncation
    code, out, _ = run(capsys, *argv, "--random-seed", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "holds"


def _qspace_file(tmp_path, coeff):
    obj = {
        "label": "qspace",
        "n": 2,
        "N": 2,
        "parameters": ["q12"],
        "relations": [{"grade": 2, "terms": [
            {"coeff": "1", "word": [1, 0]},
            {"coeff": coeff, "word": [0, 1]},
        ]}],
    }
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(obj))
    return f"file:{path}"


def test_deeply_nested_input_exit_2(capsys, tmp_path):
    # each of these used to end in an uncaught RecursionError with exit 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000)
    code, _, err = run(capsys, "info", "--algebra", f"file:{deep}")
    assert code == 2 and "malformed algebra JSON" in err
    code, _, err = run(capsys, "mmt", "--n", "2", "--matrix", f"file:{deep}")
    assert code == 2 and "malformed matrix JSON" in err
    algebra = _qspace_file(tmp_path, "(" * 3000 + "q12" + ")" * 3000)
    code, _, err = run(capsys, "info", "--algebra", algebra, "--max-degree", "2")
    assert code == 2 and "bad algebra JSON" in err


def test_oversized_parameter_expression_exit_2(capsys, tmp_path, monkeypatch):
    # a nested power and a long product, each of degree 10000 in q12; the
    # parser refuses both before forming any value over degree 100; it
    # computes in sympy's fraction field
    degrees = []
    for name in ("__mul__", "__pow__"):
        def spy(self, other, op=getattr(FracElement, name)):
            result = op(self, other)
            degrees.append(max(result.numer.degree(), result.denom.degree()))
            return result
        monkeypatch.setattr(FracElement, name, spy)
    for coeff in ("((q12 + 1)**100)**100", "*".join(["(q12 + 1)**100"] * 100)):
        algebra = _qspace_file(tmp_path, coeff)
        code, _, err = run(capsys, "info", "--algebra", algebra, "--max-degree", "2")
        assert code == 2 and "exceeds total degree 100" in err
    assert degrees and max(degrees) <= 100


def _mono_xyx(n=2, N=3, grade=3, word=(0, 1, 0), **extra):
    rel = {"grade": grade, "terms": [{"coeff": "1", "word": list(word)}]}
    return {"label": "mono_xyx", "n": n, "N": N, "relations": [rel], **extra}


@pytest.mark.parametrize(
    "obj",
    [
        _mono_xyx(n=2.0),
        _mono_xyx(N=3.0),
        _mono_xyx(grade=3.0),
        [_mono_xyx()],
        _mono_xyx(word=[0.0, 1, 0]),
        _mono_xyx(word=[False, True, False]),
        _mono_xyx(label=5),
        _mono_xyx(parameters="q12"),
        _mono_xyx(grade=2, word=(0, 1)),
        _mono_xyx(word=(0, 1)),
        _mono_xyx(word=(0, 2, 0)),
        _mono_xyx(word=(0, -1, 0)),
        _mono_xyx(parameters=["x y", "z"]),
        _mono_xyx(parameters=["x,y"]),
    ],
    ids=["float-n", "float-N", "float-grade", "top-level-array", "float-letter",
         "bool-letters", "numeric-label", "string-parameters", "grade-not-N",
         "short-word", "letter-too-large", "negative-letter", "space-in-parameter",
         "comma-in-parameter"],
)
def test_malformed_algebra_file_exit_2(capsys, tmp_path, obj):
    # each used to crash with exit 1 or run on a silently misread value
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "info", "--algebra", f"file:{path}", "--max-degree", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad algebra JSON: ")


def test_zero_coefficient_term_is_dropped(capsys, tmp_path):
    plain = _mono_xyx()
    padded = _mono_xyx()
    padded["relations"][0]["terms"].append({"coeff": "0", "word": [1, 1, 1]})
    outs = []
    for name, obj in (("plain", plain), ("padded", padded)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "info", "--algebra", f"file:{path}", "--format", "json")
        assert (code, err) == (0, "")
        outs.append(json.loads(out)["report"])
    assert outs[0] == outs[1]


def test_non_string_coefficient_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "info", "--algebra", _qspace_file(tmp_path, 1))
    assert code == 2 and "bad algebra JSON" in err


OPTIONS = ("--version", "--algebra", "--n", "--N", "--q", "--max-degree", "--matrix",
           "--random-seed", "--max-ambient", "--format")


def test_usage_error_from_argparse(capsys, monkeypatch):
    code, _, err = run(capsys, "no-such-command")
    assert code == 2
    assert all(repr(name) in err for name in HANDLERS)
    assert run(capsys)[0] == 2
    code, _, err = run(capsys, "hilbert", "--n", "x")
    assert code == 2
    assert "--n" in err
    monkeypatch.setenv("COLUMNS", "1000")  # argparse wraps no help line
    code, out, _ = run(capsys, "hilbert", "-h")
    assert code == 0
    assert all(name in out for name in HANDLERS)
    assert all(option in out for option in OPTIONS)
    # one line per command says what it checks, and every option has help
    for name in HANDLERS:
        assert re.search(rf"^  {re.escape(name)} +\S", out, re.MULTILINE), name
    for action in build_parser()._actions:
        assert action.help and action.help in out, action.dest


def test_matrix_file_reads_as_inline(capsys, tmp_path):
    text = '{"n": 2, "entries": [["1/2", "-3"], ["0", "5/7"]]}'
    path = tmp_path / "matrix.json"
    path.write_text(text)
    argv = ("nmt", "--n", "2", "--N", "2", "--max-degree", "4")
    inline = run(capsys, *argv, "--matrix", text)
    from_file = run(capsys, *argv, "--matrix", f"file:{path}")
    assert inline == from_file
    assert inline[0] == 0 and inline[1]


@pytest.mark.parametrize(
    "what, argv",
    [("algebra", ("info", "--algebra")), ("matrix", ("mmt", "--n", "2", "--matrix"))],
    ids=["algebra", "matrix"],
)
def test_missing_input_file_exit_2(capsys, tmp_path, what, argv):
    code, out, err = run(capsys, *argv, f"file:{tmp_path / 'missing.json'}")
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith(f"error: cannot read {what} file: ")


def test_admissible_command(capsys):
    code, out, _ = run(
        capsys, "admissible", "--n", "3", "--N", "3", "--max-degree", "6"
    )
    assert code == 0
    assert "identity holds" in out


def test_dual_dims_closed_form_comparison(capsys):
    code, out, _ = run(
        capsys, "dual-dims", "--algebra", "antisym", "--n", "4", "--N", "3",
        "--max-degree", "6", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["dual_dims"] == [1, 4, 16, 4, 1, 0, 0]
    assert doc["report"]["matches_closed_form"] is True


def test_info_and_hilbert(capsys):
    code, out, _ = run(capsys, "hilbert", "--algebra", "qspace", "--n", "2",
                       "--max-degree", "5")
    assert code == 0
    assert "[1, 2, 3, 4, 5, 6]" in out
    code, out, _ = run(capsys, "info", "--algebra", "free", "--n", "2",
                       "--max-degree", "3")
    assert code == 0
    assert "free(2)" in out


def test_qspace_numeric_parameter(capsys):
    code, _, _ = run(
        capsys, "hilbert", "--algebra", "qspace", "--n", "2", "--q", "2",
        "--max-degree", "4",
    )
    assert code == 0
    for n, q in (("2", "0"), ("1", "0"), ("2", "1/0"), ("2", "1.5"), ("2", "1e3")):
        code, _, err = run(
            capsys, "hilbert", "--algebra", "qspace", "--n", n, "--q", q,
            "--max-degree", "4",
        )
        assert code == 2, (n, q)
        if q == "0":
            assert "parameter q must be nonzero" in err


def test_algebra_file_cannot_run_code(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("os.getpid", lambda: calls.append(1) or 1)
    algebra = _qspace_file(tmp_path, "__import__('os').getpid() and q12")
    code, _, err = run(capsys, "info", "--algebra", algebra, "--max-degree", "2")
    assert code == 2
    assert "bad algebra JSON" in err
    assert calls == []


GENERIC_QSPACE = (
    ("koszul-check", "3", "7"),
    ("hilbert", "3", "6"),
    ("kmt-check", "2", "5"),
)


def test_laurent_values_match_the_sympy_field_end_to_end(capsys, monkeypatch):
    # the slow path: every parameter value held and computed in sympy's
    # field, as all of them were before the Laurent form
    fast = [
        run(capsys, cmd, "--algebra", "qspace", "--n", n, "--max-degree", D, "--format", "json")
        for cmd, n, D in GENERIC_QSPACE
    ]
    normalised = []

    def sympy_only(self, frac):
        normalised.append(frac)
        return ParameterValue(self, None, frac)

    def sympy_parameter(self, name):
        return ParameterValue(self, None, self._sympy_field().gens[self.parameters.index(name)])

    monkeypatch.setattr(ParameterField, "_from_sympy", sympy_only)
    monkeypatch.setattr(ParameterField, "parameter", sympy_parameter)
    slow = [
        run(capsys, cmd, "--algebra", "qspace", "--n", n, "--max-degree", D, "--format", "json")
        for cmd, n, D in GENERIC_QSPACE
    ]
    assert normalised  # the slow path ran
    assert [code for code, _, _ in fast] == [0, 0, 0]
    assert slow == fast


SRC = Path(__file__).resolve().parent.parent / "src"

_SYMPY_PROBE = """
import contextlib, io, json, sys
from nkoszul.cli import main
seen = ["sympy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv) != 0:
            raise SystemExit(f"{argv} failed")
    seen.append("sympy" in sys.modules)
print(json.dumps(seen))
"""


def test_sympy_is_imported_only_for_a_non_laurent_value(tmp_path):
    # a rational command and the generic quantum spaces compute without
    # sympy; a coefficient with a denominator of several terms needs it
    runs = [
        ["koszul-check", "--algebra", "antisym", "--n", "3", "--N", "3", "--max-degree", "5"],
        ["koszul-check", "--algebra", "qspace", "--n", "3", "--max-degree", "5"],
        ["info", "--algebra", _qspace_file(tmp_path, "1/(q12 + 1)"), "--max-degree", "3"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _SYMPY_PROBE, json.dumps(runs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=True,
    )
    assert json.loads(proc.stdout) == [False, False, False, True]


def test_module_entry_point_runs_in_a_fresh_process():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    version = subprocess.run(
        [sys.executable, "-m", "nkoszul", "--version"], capture_output=True, text=True, env=env
    )
    assert version.returncode == 0
    assert version.stdout == f"nkoszul {__version__}\n"
    proc = subprocess.run(
        [sys.executable, "-m", "nkoszul", "hilbert", "--algebra", "poly", "--n", "2",
         "--max-degree", "1", "--format", "json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["coefficients"] == [1, 2]
