"""Command-line front end.

Exit codes follow a CI-friendly contract: 0 means the requested identity or
certificate holds, 1 means the computation succeeded but the verdict is
negative (the report pinpoints the first failure), 2 means a usage or
feasibility error, and 3 means an internal error, such as a failed
invariant check, reported as one ``internal error:`` line on stderr.
With ``--format json`` the report is a single deterministic JSON document:
identical configuration (including seeds) produces byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__, jsonio, koszul, manin, mmt
from .algebras import (
    antisymmetrizer,
    dual_dims_closed_form,
    free_algebra,
    polynomial,
    quantum_space,
)
from .scalar import parse_rational

DEFAULT_MAX_AMBIENT = 10**7


def _read_json(text, what):
    """The JSON value of ``text``, or of the file it names as ``file:PATH``."""
    if text.startswith("file:"):
        try:
            with open(text[len("file:") :]) as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read {what} file: {exc}")
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed {what} JSON: {exc}")


def make_algebra(args):
    """The presentation of ``--algebra`` (poly(n) for mmt, antisym(n, N)
    for nmt), refused by the guardrail before it is built."""
    spec = {"mmt": "poly", "nmt": "antisym"}.get(args.command, args.algebra)
    if spec.startswith("file:"):
        obj = _read_json(spec, "algebra")
        try:
            A = jsonio.algebra_from_obj(obj)
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            raise ValueError(f"bad algebra JSON: {exc}")
        _preflight(args, A.n, A.N)
        return A
    if args.n is None:
        raise ValueError("--n is required for built-in algebras")
    if spec == "antisym" and args.N is None:
        raise ValueError("--N is required for antisym")
    N = {"free": 2, "poly": 2, "qspace": 2, "antisym": args.N}.get(spec)
    if N is None:
        raise ValueError(f"unknown algebra {spec!r}")
    # the relations have n(n-1) or n!/(n-N)! terms, at most n^N: refused
    # before they are built; free has none, nor has antisym with N > n,
    # which its builder refuses
    if spec != "free" and (spec != "antisym" or N <= args.n):
        _refuse_above_bound(args, "ambient dimension n^N", args.n, N)
    _preflight(args, args.n, N)
    if spec == "free":
        return free_algebra(args.n)
    if spec == "poly":
        return polynomial(args.n)
    if spec == "antisym":
        return antisymmetrizer(args.n, N)
    q = parse_rational(args.q) if args.q is not None else None
    return quantum_space(args.n, q=q)


def load_matrix(args):
    if args.matrix is not None:
        obj = _read_json(args.matrix, "matrix")
        try:
            return jsonio.matrix_from_obj(obj)
        except (KeyError, ValueError, TypeError, RecursionError) as exc:
            raise ValueError(f"malformed matrix JSON: {exc}")
    if args.random_seed is not None:
        return mmt.random_rational_matrix(args.n, args.random_seed)
    raise ValueError("provide --matrix or --random-seed")


def _power_exceeds(n, k, bound):
    """n^k > bound, without building n^k when a huge k makes it huge.  A
    negative n or k is no dimension: the command refuses it on its own."""
    if n < 0 or k < 0:
        return False
    if n < 2:
        return n**k > bound
    power = 1
    for _ in range(k):
        power *= n
        if power > bound:
            return True
    return power > bound


def _refuse_above_bound(args, name, n, k):
    """Raise ValueError when n^k, the dimension ``name``, exceeds the
    ``--max-ambient`` guardrail, else ``KOSZUL_MAX_AMBIENT``."""
    bound = args.max_ambient
    if bound is None:
        env = os.environ.get("KOSZUL_MAX_AMBIENT") or str(DEFAULT_MAX_AMBIENT)
        try:
            bound = int(env)
        except ValueError:
            raise ValueError(f"bad KOSZUL_MAX_AMBIENT value {env!r}")
    if _power_exceeds(n, k, bound):
        raise ValueError(
            f"{name} = {n}^{k} exceeds the guardrail {bound}; "
            "raise --max-ambient or KOSZUL_MAX_AMBIENT"
        )


def _preflight(args, n, N):
    """Refuse the command when the largest tensor power it builds on n
    generators, with relations of degree N, exceeds the guardrail."""
    D = args.max_degree
    if args.command == "kmt-check":
        # build_end echelonizes end(A) on n^2 generators in degree N whatever
        # D is; a negative n is the builder's to refuse
        name = "envelope ambient dimension n^(2·max(D, N))"
        _refuse_above_bound(args, name, max(n, 0) ** 2, max(D, N))
        return
    if args.command != "dual-dims":
        # the flags of A_D hold n^D bytes, one per word; mmt and nmt also
        # walk every admissible word up to D
        _refuse_above_bound(args, "ambient dimension n^D", n, D)
    if args.command == "info" or (args.command == "dual-dims" and D >= N):
        # A!_N and the relation rank are read from the flags of A_N, n^N
        # bytes: info reads them at every D
        _refuse_above_bound(args, "ambient dimension n^N", n, N)


# ----------------------------------------------------------------------
# command handlers: return (report dict, verdict bool, text lines)


def cmd_info(args, A):
    D = args.max_degree
    dims = [A.dim_component(d) for d in range(D + 1)]
    dual_dims = [koszul.dual_component_dim(A, m) for m in range(D + 1)]
    report = {
        "label": A.label,
        "n": A.n,
        "N": A.N,
        "relation_count": len(A.relations),
        "relation_rank": A.ideal_rank(A.N),
        "parameters": list(A.parameters),
        "dims": dims,
        "dual_dims": dual_dims,
    }
    lines = [
        f"{A.label or 'algebra'}: n={A.n}, N={A.N}, "
        f"{len(A.relations)} relations spanning {report['relation_rank']}",
        f"dims A_d, d=0..{D}: {dims}",
        f"dims A!_m, m=0..{D}: {dual_dims}",
    ]
    return report, True, lines


def cmd_hilbert(args, A):
    coeffs = A.hilbert_series(args.max_degree).coeffs
    report = {"label": A.label, "coefficients": coeffs}
    return report, True, [f"H_A coefficients 0..{args.max_degree}: {coeffs}"]


def cmd_dual_dims(args, A):
    D = args.max_degree
    dims = [koszul.dual_component_dim(A, m) for m in range(D + 1)]
    report = {"label": A.label, "dual_dims": dims}
    verdict = True
    lines = [f"dims A!_m, m=0..{D}: {dims}"]
    if args.algebra == "antisym":
        closed = [dual_dims_closed_form(args.n, args.N, m) for m in range(D + 1)]
        verdict = closed == dims
        report["closed_form"] = closed
        report["matches_closed_form"] = verdict
        lines.append(f"closed form: {closed} ({'match' if verdict else 'MISMATCH'})")
    return report, verdict, lines


def cmd_admissible(args):
    if args.n is None or args.N is None:
        raise ValueError("--n and --N are required")
    res = koszul.admissible_identity_check(args.n, args.N, args.max_degree)
    report = {
        "counts": res.counts,
        "inverse_coefficients": res.inverse_coeffs,
        "degree_rule_ok": res.degree_rule_ok,
        "last_nonzero_index": res.ell_max,
        "passed": res.passed,
    }
    lines = [
        f"admissible counts 0..{args.max_degree}: {res.counts}",
        f"inverse series:               {res.inverse_coeffs}",
        f"identity {'holds' if res.passed else 'FAILS'} up to degree {args.max_degree}",
    ]
    return report, res.passed, lines


def cmd_koszul_check(args, A):
    D = args.max_degree
    res = koszul.koszul_certificate(A, D)
    statement = f"exactness verified up to total degree {D}" if res.passed else "exactness fails"
    report = {
        "label": A.label,
        "passed": res.passed,
        "bound": D,
        "statement": statement,
        "first_failure": list(res.first_failure) if res.first_failure else None,
        "degrees": [_degree_obj(rep) for rep in res.reports],
    }
    if res.passed:
        lines = [
            f"{A.label}: certificate PASSES up to degree {D} "
            "(degree-bounded evidence, not a proof of Koszulity)"
        ]
    else:
        m, ell = res.first_failure
        lines = [
            f"{A.label}: certificate FAILS first at total degree {m}, "
            f"homological degree {ell}"
        ]
    return report, res.passed, lines


def _degree_obj(rep):
    return {
        "total_degree": rep.m,
        "component_dims": {str(l): d for l, d in rep.component_dims.items()},
        "differential_ranks": {str(l): r for l, r in rep.ranks.items()},
        "homology_dims": {str(l): h for l, h in rep.homology.items()},
        "d1_surjective": True,  # rank d_1 = dim A_m, see koszul.homology_report
    }


def cmd_dvp_check(args, A):
    D = args.max_degree
    res = koszul.dvp_check(A, D)
    report = {
        "label": A.label,
        "hilbert": res.hilbert.coeffs,
        "alternating_dual_series": res.rhs.coeffs,
        "product": res.product.coeffs,
        "passed": res.passed,
    }
    lines = [
        f"H_A: {res.hilbert.coeffs}",
        f"RHS: {res.rhs.coeffs}",
        f"duality identity {'holds' if res.passed else 'FAILS'} up to degree {D}",
    ]
    return report, res.passed, lines


def cmd_kmt_check(args, A):
    D = args.max_degree
    B = manin.build_end(A)
    res = manin.kmt_check(B, D)
    report = {
        "label": A.label,
        "max_degree": D,
        "passed": res.passed,
        "first_failure_degree": res.first_failure,
    }
    if manin.is_polynomial_presentation(A):
        report["determinant_convention"] = manin.ferm_convention(B, res.dual_series)
    lines = [
        f"{A.label}: character identity "
        f"{'holds' if res.passed else 'FAILS'} up to degree {D}"
    ]
    if not res.passed:
        lines.append(f"first failing degree: {res.first_failure}")
    return report, res.passed, lines


def cmd_master(args, A):
    """``mmt`` on poly(n) and ``nmt`` on antisym(n, N); the report of
    ``mmt``, the N = 2 case, has no "N" key."""
    Z = load_matrix(args)
    if len(Z) != args.n:
        raise ValueError("matrix size does not match --n")
    report = {
        "n": args.n,
        "max_degree": args.max_degree,
        "matrix": jsonio.matrix_to_obj(Z),
    }
    name = "master identity"
    if args.command == "nmt":
        report["N"] = args.N
        name = f"N={args.N} {name}"
    res = mmt.nmt_check(A, Z, args.max_degree)
    report["passed"] = res.passed
    report["first_mismatch"] = _mismatch_obj(res)
    lines = [_master_line(name, res, args.max_degree)]
    return report, res.passed, lines


def _mismatch_obj(res):
    if res.first_mismatch is None:
        return None
    exps, lhs, rhs = res.first_mismatch
    return {
        "exponents": list(exps),
        "lhs": str(lhs),
        "rhs": str(rhs),
    }


def _master_line(name, res, max_degree):
    if res.passed:
        return f"{name} holds exactly up to total degree {max_degree}"
    exps, lhs, rhs = res.first_mismatch
    return f"{name} FAILS at monomial {exps}: lhs={lhs}, rhs={rhs}"


def cmd_eq1(args):
    if args.n is None:
        raise ValueError("--n is required")
    if args.n < 1:
        # identity_eq1's own refusal, made once so that D = 0 makes it too
        raise ValueError("need n >= 1 and m >= 1")
    values = {}
    ok = True
    for m in range(1, args.max_degree + 1):
        v = koszul.identity_eq1(args.n, m)
        values[str(m)] = v
        if v != 0:
            ok = False
    report = {"n": args.n, "values": values, "all_zero": ok}
    lines = [
        f"alternating binomial sums, m=1..{args.max_degree}: "
        f"{'all zero' if ok else f'NONZERO somewhere: {values}'}"
    ]
    return report, ok, lines


HANDLERS = {
    "info": cmd_info,
    "hilbert": cmd_hilbert,
    "dual-dims": cmd_dual_dims,
    "admissible": cmd_admissible,
    "koszul-check": cmd_koszul_check,
    "dvp-check": cmd_dvp_check,
    "kmt-check": cmd_kmt_check,
    "mmt": cmd_master,
    "nmt": cmd_master,
    "eq1": cmd_eq1,
}


COMMANDS_HELP = """\
commands (D is --max-degree):
  info          dims of A_d and A!_d for d <= D, and the rank of the relations
  hilbert       coefficients of the Hilbert series H_A up to degree D
  dual-dims     dims of A!_m for m <= D; for antisym, against the closed form
  admissible    admissible-word counts invert the alternating binomial series
  koszul-check  the Koszul complex is exact up to total degree D (not a proof)
  dvp-check     H_A(t) * sum_l (-1)^l dim A!_nu(l) t^nu(l) = 1 up to degree D
  kmt-check     character series of A times that of its dual = 1 in end(A)
  mmt           MacMahon Master Theorem for an n x n matrix, up to degree D
  nmt           N-MacMahon Master Theorem on antisym(n, N), up to degree D
  eq1           sum_k (-1)^k C(n+k-1, k) C(n, m-k) = 0 for m = 1..D
"""


@functools.cache
def build_parser():
    """The parser of every command, built once per process and shared, so
    callers must not change it. The ten commands share one parser and one
    option set, since each takes the same nine options: a subparser per
    command would repeat them, at about 0.2 ms a command on a cold call."""
    parser = argparse.ArgumentParser(
        prog="nkoszul",
        description="exact checks for N-homogeneous algebras and their duals",
        epilog=COMMANDS_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"nkoszul {__version__}")
    parser.add_argument("command", choices=tuple(HANDLERS), help="one of the commands below")
    parser.add_argument("--algebra", default="poly",
                        help="poly | antisym | qspace | free | file:PATH")
    parser.add_argument("--n", type=int, default=None,
                        help="number of generators of the algebra, or size of the matrix")
    parser.add_argument("--N", type=int, default=None,
                        help="degree of the relations (antisym, admissible, nmt)")
    parser.add_argument("--q", default=None,
                        help="numeric quantum parameter (default: generic)")
    parser.add_argument("--max-degree", type=int, default=6,
                        help="degree bound D of every check (default 6)")
    parser.add_argument("--matrix", default=None, help="inline matrix JSON or file:PATH")
    parser.add_argument("--random-seed", type=int, default=None,
                        help="seed of a random rational n x n matrix, instead of --matrix")
    parser.add_argument("--max-ambient", type=int, default=None,
                        help="guardrail on the dimension of the largest tensor power "
                        f"a command builds (default {DEFAULT_MAX_AMBIENT})")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="text lines, or one deterministic JSON document (default text)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if args.max_degree < 0:
            raise ValueError("--max-degree must be >= 0")
        inputs = () if args.command in ("admissible", "eq1") else (make_algebra(args),)
        report, verdict, lines = HANDLERS[args.command](args, *inputs)
    except ValueError as exc:
        # every usage error is a ValueError, as is a precondition
        # violation from the library
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug, not a verdict: exit 1 would read as a failed identity
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    document = {
        "tool": "nkoszul",
        "version": __version__,
        "config": {k.replace("_", "-"): v for k, v in vars(args).items()},
        "max_degree": args.max_degree,
        "report": report,
        "verdict": "holds" if verdict else "violated",
    }
    if args.format == "json":
        print(json.dumps(document, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
