"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single verdict line (visible with ``pytest -s``) and
asserts both the identity and its runtime budget.  Algebra objects are
module-scoped so later criteria reuse the caches built by earlier ones
(the duality checks at degree 8 are budgeted "given caches").
"""

import random
import time
from fractions import Fraction
from itertools import product

import pytest

from nkoszul.algebras import (
    admissible_counts,
    antisymmetrizer,
    dual_dims_closed_form,
    polynomial,
    quantum_space,
)
from conftest import columns, in_span, rows_by_pair, rref
from nkoszul.koszul import (
    admissible_identity_check,
    dual_component_dim,
    dual_koszul_subspace,
    dvp_check,
    identity_eq1,
    koszul_certificate,
    nu,
)
from nkoszul import linalg
from nkoszul.manin import (
    build_end,
    character_series,
    chi_A,
    chi_J,
    dual_character_series,
    ferm_convention,
    ferm_series,
    kmt_check,
)
from nkoszul.mmt import check_specializable, g_table, nmt_check, random_rational_matrix


@pytest.fixture(scope="module")
def algebras():
    return {
        "poly1": polynomial(1),
        "poly2": polynomial(2),
        "poly3": polynomial(3),
        "antisym33": antisymmetrizer(3, 3),
        "antisym43": antisymmetrizer(4, 3),
        "qspace2": quantum_space(2),
    }


@pytest.fixture(scope="module")
def envelopes(algebras):
    return {
        "poly2": build_end(algebras["poly2"]),
        "antisym33": build_end(algebras["antisym33"]),
        "qspace2": build_end(algebras["qspace2"]),
    }


def _verdict(number, name, failures, elapsed, budget):
    status = "PASS" if not failures else f"FAIL ({failures[:3]})"
    print(f"ACCEPTANCE {number:>2} {name}: {status} [{elapsed:.2f}s / budget {budget}s]")
    assert not failures, failures
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds budget {budget}s"


def test_criterion_01_eq1_identity():
    t0 = time.perf_counter()
    failures = [
        (n, m, identity_eq1(n, m))
        for n in range(1, 7)
        for m in range(1, 11)
        if identity_eq1(n, m) != 0
    ]
    _verdict(1, "alternating binomial identity", failures, time.perf_counter() - t0, 1)


def test_criterion_02_antisymmetrizer_dual_dims():
    t0 = time.perf_counter()
    failures = []
    for n in range(2, 7):
        for N in range(2, n + 1):
            A = antisymmetrizer(n, N)
            for m in range(n + 3):
                got = dual_component_dim(A, m)
                want = dual_dims_closed_form(n, N, m)
                if got != want:
                    failures.append((n, N, m, got, want))
    _verdict(2, "dual dimensions closed form", failures, time.perf_counter() - t0, 60)


def test_criterion_03_admissible_count_identity():
    t0 = time.perf_counter()
    failures = []
    for n, N in ((3, 2), (3, 3), (4, 3), (4, 4), (4, 2)):
        res = admissible_identity_check(n, N, 8)
        if not res.passed:
            failures.append(("series", n, N))
    for n in range(2, 5):
        for N in range(2, n + 1):
            A = antisymmetrizer(n, N)
            for k, count in enumerate(admissible_counts(n, N, 6)):
                if count != A.dim_component(k):
                    failures.append(("dim", n, N, k))
    _verdict(3, "admissible-count identity", failures, time.perf_counter() - t0, 120)


def test_criterion_04_koszulity_certificates(algebras):
    from nkoszul.koszul import differential

    t0 = time.perf_counter()
    failures = []
    for key in ("poly1", "poly2", "poly3", "antisym33", "antisym43"):
        res = koszul_certificate(algebras[key], 6)
        # d∘d = 0 is verified on every constructed pair inside the
        # certificate (a violation raises); spot-check it explicitly too
        if not res.passed:
            failures.append((key, res.first_failure))
        A = algebras[key]
        for m in (5, 6):
            ell = 2
            while nu(A.N, ell) <= m:
                hi = differential(A, m, ell)
                # the row of d_{ℓ-1} at a column of d_ℓ, the word f·g of a
                # normal word f and the pivot g of a J row
                lo = rows_by_pair(A, m, ell - 1, differential(A, m, ell - 1))
                for row in hi.rows:
                    acc = {}
                    for mid, c in row.items():
                        for col, v in lo[mid].items():
                            acc[col] = acc.get(col, 0) + c * v
                    if any(acc.values()):
                        failures.append((key, m, ell, "d∘d != 0"))
                        break
                ell += 1
    _verdict(4, "Koszulity certificates to degree 6", failures, time.perf_counter() - t0, 300)


def test_criterion_05_duality_identity(algebras):
    t0 = time.perf_counter()
    failures = []
    for key in ("poly1", "poly2", "poly3", "antisym33", "antisym43", "qspace2"):
        if not dvp_check(algebras[key], 8).passed:
            failures.append(key)
    _verdict(5, "Hilbert-series duality to degree 8", failures, time.perf_counter() - t0, 60)


def test_criterion_06_envelope_relations(algebras, envelopes):
    t0 = time.perf_counter()
    failures = []
    B = envelopes["poly2"]
    a, b, c, d = 0, 1, 2, 3  # flat z indices for n = 2
    stated = [
        columns(4, {(a, c): Fraction(1), (c, a): Fraction(-1)}),
        columns(4, {(b, d): Fraction(1), (d, b): Fraction(-1)}),
        columns(4, {(a, d): Fraction(1), (d, a): Fraction(-1),
                    (c, b): Fraction(-1), (b, c): Fraction(1)}),
    ]
    ech = linalg.Echelon(16)
    for t in stated:
        ech.add(t)
    if ech.to_subspace() != B.env.ideal_component(2):
        failures.append("relation span mismatch")
    if B.env.dim_component(2) != 13:
        failures.append(("dim", B.env.dim_component(2)))
    _verdict(6, "envelope relation span (n=2)", failures, time.perf_counter() - t0, 1)


def test_criterion_07_character_identity(algebras, envelopes, counit):
    t0 = time.perf_counter()
    failures = []
    for key in ("poly2", "antisym33", "qspace2"):
        B = envelopes[key]
        A = algebras[key]
        res = kmt_check(B, 4)
        if not res.passed:
            failures.append((key, res.first_failure))
        for k in range(5):
            if counit(B, k, chi_A(B, k)) != A.dim_component(k):
                failures.append((key, "counit A", k))
        ell = 0
        while nu(A.N, ell) <= 4:
            expected = dual_component_dim(A, nu(A.N, ell))
            if counit(B, nu(A.N, ell), chi_J(B, ell)) != expected:
                failures.append((key, "counit J", ell))
            ell += 1
    _verdict(7, "character identity to degree 4", failures, time.perf_counter() - t0, 600)


def test_criterion_08_bos_ferm_crosscheck(envelopes, bos_series, transposed_ferm_series):
    t0 = time.perf_counter()
    failures = []
    B = envelopes["poly2"]
    dual = dual_character_series(B, 4)
    convention = ferm_convention(B, dual)
    bos = bos_series(B, 4)
    ferm = ferm_series(B, 4)
    if bos != character_series(B, 4):
        failures.append("bosonic series mismatch")
    if ferm != dual:
        failures.append("fermionic series mismatch")
    # exactly one of the two determinant orderings validates
    if transposed_ferm_series(B, 4) == dual:
        failures.append("transpose ordering also matches; not exclusive")
    print(f"  (determinant convention recorded: {convention})")
    _verdict(8, "bosonic/fermionic cross-check", failures, time.perf_counter() - t0, 60)


def test_criterion_09_original_master_identity(algebras, det_inverse):
    t0 = time.perf_counter()
    failures = []
    A3 = algebras["poly3"]
    n = 3
    zero = [[Fraction(0)] * n for _ in range(n)]
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    ones = [[Fraction(1)] * n for _ in range(n)]
    cases = [("zero", zero), ("identity", eye), ("ones", ones)]
    cases += [(f"seed{s}", random_rational_matrix(n, s)) for s in range(1, 6)]
    for name, Z in cases:
        res = nmt_check(polynomial(n), Z, 6)
        if not res.passed:
            failures.append((name, res.first_mismatch))
        if res.rhs.terms != det_inverse(Z, 6).terms:
            failures.append((name, "rhs is not det(I - ZT)^-1"))
    tab = g_table(A3, ones, 6)
    for k in range(7):
        total = sum((v for w, v in tab.items() if len(w) == k), Fraction(0))
        if total != n**k:
            failures.append(("ones row sum", k, total))
    _verdict(9, "original master identity", failures, time.perf_counter() - t0, 120)


def test_criterion_10_n_master_identity(algebras, det_inverse):
    t0 = time.perf_counter()
    failures = []
    A = algebras["antisym33"]
    n = 3
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    cases = [("identity", eye)]
    cases += [(f"seed{s}", random_rational_matrix(n, s)) for s in range(1, 6)]
    for name, Z in cases:
        res = nmt_check(A, Z, 6)
        if not res.passed:
            failures.append((name, res.first_mismatch))
    # at N = 2 the routine is the original identity, det(I - ZT)^-1
    Z = random_rational_matrix(n, 1)
    res2 = nmt_check(algebras["poly3"], Z, 6)
    if not (res2.passed and res2.rhs.terms == det_inverse(Z, 6).terms):
        failures.append("N=2 coincidence")
    _verdict(10, "N-master identity", failures, time.perf_counter() - t0, 300)


def test_criterion_11_property_suites(algebras, subspace_sum):
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(99)

    # rank-nullity on random matrices
    for _ in range(10):
        rows = [
            {j: Fraction(rng.randint(-4, 4)) for j in range(10)} for _ in range(6)
        ]
        m = linalg.Matrix(10, rows)
        if linalg.rank(m) + linalg.kernel(rref(m)).dim != 10:
            failures.append("rank-nullity")

    # Grassmann formula on random subspaces
    for _ in range(10):
        def rand_space():
            ech = linalg.Echelon(8)
            for _ in range(rng.randint(1, 4)):
                ech.add({j: Fraction(rng.randint(-3, 3)) for j in range(8)})
            return ech.to_subspace()

        u, w = rand_space(), rand_space()
        if (
            subspace_sum(u, w).dim
            + linalg.intersect(8, u.row_of.values(), w.row_of.values()).dim
            != u.dim + w.dim
        ):
            failures.append("grassmann")

    # reduction is independent of the representative
    A = algebras["antisym33"]
    ideal = A.ideal_component(4)
    words = list(product(range(3), repeat=4))
    for _ in range(10):
        t = columns(3, {rng.choice(words): Fraction(rng.randint(-3, 3)) for _ in range(4)})
        shifted = dict(t)  # t plus a random element of the ideal
        for row in ideal.row_of.values():
            c = Fraction(rng.randint(-2, 2))
            for col, val in row.items():
                shifted[col] = shifted.get(col, Fraction(0)) + c * val
        if A.reduce(4, shifted) != A.reduce(4, t):
            failures.append("representative")

    # multiplication associativity in the quotient
    for _ in range(10):
        ws = [tuple(rng.randrange(3) for _ in range(2)) for _ in range(3)]
        a, b, c = (A.reduce(2, columns(3, {w: 1})) for w in ws)
        left = A.multiply(6, 2, A.multiply(4, 2, a, b), c)
        if left != A.multiply(6, 4, a, A.multiply(4, 2, b, c)):
            failures.append("associativity")

    # J-window inclusion: every prefix slice of J_m lies in J_{m-s}
    for key in ("poly2", "antisym33", "antisym43"):
        alg = algebras[key]
        for ell in (1, 2, 3):
            m = nu(alg.N, ell)
            s = m - nu(alg.N, ell - 1)
            if m > 6 or dual_koszul_subspace(alg, m).dim == 0:
                continue
            lower = dual_koszul_subspace(alg, m - s)
            tail = alg.n ** (m - s)
            for row in dual_koszul_subspace(alg, m).row_of.values():
                groups = {}
                for idx, coeff in row.items():
                    p, t = divmod(idx, tail)
                    groups.setdefault(p, {})[t] = coeff
                for vec in groups.values():
                    if not in_span(lower, vec):
                        failures.append(("inclusion", key, ell))

    # specializability guard rejects the quantum space at a generic matrix
    Q = quantum_space(2, q=2)
    generic = [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(5)]]
    if check_specializable(Q, generic):
        failures.append("specializability guard")

    _verdict(11, "property suites", failures, time.perf_counter() - t0, 120)
