import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nkoszul import manin
from nkoszul.algebras import antisymmetrizer, free_algebra, polynomial, quantum_space
from conftest import columns, presentations, series_product_by_concat
from nkoszul.freealg import index_word, word_index, z_index
from nkoszul.homog import AlgebraPresentation
from nkoszul.koszul import dual_koszul_subspace, dvp_check, dvp_rhs, koszul_certificate, nu
from nkoszul.linalg import Echelon, axpy
from nkoszul.manin import (
    build_end,
    character_series,
    chi_A,
    chi_J,
    dual_character_series,
    ferm_convention,
    ferm_series,
    is_polynomial_presentation,
    kmt_check,
)


def test_build_end_poly2():
    B = build_end(polynomial(2))
    assert B.env.n == 4
    assert len(B.env.relations) == 3  # dim R^perp * dim R = 3 * 1
    assert B.env.ideal_rank(2) == 3
    assert B.env.dim_component(2) == 13


def test_build_end_antisym33():
    B = build_end(antisymmetrizer(3, 3))
    assert len(B.env.relations) == 26
    assert B.env.ideal_rank(3) == 26


def test_relation_space_dimension_invariant():
    built_ins = (
        polynomial(2),
        polynomial(3),
        antisymmetrizer(3, 3),
        quantum_space(2),
        free_algebra(2),
    )
    for A in built_ins:
        B = build_end(A)
        r = A.ideal_component(A.N).dim
        rperp = A.n**A.N - r
        assert B.env.ideal_rank(A.N) == r * rperp, A.label


def test_missing_relations_warning_span():
    # the three stated relations in the 2x2 submatrix notation span exactly
    # the computed relation space of end(A); commutativity relations beyond
    # them are genuinely missing (dim 13 > dim of commutative square's 10)
    B = build_end(polynomial(2))
    n = 2
    a, b, c, d = (z_index(i, j, n) for i in (0, 1) for j in (0, 1))
    stated = [
        columns(4, {(a, c): Fraction(1), (c, a): Fraction(-1)}),
        columns(4, {(b, d): Fraction(1), (d, b): Fraction(-1)}),
        columns(
            4,
            {
                (a, d): Fraction(1),
                (d, a): Fraction(-1),
                (c, b): Fraction(-1),
                (b, c): Fraction(1),
            },
        ),
    ]
    ech = Echelon(16)
    for t in stated:
        ech.add(t)
    assert ech.to_subspace() == B.env.ideal_component(2)


def _cls(P, word):
    """The normal form in P of a word given as a tuple of letters, a copy
    of the cached dict."""
    return dict(P.class_of_word((len(word), word_index(word, P.n))))


def _z(iw, jw, n):
    """The z-word z_{i_1}^{j_1}...z_{i_k}^{j_k} as a tuple of letters."""
    return tuple(z_index(i, j, n) for i, j in zip(iw, jw))


def _coaction_on_A(B, word):
    """δ on the class of a word: the (z-word class, x-word class) summands of
    δ(x_{i_1}...x_{i_k}) = Σ z_{i_1}^{j_1}...z_{i_k}^{j_k} ⊗ x_{j_1}...x_{j_k},
    both factors reduced."""
    n = B.base.n
    return [
        (_cls(B.env, _z(word, jw, n)), _cls(B.base, jw))
        for jw in product(range(n), repeat=len(word))
    ]


def _coaction_on_element(B, k, t):
    """δ(t) of the grade-k column dict ``t`` as {A normal word: end(A)
    coordinates}, zero entries dropped; the coaction is well defined on A
    exactly when this is empty for every t in the ideal."""
    n = B.base.n
    acc = {}
    for col, cw in t.items():
        w = index_word(col, k, n)
        for jw in product(range(n), repeat=k):
            zcoords = _cls(B.env, _z(w, jw, n))
            for aw, ca in _cls(B.base, jw).items():
                axpy(acc.setdefault(aw, {}), cw * ca, zcoords)
    return {aw: coords for aw, coords in acc.items() if coords}


def _assert_coaction_preserves_J(B, ell):
    """δ(J_m) ⊆ end(A) ⊗ J_m for m = ν(ℓ), the comodule structure of the
    complex.  Write δ(u_b) = Σ_w T_w ⊗ x_w for each RREF basis row u_b of
    J_m; membership means T_w = Σ_a u_a[w] T_{p_a} for every word w, where
    p_a is the pivot word of u_a."""
    A, E = B.base, B.env
    n, m = A.n, nu(A.N, ell)
    space = dual_koszul_subspace(A, m)
    for row in space.row_of.values():
        slots = {}  # w -> end(A) coordinates of T_w
        for idx, c in row.items():
            w = index_word(idx, m, n)
            for jw in product(range(n), repeat=m):
                axpy(slots.setdefault(jw, {}), c, _cls(E, _z(w, jw, n)))
        for jw in product(range(n), repeat=m):
            residual = dict(slots[jw])
            for p, arow in space.row_of.items():
                c = arow.get(word_index(jw, n))
                if c:
                    axpy(residual, -c, slots[index_word(p, m, n)])
            assert not residual, (A.label, m, jw)


def test_coaction_on_generators():
    B = build_end(polynomial(2))
    n = 2
    pairs = _coaction_on_A(B, (0,))
    assert len(pairs) == 2
    for (zc, xc), j in zip(pairs, range(n)):
        assert zc == _cls(B.env, (z_index(0, j, n),))
        assert xc == _cls(B.base, (j,))


def test_coaction_on_unit():
    B = build_end(polynomial(2))
    assert _coaction_on_A(B, ()) == [({0: 1}, {0: 1})]


def test_coaction_well_defined_on_relations():
    for A in (polynomial(2), antisymmetrizer(3, 3), quantum_space(2)):
        B = build_end(A)
        for r in A.relations:
            assert not _coaction_on_element(B, A.N, r), A.label


def test_coaction_kills_ideal_low_degrees():
    A = polynomial(2)
    B = build_end(A)
    for d in (2, 3, 4):
        ideal = A.ideal_component(d)
        for row in ideal.row_of.values():
            assert not _coaction_on_element(B, d, row), d


def test_coaction_on_J_preserves_J():
    for A in (polynomial(2), antisymmetrizer(3, 3)):
        B = build_end(A)
        for ell in range(4):
            _assert_coaction_preserves_J(B, ell)


def test_chi_A_degree_one_is_trace():
    for A in (polynomial(2), antisymmetrizer(3, 3)):
        B = build_end(A)
        expected = {}
        for i in range(A.n):
            axpy(expected, 1, _cls(B.env, (z_index(i, i, A.n),)))
        assert chi_A(B, 1) == expected


def test_chi_degree_zero_is_unit():
    B = build_end(polynomial(2))
    assert chi_A(B, 0) == {0: 1}
    assert chi_J(B, 0) == {0: 1}


def test_counit_of_characters_is_dimension(counit):
    for A in (polynomial(2), antisymmetrizer(3, 3), quantum_space(2)):
        B = build_end(A)
        for k in range(6):
            assert counit(B, k, chi_A(B, k)) == A.dim_component(k), (A.label, k)
        for ell in range(5):
            m = nu(A.N, ell)
            expected = dual_koszul_subspace(A, m).dim
            assert counit(B, m, chi_J(B, ell)) == expected, (A.label, ell)


def test_counit_unit(counit):
    B = build_end(polynomial(2))
    assert counit(B, 0, {0: 1}) == 1
    assert counit(B, 1, chi_A(B, 1)) == 2


def test_chi_multiplicative_on_free_coactions():
    # chi of the full tensor power (a free comodule) is the m-th power of
    # the degree-1 character when there are no relations
    A = free_algebra(2)
    B = build_end(A)
    c1 = chi_A(B, 1)
    power = {0: 1}
    for m in range(4):
        assert chi_A(B, m) == power
        power = B.env.multiply(m + 1, 1, power, c1)


def test_chi_J_trace_is_basis_independent():
    # recompute the trace of the coaction on J_1 = V of poly(2) in a
    # randomized non-echelon basis with explicit dual functionals:
    # chi = sum_a sum_{w,w'} u_a[w] Y[a][w'] z(w -> w') where Y U^T = I
    A = polynomial(2)
    B = build_end(A)
    rng = random.Random(13)
    while True:
        u = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
        det = u[0][0] * u[1][1] - u[0][1] * u[1][0]
        if det:
            break
    y = [
        [u[1][1] / det, -u[1][0] / det],
        [-u[0][1] / det, u[0][0] / det],
    ]
    acc = {}
    for a in range(2):
        for w in range(2):
            if not u[a][w]:
                continue
            for wp in range(2):
                coeff = u[a][w] * y[a][wp]
                if coeff:
                    axpy(acc, 1, B.env.reduce(1, {z_index(w, wp, 2): coeff}))
    assert acc == chi_J(B, 1)


def test_kmt_polynomial():
    B = build_end(polynomial(2))
    res = kmt_check(B, 4)
    assert res.passed


def test_kmt_antisymmetrizer(normal_basis_calls):
    B = build_end(antisymmetrizer(3, 3))
    assert kmt_check(B, 4).passed
    # the characters reduce words of end(A) one at a time, and no degree of
    # end(A), nor of A, lists its normal words
    assert len(B.env.cache.degrees) == 5
    assert normal_basis_calls == []


def test_kmt_quantum_generic():
    B = build_end(quantum_space(2))
    assert kmt_check(B, 4).passed


def _mono_xyx():
    # the cubic monomial algebra whose certificate fails at (5, 2)
    return AlgebraPresentation(2, 3, [columns(2, {(0, 1, 0): Fraction(1)})], label="mono_xyx")


def test_kmt_fails_for_non_koszul_fixture():
    # the character identity breaks at the total degree where the
    # certificate of the cubic monomial algebra fails
    res = kmt_check(build_end(_mono_xyx()), 6)
    assert not res.passed
    assert res.first_failure == 5


@settings(max_examples=25, deadline=None)
@given(presentations())
@example(polynomial(2))
@example(antisymmetrizer(3, 3))
@example(quantum_space(2))
def test_kmt_implies_dvp_via_counit(counit, A):
    # applying the counit coefficient-wise to both character series gives
    # the two numeric series of the duality identity, for any presentation;
    # where the complex is exact up to D, the Euler characteristic of the
    # comodule complex makes the character identity hold up to D as well
    B = build_end(A)
    D = 3
    p = character_series(B, D)
    q = dual_character_series(B, D)
    pm = [counit(B, k, c) for k, c in enumerate(p)]
    qm = [counit(B, k, c) for k, c in enumerate(q)]
    assert all(a == b for a, b in zip(pm, A.hilbert_series(D).coeffs)), A
    assert all(a == b for a, b in zip(qm, dvp_rhs(A, D).coeffs)), A
    if koszul_certificate(A, D).passed:
        assert kmt_check(B, D).passed and dvp_check(A, D).passed, A


def _kmt_product_by_multiply(B, D):
    """The coefficients of the product that kmt_check forms, each summed
    into one dict by ``multiply``."""
    p, q = character_series(B, D), dual_character_series(B, D)
    out = []
    for d in range(D + 1):
        coeff = {}
        for j in range(d + 1):
            B.env.multiply(d, j, p[d - j], q[j], coeff)
        out.append(coeff)
    return out


def _assert_kmt_product_matches_concat(B, D):
    # each coefficient Σ_j χ(A_{d-j})·q_j is also formed by concatenating
    # z-word columns and reducing once, without multiply; kmt_check must
    # fail first where that product first differs from 1
    p, q = character_series(B, D), dual_character_series(B, D)
    by_concat = series_product_by_concat(B.env, p, q)
    assert _kmt_product_by_multiply(B, D) == by_concat
    unit = [{0: 1}] + [{}] * D
    first = next((d for d in range(D + 1) if by_concat[d] != unit[d]), None)
    res = kmt_check(B, D)
    assert (res.passed, res.first_failure) == (first is None, first)
    return first


@settings(max_examples=25, deadline=None)
@given(presentations(max_n=2), st.integers(1, 4))
def test_kmt_product_matches_concat_oracle(A, D):
    _assert_kmt_product_matches_concat(build_end(A), D)


@pytest.mark.parametrize(
    "make, D, first",
    [
        (lambda: polynomial(2), 4, None),
        (lambda: polynomial(3), 3, None),
        (lambda: antisymmetrizer(3, 3), 4, None),
        (lambda: quantum_space(2), 4, None),
        (lambda: free_algebra(2), 4, None),
        (_mono_xyx, 6, 5),
    ],
    ids=["poly2", "poly3", "antisym33", "qspace2", "free2", "mono_xyx"],
)
def test_kmt_product_matches_concat_oracle_on_fixtures(make, D, first):
    assert _assert_kmt_product_matches_concat(build_end(make()), D) == first


def test_ferm_convention_and_bos_ferm(bos_series):
    for n, D in ((1, 6), (2, 4), (3, 4)):
        B = build_end(polynomial(n))
        dual = dual_character_series(B, D)
        assert ferm_convention(B, dual) == "row-permuted", n
        bos, ferm = bos_series(B, D), ferm_series(B, D)
        assert bos == character_series(B, D), n
        assert ferm == dual, n
        assert series_product_by_concat(B.env, bos, ferm) == [{0: 1}] + [{}] * D, n


def test_ferm_convention_checks_every_call(monkeypatch):
    # a first call on the series to degree 1 must not answer a later call
    # on the series to degree 4
    B = build_end(polynomial(2))
    dual = dual_character_series(B, 4)
    assert ferm_convention(B, dual[:2]) == "row-permuted"

    def mismatched(B, max_degree):
        return [{} for _ in range(max_degree + 1)]

    monkeypatch.setattr(manin, "ferm_series", mismatched)
    with pytest.raises(RuntimeError, match="row-permuted fermionic series does not match"):
        ferm_convention(B, dual)


def test_ferm_convention_uses_the_kmt_series(monkeypatch):
    # kmt-check hands over the J character series it already built, and
    # the fermionic series is checked against it in every degree it has
    degrees = []
    ferm = manin.ferm_series

    def recorded(B, max_degree):
        degrees.append(max_degree)
        return ferm(B, max_degree)

    monkeypatch.setattr(manin, "ferm_series", recorded)
    for D in (2, 6):
        B = build_end(polynomial(2))
        res = kmt_check(B, D)
        assert res.dual_series == dual_character_series(B, D)
        assert len(res.dual_series) == D + 1
        assert ferm_convention(B, res.dual_series) == "row-permuted"
    assert degrees == [2, 6]


def test_ferm_convention_is_exclusive(transposed_ferm_series):
    # the validation discriminates: exactly one of the two orderings
    # reproduces the character series (z-generators do not commute enough
    # for the transpose to slip through)
    for n in (2, 3):
        B = build_end(polynomial(n))
        target = dual_character_series(B, 3)
        assert ferm_series(B, 3) == target
        assert transposed_ferm_series(B, 3) != target


def test_ferm_constant_and_linear_terms():
    B = build_end(polynomial(2))
    ferm = ferm_series(B, 2)
    assert ferm[0] == {0: 1}
    # degree 1: -(z_1^1 + z_2^2)
    n = 2
    tr = axpy(_cls(B.env, (z_index(0, 0, n),)), 1, _cls(B.env, (z_index(1, 1, n),)))
    assert ferm[1] == {w: -c for w, c in tr.items()}


def test_ferm_degree_two_is_determinant():
    # expansion under the row-permuted convention: det(Z) = ad - cb reduced
    B = build_end(polynomial(2))
    n = 2
    a, b, c, d = (z_index(i, j, n) for i in (0, 1) for j in (0, 1))
    det = B.env.reduce(2, columns(4, {(a, d): Fraction(1), (c, b): Fraction(-1)}))
    ferm = ferm_series(B, 2)
    assert ferm[2] == det


def test_bos_degree_one(bos_series):
    B = build_end(polynomial(2))
    bos = bos_series(B, 1)
    assert bos[1] == chi_A(B, 1)


def test_bos_ferm_rejects_non_polynomial(bos_series):
    B = build_end(antisymmetrizer(3, 3))
    with pytest.raises(ValueError):
        bos_series(B, 2)
    with pytest.raises(ValueError):
        ferm_series(B, 2)


def test_is_polynomial_presentation():
    assert is_polynomial_presentation(polynomial(3))
    assert is_polynomial_presentation(antisymmetrizer(2, 2))
    assert not is_polynomial_presentation(antisymmetrizer(3, 3))
    assert not is_polynomial_presentation(quantum_space(2))
    assert not is_polynomial_presentation(free_algebra(2))
