import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nkoszul.algebras import antisymmetrizer, enumerate_admissible, polynomial, quantum_space
from conftest import COEFFS, assert_exact, columns, presentations, specializable_oracle
from nkoszul.freealg import index_word, word_index
from nkoszul.homog import AlgebraPresentation
from nkoszul.koszul import dual_koszul_subspace, jumps
from nkoszul.linalg import BasisSolver, axpy
from nkoszul.manin import build_end, character_series, dual_character_series
from nkoszul.mmt import (
    check_specializable,
    g_table,
    matrix_det,
    nmt_check,
    nmt_rhs_denominator,
    random_rational_matrix,
)
from nkoszul.series import MultiSeries


def ident(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def ones(n):
    return [[Fraction(1)] * n for _ in range(n)]


def zeros(n):
    return [[Fraction(0)] * n for _ in range(n)]


def test_random_matrix_deterministic():
    a = random_rational_matrix(3, 7)
    b = random_rational_matrix(3, 7)
    assert a == b
    assert a != random_rational_matrix(3, 8)
    for row in a:
        for v in row:
            # p in [-9, 9], q in [1, 9]; reduction only shrinks them
            assert -9 <= v.numerator <= 9
            assert 1 <= v.denominator <= 9


def test_matrix_det_of_empty_matrix_is_int():
    assert matrix_det([]) == 1 and type(matrix_det([])) is int
    assert matrix_det([[2, 3], [1, 4]]) == 5
    assert matrix_det([[Fraction(1, 2), 3], [1, 4]]) == -1


def test_specializable_builtins():
    rng = random.Random(21)
    for A in (polynomial(2), polynomial(3), antisymmetrizer(3, 3), antisymmetrizer(4, 3)):
        Z = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(A.n)] for _ in range(A.n)]
        assert check_specializable(A, Z), A.label


def test_specializable_quantum_fails():
    Q = quantum_space(2, q=2)
    assert not check_specializable(Q, ones(2))
    # and the guard is exactly "some relation is not killed": evaluate it
    # z_i^j -> 1 on relation x2⊗x1 - 2 x1⊗x2 pairs R^perp against a moved R
    assert check_specializable(Q, ident(2))  # diagonal matrices are fine


@st.composite
def specializations(draw):
    """A random or built-in algebra and a small rational matrix Z: dense,
    diagonal or a permutation, with some rows set to zero."""
    builtins = st.sampled_from(
        [polynomial(2), polynomial(3), antisymmetrizer(3, 3), antisymmetrizer(4, 3),
         quantum_space(2, q=2), quantum_space(3)]
    )
    A = draw(st.one_of(presentations(), builtins))
    n = A.n
    Z = draw(st.one_of(
        st.lists(st.lists(COEFFS, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(COEFFS, min_size=n, max_size=n).map(
            lambda d: [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
        ),
        st.permutations(range(n)).map(lambda p: [[int(p[i] == j) for j in range(n)] for i in range(n)]),
    ))
    for i in draw(st.sets(st.integers(0, n - 1))):
        Z[i] = [0] * n
    return A, Z


@settings(max_examples=100, deadline=None)
@given(specializations())
@example((quantum_space(2, q=2), [[1, 2], [3, 5]]))  # not specializable
def test_specializable_matches_transformed_relations(case):
    # the product in A_N against Z^{⊗N} spelled out on words and the RREF
    A, Z = case
    assert check_specializable(A, Z) == specializable_oracle(A, Z)


def test_g_identity_matrix_all_ones():
    A = antisymmetrizer(3, 3)
    tab = g_table(A, ident(3), 4)
    assert all(v == 1 for v in tab.values())
    assert tab[(0, 2, 1)] == 1


def test_g_empty_word():
    assert g_table(polynomial(2), ones(2), 0) == {(): 1}


def test_g_poly_allones_row_sums():
    # expansion of (x1+x2)^k: sum of G over degree-k exponent vectors is 2^k
    A = polynomial(2)
    tab = g_table(A, ones(2), 5)
    for k in range(6):
        total = sum(v for w, v in tab.items() if len(w) == k)
        assert total == 2**k


def test_g_rejects_non_specializable():
    Q = quantum_space(2, q=2)
    with pytest.raises(ValueError):
        g_table(Q, ones(2), 2)
    # the guard runs on LZ, L the lcm of the denominators: the verdict is
    # that of Z
    halves = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]]
    assert not check_specializable(Q, halves)
    with pytest.raises(ValueError, match="does not specialize"):
        g_table(Q, halves, 2)


def test_mmt_zero_and_identity():
    assert nmt_check(polynomial(2), zeros(2), 4).passed
    res = nmt_check(polynomial(2), ident(2), 5)
    assert res.passed
    # both sides are prod 1/(1-t_i): coefficient of any exponent vector is 1
    assert res.lhs.coefficient((2, 3)) == 1


def test_mmt_random():
    Z = random_rational_matrix(3, 7)
    assert nmt_check(polynomial(3), Z, 5).passed


def test_mmt_detects_perturbation():
    # corrupt the right-hand side by perturbing one matrix entry on one side
    Z = random_rational_matrix(2, 3)
    res = nmt_check(polynomial(2), Z, 4)
    assert res.passed
    Z2 = [row[:] for row in Z]
    Z2[0][0] += 1
    lhs = res.lhs
    rhs2 = nmt_check(polynomial(2), Z2, 4).rhs
    assert lhs != rhs2


def test_nmt_identity_matrix():
    res = nmt_check(antisymmetrizer(3, 3), ident(3), 5)
    assert res.passed
    denom = nmt_rhs_denominator(3, 3, ident(3), 5)
    expected = MultiSeries(
        3,
        5,
        {
            (0, 0, 0): Fraction(1),
            (1, 0, 0): Fraction(-1),
            (0, 1, 0): Fraction(-1),
            (0, 0, 1): Fraction(-1),
            (1, 1, 1): Fraction(1),
        },
    )
    assert denom.terms == expected.terms


def test_nmt_random():
    Z = random_rational_matrix(3, 11)
    assert nmt_check(antisymmetrizer(3, 3), Z, 5).passed


def test_nmt_at_N2_coincides_with_mmt(det_inverse):
    # the epsilon-signed principal-minor sum at N=2 is det(I - ZT), so the
    # N-analog on poly(n) is the original master identity
    Z = random_rational_matrix(3, 5)
    res = nmt_check(polynomial(3), Z, 4)
    assert res.passed
    assert res.rhs.terms == det_inverse(Z, 4).terms


def _restricted_trace(Z, space, n, m):
    """Trace of Z^{⊗m} on an invariant subspace of V^{⊗m}, via the pivot
    coordinate functionals of its reduced echelon basis."""
    total = Fraction(0)
    for p, row in space.row_of.items():
        pword = index_word(p, m, n)
        for idx, c in row.items():
            factor = c
            for a, b in zip(index_word(idx, m, n), pword):
                factor *= Z[a][b]
            total += factor
    return total


def _evaluate_character(B, k, value, Z):
    """Specialize the normal form ``value`` of an element of end(A)_k at a
    numeric matrix, z_i^j ↦ Z[i][j]."""
    n = B.base.n
    total = Fraction(0)
    for zw, coeff in value.items():
        factor = coeff
        for letter in index_word(zw, k, n * n):
            i, j = divmod(letter, n)
            factor *= Z[i][j]
        total += factor
    return total


def test_numeric_ferm_equals_restricted_traces():
    # sum_J eps(|J|) det(Z_J) prod t_j specialized at t_j = t equals the
    # alternating restricted-trace series sum_l (-1)^l tr(Z^{⊗nu}|_J) t^nu
    for n, N in ((2, 2), (3, 3)):
        A = antisymmetrizer(n, N)
        Z = random_rational_matrix(n, 17)
        denom = nmt_rhs_denominator(n, N, Z, n + 2)
        by_total = {}
        for exps, c in denom.terms.items():
            by_total[sum(exps)] = by_total.get(sum(exps), Fraction(0)) + c
        for ell, m in jumps(N, n + 1):
            space = dual_koszul_subspace(A, m)
            tr = _restricted_trace(Z, space, n, m)
            expected = by_total.get(m, Fraction(0))
            assert (-1) ** ell * tr == expected, (n, N, ell)


def test_numeric_evaluation_of_character_series():
    # oracle agreement: evaluating the character series at Z reproduces the
    # numeric bosonic/fermionic series built from G data and minors
    for A in (polynomial(2), antisymmetrizer(3, 3)):
        B = build_end(A)
        Z = random_rational_matrix(A.n, 31)
        D = 4
        p = character_series(B, D)
        q = dual_character_series(B, D)
        tab = g_table(A, Z, D)
        for k in range(D + 1):
            bos_k = sum(
                (v for w, v in tab.items() if len(w) == k), Fraction(0)
            )
            assert _evaluate_character(B, k, p[k], Z) == bos_k, (A.label, k)
        denom = nmt_rhs_denominator(A.n, A.N, Z, D)
        by_total = {}
        for exps, c in denom.terms.items():
            by_total[sum(exps)] = by_total.get(sum(exps), Fraction(0)) + c
        for d in range(D + 1):
            assert _evaluate_character(B, d, q[d], Z) == by_total.get(d, Fraction(0)), (
                A.label,
                d,
            )


def _g_single(A, Z, word):
    """G(word) by the route g_table does not take: the full expansion of
    X_{i_1}···X_{i_k}, X_i = Σ_j Z_ij x_j, with no prefix sharing, solved
    for its coordinates in the basis of admissible classes, with no word
    reversal."""
    k = len(word)
    words = enumerate_admissible(A.n, A.N, k)
    pos = {w: i for i, w in enumerate(A.normal_basis(k))}
    rows = [{pos[w]: c for w, c in A.class_of_word((k, word_index(a, A.n))).items()} for a in words]
    solver = BasisSolver(rows, len(pos))  # raises unless the rows are independent
    vec = {}
    for target in product(range(A.n), repeat=k):
        c = prod(Z[i][j] for i, j in zip(word, target))
        if c:
            axpy(vec, c, A.class_of_word((k, word_index(target, A.n))))
    coords = solver.coordinates({pos[w]: c for w, c in vec.items()})
    return coords.get(words.index(word), 0)


def test_g_table_matches_single_calls():
    # qspace(2) at q = -1 is reversal-stable without being a built-in case
    diagonal = [[Fraction(3), Fraction(0)], [Fraction(0), Fraction(-2, 5)]]
    # large coprime denominators, so the lcm L is large and G_{LZ}(w) / L^|w|
    # must cancel exactly
    coprime2 = [[Fraction(1, 101), Fraction(-3, 997)], [Fraction(7, 1009), Fraction(2, 3)]]
    coprime3 = [
        [Fraction(1, 7), Fraction(-2, 11), Fraction(3, 13)],
        [Fraction(4, 17), Fraction(1, 19), Fraction(-5, 23)],
        [Fraction(2, 29), Fraction(3, 31), Fraction(-7, 37)],
    ]
    mixed = [[Fraction(10**9 + 7, 10**9 + 9), 0, 1], [0, 1, 0], [2, 0, 3]]
    cases = [
        (polynomial(2), coprime2, 5),
        (antisymmetrizer(3, 3), coprime3, 4),
        (polynomial(3), coprime3, 3),
        (antisymmetrizer(3, 2), mixed, 3),
        (polynomial(2), random_rational_matrix(2, 41), 5),
        (polynomial(3), random_rational_matrix(3, 42), 4),
        (antisymmetrizer(3, 3), random_rational_matrix(3, 43), 4),
        (antisymmetrizer(4, 2), random_rational_matrix(4, 44), 3),
        (antisymmetrizer(4, 3), random_rational_matrix(4, 45), 3),
        (antisymmetrizer(4, 4), random_rational_matrix(4, 46), 3),
        (quantum_space(2, q=-1), diagonal, 5),
    ]
    for A, Z, D in cases:
        tab = g_table(A, Z, D)
        assert_exact(tab.values())
        for k in range(D + 1):
            for w in enumerate_admissible(A.n, A.N, k):
                assert tab[w] == _g_single(A, Z, w), (A.label, w)


def test_g_table_rejects_what_reversal_cannot_read():
    # span(R) of qspace(2) at q = 2 is not stable under word reversal
    with pytest.raises(ValueError, match="reversal"):
        g_table(quantum_space(2, q=2), ident(2), 3)
    # x1⊗x1 is reversal-stable, but its normal words (those avoiding x1 x1)
    # are not the reversed admissible (non-decreasing) words
    A = AlgebraPresentation(2, 2, [columns(2, {(0, 0): 1})])
    with pytest.raises(ValueError, match="normal words"):
        g_table(A, ident(2), 3)


def _unscaled_g_table(A, Z, max_degree):
    """G on every admissible word of length <= max_degree by the walk on Z
    itself, recursively: the rev(w)-coordinate of X_{w_k}···X_{w_1}."""
    n = A.n
    admissible = {w for k in range(max_degree + 1) for w in enumerate_admissible(n, A.N, k)}
    table = {}

    def walk(word, vec):
        k = len(word)
        table[word] = vec.get(word_index(reversed(word), n), 0)
        if k == max_degree:
            return
        for b in range(n):
            if word + (b,) not in admissible:
                continue
            nxt = {}
            for j, z in enumerate(Z[b]):
                if z:
                    for w, c in vec.items():
                        axpy(nxt, z * c, A.class_of_word((k + 1, j * n**k + w)))
            walk(word + (b,), nxt)

    walk((), {0: 1})
    return table


RATIONAL_ENTRIES = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 30))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 2, 5), (3, 2, 3), (3, 3, 4), (4, 3, 3), (4, 4, 4)]), st.data())
def test_scaled_g_table_matches_unscaled_walk(shape, data):
    n, N, D = shape
    Z = [[data.draw(RATIONAL_ENTRIES) for _ in range(n)] for _ in range(n)]
    A = antisymmetrizer(n, N)
    tab = g_table(A, Z, D)
    assert tab == _unscaled_g_table(A, Z, D)
    assert_exact(tab.values())


@pytest.mark.parametrize(
    "A", [polynomial(2), antisymmetrizer(3, 3), quantum_space(2, q=-1)], ids=lambda A: A.label
)
def test_g_table_without_levels_and_with_only_the_last(A):
    # D = 0 walks no level; at D = 1 the last level, read one coordinate
    # at a time, is the first
    diagonal = [[Fraction(3 - 2 * i, 1 + i) if i == j else 0 for j in range(A.n)] for i in range(A.n)]
    assert g_table(A, diagonal, 0) == {(): 1}
    tab = g_table(A, diagonal, 1)
    assert tab == {(): 1, **{(b,): diagonal[b][b] for b in range(A.n)}}
    assert tab == _unscaled_g_table(A, diagonal, 1)
    assert all(tab[w] == _g_single(A, diagonal, w) for w in tab)
    assert_exact(tab.values())


def test_g_table_work_is_per_column():
    # the walk multiplies by each column M_b·e once, and the last level
    # reads one coordinate from rows taken once: at most n^2 class_of_word
    # calls per normal word e of A_k, k < D, and as many again for the
    # specialization guard; a walk that multiplies each word's whole
    # vector makes about 800,000 calls here
    A = antisymmetrizer(4, 3)
    D = 5
    calls = 0
    word_class = A.class_of_word

    def counting(word):
        nonlocal calls
        calls += 1
        return word_class(word)

    A.class_of_word = counting
    g_table(A, random_rational_matrix(4, 2), D)
    bound = 2 * A.n**2 * sum(A.dim_component(k) for k in range(D))
    assert bound == 9792
    assert 0 < calls <= bound
