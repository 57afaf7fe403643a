import math
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nkoszul.algebras import antisymmetrizer, free_algebra, polynomial, quantum_space
from conftest import (
    MultiplicationRows,
    columns,
    d_squared_failures,
    doubled_first_slice,
    dual,
    full_copy_echelons,
    groebner_presentations,
    homogeneous_presentations,
    letter_content,
    mixed_first_row,
    orbit_size,
    perturbed_antisym43,
    presentations,
    rref,
    stable_presentations,
    whole_matrix_ranks,
)
from nkoszul import koszul
from nkoszul.cli import _degree_obj, main
from nkoszul.freealg import index_word
from nkoszul.homog import AlgebraPresentation
from nkoszul.koszul import (
    admissible_identity_check,
    differential,
    dual_component_dim,
    dual_koszul_subspace,
    dvp_check,
    dvp_rhs,
    homology_report,
    identity_eq1,
    jumps,
    koszul_certificate,
    nu,
)
from nkoszul.linalg import Echelon, Matrix, full_space, intersect, rank


def test_nu_values():
    assert [nu(3, ell) for ell in range(5)] == [0, 1, 3, 4, 6]
    assert all(nu(2, ell) == ell for ell in range(21))
    for N in (2, 3, 4):
        jumps = [nu(N, ell) - nu(N, ell - 1) for ell in range(1, 12)]
        assert jumps == [1 if i % 2 == 0 else N - 1 for i in range(11)]
    with pytest.raises(ValueError):
        nu(3, -1)


def j_bruteforce(A, m):
    """Independent oracle: intersect every window V^i ⊗ R ⊗ V^j directly."""
    if m < A.N:
        return full_space(A.n**m)
    space = None
    for i in range(m - A.N + 1):
        j = m - A.N - i
        ech = Echelon(A.n**m)
        for r in A.relations:
            rwords = {index_word(rw, A.N, A.n): c for rw, c in r.items()}
            for u in product(range(A.n), repeat=i):
                for w in product(range(A.n), repeat=j):
                    ech.add(columns(A.n, {u + rw + w: c for rw, c in rwords.items()}))
        window = ech.to_subspace()
        space = window if space is None else intersect(
            A.n**m, space.row_of.values(), window.row_of.values()
        )
    return space


def test_j_against_bruteforce_windows():
    for A in (polynomial(2), polynomial(3), antisymmetrizer(3, 3), antisymmetrizer(4, 3)):
        for m in range(A.N + 3):
            assert dual_koszul_subspace(A, m) == j_bruteforce(A, m), (A.label, m)


def test_j_dims_polynomial():
    A = polynomial(3)
    assert dual_koszul_subspace(A, 2).dim == 3  # Λ² of a 3-space


def test_j_dims_antisym43():
    A = antisymmetrizer(4, 3)
    assert dual_koszul_subspace(A, 2).dim == 16  # below the relation degree
    assert dual_koszul_subspace(A, 5).dim == 0  # above n


def test_j_spaces_are_canonical_rref():
    # subspaces built from shifted bases and Zassenhaus intersections must
    # still be reduced echelon bases (idempotence under rref), their rows
    # in increasing pivot order, the order of the rows of each d_ℓ
    from nkoszul.linalg import Matrix

    for A in (polynomial(3), antisymmetrizer(4, 3)):
        for m in range(A.N + 3):
            space = dual_koszul_subspace(A, m)
            again = rref(Matrix(space.ambient_dim, [dict(r) for r in space.row_of.values()]))
            assert again == space, (A.label, m)
            assert list(space.row_of) == sorted(space.row_of), (A.label, m)


def test_j_orthogonality_duality():
    # dim J_m + dim I_m(R^perp) = n^m
    for A in (polynomial(2), antisymmetrizer(3, 3)):
        D = dual(A)
        for m in range(6):
            assert dual_component_dim(A, m) + D.ideal_rank(m) == A.n**m


@settings(max_examples=60, deadline=None)
@given(presentations())
@example(polynomial(2))
@example(polynomial(3))
@example(antisymmetrizer(3, 3))
@example(antisymmetrizer(4, 3))
def test_dual_dim_cross_check_against_dual_presentation(A):
    # dim J_m (intersections of shifted rows) against the quotient of the
    # dual presentation (the kernel of I_N, then an ideal recursion)
    D = dual(A)
    for m in range(6):
        assert dual_component_dim(A, m) == D.dim_component(m), (A.label, m)


@settings(max_examples=30, deadline=None)
@given(presentations())
@example(polynomial(3))
@example(antisymmetrizer(3, 3))
@example(antisymmetrizer(4, 3))
@example(quantum_space(2))
@example(quantum_space(2, q=Fraction(2)))
@example(free_algebra(2))
@example(AlgebraPresentation(2, 3, [columns(2, {(0, 1, 0): Fraction(1)})], label="mono_xyx"))
def test_d1_rank_is_dim_A_and_lazy_rows_match(A):
    # the assembled d_1 is the oracle of the lemma homology_report relies
    # on (rank d_1 = dim A_m) and of the rows of d_1 built one at a time
    for m in range(1, 6):
        mat = differential(A, m, 1)
        assert rank(mat) == A.dim_component(m), m
        lazy = MultiplicationRows(A, m)
        for i, row in enumerate(mat.rows):
            assert lazy[i] == row, (m, i)


@settings(max_examples=40, deadline=None)
@given(st.one_of(presentations(), groebner_presentations()))
@example(polynomial(3))
@example(antisymmetrizer(3, 3))
@example(antisymmetrizer(4, 3))
@example(antisymmetrizer(4, 4))
@example(quantum_space(2))
@example(quantum_space(2, q=Fraction(2)))
@example(free_algebra(2))
@example(AlgebraPresentation(2, 3, [columns(2, {(0, 1, 0): Fraction(1)})], label="mono_xyx"))
@example(perturbed_antisym43(2))
def test_assembled_differentials_compose_to_zero(A):
    # d_{ℓ-1} ∘ d_ℓ = 0 on the assembled matrices of every total degree,
    # d_1 included: an oracle of the per-ℓ check on the J spaces that also
    # checks NF(NF(x)·y) = NF(x·y) on the words of degree m
    assert d_squared_failures(A, 5) == []


def test_corrupted_j_slice_fails_the_certificate():
    # J_4 of antisym(4,3) slices into V ⊗ J_3, whose slices into
    # V^{⊗2} ⊗ J_1 are those of d_2; one scaled entry of them breaks
    # d_2 ∘ d_3 = 0, which the check of J_4 reports
    A = antisymmetrizer(4, 3)
    first = next(iter(koszul._j_slices(A, 3, 2).values()))
    y = next(iter(first.values()))
    y[min(y)] *= 3
    with pytest.raises(RuntimeError, match="slices of J_4 and J_3"):
        koszul_certificate(A, 7)


def test_corrupted_long_rule_fails_the_oracles():
    # the per-ℓ check reads no rule above N, so a bad rule row of length 6
    # is for the tests' oracles to find: the sweep of d∘d, first at total
    # degree 6, and the full-copy recursion of I_6
    clean = perturbed_antisym43(2)
    assert d_squared_failures(clean, 6) == []
    A = perturbed_antisym43(2)
    A.ideal_rank(6)
    k, _, rules = A.cache.degrees[6].ends[-1]
    assert k == 6
    row = rules.row_of[min(rules.pivots)]
    row[max(row)] *= 2
    assert d_squared_failures(A, 6) == [(6, 2)]
    expected = full_copy_echelons(clean, 6)[6][0].to_subspace()
    assert clean.ideal_component(6) == expected
    assert A.ideal_component(6) != expected


def _products(A, top, keep):
    """The number of slices y_g of the rows b of J over the pairs (e, b)
    of every d_ℓ with ℓ >= 2 and total degree m <= ``top`` whose letter
    content, spelled out on the word tuples of e and of a column of b,
    ``keep`` accepts."""
    total = 0
    for m in range(1, top + 1):
        for ell, d in jumps(A.N, m):
            if ell < 2:
                continue
            row_of = dual_koszul_subspace(A, d).row_of
            slices = koszul._j_slices(A, d, d - nu(A.N, ell - 1))
            assert list(slices) == list(row_of)
            for e in A.normal_basis(m - d):
                for b, sl in slices.items():
                    content = [x + y for x, y in zip(
                        letter_content(e, m - d, A.n), letter_content(min(row_of[b]), d, A.n)
                    )]
                    total += len(sl) if keep(content) else 0
    return total


def _pairs_by_content(A, m, ell):
    """{dense letter content: the pairs (normal word e, pivot b of a row of
    J_ν(ℓ)) of d_ℓ at total degree m whose contents, spelled out on the word
    tuples of e and of b, add up to it}.  Each list runs over the J contents
    in the order their first rows come, then e, then b."""
    d = nu(A.N, ell)
    row_of = dual_koszul_subspace(A, d).row_of
    first = {}
    for b in row_of:
        first.setdefault(letter_content(b, d, A.n), len(first))
    groups = {}
    for e in A.normal_basis(m - d):
        for b in row_of:
            c = tuple(x + y for x, y in zip(letter_content(e, m - d, A.n),
                                            letter_content(b, d, A.n)))
            groups.setdefault(c, []).append((e, b))
    for pairs in groups.values():
        pairs.sort(key=lambda p: first[letter_content(p[1], d, A.n)])
    return groups


def test_certificate_multiplies_once_per_word_row_and_slice(monkeypatch):
    # the only products are those of the assembled d_ℓ with ℓ >= 2, one per
    # normal word e, J row b and slice y_g of b: d_1 is not built and the
    # d∘d check multiplies nothing.  antisym(4,3) is S_4-stable, so only
    # the pairs of non-increasing letter content are assembled; the generic
    # qspace(3) is not, so every pair is.  The cached symmetry verdict is
    # taken first: its check_specializable reduces each relation's image
    # once in A_N and multiplies nothing
    real = AlgebraPresentation.multiply
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(AlgebraPresentation, "multiply", counted)
    A = antisymmetrizer(4, 3)
    assert koszul._symmetric(A) and len(calls) == 0
    calls.clear()
    koszul_certificate(A, 7)
    expected = _products(A, 7, lambda c: c == sorted(c, reverse=True))
    assert len(calls) == expected == 542
    calls.clear()
    A = quantum_space(3)
    assert not koszul._symmetric(A) and len(calls) == 0
    calls.clear()
    koszul_certificate(A, 6)
    expected = 0
    for m in range(1, 7):
        for ell, d in jumps(A.N, m):
            if ell >= 2:
                slices = koszul._j_slices(A, d, d - nu(A.N, ell - 1))
                expected += A.dim_component(m - d) * sum(map(len, slices.values()))
    assert len(calls) == expected == _products(A, 6, lambda c: True)


@settings(max_examples=40, deadline=None)
@given(st.one_of(stable_presentations(), homogeneous_presentations(), presentations()))
@example(polynomial(3))
@example(antisymmetrizer(4, 3))
@example(antisymmetrizer(4, 4))
@example(quantum_space(3))
@example(quantum_space(3, q=Fraction(-1)))
@example(quantum_space(2, q=Fraction(2, 3)))
@example(free_algebra(2))
@example(perturbed_antisym43(0))
@example(AlgebraPresentation(2, 3, [columns(2, {(0, 1, 0): Fraction(1)})], label="mono_xyx"))
def test_orbit_ranks_match_whole_matrices(A):
    # the ranks homology_report takes, one content per S_n orbit when the
    # relations allow it, against the ranks of the whole matrices
    for m in range(1, 6):
        ranks = homology_report(A, m).ranks
        assert {l: r for l, r in ranks.items() if l >= 2} == whole_matrix_ranks(A, m), m


@settings(max_examples=30, deadline=None)
@given(st.one_of(stable_presentations(), homogeneous_presentations()))
@example(antisymmetrizer(4, 3))
@example(perturbed_antisym43(1))
def test_content_blocks_split_the_whole_matrix(A):
    # with content-homogeneous relations the blocks of all contents hold
    # the rows of the whole matrix, each once; with S_n-stable ones the
    # blocks of one orbit have one rank
    symmetric = koszul._symmetric(A)
    for m in range(1, 6):
        for ell, _ in jumps(A.N, m):
            if ell < 2:
                continue
            # a block and the whole matrix number a codomain word by its column
            blocks = {
                c: differential(A, m, ell, pairs).rows
                for c, pairs in _pairs_by_content(A, m, ell).items()
            }
            together = sorted(sorted(row.items()) for rows in blocks.values() for row in rows)
            whole = differential(A, m, ell)
            assert together == sorted(sorted(row.items()) for row in whole.rows)
            if symmetric:
                for c, rows in blocks.items():
                    top = blocks[tuple(sorted(c, reverse=True))]
                    assert len(top) == len(rows), (m, ell, c)
                    assert rank(Matrix(whole.ncols, rows)) == rank(Matrix(whole.ncols, top))


@settings(max_examples=40, deadline=None)
@given(st.one_of(presentations(), stable_presentations()))
@example(antisymmetrizer(4, 3))
def test_differential_columns_are_words_of_the_codomain(A):
    # every column of d_ℓ, on the whole matrix and, when the relations
    # allow blocks, on each content block, is the word f·g of V^{⊗m}: f a
    # normal word of degree m - ν(ℓ-1) and g the pivot of a row of J_ν(ℓ-1)
    symmetric = koszul._symmetric(A)
    for m in range(1, 6):
        for ell, _ in jumps(A.N, m):
            if ell < 1:
                continue
            lo = nu(A.N, ell - 1)
            normal = set(A.normal_basis(m - lo))
            pivots = dual_koszul_subspace(A, lo).row_of
            blocks = koszul._blocks(A, m, ell) if symmetric and ell >= 2 else []
            for pairs in (None, *(pairs for _, pairs in blocks)):
                mat = differential(A, m, ell, pairs)
                assert mat.ncols == A.n**m
                for row in mat.rows:
                    for col in row:
                        f, g = divmod(col, A.n**lo)
                        assert f in normal and g in pivots, (m, ell, pairs, col)


@settings(max_examples=20, deadline=None)
@given(stable_presentations())
def test_stable_presentations_take_the_orbit_path(A):
    # every permutation of the letters applied to each relation spans an
    # S_n-stable space
    assert koszul._symmetric(A)


@settings(max_examples=15, deadline=None)
@given(stable_presentations())
@example(antisymmetrizer(4, 3))
@example(antisymmetrizer(5, 3))
@example(polynomial(3))
@example(quantum_space(3, q=Fraction(-1)))
def test_occurring_contents_form_whole_orbits(A):
    # the contents whose block of d_ℓ is nonempty, found by spelling out
    # the contents of every pair of total m, are closed under S_n, and
    # _blocks counts each orbit once per content in it, n!/Π_v (letters
    # with count v)!, and hands it the nonempty block of its non-increasing
    # form
    assert koszul._symmetric(A)
    for m in range(1, 7):
        for ell, _ in jumps(A.N, m):
            if ell < 2:
                continue
            nonempty = _pairs_by_content(A, m, ell)
            for c in nonempty:
                assert set(permutations(c)) <= set(nonempty), (m, ell, c)
            forms = {tuple(sorted(c, reverse=True)) for c in nonempty}
            expected = sorted((orbit_size(c), nonempty[c]) for c in forms)
            assert sorted(koszul._blocks(A, m, ell)) == expected, (m, ell)


@settings(max_examples=40, deadline=None)
@given(st.one_of(stable_presentations(), homogeneous_presentations()))
@example(antisymmetrizer(4, 3))
@example(perturbed_antisym43(0))
def test_sorted_letter_contents_match_dense_counts(A):
    # a content is its letters in increasing order, which the dense counts
    # of the oracle spell out; _blocks counts the occurring contents of each
    # non-increasing dense form and hands it the pairs of that form, in the
    # order of their J contents, then e, then b, also where the form itself
    # does not occur because span R is not S_n-stable
    n = A.n
    for m in range(6):
        rows = dual_koszul_subspace(A, m).row_of.values()
        for col in {*A.normal_basis(m), *(col for row in rows for col in row)}:
            dense = letter_content(col, m, n)
            spelled = tuple(a for a, k in enumerate(dense) for _ in range(k))
            assert koszul._letter_content(col, m, n) == spelled, (m, col)
    for m in range(1, 6):
        for ell, _ in jumps(A.N, m):
            if ell < 2:
                continue
            groups = _pairs_by_content(A, m, ell)
            forms = Counter(tuple(sorted(c, reverse=True)) for c in groups)
            expected = sorted((count, groups.get(c, [])) for c, count in forms.items())
            assert sorted(koszul._blocks(A, m, ell)) == expected, (m, ell)


@settings(max_examples=60, deadline=None)
@given(st.one_of(homogeneous_presentations(), stable_presentations(), presentations()))
@example(AlgebraPresentation(3, 2, [columns(3, {(0, 1): 1, (1, 0): -1})]))  # (0 1)-stable only
def test_symmetric_against_bruteforce(A):
    # every relation has one letter content, and every relation under every
    # permutation of the letters, spelled out on its words, reduces to 0
    n, N = A.n, A.N
    homogeneous = all(len({letter_content(w, N, n) for w in r}) == 1 for r in A.relations)
    stable = all(
        not A.reduce(N, columns(n, {
            tuple(perm[a] for a in index_word(w, N, n)): c for w, c in r.items()
        }))
        for perm in permutations(range(n))
        for r in A.relations
    )
    assert koszul._symmetric(A) == (homogeneous and stable)


def test_symmetry_verdicts_of_the_built_ins():
    # poly, antisym and qspace at q = -1 are S_n-stable, and free(2) has no
    # relation to break it; a generic or numeric q ≠ ±1 breaks stability
    # under (0 1), as does one doubled coefficient of antisym(4,3)
    for A in (polynomial(3), antisymmetrizer(4, 3), quantum_space(3, q=Fraction(-1)),
              free_algebra(2)):
        assert koszul._symmetric(A), A
    for A in (quantum_space(3), quantum_space(3, q=Fraction(2)), perturbed_antisym43(0)):
        assert not koszul._symmetric(A), A


def test_broken_stability_ranks_whole_matrices(monkeypatch):
    # antisym(4,3) with one coefficient of one relation doubled is still
    # content-homogeneous but no longer S_4-stable: every d_ℓ is then
    # assembled and ranked whole, as one block of orbit size 1
    blocks = []
    real = koszul.differential

    def recorded(A, m, ell, pairs=None):
        blocks.append(pairs)
        return real(A, m, ell, pairs)

    monkeypatch.setattr(koszul, "differential", recorded)
    koszul_certificate(antisymmetrizer(4, 3), 5)
    assert blocks and None not in blocks
    blocks.clear()
    A = perturbed_antisym43(0)
    cert = koszul_certificate(A, 5)
    assert blocks and all(pairs is None for pairs in blocks)
    monkeypatch.undo()
    for rep in cert.reports:
        whole = whole_matrix_ranks(A, rep.m)
        assert {l: r for l, r in rep.ranks.items() if l >= 2} == whole


def test_mixed_content_j_row_exits_3(capsys, monkeypatch):
    # poly(3) is S_3-stable, so each row of J_2 must have one letter
    # content; a stand-in J_2 whose first row is x0x1 - x1x0 + x0x2 - x2x0
    # is an internal error, not a verdict
    monkeypatch.setattr(
        koszul, "dual_koszul_subspace", mixed_first_row(koszul.dual_koszul_subspace, 2)
    )
    code = main(["koszul-check", "--algebra", "poly", "--n", "3", "--max-degree", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err.splitlines() == [
        "internal error: RuntimeError: a row of J_2 mixes letter contents, though "
        "every relation is content-homogeneous; internal error"
    ]


def _wedge(n, subset):
    from itertools import permutations

    from nkoszul.algebras import perm_sign

    terms = {}
    for perm in permutations(range(len(subset))):
        word = tuple(subset[p] for p in perm)
        terms[word] = Fraction(perm_sign(perm))
    return columns(n, terms)


def test_differential_matches_alternating_expansion():
    # quadratic case oracle: on a ⊗ (v_1 ∧ ... ∧ v_l) the differential is
    # sum_j (-1)^{j+1} (a v_j) ⊗ (v_1 ∧ ... omit v_j ... ∧ v_l); the wedge
    # is realized inside the tensor power as the signed permutation sum
    from itertools import combinations

    n = 3
    A = polynomial(n)
    for ell, k in ((2, 1), (3, 1), (3, 0)):
        m = k + ell
        space = dual_koszul_subspace(A, ell)
        lower = dual_koszul_subspace(A, ell - 1)
        subsets = list(combinations(range(n), ell))
        # echelon rows are exactly the wedge tensors of ascending subsets,
        # each at its pivot, the ascending word
        assert space.row_of == {min(_wedge(n, s)): _wedge(n, s) for s in subsets}
        mat = differential(A, m, ell)
        dom_words = A.normal_basis(k)
        for e_pos, e in enumerate(dom_words):
            for b, subset in enumerate(subsets):
                expected = {}
                for j, v in enumerate(subset):
                    rest = subset[:j] + subset[j + 1 :]
                    sign = Fraction((-1) ** j)  # (-1)^{j+1} with 1-based j
                    prod = A.reduce(k + 1, columns(n, {index_word(e, k, n) + (v,): 1}))
                    g = min(_wedge(n, rest))
                    assert lower.row_of[g] == _wedge(n, rest)
                    for fw, cf in prod.items():
                        col = fw * n ** (ell - 1) + g
                        expected[col] = expected.get(col, Fraction(0)) + sign * cf
                expected = {c: v for c, v in expected.items() if v}
                got = mat.rows[e_pos * space.dim + b]
                assert got == expected, (ell, e, subset)


def test_polynomial_complex_dims_degree2():
    A = polynomial(2)
    rep = homology_report(A, 2)
    assert rep.component_dims == {0: 3, 1: 4, 2: 1}
    assert rep.ranks[1] == 3  # d_1 onto A_2
    assert _degree_obj(rep)["d1_surjective"] is True
    assert rep.homology == {1: 0, 2: 0}


def test_certificate_polynomials():
    for n in (1, 2, 3):
        assert koszul_certificate(polynomial(n), 6).passed


def test_certificate_antisymmetrizers():
    assert koszul_certificate(antisymmetrizer(3, 3), 6).passed
    assert koszul_certificate(antisymmetrizer(4, 3), 6).passed


def test_certificate_free_algebra():
    res = koszul_certificate(free_algebra(2), 6)
    assert res.passed
    # the complex degenerates: J_m = 0 for m >= 2
    assert dual_koszul_subspace(free_algebra(2), 2).dim == 0


def test_certificate_negative_fixture():
    # found empirically: the cubic monomial algebra with relation x0 x1 x0
    # (a self-overlapping monomial) fails exactness first at (m, ell) = (5, 2)
    A = AlgebraPresentation(2, 3, [columns(2, {(0, 1, 0): Fraction(1)})], label="mono_xyx")
    res = koszul_certificate(A, 6)
    assert not res.passed
    assert res.first_failure == (5, 2)
    assert not dvp_check(A, 6).passed


@settings(max_examples=40, deadline=None)
@given(A=presentations(), known_koszul=st.just(False))
@example(A=polynomial(2), known_koszul=True)
@example(A=polynomial(3), known_koszul=True)
@example(A=antisymmetrizer(3, 3), known_koszul=True)
@example(A=antisymmetrizer(4, 3), known_koszul=True)
@example(A=quantum_space(2), known_koszul=True)
@example(A=free_algebra(2), known_koszul=True)
def test_certificate_implies_dvp(A, known_koszul):
    # the built-ins are Koszul; on any presentation a certificate that
    # passes implies the duality identity at the same bound
    cert = koszul_certificate(A, 5)
    assert cert.passed or not known_koszul
    if cert.passed:
        assert dvp_check(A, 5).passed


@settings(max_examples=40, deadline=None)
@given(A=presentations(), known_koszul=st.just(False))
@example(A=antisymmetrizer(3, 3), known_koszul=True)
def test_euler_characteristic_vanishes(A, known_koszul):
    # the Euler characteristic of the degree-m subcomplex is the t^m
    # coefficient of the duality product, which is zero when A is Koszul
    duality = dvp_check(A, 5).product.coeffs
    for m in range(1, 6):
        rep = homology_report(A, m)
        chi = sum((-1) ** l * d for l, d in rep.component_dims.items())
        assert chi == duality[m]
        assert chi == 0 or not known_koszul


def test_homology_report_checks_d_squared(monkeypatch):
    # slices of J that break d∘d = 0 are an internal error, not a verdict:
    # a doubled slice of J_1 = V makes the J_2 row x_0x_1 - x_1x_0 compose
    # to x_0x_1 - 2·x_1x_0, outside span(R)
    monkeypatch.setattr(koszul, "_j_slices", doubled_first_slice(koszul._j_slices, (1, 1)))
    with pytest.raises(RuntimeError, match="slices of J_2 and J_1 compose outside span"):
        homology_report(polynomial(2), 2)


def test_dvp_polynomial_reduces_to_eq1():
    # per-degree Euler sums of the duality identity are, up to a global
    # sign (-1)^m, the alternating binomial sums
    n = 3
    A = polynomial(n)
    h = A.hilbert_series(8).coeffs
    rhs = dvp_rhs(A, 8).coeffs
    for m in range(1, 9):
        euler = sum(h[k] * rhs[m - k] for k in range(m + 1))
        assert euler == 0
        assert euler == (-1) ** m * identity_eq1(n, m)


def test_dvp_rhs_antisym43():
    rhs = dvp_rhs(antisymmetrizer(4, 3), 8)
    assert rhs.coeffs == [1, -4, 0, 4, -1, 0, 0, 0, 0]
    assert dvp_check(antisymmetrizer(4, 3), 8).passed


def test_identity_eq1_small():
    assert identity_eq1(2, 2) == 0  # 1 - 4 + 3
    for m in range(1, 11):
        assert identity_eq1(1, m) == 0


def test_identity_eq1_sweep():
    for n in range(1, 7):
        for m in range(1, 11):
            assert identity_eq1(n, m) == 0


def test_admissible_identity_n2_reduces_to_binomials():
    # for N=2 the inverse series counts multisets: L(n,2,k) = C(n+k-1,k)
    res = admissible_identity_check(3, 2, 8)
    assert res.passed
    assert res.counts == [math.comb(3 + k - 1, k) for k in range(9)]


def test_admissible_identity_cubics():
    res = admissible_identity_check(3, 3, 8)
    assert res.passed
    assert res.counts[3] == 26
    assert admissible_identity_check(4, 3, 8).passed
    assert admissible_identity_check(4, 4, 8).passed


def test_admissible_identity_degree_rule():
    # n = qN: last nonzero alternating term at index 2q; otherwise 2q+1
    assert admissible_identity_check(4, 2, 6).ell_max == 4
    assert admissible_identity_check(3, 3, 6).ell_max == 2
    assert admissible_identity_check(4, 3, 6).ell_max == 3
    assert admissible_identity_check(5, 3, 6).ell_max == 3


def test_dvp_independent_of_certificate():
    # dvp_check runs without any certificate having been computed
    A = antisymmetrizer(4, 3)
    assert dvp_check(A, 4).passed


def test_truncated_polynomial_ring():
    # k[x]/(x^3): finite-dimensional, exact to any degree; the alternating
    # dual series 1 - t + t^3 - t^4 + t^6 - ... inverts 1 + t + t^2
    A = AlgebraPresentation(1, 3, [columns(1, {(0, 0, 0): Fraction(1)})], label="truncpoly")
    assert [A.dim_component(d) for d in range(6)] == [1, 1, 1, 0, 0, 0]
    assert [dual_component_dim(A, m) for m in range(6)] == [1] * 6
    assert koszul_certificate(A, 7).passed
    assert dvp_check(A, 7).passed
