from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import strategies as st

from nkoszul.algebras import perm_sign
from nkoszul.freealg import index_word, word_index, z_index, z_word
from nkoszul.homog import AlgebraClass, AlgebraPresentation
from nkoszul.linalg import Echelon, Matrix, axpy, rank
from nkoszul.manin import is_polynomial_presentation
from nkoszul.scalar import div
from nkoszul.series import MultiSeries, UniSeries


def _det_inverse(Z, max_degree):
    """det(I - ZT)^{-1} up to total degree ``max_degree``, T = diag(t_j).

    The determinant is the Leibniz sum over permutations of products of
    series entries δ_ij - Z_ij t_j, independent of the signed
    principal-minor sum that ``nmt_check`` inverts.
    """
    n = len(Z)

    def entry(i, j):
        terms = {(0,) * n: Fraction(1)} if i == j else {}
        if Z[i][j]:
            terms[tuple(int(k == j) for k in range(n))] = -Z[i][j]
        return MultiSeries(n, max_degree, terms)

    det = {}
    for perm in permutations(range(n)):
        prod = entry(0, perm[0])
        for i in range(1, n):
            prod = prod * entry(i, perm[i])
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        sign = -1 if inversions % 2 else 1
        for e, c in prod.terms.items():
            det[e] = det.get(e, 0) + sign * c
    return MultiSeries(n, max_degree, det).invert()


@pytest.fixture(scope="session")
def det_inverse():
    """The det(I - ZT)^{-1} oracle of the original master identity."""
    return _det_inverse


#: Rational scalars of both kinds QQ holds: plain ints and non-integral
#: Fractions p/q with q in {2, 3} and |p| <= 3.
COEFFS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(
        sorted({Fraction(p, q) for p in range(-3, 4) for q in (2, 3)} - set(range(-3, 4)))
    ),
)


def assert_exact(values):
    """Every value is an int or a Fraction: no float ever entered."""
    assert [v for v in values if type(v) not in (int, Fraction)] == []


def exponents_of_total(nvars, total):
    """All exponent vectors with the given total degree, in descending
    lexicographic order."""
    if nvars == 0:
        if total == 0:
            yield ()
        return
    if nvars == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in exponents_of_total(nvars - 1, total - head):
            yield (head,) + rest


def invert_by_scan(f):
    """The inverse of the MultiSeries ``f``, solved one exponent vector at
    a time in the order of :func:`exponents_of_total`, each coefficient by
    a scan of every term of ``f`` that divides it; independent of the
    homogeneous parts and the term-dict product ``MultiSeries.invert``
    works with."""
    zero_exp = (0,) * f.nvars
    u = div(1, f.terms[zero_exp])
    out = {zero_exp: u}
    rest = [(e, c) for e, c in f.terms.items() if e != zero_exp]
    for total in range(1, f.trunc + 1):
        for e in exponents_of_total(f.nvars, total):
            acc = 0
            for g, c in rest:
                if all(gi <= ei for gi, ei in zip(g, e)):
                    acc = acc + c * out.get(tuple(ei - gi for ei, gi in zip(e, g)), 0)
            if acc:
                out[e] = -u * acc
    return MultiSeries(f.nvars, f.trunc, out)


def first_mismatch_by_walk(lhs, rhs, max_degree):
    """(exponents, lhs value, rhs value) at the first exponent vector where
    the coefficients differ, walking the total degrees up to
    ``max_degree`` in the order of :func:`exponents_of_total`; None when
    there is none."""
    for total in range(max_degree + 1):
        for e in exponents_of_total(lhs.nvars, total):
            if lhs.coefficient(e) != rhs.coefficient(e):
                return e, lhs.coefficient(e), rhs.coefficient(e)
    return None


@st.composite
def multiseries(draw, nvars, trunc, constant=None):
    """A MultiSeries in ``nvars`` variables truncated at ``trunc``, with
    COEFFS coefficients on up to eight exponent vectors; its constant term
    is drawn from ``constant`` when that is given."""
    exps = draw(st.lists(st.tuples(*[st.integers(0, trunc)] * nvars), max_size=8))
    terms = {e: draw(COEFFS) for e in exps if sum(e) <= trunc}
    if constant is not None:
        terms[(0,) * nvars] = draw(constant)
    return MultiSeries(nvars, trunc, terms)


def columns(n, terms):
    """The ``{column: scalar}`` dict, the form of a relation or any other
    homogeneous element, of the element given as ``{word tuple: scalar}``."""
    return {word_index(w, n): c for w, c in terms.items()}


def elements(n, d):
    """Homogeneous elements of degree d: up to four words with COEFFS."""
    words = list(product(range(n), repeat=d))
    return st.dictionaries(st.sampled_from(words), COEFFS, max_size=4).map(
        lambda terms: columns(n, terms)
    )


@st.composite
def presentations(draw):
    """Random QQ presentations with n <= 3 generators, N in {2, 3} and one
    to three relations, sometimes followed by a dependent one."""
    n = draw(st.integers(1, 3))
    N = draw(st.integers(2, 3))
    rels = [draw(elements(n, N)) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):  # a dependent relation
        c = draw(COEFFS)
        terms = {w: c * v for w, v in rels[0].items()}
        for w, v in rels[-1].items():
            terms[w] = terms.get(w, 0) + v
        rels.append(terms)
    return AlgebraPresentation(n, N, rels)


def _concat(n, a, ka, b, kb):
    """Bilinear extension of word concatenation (the product of T(V)) to the
    grade-``ka`` column dict ``a`` and the grade-``kb`` column dict ``b``,
    spelled out on word tuples."""
    terms = {}
    for u, cu in a.items():
        for v, cv in b.items():
            # u then v determines u and v
            terms[index_word(u, ka, n) + index_word(v, kb, n)] = cu * cv
    return columns(n, terms)


def rref(matrix):
    """The row space of a ``linalg.Matrix`` as a Subspace, its reduced row
    echelon basis, built by a reduced-mode Echelon."""
    ech = Echelon(matrix.ncols, reduced=True)
    ech.extend(matrix.rows)
    return ech.to_subspace()


def in_span(sub, vec):
    """v ∈ sub iff the rank of sub's rows plus v is dim sub; independent of
    the reduced echelon form that ``Subspace.coordinates`` reads."""
    return rank(Matrix(sub.ambient_dim, [*sub.rows, vec])) == sub.dim


def _transform_tensor(Z, vec, k):
    """Apply Z factor-wise to the grade-k column dict ``vec``:
    x_w ↦ Σ_{w'} (Π_s Z[w_s][w'_s]) x_{w'}."""
    n = len(Z)
    out = {}
    for w, c in vec.items():
        partial = {0: c}
        for letter in index_word(w, k, n):
            row = Z[letter]
            partial = {
                prefix * n + j: coeff * row[j]
                for prefix, coeff in partial.items()
                for j in range(n)
                if row[j]
            }
        axpy(out, 1, partial)
    return out


def specializable_oracle(A, Z):
    """span(R) is invariant under Z^{⊗N}: Z^{⊗N} r is spelled out on words
    and tested against the RREF basis of I_N, the path ``check_specializable``
    took before it reduced products in A_N."""
    span = A.ideal_component(A.N)
    try:
        for r in A.relations:
            span.coordinates(_transform_tensor(Z, r, A.N))
    except ValueError:
        return False
    return True


def _subspace_sum(u, w):
    if u.ambient_dim != w.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    ech = Echelon(u.ambient_dim)
    ech.extend(u.rows)
    ech.extend(w.rows)
    return ech.to_subspace()


def _counit(B, c):
    """Evaluate a class of end(A), such as a character, by z_i^j ↦ δ_ij;
    independent of representative since every relation of end(A) pairs R^⊥
    against R."""
    n = B.base.n
    diagonal = {z_index(i, i, n) for i in range(n)}
    total = 0
    for zw, coeff in c.coords.items():
        if diagonal.issuperset(index_word(zw, c.degree, n * n)):
            total = total + coeff
    return total


def _bos_series(B, max_degree):
    """Bos: coefficient of t^k is Σ_{|m|=k} G(m), where G(m) is the
    x^m-coefficient of the ordered product X^m = X_1^{m_1}···X_n^{m_n}
    inside end(A) ⊗ A, with X_i = Σ_j z_i^j ⊗ x_j.

    X^m = Σ_{jw} z_{w(m)}^{jw} ⊗ x_{jw}, where w(m) is the non-decreasing
    word with m_i letters i.  A normal word e of x_{jw} = Σ_e c_e x_e
    stands for the monomial x^m with w(m) = sorted(e), so Bos_k =
    Σ_{jw} Σ_e c_e z_{sorted(e)}^{jw}.  χ(A_k) is the same sum over
    z_e^{jw}; the normal words of the polynomial algebra are
    non-increasing, so Bos = χ(A) holds through the relations of end(A),
    not term by term.
    """
    if not is_polynomial_presentation(B.base):
        raise ValueError("bosonic sum is defined for the polynomial algebra")
    A, E = B.base, B.env
    n = A.n
    coeffs = []
    for k in range(max_degree + 1):
        acc = {}
        for jw in range(n**k):
            for e, ce in A.class_of_word((k, jw)).items():
                row = word_index(sorted(index_word(e, k, n)), n)
                axpy(acc, ce, E.class_of_word((k, z_word(row, jw, k, n))))
        coeffs.append(AlgebraClass(E, k, acc))
    return UniSeries(E.unit(), max_degree, coeffs)


def _transposed_ferm_series(B, max_degree):
    """Ferm under the transposed determinant ordering: row-ascending with
    permuted column indices, det(Z_J) = Σ_σ sgn(σ) z_{J}^{σ(J)}.  For n >= 2
    it differs from the character series, which pins the row-permuted
    ordering of ``manin.ferm_series``."""
    E = B.env
    n = B.base.n
    coeffs = []
    for ell in range(max_degree + 1):
        vec = {}
        for subset in combinations(range(n), ell):
            rows = word_index(subset, n)
            for perm in permutations(range(ell)):
                cols = word_index((subset[p] for p in perm), n)
                # distinct subsets and permutations give distinct words
                vec[z_word(rows, cols, ell, n)] = (-1) ** ell * perm_sign(perm)
        coeffs.append(E.reduce(ell, vec))
    return UniSeries(E.unit(), max_degree, coeffs)


@pytest.fixture(scope="session")
def transposed_ferm_series():
    """The fermionic series under the determinant ordering that the
    character series rules out."""
    return _transposed_ferm_series


@pytest.fixture(scope="session")
def concat():
    """Concatenation of homogeneous elements, the oracle of the quotient
    product."""
    return _concat


@pytest.fixture(scope="session")
def subspace_sum():
    """U + W, the oracle the tests check intersect against."""
    return _subspace_sum


@pytest.fixture(scope="session")
def counit():
    """The counit of end(A), which maps characters to dimensions."""
    return _counit


@pytest.fixture(scope="session")
def bos_series():
    """The bosonic series of the polynomial algebra, equal to its
    character series."""
    return _bos_series
