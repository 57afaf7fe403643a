import math
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import strategies as st

from nkoszul.algebras import antisymmetrizer, perm_sign
from nkoszul.freealg import index_word, word_index, z_index, z_word
from nkoszul.homog import AlgebraPresentation
from nkoszul.koszul import differential, dual_koszul_subspace, jumps, nu
from nkoszul.linalg import Echelon, Matrix, Subspace, axpy, kernel, rank
from nkoszul.manin import is_polynomial_presentation
from nkoszul.scalar import div
from nkoszul.series import MultiSeries


def _det_inverse(Z, max_degree):
    """det(I - ZT)^{-1} up to total degree ``max_degree``, T = diag(t_j).

    The determinant is the Leibniz sum over permutations of products of the
    entries δ_ij - Z_ij t_j, expanded on plain ``{exponent tuple: scalar}``
    dicts and truncated at the bound, and :func:`invert_by_scan` inverts
    it.  Neither the series product and inverse of ``nkoszul.series`` nor
    the signed principal-minor sum that ``nmt_check`` inverts takes part.
    """
    n = len(Z)
    det = {}
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        terms = {(0,) * n: -1 if inversions % 2 else 1}
        for i, j in enumerate(perm):
            entry = {(0,) * n: 1} if i == j else {}
            if Z[i][j]:
                entry[tuple(int(k == j) for k in range(n))] = -Z[i][j]
            product_terms = {}
            for e, c in terms.items():
                for f, v in entry.items():
                    g = tuple(a + b for a, b in zip(e, f))
                    if sum(g) <= max_degree:
                        product_terms[g] = product_terms.get(g, 0) + c * v
            terms = product_terms
        for e, c in terms.items():
            det[e] = det.get(e, 0) + c
    return invert_by_scan(MultiSeries(n, max_degree, det))


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
def presentations(draw, max_n=3):
    """Random QQ presentations with n <= ``max_n`` generators, N in {2, 3}
    and one to three relations, sometimes followed by a dependent one."""
    n = draw(st.integers(1, max_n))
    N = draw(st.integers(2, 3))
    rels = [draw(elements(n, N)) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):  # a dependent relation
        c = draw(COEFFS)
        terms = {w: c * v for w, v in rels[0].items()}
        for w, v in rels[-1].items():
            terms[w] = terms.get(w, 0) + v
        rels.append(terms)
    return AlgebraPresentation(n, N, rels)


def letter_content(col, d, n):
    """The number of each letter in the word at column ``col`` of length d,
    spelled out on the word tuple."""
    word = index_word(col, d, n)
    return tuple(map(word.count, range(n)))


def orbit_size(content):
    """|S_n·c| = n! / Π_v (number of letters with count v)!: the number of
    letter contents that a permutation of the n letters makes of c."""
    size = math.factorial(len(content))
    for v in set(content):
        size //= math.factorial(content.count(v))
    return size


@st.composite
def homogeneous_elements(draw, n, d):
    """Elements of degree d on one to three words of one letter content:
    rearrangements of one drawn word, with nonzero COEFFS."""
    word = draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d))
    words = sorted(set(permutations(word)))
    chosen = draw(st.lists(st.sampled_from(words), min_size=1, max_size=3, unique=True))
    nonzero = st.one_of(st.integers(1, 3), st.integers(-3, -1), COEFFS.filter(bool))
    return columns(n, {w: draw(nonzero) for w in chosen})


@st.composite
def homogeneous_presentations(draw):
    """QQ presentations with n <= 3 generators, N in {2, 3} and one to three
    relations, each of one letter content."""
    n = draw(st.integers(1, 3))
    N = draw(st.integers(2, 3))
    count = draw(st.integers(1, 3))
    return AlgebraPresentation(n, N, [draw(homogeneous_elements(n, N)) for _ in range(count)])


@st.composite
def stable_presentations(draw):
    """QQ presentations with n <= 3 generators and N in {2, 3} whose
    relations are the S_n orbits of one or two content-homogeneous
    elements: every permutation of the letters applied to each."""
    n = draw(st.integers(1, 3))
    N = draw(st.integers(2, 3))
    rels = []
    for _ in range(draw(st.integers(1, 2))):
        r = draw(homogeneous_elements(n, N))
        for perm in permutations(range(n)):
            rels.append(columns(n, {
                tuple(perm[a] for a in index_word(col, N, n)): c for col, c in r.items()
            }))
    return AlgebraPresentation(n, N, rels)


def whole_matrix_ranks(A, m):
    """{ℓ: rank of the whole matrix of d_ℓ at total degree m}, ℓ >= 2: the
    oracle of the ranks that ``homology_report`` takes per content block."""
    return {ell: rank(differential(A, m, ell)) for ell, _ in jumps(A.N, m) if ell >= 2}


def mixed_first_row(real, key):
    """A stand-in for ``koszul.dual_koszul_subspace`` that returns, at
    degree ``key``, the same space with its first basis row replaced by the
    sum of the first two: a row of J that mixes two letter contents when
    those two rows have different ones."""

    def space(A, m):
        sub = real(A, m)
        if m != key:
            return sub
        (p, first), (_, second), *_ = sub.row_of.items()
        return Subspace(sub.ambient_dim, {**sub.row_of, p: axpy(dict(first), 1, second)})

    return space


def _overlaps(u, v):
    """Some proper suffix of the word tuple ``u`` is a prefix of ``v``."""
    return any(u[len(u) - k :] == v[:k] for k in range(1, len(u)))


@st.composite
def groebner_presentations(draw):
    """QQ presentations with n <= 3 generators and N in {2, 3} whose
    relations are a Gröbner basis for the lex order, by one of two
    constructions that need no Gröbner computation to see it:

    - monomial relations c·w, whose words may overlap: I_d is spanned by
      the words that contain a relation word, so those are its pivots;
    - relations ℓ + Σ c_w w with every w after ℓ in lex order, whose
      leading words ℓ are distinct and do not overlap one another or
      themselves: with no ambiguity, Bergman's diamond lemma holds
      vacuously.
    """
    n = draw(st.integers(1, 3))
    N = draw(st.integers(2, 3))
    words = list(product(range(n), repeat=N))
    nonzero = COEFFS.filter(bool)
    count = draw(st.integers(1, 3))
    # over one letter every word overlaps itself
    if n == 1 or draw(st.booleans()):
        rels = [{draw(st.sampled_from(words)): draw(nonzero)} for _ in range(count)]
        return AlgebraPresentation(n, N, [columns(n, r) for r in rels])
    leads = []
    candidates = [w for w in words if not _overlaps(w, w)]
    for lead in draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=count)):
        if lead not in leads and not any(_overlaps(u, lead) or _overlaps(lead, u) for u in leads):
            leads.append(lead)
    rels = []
    for lead in leads:
        # a lead is not the last word, which overlaps itself
        later = st.sampled_from([w for w in words if w > lead])
        tail = draw(st.dictionaries(later, nonzero, min_size=1, max_size=2))
        rels.append(columns(n, {lead: draw(nonzero), **tail}))
    return AlgebraPresentation(n, N, rels)


def full_copy_echelons(A, top):
    """(echelon of I_d, normal columns of degree d) for d = 0..``top``, by
    the recursion I_d = V ⊗ I_{d-1} + R ⊗ V^{⊗(d-N)} with every shifted row
    of I_{d-1} copied into the degree-d echelon, n copies per row, and the
    rows R ⊗ w added for the normal columns w of degree d - N.  The normal
    columns are the complement of the pivots.  This is the slow path that
    the rewrite echelons of ``homog`` replace: they eliminate no row R ⊗ w
    and build a row only when a reduction uses it."""
    n, N = A.n, A.N
    out = []
    for d in range(top + 1):
        ech = Echelon(n**d)
        if d == N:
            ech.extend(A.relations)
        elif d > N:
            stride = n ** (d - 1)
            for p, row in out[d - 1][0].row_of.items():
                for a in range(n):
                    off = a * stride
                    ech.row_of[off + p] = {off + idx: c for idx, c in row.items()}
            tail = n ** (d - N)
            for r in A.relations:
                for widx in out[d - N][1]:
                    ech.add({ridx * tail + widx: c for ridx, c in r.items()})
        out.append((ech, tuple(i for i in range(n**d) if i not in ech.pivots)))
    return out


def perturbed_antisym43(index):
    """antisym(4,3) with the coefficient at the leading word of relation
    ``index`` doubled; its completion adds rules longer than N (of lengths
    4 for every index, 5 for index 1 and 6 for index 2)."""
    rels = [dict(r) for r in antisymmetrizer(4, 3).relations]
    rels[index][min(rels[index])] *= 2
    return AlgebraPresentation(4, 3, rels)


def rows_by_pair(A, m, ell, mat):
    """The rows of ``mat``, the matrix of d_ℓ at total degree m, keyed by
    e * n^ν(ℓ) + b for their pair (normal word e, row of J_ν(ℓ) with pivot
    b): the column of the word e·b, which e ⊗ (row b) has on the codomain
    of d_{ℓ+1}."""
    d = nu(A.N, ell)
    pairs = product(A.normal_basis(m - d), dual_koszul_subspace(A, d).row_of)
    return {e * A.n**d + b: row for (e, b), row in zip(pairs, mat.rows, strict=True)}


def composition_is_zero(d_hi, lo_rows):
    """d_{ℓ-1} ∘ d_ℓ = 0: each row of the matrix ``d_hi`` of d_ℓ, pushed
    through ``lo_rows``, the rows of d_{ℓ-1} looked up by the columns of
    d_ℓ (see :func:`rows_by_pair`), sums to 0."""
    for row in d_hi.rows:
        acc = {}
        for mid, c in row.items():
            axpy(acc, c, lo_rows[mid])
        if acc:
            return False
    return True


class MultiplicationRows(dict):
    """Row index -> row of d_1: A_{m-1} ⊗ V → A_m, the rows of
    ``differential(A, m, 1)`` built one at a time.

    J_1 = V has the unit rows x_0, ..., x_{n-1}, so row e_pos·n + a is
    the normal form of e·x_a, e the normal word at e_pos, on the columns of
    the words of degree m.  A row is built on first lookup and kept.
    """

    def __init__(self, A, m):
        super().__init__()
        self.A = A
        self.m = m
        self.words = A.normal_basis(m - 1)

    def __missing__(self, i):
        e, a = divmod(i, self.A.n)
        row = self[i] = self.A.multiply(self.m, 1, {self.words[e]: 1}, {a: 1})
        return row


def d_squared_failures(A, top):
    """The pairs (m, ℓ), 0 < m ≤ ``top`` and ℓ ≥ 2, at which the assembled
    matrices of d_{ℓ-1} ∘ d_ℓ, d_1 included, do not compose to 0.

    ``koszul`` checks d∘d = 0 once per ℓ, on the J spaces alone.  This
    sweep checks it at every total degree on the matrices themselves, and
    each composed row sums NF(NF(e·y)·y′) over the slices of the J spaces,
    so it also checks that the normal forms of ``homog`` are compatible
    with the product, NF(NF(x)·y) = NF(x·y), which the per-ℓ check takes
    from the ``homog`` lemma.
    """
    failures = []
    for m in range(1, top + 1):
        lower = None
        for ell, _ in jumps(A.N, m):
            if ell == 0:
                continue
            mat = differential(A, m, ell)
            if lower is not None and not composition_is_zero(mat, lower):
                failures.append((m, ell))
            lower = rows_by_pair(A, m, ell, mat)
    return failures


def doubled_first_slice(real, key):
    """A stand-in for ``koszul._j_slices`` that returns, at ``key`` = (m, s),
    a copy of the slices with the first slice of the first J_m row
    doubled: a fault in J that the d∘d check must report."""

    def slices(A, m, s):
        data = real(A, m, s)
        if (m, s) == key:
            b, first = next(iter(data.items()))
            (g, y), *_ = first.items()
            data = {**data, b: {**first, g: {p: 2 * c for p, c in y.items()}}}
        return data

    return slices


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


def series_product_by_concat(A, p, q):
    """The coefficients of the product of two series whose coefficient at
    t^d is a normal-form dict of A_d.  Each is the concatenation of every
    pair of terms, spelled out on word tuples by :func:`_concat`, reduced
    once with ``A.reduce``; independent of ``A.multiply``."""
    out = []
    for d in range(min(len(p), len(q))):
        vec = {}
        for j in range(d + 1):
            for col, c in _concat(A.n, p[d - j], d - j, q[j], j).items():
                vec[col] = vec.get(col, 0) + c
        out.append(A.reduce(d, vec))
    return out


def dual(A):
    """The dual N-homogeneous algebra on V* with relations R^⊥, the kernel
    of I_N: dim J_m = dim A^!_m, so its quotient dimensions are the oracle
    of the J spaces, built by an ideal recursion and not by intersections."""
    return AlgebraPresentation(A.n, A.N, kernel(A.ideal_component(A.N)).row_of.values())


def rref(matrix):
    """The row space of a ``linalg.Matrix`` as a Subspace, its reduced row
    echelon basis, built by a reduced-mode Echelon."""
    ech = Echelon(matrix.ncols, reduced=True)
    ech.extend(matrix.rows)
    return ech.to_subspace()


def in_span(sub, vec):
    """v ∈ sub iff the rank of sub's rows plus v is dim sub; independent of
    the reduced echelon form that ``Subspace.coordinates`` reads."""
    return rank(Matrix(sub.ambient_dim, [*sub.row_of.values(), vec])) == sub.dim


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
    ech.extend(u.row_of.values())
    ech.extend(w.row_of.values())
    return ech.to_subspace()


def _counit(B, k, c):
    """Evaluate the normal form ``c`` of an element of end(A)_k, such as a
    character, by z_i^j ↦ δ_ij; independent of representative since every
    relation of end(A) pairs R^⊥ against R."""
    n = B.base.n
    diagonal = {z_index(i, i, n) for i in range(n)}
    total = 0
    for zw, coeff in c.items():
        if diagonal.issuperset(index_word(zw, k, n * n)):
            total = total + coeff
    return total


def _bos_series(B, max_degree):
    """Bos: coefficient of t^k is Σ_{|m|=k} G(m), where G(m) is the
    x^m-coefficient of the ordered product X^m = X_1^{m_1}···X_n^{m_n}
    inside end(A) ⊗ A, with X_i = Σ_j z_i^j ⊗ x_j, as the list of its
    coefficients.

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
        coeffs.append(acc)
    return coeffs


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
    return coeffs


@pytest.fixture(scope="session")
def transposed_ferm_series():
    """The fermionic series under the determinant ordering that the
    character series rules out."""
    return _transposed_ferm_series


@pytest.fixture
def normal_basis_calls(monkeypatch):
    """The degrees of every ``AlgebraPresentation.normal_basis`` call made
    while the test runs, in order."""
    calls = []
    listed = AlgebraPresentation.normal_basis

    def counted(self, d):
        calls.append(d)
        return listed(self, d)

    monkeypatch.setattr(AlgebraPresentation, "normal_basis", counted)
    return calls


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
