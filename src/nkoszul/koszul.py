"""The generalized Koszul complex and its degree-bounded exactness checks.

The complex of an N-homogeneous algebra A has components A ⊗ J_{ν(ℓ)},
where ν is the jump map and J_m realizes the dual coalgebra component
A^{!*}_m concretely inside V^{⊗m}:

    J_m = V^{⊗m}                       for m < N,
    J_m = ∩_{i+N+j=m} V^{⊗i}⊗R⊗V^{⊗j}  for m ≥ N.

J_m is the annihilator of the degree-m ideal component of R^⊥, so
dim J_m = dim A^!_m; that identity is what makes dual dimensions computable
without echelonizing the (huge) ideal of R^⊥.  J is built by the recursion
J_m = (V⊗J_{m-1}) ∩ (J_{m-1}⊗V) seeded at J_N = span(R).  Both operands are
the shifted rows of the RREF basis of J_{m-1}, which are again in RREF with
no echelon (:func:`linalg.tensor_shifts`), and :func:`linalg.intersect`
reduces each row of the first modulo the second in one pass, reading the
canonical RREF basis of J_m off the combinations that vanish.

A certificate at bound M is degree-bounded evidence of Koszulity, never a
proof: it checks homology vanishing in homological degrees ℓ ≥ 1 for every
total degree 0 < m ≤ M.  Surjectivity of d_1 onto A_m, which the
Euler-characteristic argument behind the Hilbert-series duality also uses,
holds by construction of the normal words (see :func:`homology_report`)
and is not checked; d_1 is never assembled there.

That the ranks are those of a complex, d∘d = 0, is checked once per
homological degree ℓ ≥ 2, on the J spaces alone, when the slices of
J_{ν(ℓ)} are first built (see :func:`_check_d_squared`).  The run does not
check, degree by degree, that the normal forms of ``homog`` are compatible
with the product, NF(NF(x)·y) = NF(x·y); the ``homog`` lemma proves it,
and the tests check it by sweeping d_{ℓ-1} ∘ d_ℓ over the assembled
matrices and against the full-copy recursion of the ideal.

The ranks of the d_ℓ are taken one letter content per S_n orbit when the
relations allow it: rank d_ℓ = Σ_c |S_n·c| · rank(block c), over one
occurring content c per orbit, since the complex is
functorial in (V, R) (R. Berger, "Koszulity for nonquadratic algebras",
J. Algebra 239 (2001) 705-734).  The relations must be content-homogeneous
and span R stable under S_n: each relation with its letters permuted by
(0 1) and by (0 1 … n-1) must reduce to 0 in A_N (see :func:`_symmetric`);
every row of J_m must then have one content, or RuntimeError is raised.
Otherwise each d_ℓ is ranked whole (see :func:`homology_report`).
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import product

from . import linalg, series
from .algebras import admissible_counts
from .freealg import index_word, word_index
from .homog import AlgebraPresentation


def nu(N: int, ell: int) -> int:
    """Jump map: ν(2i) = N·i, ν(2i+1) = N·i + 1."""
    if ell < 0:
        raise ValueError("homological degree must be >= 0")
    i, r = divmod(ell, 2)
    return N * i + r


def jumps(N: int, bound: int):
    """Yield (ℓ, ν(ℓ)) for ℓ = 0, 1, ... while ν(ℓ) <= bound."""
    ell = 0
    while (d := nu(N, ell)) <= bound:
        yield ell, d
        ell += 1


def dual_koszul_subspace(A: AlgebraPresentation, m: int) -> linalg.Subspace:
    """The space J_m ⊆ V^{⊗m} (concrete model of A^{!*}_m)."""
    if m < 0:
        raise ValueError("degree must be >= 0")
    cache = A.cache.j_spaces
    space = cache.get(m)
    if space is not None:
        return space
    n, N = A.n, A.N
    if m < N:
        space = linalg.full_space(n**m)
    elif m == N:
        space = A.ideal_component(N)
    else:
        # J_m = (V ⊗ J_{m-1}) ∩ (J_{m-1} ⊗ V), two RREF spaces of shifted rows
        space = linalg.intersect(*linalg.tensor_shifts(dual_koszul_subspace(A, m - 1), n))
    cache[m] = space
    return space


def dual_component_dim(A: AlgebraPresentation, m: int) -> int:
    """dim A^!_m, computed as dim J_m (annihilator duality)."""
    if m < A.N:
        return A.n**m
    return dual_koszul_subspace(A, m).dim


def _j_slices(A: AlgebraPresentation, m: int, s: int):
    """Coordinates of J_m inside V^{⊗s} ⊗ J_{m-s}, keyed by pivots on
    both levels.

    For each basis row of J_m, the slice at every length-s prefix must lie
    in J_{m-s}; a failure signals an implementation bug, not bad input.
    Returns {pivot b of J_m: {pivot g of J_{m-s}: {prefix column:
    coefficient}}}: the row of b is Σ_g y_g ⊗ (row of g), y_g of degree s.
    For m ≥ N the slices are also checked to compose to zero with those of
    J_{m-s} (see :func:`_check_d_squared`), once per key: the keys
    :func:`differential` uses are one per homological degree.
    """
    cache = A.cache.j_slices
    key = (m, s)
    data = cache.get(key)
    if data is not None:
        return data
    space = dual_koszul_subspace(A, m)
    lower = dual_koszul_subspace(A, m - s)
    tail = A.n ** (m - s)
    data = {}
    for b, row in space.row_of.items():
        groups = {}
        for idx, c in row.items():
            p, t = divmod(idx, tail)
            groups.setdefault(p, {})[t] = c
        slices = {}
        for p in sorted(groups):
            try:
                coords = lower.coordinates(groups[p])
            except ValueError as exc:
                raise RuntimeError(
                    f"J_{m} slice not contained in V^{{⊗{s}}}⊗J_{m - s}; "
                    "this is an internal invariant violation"
                ) from exc
            for g, lam in coords.items():
                slices.setdefault(g, {})[p] = lam
        data[b] = slices
    if m >= A.N:
        _check_d_squared(A, m, s, data)
    cache[key] = data
    return data


def _check_d_squared(A: AlgebraPresentation, m: int, s: int, slices) -> None:
    """Raise RuntimeError unless d_{ℓ-1} ∘ d_ℓ = 0, where ν(ℓ) = m ≥ N,
    s = ν(ℓ) - ν(ℓ-1) and ``slices`` are those of J_m (see :func:`_j_slices`).

    Since ν(ℓ) - ν(ℓ-2) = N, the slices y'_{g,h} of the rows g of J_{m-s}
    have degree N - s, each row named by its pivot.  For a row
    b = Σ_g y_g ⊗ g of J_m and a normal word e, NF is the quotient map by a
    two-sided ideal, so

        d_{ℓ-1} d_ℓ(e ⊗ b) = Σ_h NF(e·c_h) ⊗ h,  c_h = Σ_g y_g ⊗ y'_{g,h},

    with c_h in V^{⊗N}.  Hence d∘d = 0 at every total degree exactly when
    every c_h lies in I_N = span R (e = 1 gives "only if"): one check per
    ℓ on the J spaces, with no product in A.
    """
    N = A.N
    lower = _j_slices(A, m - s, N - s)
    shift = A.n ** (N - s)
    for row in slices.values():
        composed = {}
        for g, y in row.items():
            for h, z in lower[g].items():
                c = composed.setdefault(h, {})
                for p, a in y.items():
                    linalg.axpy(c, a, {p * shift + q: b for q, b in z.items()})
        if any(A.reduce(N, c) for c in composed.values()):
            raise RuntimeError(
                f"d∘d != 0: the slices of J_{m} and J_{m - s} compose outside "
                "span(R); internal error"
            )


def _letter_content(col, d, n):
    """The letter content of the word at column ``col`` of length d: its d
    letters in increasing order, a multiset of size d whatever n is."""
    letters = []
    for _ in range(d):
        col, a = divmod(col, n)
        letters.append(a)
    return tuple(sorted(letters))


def _content(vec, d, n):
    """The letter content shared by every column of ``vec``, of length d,
    or None when they do not share one."""
    contents = {_letter_content(col, d, n) for col in vec}
    return contents.pop() if len(contents) == 1 else None


def _symmetric(A: AlgebraPresentation) -> bool:
    """Whether every relation is content-homogeneous and span R is stable
    under every permutation of the letters, that is under the generators
    (0 1) and (0 1 … n-1) of S_n.  A permutation maps each word to one
    word, so each relation's image is its columns permuted, reduced once in
    A_N.  Cached."""
    if A.cache.symmetric is None:
        n, N = A.n, A.N
        perms = [(1, 0, *range(2, n)), (*range(1, n), 0)] if n > 1 else []
        images = (
            {word_index([p[a] for a in index_word(w, N, n)], n): c for w, c in r.items()}
            for p in perms
            for r in A.relations
        )
        A.cache.symmetric = all(_content(r, N, n) is not None for r in A.relations) and not any(
            A.reduce(N, image) for image in images
        )
    return A.cache.symmetric


def _word_contents(A: AlgebraPresentation, d: int):
    """{letter content: the normal columns of degree d of that content}."""
    groups = A.cache.word_contents.get(d)
    if groups is None:
        groups = A.cache.word_contents[d] = {}
        for col in A.normal_basis(d):
            groups.setdefault(_letter_content(col, d, A.n), []).append(col)
    return groups


def _j_contents(A: AlgebraPresentation, m: int):
    """{letter content: the pivots of the rows of J_m of that content};
    raises RuntimeError if a row has no one content."""
    groups = A.cache.j_contents.get(m)
    if groups is None:
        groups = {}
        for b, row in dual_koszul_subspace(A, m).row_of.items():
            content = _content(row, m, A.n)
            if content is None:
                raise RuntimeError(
                    f"a row of J_{m} mixes letter contents, though every relation "
                    "is content-homogeneous; internal error"
                )
            groups.setdefault(content, []).append(b)
        A.cache.j_contents[m] = groups
    return groups


def _blocks(A: AlgebraPresentation, m: int, ell: int):
    """One (count, pairs) per S_n orbit of the letter contents of total m
    that occur in d_ℓ as cw + cj, of a normal word and a row of J_ν(ℓ),
    each orbit named by its multiplicities in non-increasing order: count
    is the number of them in the orbit, and pairs are the pairs (e, b)
    whose contents add up to its representative, in which letter 0 is the
    most frequent letter, letter 1 the next, and so on (none if that one
    does not occur, as it may when span R is not S_n-stable)."""
    hi = nu(A.N, ell)
    words = _word_contents(A, m - hi)
    parts = {}
    for cj, rows in _j_contents(A, hi).items():
        for cw, cols in words.items():
            parts.setdefault(tuple(sorted(cw + cj)), []).append((cols, rows))
    orbits = Counter(tuple(sorted(map(c.count, set(c)), reverse=True)) for c in parts)
    reps = {key: tuple(a for a, k in enumerate(key) for _ in range(k)) for key in orbits}
    return [
        (count, [(e, b) for cols, rows in parts.get(reps[key], ()) for e in cols for b in rows])
        for key, count in orbits.items()
    ]


def differential(A: AlgebraPresentation, m: int, ell: int, pairs=None) -> linalg.Matrix:
    """Matrix of d_ℓ: A_k ⊗ J_{ν(ℓ)} → A_{k+s} ⊗ J_{ν(ℓ-1)} at total degree m.

    Rows are images of the domain basis pairs (normal word e, row of
    J_{ν(ℓ)} with pivot b), by e and then b; the codomain pair (normal word
    f, row of J_{ν(ℓ-1)} with pivot g) is column f * n^{ν(ℓ-1)} + g, the
    column of the word f·g in V^{⊗m}.  The map splits the first
    s = ν(ℓ)-ν(ℓ-1) tensor factors off the J part and multiplies them into
    the algebra factor: with the J row b = Σ_g y_g ⊗ (row g of J_{ν(ℓ-1)}),
    e ⊗ b maps to Σ_g e·y_g ⊗ (row g).
    With ``pairs``, a list of pairs (e, b), the rows are only theirs, in
    that order (one block of :func:`_blocks`, see :func:`homology_report`);
    None means every row.
    """
    if ell < 1:
        raise ValueError("differential needs homological degree >= 1")
    N = A.N
    hi = nu(N, ell)
    lo = nu(N, ell - 1)
    s = hi - lo
    k = m - hi
    if k < 0:
        raise ValueError(f"total degree {m} is below ν({ell}) = {hi}")
    shift = A.n**lo
    slices = _j_slices(A, hi, s)
    if pairs is None:
        pairs = product(A.normal_basis(k), slices)
    rows = [
        {
            f * shift + g: v
            for g, y in slices[b].items()
            for f, v in A.multiply(k + s, s, {e: 1}, y).items()
        }
        for e, b in pairs
    ]
    return linalg.Matrix(A.n**m, rows)


class DegreeReport:
    """Homology data of the total-degree-m subcomplex."""

    __slots__ = ("m", "component_dims", "ranks", "homology")

    def __init__(self, m, component_dims, ranks, homology):
        self.m = m
        self.component_dims = component_dims  # {ell: dim A_k ⊗ J_ν(ell)}
        self.ranks = ranks  # {ell: rank d_ell}
        self.homology = homology  # {ell: dim H_ell}, ell >= 1


def homology_report(A: AlgebraPresentation, m: int) -> DegreeReport:
    """Ranks and homology dimensions of the subcomplex at total degree m.

    d_1: A_{m-1} ⊗ V → A_m is not assembled: its rank is dim A_m.
    Lemma: every normal word f of degree m is e·x_a with e a normal word of
    degree m-1.  Proof: write f = q·n + a; if q were a pivot of I_{m-1},
    its row times x_a, an element of I_{m-1} ⊗ V ⊆ I_m, would lead at f,
    so f would be a pivot of I_m.  Hence the row of e ⊗ x_a is the unit
    vector at column f, and d_1 has dim A_m distinct unit rows.  (``homog``
    builds the normal words of degree m under those of degree m-1, so the
    prefix is normal by construction.)

    d∘d = 0 is not checked here, degree by degree: it holds at every total
    degree once the slices of the J spaces compose into span(R), which
    :func:`differential` checks, through :func:`_j_slices`, the first time
    it builds d_ℓ, and raises RuntimeError otherwise.

    Lemma (orbit ranks): if every relation is content-homogeneous and span R
    is stable under S_n, then rank d_ℓ = Σ_c |S_n·c| · rank(block c), over
    one occurring content c per orbit, where a content is the multiset of
    its letters and block c holds the rows (e, b) whose letter contents add
    up to c.  Proof: the normal
    forms and the RREF bases of J_m then keep letter content, so each row
    of d_ℓ has one content and rows of different contents share no column;
    and a permutation π of the letters induces automorphisms of A and of
    every J_m that commute with d (the complex is functorial in (V, R):
    R. Berger, "Koszulity for nonquadratic algebras", J. Algebra 239 (2001)
    705-734), so block π(c) has the rank of block c and is empty only when
    block c is.  Hence the occurring contents form whole orbits, |S_n·c|
    is the number of them with c's multiplicities, and any one of them may
    stand for its orbit (see :func:`_blocks`).  Stability is
    decided by :func:`_symmetric`; without it d_ℓ is ranked whole, as one
    block counted once.  On the orbit path each row of J_m must have one
    content, or RuntimeError is raised (see :func:`_j_contents`).
    """
    if m < 1:
        raise ValueError("total degree must be >= 1")
    dims = {
        l: A.dim_component(m - d) * dual_koszul_subspace(A, d).dim
        for l, d in jumps(A.N, m)
    }
    ells = list(dims)
    ranks = {1: dims[0]}
    for l in ells[2:]:
        blocks = (_blocks(A, m, l) if _symmetric(A) else [(1, None)]) if dims[l] else []
        ranks[l] = sum(
            count * linalg.rank(differential(A, m, l, pairs)) for count, pairs in blocks
        )
    homology = {}
    for l in ells[1:]:
        incoming = ranks.get(l + 1, 0)
        homology[l] = dims[l] - ranks[l] - incoming
    return DegreeReport(m, dims, ranks, homology)


class CertificateResult:
    __slots__ = ("passed", "first_failure", "reports")

    def __init__(self, passed, first_failure, reports):
        self.passed = passed
        self.first_failure = first_failure  # (m, ell) or None
        self.reports = reports


def koszul_certificate(A: AlgebraPresentation, max_degree: int) -> CertificateResult:
    """Check exactness of every subcomplex with total degree 0 < m ≤ M.

    Passing is degree-bounded evidence for Koszulity up to degree M only.
    Homological degrees ℓ ≥ 1 carry the Koszulity condition itself;
    surjectivity of d_1 (exactness at ℓ = 0), which the Euler-Poincaré
    derivation of the Hilbert-series identity additionally uses, holds by
    construction (see :func:`homology_report`).
    """
    if max_degree < 1:
        raise ValueError("certificate bound must be >= 1")
    reports = []
    first_failure = None
    for m in range(1, max_degree + 1):
        rep = homology_report(A, m)
        reports.append(rep)
        if first_failure is None:
            for l in sorted(rep.homology):
                if rep.homology[l] != 0:
                    first_failure = (m, l)
                    break
    return CertificateResult(first_failure is None, first_failure, reports)


def dvp_rhs(A: AlgebraPresentation, max_degree: int) -> series.UniSeries:
    """The alternating dual-dimension series Σ (-1)^ℓ dim A^!_{ν(ℓ)} t^{ν(ℓ)}."""
    coeffs = [0] * (max_degree + 1)
    for ell, d in jumps(A.N, max_degree):
        coeffs[d] += (-1) ** ell * dual_component_dim(A, d)
    return series.UniSeries(coeffs)


class DvpResult:
    """H_A, the alternating dual series and their product, which the
    duality identity requires to be 1."""

    __slots__ = ("passed", "hilbert", "rhs", "product")

    def __init__(self, passed, hilbert, rhs, product):
        self.passed = passed
        self.hilbert = hilbert
        self.rhs = rhs
        self.product = product


def dvp_check(A: AlgebraPresentation, max_degree: int) -> DvpResult:
    """Hilbert-series duality: H_A(t) · Σ (-1)^ℓ dim A^!_{ν(ℓ)} t^{ν(ℓ)} = 1.

    Holds whenever the Koszulity certificate passes at the same bound, but is
    computed independently of it.
    """
    hilbert = A.hilbert_series(max_degree)
    rhs = dvp_rhs(A, max_degree)
    product = hilbert * rhs
    return DvpResult(product.is_one(), hilbert, rhs, product)


def identity_eq1(n: int, m: int) -> int:
    """Σ_{k+ℓ=m} (-1)^k C(n+k-1, k) C(n, ℓ); zero for all n, m ≥ 1."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    total = 0
    for k in range(m + 1):
        total += (-1) ** k * math.comb(n + k - 1, k) * math.comb(n, m - k)
    return total


class AdmissibleIdentityResult:
    __slots__ = ("passed", "counts", "inverse_coeffs", "degree_rule_ok", "ell_max")

    def __init__(self, passed, counts, inverse_coeffs, degree_rule_ok, ell_max):
        self.passed = passed
        self.counts = counts
        self.inverse_coeffs = inverse_coeffs
        self.degree_rule_ok = degree_rule_ok
        self.ell_max = ell_max


def admissible_identity_check(n: int, N: int, max_degree: int) -> AdmissibleIdentityResult:
    """Admissible-word counts against the inverted alternating binomial series.

    Σ_k L(n,N,k) t^k must equal the inverse of
    Σ_ℓ (-1)^ℓ C(n, ν(ℓ)) t^{ν(ℓ)}.  The alternating polynomial has its last
    nonzero term at homological index 2q when n = qN (t-degree n) and at
    2q+1 when n = qN+r with 0 < r < N (t-degree qN+1); that index rule is
    verified alongside the coefficients.
    """
    if not 2 <= N <= n:
        raise ValueError(f"need 2 <= N <= n, got N={N}, n={n}")
    coeffs = [0] * (max_degree + 1)
    ell_max = 0
    # C(n, ν(ℓ)) = 0 once ν(ℓ) > n, so ell_max is final below the bound
    for ell, d in jumps(N, max(max_degree, n + N)):
        binom = math.comb(n, d)
        if binom:
            ell_max = ell
        if d <= max_degree:
            coeffs[d] += (-1) ** ell * binom
    q, r = divmod(n, N)
    expected_ell_max = 2 * q if r == 0 else 2 * q + 1
    degree_rule_ok = ell_max == expected_ell_max
    poly = series.UniSeries(coeffs)
    inverse = poly.invert()
    counts = admissible_counts(n, N, max_degree)
    passed = degree_rule_ok and counts == inverse.coeffs
    return AdmissibleIdentityResult(passed, counts, inverse.coeffs, degree_rule_ok, ell_max)
