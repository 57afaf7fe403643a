"""Manin's bialgebra end(A) and the character-map identities.

end(A) is the N-homogeneous algebra on the n² generators z_i^j (flat index
i·n + j) with relation space R^⊥ ⊗ R, interleaved factor-wise.  A is a left
end(A)-comodule via δ(x_i) = Σ_j z_i^j ⊗ x_j, and so is every J_m; the
character of a comodule is the trace of its coaction, an element of end(A).
The coproduct Δ(z_i^j) = Σ_k z_i^k ⊗ z_k^j plays no computational role here
and is not implemented.

The product of the character series of A and the alternating character
series of the J spaces is the unit series whenever A is Koszul; applying
the counit z_i^j ↦ δ_ij coefficient-wise recovers the numeric
Hilbert-series duality.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .algebras import perm_sign, polynomial
from .freealg import Tensor, all_words, index_word, shuffle_pairs
from .homog import AlgebraClass, AlgebraPresentation
from .koszul import dual_koszul_subspace, jumps, nu
from .linalg import axpy
from .series import GradedRing, UniSeries


class ManinBialgebra:
    """The pair (A, end(A)); owns the graded caches of the envelope."""

    __slots__ = ("base", "env", "_ferm_convention")

    def __init__(self, base: AlgebraPresentation, env: AlgebraPresentation):
        self.base = base
        self.env = env
        self._ferm_convention = None

    def __repr__(self):
        return f"ManinBialgebra({self.base!r})"


def build_end(A: AlgebraPresentation) -> ManinBialgebra:
    """Construct end(A) = A(V*⊗V, R^⊥⊗R) from echelon bases of R^⊥ and R."""
    n = A.n
    r_span = A.ideal_component(A.N)
    r_basis = [Tensor.from_vec(n, A.N, dict(row)) for row in r_span.rows]
    perp_basis = A.dual().relations
    rels = [shuffle_pairs(xi, r) for xi in perp_basis for r in r_basis]
    env = AlgebraPresentation(
        n * n, A.N, rels, label=f"end({A.label or 'A'})", field=A.field
    )
    expected = len(perp_basis) * len(r_basis)
    if env.ideal_rank(A.N) != expected:
        raise RuntimeError(
            "relation space of end(A) has unexpected dimension; internal error"
        )
    return ManinBialgebra(A, env)


class CharacterElement:
    """χ of a comodule: a degree-k class in end(A)."""

    __slots__ = ("degree", "value")

    def __init__(self, degree: int, value: AlgebraClass):
        self.degree = degree
        self.value = value

    def __eq__(self, other):
        return (
            isinstance(other, CharacterElement)
            and self.degree == other.degree
            and self.value == other.value
        )

    def __repr__(self):
        return f"CharacterElement(deg={self.degree}, {self.value.coords!r})"


def chi_A(B: ManinBialgebra, k: int) -> CharacterElement:
    """Character of A_k: trace of the coaction over the normal basis."""
    A, E = B.base, B.env
    n = A.n
    acc = {}
    for jw in all_words(n, k):
        acls = A.class_of_word(jw)
        for e, ce in acls.coords.items():
            zword = tuple(i * n + j for i, j in zip(e, jw))
            axpy(acc, ce, E.class_of_word(zword).coords)
    return CharacterElement(k, AlgebraClass(E, k, acc))


def chi_J(B: ManinBialgebra, ell: int) -> CharacterElement:
    """Character of J_{ν(ℓ)}: trace via the pivot coordinate functionals of
    the echelon basis (any linear extension of the coordinates works since
    the coaction maps J into end(A) ⊗ J)."""
    A, E = B.base, B.env
    n = A.n
    m = nu(A.N, ell)
    space = dual_koszul_subspace(A, m)
    acc = {}
    for p, row in zip(space.pivots, space.rows):
        pword = index_word(p, m, n)
        for idx, c in row.items():
            w = index_word(idx, m, n)
            zword = tuple(i * n + j for i, j in zip(w, pword))
            axpy(acc, c, E.class_of_word(zword).coords)
    return CharacterElement(m, AlgebraClass(E, m, acc))


def counit(B: ManinBialgebra, c: CharacterElement):
    """Evaluate a character by z_i^j ↦ δ_ij; independent of representative
    since every relation of end(A) pairs R^⊥ against R."""
    n = B.base.n
    total = B.base.field.zero
    for zw, coeff in c.value.coords.items():
        if all(letter // n == letter % n for letter in zw):
            total = total + coeff
    return total


def character_series(B: ManinBialgebra, max_degree: int) -> UniSeries:
    """Σ_k χ(A_k) t^k as a graded-coefficient series."""
    ring = GradedRing(B.env)
    coeffs = [chi_A(B, k).value for k in range(max_degree + 1)]
    return UniSeries(ring, max_degree, coeffs)


def dual_character_series(B: ManinBialgebra, max_degree: int) -> UniSeries:
    """Σ_ℓ (-1)^ℓ χ(J_{ν(ℓ)}) t^{ν(ℓ)} as a graded-coefficient series."""
    E = B.env
    ring = GradedRing(E)
    coeffs = [E.zero_class(d) for d in range(max_degree + 1)]
    for ell, d in jumps(B.base.N, max_degree):
        value = chi_J(B, ell).value
        if ell % 2:
            value = -value
        coeffs[d] = coeffs[d] + value
    return UniSeries(ring, max_degree, coeffs)


class KmtResult:
    __slots__ = ("passed", "max_degree", "first_failure", "product")

    def __init__(self, passed, max_degree, first_failure, product):
        self.passed = passed
        self.max_degree = max_degree
        self.first_failure = first_failure
        self.product = product

    def __bool__(self):
        return self.passed


def kmt_ambient(n: int, max_degree: int) -> int:
    """Ambient dimension n^{2D} that the degree-D check must echelonize in."""
    return (n * n) ** max_degree


def kmt_check(B: ManinBialgebra, max_degree: int) -> KmtResult:
    """The character-map identity: the product of the character series of A
    and the alternating character series of the J spaces is 1 in end(A),
    checked per degree up to the bound.

    Meaningful for algebras whose exactness certificate passes at the same
    bound; on non-Koszul input the product simply fails at some degree.
    """
    if max_degree < 1:
        raise ValueError("bound must be >= 1")
    p = character_series(B, max_degree)
    q = dual_character_series(B, max_degree)
    product = p * q
    first_failure = None
    unit = B.env.unit()
    if product.coeffs[0] != unit:
        first_failure = 0
    else:
        for d in range(1, max_degree + 1):
            if not product.coeffs[d].is_zero():
                first_failure = d
                break
    return KmtResult(first_failure is None, max_degree, first_failure, product)


# ----------------------------------------------------------------------
# bosonic / fermionic cross-check for the polynomial algebra


def is_polynomial_presentation(A: AlgebraPresentation) -> bool:
    if A.N != 2 or A.n < 1:
        return False
    model = polynomial(A.n, field=A.field)
    return A.ideal_component(2) == model.ideal_component(2)


def _bos_elements(B: ManinBialgebra, max_degree: int):
    """Ordered products of the transformed generators, by exponent vector.

    Elements of end(A) ⊗ A are maps {A normal word: end(A)-coordinate dict};
    the product over X_i = Σ_j z_i^j ⊗ x_j is taken with ascending generator
    index, matching the ordered monomial convention.
    """
    A, E = B.base, B.env
    n = A.n
    one = A.field.one
    elems = {(0,) * n: {(): {(): one}}}
    frontier = dict(elems)
    for _ in range(max_degree):
        new_frontier = {}
        for expv, elem in frontier.items():
            start = 0
            for i in range(n - 1, -1, -1):
                if expv[i]:
                    start = i
                    break
            for i in range(start, n):
                target = list(expv)
                target[i] += 1
                target = tuple(target)
                if target in elems:
                    continue
                out = {}
                for aw, ecoords in elem.items():
                    for j in range(n):
                        acls = A.class_of_word(aw + (j,))
                        if not acls.coords:
                            continue
                        letter = i * n + j
                        emult = {}
                        for ew, ce in ecoords.items():
                            axpy(emult, ce, E.class_of_word(ew + (letter,)).coords)
                        for aw2, ca in acls.coords.items():
                            axpy(out.setdefault(aw2, {}), ca, emult)
                elems[target] = out
                new_frontier[target] = out
        frontier = new_frontier
    return elems


def _monomial_key_word(A: AlgebraPresentation, expv):
    word = []
    for i, e in enumerate(expv):
        word.extend([i] * e)
    cls = A.class_of_word(tuple(word))
    [(key, coeff)] = cls.coords.items()
    if coeff != 1:
        raise RuntimeError("monomial class is not a unit coordinate; internal error")
    return key


def bos_series(B: ManinBialgebra, max_degree: int) -> UniSeries:
    """Bos: coefficient of t^k is Σ_{|m|=k} G(m), where G(m) is the
    x^m-coefficient of the ordered product X^m inside end(A) ⊗ A."""
    if not is_polynomial_presentation(B.base):
        raise ValueError("bosonic sum is defined for the polynomial algebra")
    A, E = B.base, B.env
    elems = _bos_elements(B, max_degree)
    ring = GradedRing(E)
    coeffs = []
    for k in range(max_degree + 1):
        acc = E.zero_class(k)
        for expv, elem in elems.items():
            if sum(expv) != k:
                continue
            key = _monomial_key_word(A, expv)
            coords = elem.get(key)
            if coords:
                acc = acc + AlgebraClass(E, k, coords)
        coeffs.append(acc)
    return UniSeries(ring, max_degree, coeffs)


def _noncommutative_minor(B: ManinBialgebra, subset, transpose: bool) -> AlgebraClass:
    """det(Z_J) in end(A) under one of the two orderings: column-ascending
    with permuted row indices (default), or its transpose."""
    E = B.env
    n = B.base.n
    ell = len(subset)
    terms = {}
    for perm in permutations(range(ell)):
        # the word determines the permutation, so no two terms share a word
        if transpose:
            word = tuple(subset[s] * n + subset[perm[s]] for s in range(ell))
        else:
            word = tuple(subset[perm[s]] * n + subset[s] for s in range(ell))
        terms[word] = perm_sign(perm)
    return E.reduce(Tensor(n * n, ell, terms))


def ferm_series(B: ManinBialgebra, max_degree: int, transpose: bool = False) -> UniSeries:
    """Ferm: Σ_J (-1)^{|J|} det(Z_J) t^{|J|} over subsets of the generators."""
    if not is_polynomial_presentation(B.base):
        raise ValueError("fermionic sum is defined for the polynomial algebra")
    E = B.env
    n = B.base.n
    ring = GradedRing(E)
    coeffs = []
    for ell in range(max_degree + 1):
        acc = E.zero_class(ell)
        if ell <= n:
            for subset in combinations(range(n), ell):
                acc = acc + _noncommutative_minor(B, subset, transpose)
            if ell % 2:
                acc = -acc
        coeffs.append(acc)
    return UniSeries(ring, max_degree, coeffs)


def ferm_convention(B: ManinBialgebra, max_degree: int = 4) -> str:
    """Which determinant ordering matches the character series; cached.

    The fermionic series must agree with Σ (-1)^ℓ χ(J_ℓ) t^ℓ; the ordering
    that validates is recorded ("row-permuted" is the default convention,
    "column-permuted" its transpose).
    """
    if B._ferm_convention is None:
        target = dual_character_series(B, max_degree)
        if ferm_series(B, max_degree, transpose=False) == target:
            B._ferm_convention = "row-permuted"
        elif ferm_series(B, max_degree, transpose=True) == target:
            B._ferm_convention = "column-permuted"
        else:
            raise RuntimeError(
                "neither determinant ordering matches the character series"
            )
    return B._ferm_convention


def bos_ferm(B: ManinBialgebra, max_degree: int):
    """The bosonic and fermionic series, Ferm under the ordering that
    matches the character series (see ferm_convention)."""
    convention = ferm_convention(B, max_degree)
    bos = bos_series(B, max_degree)
    ferm = ferm_series(B, max_degree, transpose=(convention == "column-permuted"))
    return bos, ferm
