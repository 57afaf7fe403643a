"""Manin's bialgebra end(A) and the character-map identities.

end(A) is the N-homogeneous algebra on the n² generators z_i^j (flat index
i·n + j) with relation space R^⊥ ⊗ R, interleaved factor-wise.  A is a left
end(A)-comodule via δ(x_i) = Σ_j z_i^j ⊗ x_j, and so is every J_m; the
character of a comodule is the trace of its coaction, an element of end(A).
The coproduct Δ(z_i^j) = Σ_k z_i^k ⊗ z_k^j plays no computational role here
and is not implemented.

An element of end(A)_d is its normal form, a ``{normal column: scalar}``
dict, and a series is the list of its coefficients, c_d in end(A)_d.  The
product of the character series of A and the alternating character series
of the J spaces is the unit series whenever A is Koszul; :func:`kmt_check`
forms it one coefficient at a time with
:meth:`~nkoszul.homog.AlgebraPresentation.multiply`.  Applying
z_i^j ↦ δ_ij coefficient-wise recovers the numeric Hilbert-series duality,
which the tests check.
"""

from __future__ import annotations

from itertools import combinations, permutations

from .algebras import perm_sign, polynomial
from .freealg import shuffle_pairs, word_index, z_word
from .homog import AlgebraPresentation
from .koszul import dual_koszul_subspace, jumps, nu
from .linalg import axpy, kernel


class ManinBialgebra:
    """The pair (A, end(A)); the graded caches of the envelope are
    ``env.cache``."""

    __slots__ = ("base", "env")

    def __init__(self, base: AlgebraPresentation, env: AlgebraPresentation):
        self.base = base
        self.env = env

    def __repr__(self):
        return f"ManinBialgebra({self.base!r})"


def build_end(A: AlgebraPresentation) -> ManinBialgebra:
    """Construct end(A) = A(V*⊗V, R^⊥⊗R) from the reduced echelon basis of
    R = I_N and that of R^⊥, its kernel."""
    n, N = A.n, A.N
    ideal = A.ideal_component(N)
    r_basis = ideal.row_of.values()
    perp_basis = kernel(ideal).row_of.values()
    rels = [shuffle_pairs(xi, r, N, n) for xi in perp_basis for r in r_basis]
    env = AlgebraPresentation(
        n * n, N, rels, label=f"end({A.label or 'A'})", parameters=A.parameters
    )
    expected = len(perp_basis) * len(r_basis)
    if env.ideal_rank(N) != expected:
        raise RuntimeError(
            "relation space of end(A) has unexpected dimension; internal error"
        )
    return ManinBialgebra(A, env)


def chi_A(B: ManinBialgebra, k: int) -> dict:
    """Character of A_k: trace of the coaction over the normal basis,
    Σ_{|jw|=k} Σ_e c_e · z_e^{jw} in end(A)_k, where x_{jw} = Σ_e c_e x_e
    in the normal basis of A_k; words are columns."""
    A, E = B.base, B.env
    n = A.n
    acc = {}
    for jw in range(n**k):
        for e, ce in A.class_of_word((k, jw)).items():
            axpy(acc, ce, E.class_of_word((k, z_word(e, jw, k, n))))
    return acc


def chi_J(B: ManinBialgebra, ell: int) -> dict:
    """Character of J_{ν(ℓ)}: trace via the pivot coordinate functionals of
    the echelon basis (any linear extension of the coordinates works since
    the coaction maps J into end(A) ⊗ J)."""
    A, E = B.base, B.env
    n = A.n
    m = nu(A.N, ell)
    space = dual_koszul_subspace(A, m)
    acc = {}
    for p, row in space.row_of.items():
        for w, c in row.items():
            axpy(acc, c, E.class_of_word((m, z_word(w, p, m, n))))
    return acc


def character_series(B: ManinBialgebra, max_degree: int) -> list:
    """Σ_k χ(A_k) t^k, as the list of its coefficients."""
    return [chi_A(B, k) for k in range(max_degree + 1)]


def dual_character_series(B: ManinBialgebra, max_degree: int) -> list:
    """Σ_ℓ (-1)^ℓ χ(J_{ν(ℓ)}) t^{ν(ℓ)}, as the list of its coefficients;
    ν is injective, so each degree gets at most one term."""
    coeffs = [{} for _ in range(max_degree + 1)]
    for ell, d in jumps(B.base.N, max_degree):
        axpy(coeffs[d], (-1) ** ell, chi_J(B, ell))
    return coeffs


class KmtResult:
    __slots__ = ("passed", "first_failure", "dual_series")

    def __init__(self, passed, first_failure, dual_series):
        self.passed = passed
        self.first_failure = first_failure
        self.dual_series = dual_series  # the J character series of the check


def kmt_check(B: ManinBialgebra, max_degree: int) -> KmtResult:
    """The character-map identity: the product of the character series of A
    and the alternating character series of the J spaces is 1 in end(A),
    checked per degree up to the bound; the check stops at the first degree
    whose product coefficient differs from that of 1.

    Meaningful for algebras whose exactness certificate passes at the same
    bound; on non-Koszul input the product simply fails at some degree.
    """
    if max_degree < 1:
        raise ValueError("bound must be >= 1")
    E = B.env
    p = character_series(B, max_degree)
    q = dual_character_series(B, max_degree)
    first_failure = None
    for d in range(max_degree + 1):
        coeff = {}
        for j in range(d + 1):
            E.multiply(d, j, p[d - j], q[j], coeff)
        if coeff != ({0: 1} if d == 0 else {}):
            first_failure = d
            break
    return KmtResult(first_failure is None, first_failure, q)


# ----------------------------------------------------------------------
# fermionic series of the polynomial algebra


def is_polynomial_presentation(A: AlgebraPresentation) -> bool:
    if A.N != 2 or A.n < 1:
        return False
    model = polynomial(A.n)
    return A.ideal_component(2) == model.ideal_component(2)


def _noncommutative_minor(B: ManinBialgebra, subset) -> dict:
    """det(Z_J) in end(A), column-ascending with permuted row indices."""
    E = B.env
    n = B.base.n
    ell = len(subset)
    cols = word_index(subset, n)
    vec = {}
    for perm in permutations(range(ell)):
        rows = word_index((subset[p] for p in perm), n)
        # the word determines the permutation, so no two terms share a word
        vec[z_word(rows, cols, ell, n)] = perm_sign(perm)
    return E.reduce(ell, vec)


def ferm_series(B: ManinBialgebra, max_degree: int) -> list:
    """Ferm: Σ_J (-1)^{|J|} det(Z_J) t^{|J|} over subsets of the generators,
    as the list of its coefficients."""
    if not is_polynomial_presentation(B.base):
        raise ValueError("fermionic sum is defined for the polynomial algebra")
    n = B.base.n
    coeffs = []
    for ell in range(max_degree + 1):
        acc = {}
        for subset in combinations(range(n), ell):
            axpy(acc, (-1) ** ell, _noncommutative_minor(B, subset))
        coeffs.append(acc)
    return coeffs


def ferm_convention(B: ManinBialgebra, target: list) -> str:
    """The determinant ordering of :func:`ferm_series`, "row-permuted",
    once the fermionic series is checked afresh against ``target``, the
    series Σ (-1)^ℓ χ(J_ℓ) t^ℓ of :func:`dual_character_series`, in every
    degree it has."""
    if ferm_series(B, len(target) - 1) != target:
        raise RuntimeError(
            "the row-permuted fermionic series does not match the character series"
        )
    return "row-permuted"
