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
:meth:`~nkoszul.homog.AlgebraPresentation.multiply`, the one reader of
memoized word forms; every character, the fermionic minors included, is
one trace summed over z-words in the free algebra and reduced once
(:func:`_trace`).  Applying
z_i^j ↦ δ_ij coefficient-wise recovers the numeric Hilbert-series duality,
which the tests check.
"""

from __future__ import annotations

from .algebras import antisymmetrizers, polynomial
from .freealg import shuffle_pairs, z_word
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


def _trace(B: ManinBialgebra, k: int, rows) -> dict:
    """Σ_p Σ_w row[w] · z_w^p in end(A)_k over the pairs (p, row) of
    ``rows``, p a column of V^{⊗k} and row a column dict over V^{⊗k},
    summed in the free algebra and reduced once.  The z-word determines
    (w, p), and each p comes once, so no two terms share a z-word."""
    n = B.base.n
    return B.env.reduce(
        k, {z_word(w, p, k, n): c for p, row in rows for w, c in row.items()}
    )


def chi_A(B: ManinBialgebra, k: int) -> dict:
    """Character of A_k: trace of the coaction over the normal basis,
    Σ_{|jw|=k} Σ_e c_e · z_e^{jw} in end(A)_k, where x_{jw} = Σ_e c_e x_e
    in the normal basis of A_k; words are columns."""
    A = B.base
    return _trace(B, k, ((jw, A.reduce(k, {jw: 1})) for jw in range(A.n**k)))


def chi_J(B: ManinBialgebra, ell: int) -> dict:
    """Character of J_{ν(ℓ)}: trace via the pivot coordinate functionals of
    the echelon basis (any linear extension of the coordinates works since
    the coaction maps J into end(A) ⊗ J)."""
    m = nu(B.base.N, ell)
    return _trace(B, m, dual_koszul_subspace(B.base, m).row_of.items())


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


def ferm_series(B: ManinBialgebra, max_degree: int) -> list:
    """Ferm: Σ_J (-1)^{|J|} det(Z_J) t^{|J|} over subsets of the generators,
    as the list of its coefficients.  det(Z_J) is column-ascending with
    permuted row indices, Σ_σ sgn(σ) z_{σ(J)}^{J}: the trace over the
    antisymmetrizer of J, keyed by its least column, the increasing word."""
    if not is_polynomial_presentation(B.base):
        raise ValueError("fermionic sum is defined for the polynomial algebra")
    n = B.base.n
    return [
        axpy({}, (-1) ** ell, _trace(B, ell, ((min(a), a) for a in antisymmetrizers(n, ell))))
        for ell in range(max_degree + 1)
    ]


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
