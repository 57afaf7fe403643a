"""Numeric master-theorem identities.

Specializing the generators z_i^j of end(A) at a rational matrix Z turns
the character identities into numeric generating-function identities:
the N-analog for antisymmetrizer algebras, whose right-hand side is an
alternating sum of principal minors of ZT over subsets of size ≡ 0, 1
mod N, and the original MacMahon identity, its N = 2 case on the
polynomial algebra, where that sum is det(I - ZT).  The specialization is
sound exactly when span(R) is invariant under Z^{⊗N}, which the guard
below checks.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm

from .algebras import enumerate_admissible, perm_sign, polynomial
from .freealg import index_word, word_index
from .homog import AlgebraPresentation
from .scalar import axpy, div
from .series import MultiSeries


def random_rational_matrix(n: int, seed: int):
    """Deterministic n×n matrix of fractions p/q, p in [-9, 9], q in [1, 9],
    drawn row-major from Python's Mersenne-Twister generator."""
    rng = random.Random(seed)
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        for _ in range(n)
    ]


def matrix_det(entries):
    """Exact determinant by the Leibniz expansion (sizes here are tiny)."""
    total = 0
    for perm in permutations(range(len(entries))):
        prod = perm_sign(perm)
        for i, j in enumerate(perm):
            prod = prod * entries[i][j]
            if not prod:
                break
        else:
            total = total + prod
    return total


def check_specializable(A: AlgebraPresentation, Z) -> bool:
    """True iff span(R) is invariant under Z^{⊗N}, which makes z_i^j ↦ Z_ij
    kill every relation of end(A): each relation Σ c_w x_w must map to
    Σ c_w X_{w_1}···X_{w_N} = 0 in A_N, X_i = Σ_j Z_ij x_j.  Always true
    for the polynomial and antisymmetrizer algebras; generically false for
    quantum spaces."""
    if len(Z) != A.n:
        raise ValueError("matrix size does not match the generator count")
    X = [{j: z for j, z in enumerate(row) if z} for row in Z]
    for r in A.relations:
        image = {}
        for w, c in r.items():
            *head, last = index_word(w, A.N, A.n)
            prod = {0: c}
            for k, b in enumerate(head, 1):
                prod = A.multiply(k, 1, prod, X[b])
            A.multiply(A.N, 1, prod, X[last], image)
        if image:
            return False
    return True


def _check_reversal(A: AlgebraPresentation, max_degree: int):
    """The set of normal columns of A_k for each k = 1..max_degree, keyed
    by k; raises unless word reversal maps the admissible words of degree k
    onto that set.

    When span(R) is stable under reversal, reversal is an anti-automorphism
    of A; if it also maps the admissible words onto the normal words, the
    admissible classes form a basis and the G value of a word w is the
    rev(w)-coordinate of the reversed product in the normal basis.  Both
    hold for the polynomial and antisymmetrizer algebras."""
    n, N = A.n, A.N
    for r in A.relations:
        reversed_r = {word_index(reversed(index_word(w, N, n)), n): c for w, c in r.items()}
        if A.reduce(N, reversed_r):
            raise ValueError("the relations are not stable under word reversal")
    normal = {}
    for k in range(1, max_degree + 1):
        reversed_words = {word_index(reversed(w), n) for w in enumerate_admissible(n, N, k)}
        normal[k] = set(A.normal_basis(k))
        if reversed_words != normal[k]:
            raise ValueError(f"reversed admissible words of degree {k} are not the normal words")
    return normal


def g_table(A: AlgebraPresentation, Z, max_degree: int):
    """All G values on admissible words of length ≤ max_degree.

    G(w) is the w-coordinate of X_{w_1}···X_{w_k}, X_i = Σ_j Z_ij x_j, in
    the basis of admissible classes, read as the rev(w)-coordinate of
    X_{w_k}···X_{w_1} in the normal basis (see :func:`_check_reversal`).
    The walk over the admissible-word tree multiplies on the left, so each
    word shares the reversed product of its prefix; appending b to a word
    of length k prepends it to the reversed word, whose column becomes
    b·n^k + rev.  The extended word is admissible exactly when that column
    is normal in degree k + 1.

    G(w) is homogeneous of degree |w| in the entries of Z, so the walk
    runs on the integer matrix LZ, L the lcm of the denominators of Z, and
    divides each value once: G_Z(w) = G_{LZ}(w) / L^|w|.  The guard runs
    on LZ too: span(R) is stable under Z^{⊗N} exactly when it is under
    (LZ)^{⊗N} = L^N·Z^{⊗N}, since L ≠ 0."""
    L = lcm(*(z.denominator for row in Z for z in row))
    LZ = [[z.numerator * (L // z.denominator) for z in row] for row in Z]
    if not check_specializable(A, LZ):
        raise ValueError("matrix does not specialize this algebra's envelope")
    normal = _check_reversal(A, max_degree)
    n = A.n
    # X_b = Σ_j (LZ)_bj x_j, of degree 1
    X = [{j: z for j, z in enumerate(row) if z} for row in LZ]
    table = {}
    # stack entries: (word, column of the reversed word, normal coordinates
    # of the reversed product)
    stack = [((), 0, {0: 1})]
    while stack:
        word, rev, vec = stack.pop()
        k = len(word)
        table[word] = div(vec.get(rev, 0), L**k)
        if k == max_degree:
            continue
        shift = n**k
        for b in range(n - 1, -1, -1):
            if b * shift + rev not in normal[k + 1]:
                continue
            stack.append((word + (b,), b * shift + rev, A.multiply(k + 1, k, X[b], vec)))
    return table


def _lhs_series(A: AlgebraPresentation, Z, max_degree: int) -> MultiSeries:
    """Σ_w G(w) t^w over the admissible words w, t^w the monomial of the
    letters of w."""
    terms = {}
    for word, value in g_table(A, Z, max_degree).items():
        if value:
            axpy(terms, value, {tuple(map(word.count, range(A.n))): 1})
    return MultiSeries(A.n, max_degree, terms)


class MasterResult:
    __slots__ = ("passed", "first_mismatch", "lhs", "rhs")

    def __init__(self, passed, first_mismatch, lhs, rhs):
        self.passed = passed
        self.first_mismatch = first_mismatch  # (exponents, lhs value, rhs value)
        self.lhs = lhs
        self.rhs = rhs

    def __bool__(self):
        return self.passed


def _compare(lhs: MultiSeries, rhs: MultiSeries) -> MasterResult:
    """The two series compared up to the smaller truncation; the first
    mismatch is the least differing exponent vector by total degree, then
    in descending lexicographic order."""
    trunc = min(lhs.trunc, rhs.trunc)
    differing = [
        e
        for e in lhs.terms.keys() | rhs.terms.keys()
        if sum(e) <= trunc and lhs.coefficient(e) != rhs.coefficient(e)
    ]
    if not differing:
        return MasterResult(True, None, lhs, rhs)
    e = min(differing, key=lambda e: (sum(e), [-a for a in e]))
    return MasterResult(False, (e, lhs.coefficient(e), rhs.coefficient(e)), lhs, rhs)


def nmt_rhs_denominator(n: int, N: int, Z, max_degree: int) -> MultiSeries:
    """Σ over J ⊆ {1..n} with |J| ≡ 0, 1 (mod N) of ε(|J|) det(Z_J) Π_{j∈J} t_j,
    where ε is +1 on sizes ≡ 0 and -1 on sizes ≡ 1 mod N, truncated at
    total degree ``max_degree``, the largest |J| kept."""
    terms = {}
    for r in range(min(n, max_degree) + 1):
        rem = r % N
        if rem not in (0, 1):
            continue
        eps = 1 if rem == 0 else -1
        for subset in combinations(range(n), r):
            minor = matrix_det([[Z[i][j] for j in subset] for i in subset])
            if not minor:
                continue
            exps = [0] * n
            for j in subset:
                exps[j] = 1
            # one subset per exponent vector, so no key repeats
            terms[tuple(exps)] = minor if eps > 0 else -minor
    return MultiSeries(n, max_degree, terms)


def nmt_check(A: AlgebraPresentation, Z, max_degree: int) -> MasterResult:
    """N-analog for the antisymmetrizer algebra A (the polynomial algebra
    at N = 2): the admissible G series equals the inverse of the ε-signed
    principal-minor sum, exactly, up to total degree ``max_degree``."""
    lhs = _lhs_series(A, Z, max_degree)
    denom = nmt_rhs_denominator(A.n, A.N, Z, max_degree)
    return _compare(lhs, denom.invert())


def mmt_check(n: int, Z, max_degree: int) -> MasterResult:
    """Original master identity: Σ_m G(m) t^m = det(I - ZT)^{-1} exactly,
    up to total degree ``max_degree``.  It is the N = 2 case of
    :func:`nmt_check`: at N = 2 the ε-signed principal-minor sum is the
    expansion of det(I - ZT)."""
    return nmt_check(polynomial(n), Z, max_degree)
