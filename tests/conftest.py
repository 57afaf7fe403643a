from fractions import Fraction
from itertools import permutations

import pytest

from nkoszul.scalar import QQ
from nkoszul.series import MultiSeries


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
        return MultiSeries(QQ, n, max_degree, terms)

    det = {}
    for perm in permutations(range(n)):
        prod = entry(0, perm[0])
        for i in range(1, n):
            prod = prod * entry(i, perm[i])
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        sign = -1 if inversions % 2 else 1
        for e, c in prod.terms.items():
            det[e] = det.get(e, 0) + sign * c
    return MultiSeries(QQ, n, max_degree, det).invert()


@pytest.fixture(scope="session")
def det_inverse():
    """The det(I - ZT)^{-1} oracle of the original master identity."""
    return _det_inverse
