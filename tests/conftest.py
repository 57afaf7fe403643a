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

    det = MultiSeries(QQ, n, max_degree, {})
    for perm in permutations(range(n)):
        prod = MultiSeries.one(QQ, n, max_degree)
        for i in range(n):
            prod = prod * entry(i, perm[i])
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        det = det - prod if inversions % 2 else det + prod
    return det.invert()


@pytest.fixture(scope="session")
def det_inverse():
    """The det(I - ZT)^{-1} oracle of the original master identity."""
    return _det_inverse
