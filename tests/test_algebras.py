import math
from fractions import Fraction
from itertools import product

import pytest

from conftest import dual
from nkoszul.algebras import (
    admissible_counts,
    antisymmetrizer,
    dual_dims_closed_form,
    enumerate_admissible,
    free_algebra,
    perm_sign,
    polynomial,
    quantum_space,
)
from nkoszul.freealg import word_index
from nkoszul.scalar import ParameterField, parse_rational


def is_admissible(word, N):
    """True when the word has no N consecutive strictly decreasing letters."""
    run = 1
    for s in range(1, len(word)):
        run = run + 1 if word[s - 1] > word[s] else 1
        if run >= N:
            return False
    return True


def test_perm_sign():
    assert perm_sign((0, 1, 2)) == 1
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1


def test_polynomial_relation_count():
    assert len(polynomial(2).relations) == 1
    assert len(polynomial(3).relations) == 3
    assert polynomial(3).dim_component(2) == 6


def test_polynomial_hilbert_closed_form():
    A = polynomial(4)
    for d in range(6):
        assert A.dim_component(d) == math.comb(d + 4 - 1, d)


def test_antisymmetrizer_shape():
    A = antisymmetrizer(3, 3)
    assert len(A.relations) == 1
    [rel] = A.relations
    assert len(rel) == 6
    assert all(c in (1, -1) for c in rel.values())
    assert len(antisymmetrizer(4, 3).relations) == 4


def test_antisymmetrizer_n2_is_polynomial_span():
    A = antisymmetrizer(2, 2)
    P = polynomial(2)
    assert A.ideal_component(2) == P.ideal_component(2)
    # the same relations, term for term and in the same order
    for n in range(2, 7):
        P, A = polynomial(n), antisymmetrizer(n, 2)
        assert P.relations == A.relations, n
        assert [list(r.items()) for r in P.relations] == [list(r.items()) for r in A.relations]
    assert polynomial(1).relations == ()


def test_antisymmetrizer_bounds():
    with pytest.raises(ValueError):
        antisymmetrizer(3, 4)
    with pytest.raises(ValueError):
        antisymmetrizer(3, 1)


def test_quantum_space_generic():
    Q = quantum_space(2)
    assert Q.parameters == ("q12",)
    q12 = ParameterField(["q12"]).parameter("q12")
    assert Q.relations == ({word_index((1, 0), 2): 1, word_index((0, 1), 2): -q12},)
    assert Q.hilbert_series(6).coeffs == list(range(1, 8))
    # dual bookkeeping: dim R = 1 -> dim R^perp = 3 -> dim A!_2 = 1
    assert dual(Q).dim_component(2) == 1


def test_quantum_space_at_one_is_polynomial():
    Q = quantum_space(3, q=1)
    P = polynomial(3)
    assert Q.ideal_component(2) == P.ideal_component(2)


def test_quantum_space_numeric_and_errors():
    Q = quantum_space(2, q=Fraction(2))
    assert Q.dim_component(3) == 4
    # an integral q stays an int, so the echelon computes on ints
    for q in (2, Fraction(4, 2), parse_rational("2")):
        coeffs = [c for r in quantum_space(3, q=q).relations for c in r.values()]
        assert coeffs and all(type(c) is int for c in coeffs)
    assert Fraction(-3, 2) in quantum_space(2, q=Fraction(3, 2)).relations[0].values()
    with pytest.raises(ValueError):
        quantum_space(2, q=0)


def test_free_algebra():
    A = free_algebra(3)
    assert A.relations == ()
    assert A.dim_component(4) == 81


def test_admissible_trivial_below_window():
    for n, N in ((2, 2), (3, 3), (4, 3)):
        assert admissible_counts(n, N, N - 1) == [n**k for k in range(N)]


def test_admissible_bruteforce_oracle():
    # enumerate all words and test the no-N-descent predicate directly
    def brute(n, N, k):
        count = 0
        for w in product(range(n), repeat=k):
            ok = True
            for s in range(k - N + 1):
                if all(w[t] > w[t + 1] for t in range(s, s + N - 1)):
                    ok = False
                    break
            if ok:
                count += 1
        return count

    for n in (2, 3):
        for N in range(2, n + 1):
            assert admissible_counts(n, N, 5) == [brute(n, N, k) for k in range(6)], (n, N)


def test_l333_is_26():
    assert admissible_counts(3, 3, 3)[3] == 26


def test_l223_is_4():
    # weakly increasing words over two letters of length 3
    assert admissible_counts(2, 2, 3)[3] == 4


def test_enumeration_matches_count_and_order():
    for n, N, k in ((2, 2, 4), (3, 3, 4), (4, 3, 3)):
        words = enumerate_admissible(n, N, k)
        assert len(words) == admissible_counts(n, N, k)[k]
        assert words == sorted(words)
        assert all(is_admissible(w, N) for w in words)


def test_count_equals_quotient_dimension():
    for n in range(2, 5):
        for N in range(2, n + 1):
            A = antisymmetrizer(n, N)
            dims = [A.dim_component(k) for k in range(7)]
            assert admissible_counts(n, N, 6) == dims, (n, N)


def test_dual_dims_closed_form_values():
    assert [dual_dims_closed_form(4, 3, m) for m in range(6)] == [1, 4, 16, 4, 1, 0]
    assert dual_dims_closed_form(5, 3, 2) == 25  # m = N-1 boundary
    assert dual_dims_closed_form(4, 4, 4) == 1  # n = N, m = N
    with pytest.raises(ValueError):
        dual_dims_closed_form(3, 4, 1)
