from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkoszul.algebras import polynomial
from conftest import COEFFS, assert_exact, columns
from nkoszul.series import MultiSeries, UniSeries, exponents_of_total


def test_invert_geometric():
    s = UniSeries(1, 4, [1, -1, 0, 0, 0])
    assert s.invert().coeffs == [1, 1, 1, 1, 1]


def test_invert_squared_geometric():
    s = UniSeries(1, 5, [1, -2, 1, 0, 0, 0])
    assert s.invert().coeffs == [k + 1 for k in range(6)]


def test_invert_roundtrip():
    s = UniSeries(1, 6, [1, 3, -2, 5, 0, 1, -4])
    assert s.invert().invert() == s
    assert (s * s.invert()).is_one()


def test_invert_requires_unit():
    with pytest.raises(ValueError):
        UniSeries(1, 2, [2, 0, 0]).invert()
    with pytest.raises(ValueError):
        UniSeries(1, 1, [0, 1]).invert()


def test_equality_up_to_min_truncation():
    a = UniSeries(1, 3, [1, 2, 3, 4])
    b = UniSeries(1, 5, [1, 2, 3, 4, 9, 9])
    assert a == b


def test_graded_ring_degree_check():
    A = polynomial(2)
    with pytest.raises(ValueError):
        UniSeries(A.unit(), 1, [A.unit(), A.unit()])
    s = UniSeries(A.unit(), 2, [A.unit(), A.zero_class(1), A.zero_class(2)])
    assert s.is_one()
    assert (s * s).is_one()
    x2 = A.reduce(2, columns(2, {(0, 1): 1}))
    assert not UniSeries(A.unit(), 2, [A.unit(), A.zero_class(1), x2]).is_one()


def test_class_truth_value():
    A = polynomial(2)
    assert not A.zero_class(2)
    yx = A.reduce(2, columns(2, {(1, 0): 1}))
    assert yx
    assert not yx - A.reduce(2, columns(2, {(0, 1): 1}))


def test_graded_series_inversion_and_product():
    A = polynomial(2)
    x = A.reduce(1, columns(2, {(0,): 1, (1,): 1}))
    s = UniSeries(A.unit(), 3, [A.unit(), -x, A.zero_class(2), A.zero_class(3)])
    inv = s.invert()
    assert (s * inv).is_one()
    # geometric series in the quotient: coefficient k is (x1+x2)^k
    power = A.unit()
    for k in range(4):
        assert inv.coeffs[k] == power
        power = power * x


def test_graded_series_with_negated_unit_inverts():
    # u = -1 is its own inverse: 1/(-1 - x t) = -Σ_k (-x)^k t^k
    A = polynomial(2)
    x = A.reduce(1, columns(2, {(0,): 1, (1,): 1}))
    s = UniSeries(A.unit(), 3, [-A.unit(), -x, A.zero_class(2), A.zero_class(3)])
    inv = s.invert()
    assert (s * inv).is_one()
    power = -A.unit()
    for k in range(4):
        assert inv.coeffs[k] == power
        power = -(power * x)


def test_multiseries_invert_two_vars():
    f = MultiSeries(2, 3, {(0, 0): Fraction(1), (1, 0): Fraction(-1), (0, 1): Fraction(-1)})
    inv = f.invert()
    # oracle: sum of (t1+t2)^k expanded with multinomials
    assert inv.coefficient((1, 1)) == 2
    assert inv.coefficient((2, 1)) == 3
    assert inv.coefficient((3, 0)) == 1
    assert f * inv == MultiSeries(2, 3, {(0, 0): Fraction(1)})


@settings(max_examples=50, deadline=None)
@given(
    COEFFS.filter(bool),
    st.dictionaries(st.sampled_from([(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]), COEFFS),
)
def test_multiseries_invert_is_exact(a0, terms):
    # the constant term is inverted through scalar.div: an int constant
    # other than ±1 gives a Fraction inverse, never a float
    f = MultiSeries(2, 4, {(0, 0): a0, **terms})
    inv = f.invert()
    assert_exact(inv.terms.values())
    assert f * inv == MultiSeries(2, 4, {(0, 0): 1})


def test_multiseries_mul_truncates():
    f = MultiSeries(2, 2, {(1, 0): Fraction(1)})
    g = MultiSeries(2, 2, {(1, 1): Fraction(1)})
    assert (f * g).terms == {}


def test_multiseries_equality():
    f = MultiSeries(2, 3, {(1, 0): Fraction(2)})
    g = MultiSeries(2, 5, {(1, 0): Fraction(2), (4, 0): Fraction(7)})
    assert f == g  # compared up to total degree 3, below the (4,0) term
    assert f != MultiSeries(2, 3, {(1, 0): Fraction(3)})


def test_multiseries_has_no_addition():
    f = MultiSeries(2, 3, {(1, 0): Fraction(2)})
    with pytest.raises(TypeError):
        f + f


def test_exponent_enumeration():
    exps = list(exponents_of_total(3, 2))
    assert len(exps) == 6
    assert all(sum(e) == 2 for e in exps)
    assert len(set(exps)) == 6
