from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nkoszul.algebras import polynomial
from conftest import (
    COEFFS,
    assert_exact,
    columns,
    exponents_of_total,
    first_mismatch_by_walk,
    invert_by_scan,
    multiseries,
)
from nkoszul.mmt import _compare
from nkoszul.series import MultiSeries, UniSeries


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


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(0, 6), st.data())
def test_multiseries_invert_matches_scan(nvars, trunc, data):
    # constant terms other than ±1 make every coefficient a multiple of a
    # power of 1/a0, so an error in the scaling by u shows
    f = data.draw(multiseries(nvars, trunc, COEFFS.filter(bool)))
    inv = f.invert()
    assert inv.terms == invert_by_scan(f).terms
    assert_exact(inv.terms.values())


def test_exponent_enumeration():
    # the first mismatch of the master identity is the first differing
    # exponent vector in the order of the walk by total degree: for every
    # pair of vectors, _compare reports the one the walk meets first
    exps = [e for total in range(4) for e in exponents_of_total(3, total)]
    assert len(exps) == len(set(exps)) == 20
    assert exps[:5] == [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0)]
    for i, first in enumerate(exps):
        for later in exps[i + 1 :]:
            lhs = MultiSeries(3, 3, {first: 1, later: 1})
            assert _compare(lhs, MultiSeries(3, 3)).first_mismatch == (first, 1, 0)


@st.composite
def series_pairs(draw):
    """Two series with the same variables and truncation: the second is
    the first with a few coefficients set anew, some of them to zero and
    some at exponents the first holds, so that the pair agrees at low
    degree as often as not."""
    nvars, trunc = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    lhs = draw(multiseries(nvars, trunc))
    targets = draw(st.lists(st.tuples(*[st.integers(0, trunc)] * nvars), max_size=3))
    if lhs.terms:
        targets += draw(st.lists(st.sampled_from(sorted(lhs.terms)), max_size=2))
    terms = dict(lhs.terms)
    for e in targets:
        if sum(e) <= trunc:
            terms[e] = draw(COEFFS)
    return lhs, MultiSeries(nvars, trunc, terms)


@settings(max_examples=300, deadline=None)
@given(series_pairs())
def test_first_mismatch_matches_walk(pair):
    lhs, rhs = pair
    expected = first_mismatch_by_walk(lhs, rhs, lhs.trunc)
    res = _compare(lhs, rhs)
    assert res.first_mismatch == expected
    assert res.passed == (expected is None) == (lhs == rhs)
