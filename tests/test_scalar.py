import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ as SYMPY_QQ
from sympy.polys.fields import field as sympy_field

from conftest import COEFFS
from nkoszul.scalar import ParameterField, ParameterValue, div, mul_terms, parse_rational, rational


def test_rational_examples():
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)
    assert parse_rational("3/4") == Fraction(3, 4)
    assert str(parse_rational("6/8")) == "3/4"  # str writes what parse reads
    assert str(parse_rational("10/2")) == "5"
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("+6/4") == Fraction(3, 2)
    for text in str(Fraction(-22, 7)), str(Fraction(0)):
        assert str(parse_rational(text)) == text


def test_integral_rationals_are_int():
    for text, value in (("10/2", 5), ("-7", -7), ("0", 0), ("-0/3", 0), ("+4/1", 4)):
        assert type(parse_rational(text)) is int and parse_rational(text) == value
    assert type(parse_rational("6/4")) is Fraction
    assert type(rational(Fraction(4, 2))) is int and rational(Fraction(4, 2)) == 2
    assert rational(Fraction(3, 2)) == Fraction(3, 2)
    # an int and the equal Fraction print, compare and hash alike
    assert str(parse_rational("2")) == str(Fraction(2)) == "2"
    assert hash(parse_rational("2")) == hash(Fraction(2))


def test_div_int_exact():
    for a, b, q in ((6, 3, 2), (-6, 3, -2), (6, -3, -2), (0, 5, 0), (7, 1, 7), (7, -1, -7)):
        assert type(div(a, b)) is int and div(a, b) == q


def test_div_int_inexact():
    for a, b in ((1, 2), (-7, 3), (7, -3), (2, 4)):
        assert type(div(a, b)) is Fraction and div(a, b) == Fraction(a, b)
    assert div(5, -10) == Fraction(-1, 2)


def test_div_fraction_operands():
    assert div(Fraction(3, 4), Fraction(1, 2)) == Fraction(3, 2)
    assert div(Fraction(3, 4), 3) == Fraction(1, 4)
    assert div(3, Fraction(3, 4)) == 4
    for a, b in ((Fraction(1, 2), 2), (2, Fraction(2, 3)), (Fraction(1, 3), Fraction(1, 6))):
        assert type(div(a, b)) is Fraction


def test_div_sympy_operands():
    F = ParameterField(["q"])
    q = F.parameter("q")
    assert div(q**2 - 1, q - 1) == q + 1
    assert div(F.constant(1), q) == q**-1
    assert div(q, 2) == q / 2
    assert div(2, q) * q == 2


def test_rational_parse_rejects_anything_else():
    # Fraction() alone would accept the decimal and scientific forms, and
    # "1e200000" would build a 200001-digit integer from 8 characters.
    for text in (
        "1.5",
        "1.5e1",
        "1e200000",
        "1E2",
        "inf",
        "nan",
        " 1",
        "1 / 2",
        "1_000",
        "0x10",
        "\u0661",
        "1/-2",
        "1/0",
        "-",
        "",
    ):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_param_fraction_cancellation():
    F = ParameterField(["q"])
    q = F.parameter("q")
    a = (q - 1) / (q**2 - 1)
    b = F.constant(1) / (q + 1)
    assert a == b
    assert str(a) == str(b)
    # terms over one denominator add without a gcd; the sum still cancels
    assert F.parse("q/(q**2 - 1) - 1/(q**2 - 1)") == b
    assert F.parse("1/(q + 1) + q/(q + 1)") == 1


def test_param_laurent_identity():
    F = ParameterField(["q"])
    q = F.parameter("q")
    assert not q * q**-1 - 1
    assert q - 1
    # terms that cancel drop out, and the result is sympy's, in Laurent form
    F = ParameterField(["q12", "q13"])
    q12, q13 = F.parameter("q12"), F.parameter("q13")
    s12, s13 = sympy_field("q12 q13", SYMPY_QQ)[0].gens
    a, sa = q12**2 / 3 - 2 * q13**-1 + 1, s12**2 / 3 - 2 / s13 + 1
    zero = a - a
    assert not zero and zero.terms == {} and hash(zero) == hash(0)
    for value, frac in (
        (zero, sa - sa),
        ((q12 + 1) * (q12 - 1), (s12 + 1) * (s12 - 1)),
        ((q12 + q13) * (q12 - q13), (s12 + s13) * (s12 - s13)),
        ((q12 + 1 / q12) * (q12 - 1 / q12), (s12 + 1 / s12) * (s12 - 1 / s12)),
    ):
        assert value.frac is None and str(value) == str(frac)


def test_division_by_zero():
    F = ParameterField(["q"])
    one, zero = F.constant(1), F.constant(0)
    for a, b in ((1, 0), (0, 0), (Fraction(1), Fraction(0)), (Fraction(1, 2), 0), (one, zero)):
        with pytest.raises(ZeroDivisionError):
            div(a, b)


def test_param_parse_roundtrip():
    F = ParameterField(["q12", "q13"])
    q12, q13 = F.parameter("q12"), F.parameter("q13")
    values = [
        -q12,
        (q12 + 1) / (2 * q13),
        q12 / 2 + F.constant(1) / 3,
        q12**-1,
        -((q12 + q13) ** 2) / (q12 - q13),
        F.constant(0),
        F.constant(-3) / 4,
        (q12 + 1) ** 100,
        (q12 + q13 + 1) ** 43,
    ]
    assert str(values[0]) == "-q12"
    assert str(values[1]) == "(q12 + 1)/(2*q13)"
    for a in values:
        assert F.parse(str(a)) == a
    assert F.parse("-q12**2") == -(q12**2)
    assert F.parse("q12**-(2) * 2*-3") == -6 * q12**-2


def test_param_parse_rejects_anything_else():
    F = ParameterField(["q12", "q13"])
    for text in (
        "__import__('os').getpid() and q12",
        "__import__",
        "q14",
        "1.5",
        "q12**q13",
        "q12**(1/2)",
        "(q12",
        "q12)",
        "",
        "1/(q12 - q12)",
        "0**-1",
        # over total degree 100, 1000 terms or 1000-bit coefficients
        "q12**101",
        "q12**-" + "9" * 30,
        "(q12 + 1)**50 * (q12 + 1)**51",
        "1/(q12 + 1)**60 + 1/(q12 + 2)**60",
        "(q12 + q13 + 1)**44",
        "((7**100)**100)**100",
        "*".join(["7**99"] * 5),
        "9" * 400,
    ):
        with pytest.raises(ValueError):
            F.parse(text)


def _random_rational(rng):
    return rational(Fraction(rng.randint(-20, 20), rng.randint(1, 20)))


def _random_param(F, rng):
    q = F.parameter("q")
    num = sum(rng.randint(-3, 3) * q**k for k in range(3)) + F.constant(rng.randint(0, 1))
    den = q ** rng.randint(0, 2) * rng.randint(1, 3) + 1
    return num / den


def test_field_axioms_randomized():
    rng = random.Random(0)
    F = ParameterField(["q"])
    for _ in range(50):
        for sample in (_random_rational, lambda r: _random_param(F, r)):
            a, b, c = sample(rng), sample(rng), sample(rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == a - a
            if a:
                inverse = div(1, a)
                assert not isinstance(inverse, float) and not a * inverse - 1


def test_canonical_equality():
    # equal values must have identical canonical representations
    assert Fraction(2, 4) == Fraction(1, 2)
    assert str(Fraction(2, 4)) == str(Fraction(1, 2))
    F = ParameterField(["q"])
    q = F.parameter("q")
    x = (2 * q + 2) / (4 * q)
    y = (q + 1) / (2 * q)
    assert x == y and str(x) == str(y)


def test_field_instances():
    # fields with the same names make values that compare equal
    assert ParameterField(["a"]).parameter("a") == ParameterField(["a"]).parameter("a")
    assert ParameterField(["a"]).parameter("a") != ParameterField(["b"]).parameter("b")
    a, b = ParameterField(["a"]).parameter("a"), ParameterField(["b"]).parameter("b")
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert op(a, ParameterField(["a"]).parameter("a")) == op(a, a)
        with pytest.raises(TypeError):
            op(a, b)  # values of two fields do not mix
    assert repr(ParameterField(["a", "b"])) == "QQ(a, b)"
    # sympy would split these names, and the expression parser cannot read them
    for names in (["x y", "z"], ["x,y"]):
        with pytest.raises(ValueError):
            ParameterField(names)


NAMES = ("q1", "q2", "q3")


_LAURENT_COEFFS = st.one_of(COEFFS, st.integers(-9, 9))


def _exponents(k):
    return st.tuples(*[st.integers(-3, 3)] * k)


@st.composite
def _laurent_operands(draw):
    """k parameters, three Laurent polynomials as ``{exponent tuple:
    coefficient}`` (exponents in -3..3; zero coefficients drop out), a
    nonzero monomial and a rational."""
    k = draw(st.integers(1, 3))
    terms = [draw(st.dictionaries(_exponents(k), _LAURENT_COEFFS, max_size=4)) for _ in range(3)]
    monomial = {draw(_exponents(k)): draw(_LAURENT_COEFFS) or 1}
    return k, terms, monomial, draw(COEFFS)


@given(_laurent_operands())
@settings(max_examples=100, deadline=None)
def test_laurent_fast_path_matches_sympy_field(operands):
    # every operation of the Laurent form against the same operation done
    # directly in sympy's field, the representation it stands in for
    k, terms, monomial, r = operands
    F = ParameterField(NAMES[:k])
    fld = sympy_field(" ".join(NAMES[:k]), SYMPY_QQ)[0]

    def constant(c):
        return fld.one * fld.domain(c.numerator, c.denominator)

    def both(t):
        value, frac = F.constant(0), fld.zero
        for exps, c in t.items():
            term, sterm = F.constant(c), constant(c)
            for name, g, e in zip(NAMES, fld.gens, exps):
                term, sterm = term * F.parameter(name) ** e, sterm * g**e
            value, frac = value + term, frac + sterm
        return value, frac

    def agree(value, frac):
        assert str(value) == str(frac)
        assert (value.terms is not None) == (len(frac.denom) == 1)  # Laurent stays Laurent
        assert bool(value) == bool(frac)
        for c in (0, 1, r):
            assert (value == c) == (frac == constant(c))
        if frac.numer.is_ground and frac.denom == 1:
            const = parse_rational(str(frac))
            assert value == const and hash(value) == hash(const)

    (a, sa), (b, sb), (c, sc) = map(both, terms)
    m, sm = both(monomial)
    sr = constant(r)
    for value, frac in ((a, sa), (b, sb), (c, sc), (m, sm)):
        agree(value, frac)
    agree(a + b, sa + sb)
    agree(a - b, sa - sb)
    agree(a * b, sa * sb)
    agree(-a, -sa)
    agree(div(a, m), sa / sm)
    agree(r * a, sr * sa)
    agree(a + r, sa + sr)
    agree(r - a, sr - sa)
    assert (a == b) == (sa == sb)
    assert (a + b) - b == a and hash((a + b) - b) == hash(a)
    if c:
        # a quotient by several terms is held in sympy's field until it
        # is a Laurent polynomial again
        q, sq = div(a, c), sa / sc
        agree(q, sq)
        agree(q * c, sa)
        agree(q + b, sq + sb)
        agree(q * b, sq * sb)
        agree(div(q, m), sq / sm)
        agree(q - q, sq - sq)
        assert (q == a) == (sq == sa)
        if r:
            agree(div(r, c), sr / sc)


@st.composite
def _laurent_values(draw):
    """A Laurent value in one to three parameters, built on its terms."""
    k = draw(st.integers(1, 3))
    terms = draw(st.dictionaries(_exponents(k), _LAURENT_COEFFS, max_size=4))
    return ParameterValue(ParameterField(NAMES[:k]), {e: c for e, c in terms.items() if c})


@given(_laurent_values(), st.one_of(st.sampled_from([0, 1, -1, Fraction(1)]), _LAURENT_COEFFS))
@settings(max_examples=100, deadline=None)
def test_laurent_times_rational_scales(value, r):
    # a rational factor scales the coefficients: the same terms, with the
    # same coefficient types, as the ring product of the two term dicts
    expected = value._apply(r, mul_terms, operator.mul)
    for got in (value * r, r * value):
        assert got.frac is None
        assert got.terms == expected.terms
        assert {e: type(c) for e, c in got.terms.items()} == {
            e: type(c) for e, c in expected.terms.items()
        }
    assert (value * 1 is value) and (1 * value is value)
