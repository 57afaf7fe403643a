"""Exact coefficient fields.

Two fields are supported: the rationals and fractions of multivariate
polynomials in named parameters (for quantum-space coefficients).  A
rational is an ``int`` when it is integral and a ``fractions.Fraction``
otherwise: every built-in relation is integral and almost every echelon
pivot is ±1, so most arithmetic stays on ``int``.  The two kinds mix
freely, since ``str`` writes ``3`` and ``Fraction(3)`` alike and they
compare and hash equal; a ``Fraction`` that happens to be integral is
never converted back.

Scalars are duck-typed: everything downstream only uses ``+ - *``,
equality and truthiness, writes its zero and one as the literals ``0``
and ``1``, and divides only through :func:`div`, since ``int / int`` is a
float.  The field objects here exist to parse scalars and to make the
parameters; past the parser no code carries one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

from sympy.polys.domains import QQ as _SYMPY_QQ
from sympy.polys.fields import field as _frac_field


_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def div(a, b):
    """The exact quotient a / b: for two ``int`` operands an ``int`` when b
    divides a and a ``Fraction`` when it does not, for any other scalars
    ``a / b``.  Raises ZeroDivisionError when b is zero."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


class RationalField:
    """The rationals, realized by ``int`` values and arbitrary-precision
    ``Fraction`` values."""

    def convert(self, value):
        """The rational ``value`` (an ``int``, a ``Fraction`` or anything
        ``Fraction`` accepts) as an ``int`` when it is integral, else as a
        ``Fraction``."""
        value = Fraction(value)
        return value.numerator if value.denominator == 1 else value

    def parse(self, text: str):
        """Read ``"p/q"`` or ``"p"``, as ``str`` writes them; raises
        ValueError on anything else, including a zero denominator."""
        if _RATIONAL.fullmatch(text) is None:
            raise ValueError(f"not a rational 'p/q' or 'p' with q > 0: {text!r}")
        return self.convert(text)

    def __repr__(self):
        return "QQ"


class ParameterField:
    """Field of fractions of polynomials over QQ in named parameters.

    Backed by sympy's sparse fraction field, whose elements are kept in
    lowest terms with a sign-normalized denominator, so equality of values
    is equality of representations.  Negative powers of a parameter are
    ordinary fractions, which covers Laurent expressions like q**-1.
    """

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise ValueError("parameter field needs at least one parameter name")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {names}")
        self.parameters = names
        fld, *gens = _frac_field(" ".join(names), _SYMPY_QQ)
        self._field = fld
        self._gens = dict(zip(names, gens))

    def parameter(self, name: str):
        return self._gens[name]

    def from_int(self, k: int):
        return self._field.one * k

    def parse(self, text: str):
        """Read a rational expression in the parameters, as ``str`` writes
        it; raises ValueError on anything else.  The text is never
        evaluated as Python code."""
        return _ExpressionParser(self, text).parse()

    def __repr__(self):
        return f"QQ({', '.join(self.parameters)})"


#: Every value a parsed parameter expression passes through has a numerator
#: and a denominator of total degree at most MAX_DEGREE with at most
#: MAX_TERMS terms, and coefficients of at most MAX_BITS bits; every
#: exponent is at most MAX_DEGREE in size.  The parser bounds the degree and
#: the terms of each result before computing it, and the coefficients of a
#: power too, so no expression can make parsing run long or exhaust memory.
MAX_DEGREE = 100
MAX_TERMS = 1000
MAX_BITS = 1000


def _sizes(x):
    """(total degree, number of terms) of the numerator and of the
    denominator of ``x``."""
    return tuple(
        (max(map(sum, p.itermonoms()), default=0), len(p)) for p in (x.numer, x.denom)
    )


def _bits(x):
    """Largest bit length of a numerator or denominator of a coefficient of
    the numerator or the denominator of ``x``."""
    return max(
        (
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for p in (x.numer, x.denom)
            for c in p.itercoeffs()
        ),
        default=0,
    )


def _times(p, q):
    """Size bound of the product of polynomials of sizes ``p`` and ``q``."""
    return p[0] + q[0], p[1] * q[1]


def _power(p, e):
    """Size bound of the e-th power of a polynomial of size ``p``: at most
    one term per multiset of e of its terms."""
    degree, terms = p
    return degree * e, comb(e + terms - 1, e) if terms > 1 else terms


_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/()])")


class _ExpressionParser:
    """Recursive descent over the grammar

        sum      := product (("+" | "-") product)*
        product  := unary (("*" | "/") unary)*
        unary    := ("+" | "-") unary | atom ["**" exponent]
        atom     := integer | parameter name | "(" sum ")"
        exponent := ("+" | "-") exponent | "(" exponent ")" | integer

    so unary minus binds as in Python: -q**2 is -(q**2).  Each operation
    first checks the bounds above on the size of its result.
    """

    def __init__(self, field, text):
        self.field = field
        self.text = text
        self.tokens = []
        pos, end = 0, len(text.rstrip())
        while pos < end:
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ValueError(f"unexpected character in {text!r} at {pos}")
            self.tokens.append(m.group(1))
            pos = m.end()
        self.tokens.append("")  # end marker
        self.pos = 0

    def parse(self):
        value = self.sum()
        self.expect("")
        return value

    def accept(self, *choices):
        """Consume the next token and return it if it is one of ``choices``."""
        tok = self.tokens[self.pos]
        if tok in choices:
            self.pos += 1
            return tok
        return None

    def expect(self, tok):
        if self.accept(tok) is None:
            raise self.error()

    def error(self):
        tok = self.tokens[self.pos] or "end of input"
        return ValueError(f"unexpected {tok!r} in {self.text!r}")

    def too_large(self):
        return ValueError(
            f"expression exceeds total degree {MAX_DEGREE}, {MAX_TERMS} terms "
            f"or {MAX_BITS}-bit coefficients"
        )

    def bound(self, *sizes):
        """Raise unless every (degree, terms) size is within the bounds; a
        polynomial of degree d in p parameters has at most C(d + p, p)
        terms, whatever the estimate of its terms says."""
        p = len(self.field.parameters)
        if any(
            d > MAX_DEGREE or min(t, comb(d + p, p)) > MAX_TERMS for d, t in sizes
        ):
            raise self.too_large()

    def checked(self, value):
        """``value``, once its coefficients are found within MAX_BITS bits.
        Its operands were, so computing it took bounded time."""
        if _bits(value) > MAX_BITS:
            raise self.too_large()
        return value

    def sum(self):
        value = self.product()
        while op := self.accept("+", "-"):
            rhs = self.product()
            # a/b ± c/d = (a·d ± c·b) / (b·d)
            (a, b), (c, d) = _sizes(value), _sizes(rhs)
            ad, cb = _times(a, d), _times(c, b)
            self.bound((max(ad[0], cb[0]), ad[1] + cb[1]), _times(b, d))
            value = self.checked(value + rhs if op == "+" else value - rhs)
        return value

    def product(self):
        value = self.unary()
        while op := self.accept("*", "/"):
            rhs = self.unary()
            (a, b), (c, d) = _sizes(value), _sizes(rhs)
            if op == "*":
                self.bound(_times(a, c), _times(b, d))
                value = self.checked(value * rhs)
            elif not rhs:
                raise ValueError(f"division by zero in {self.text!r}")
            else:
                self.bound(_times(a, d), _times(b, c))
                value = self.checked(value / rhs)
        return value

    def unary(self):
        if self.accept("-"):
            return -self.unary()
        if self.accept("+"):
            return self.unary()
        base = self.atom()
        if not self.accept("**"):
            return base
        exp = self.exponent()
        if exp < 0 and not base:
            raise ValueError(f"division by zero in {self.text!r}")
        e = abs(exp)
        self.bound((e, 1))  # as q**e; a constant base gets no larger exponent
        numer, denom = _sizes(base) if exp > 0 else _sizes(base)[::-1]
        self.bound(_power(numer, e), _power(denom, e))
        if e * _bits(base) > MAX_BITS:
            raise self.too_large()
        return self.checked(base**exp)

    def exponent(self):
        if self.accept("("):
            exp = self.exponent()
            self.expect(")")
            return exp
        if self.accept("-"):
            return -self.exponent()
        if self.accept("+"):
            return self.exponent()
        tok = self.tokens[self.pos]
        if not tok.isdigit():
            raise self.error()
        self.pos += 1
        return int(tok)

    def atom(self):
        if self.accept("("):
            value = self.sum()
            self.expect(")")
            return value
        tok = self.tokens[self.pos]
        if tok.isdigit():
            value = self.checked(self.field.from_int(int(tok)))
        elif tok in self.field.parameters:
            value = self.field.parameter(tok)
        else:
            raise self.error()
        self.pos += 1
        return value


#: Shared default field instance.
QQ = RationalField()
