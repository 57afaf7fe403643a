"""Exact scalars, and the kernels every layer computes with: the exact
division :func:`div`, the sparse accumulate :func:`axpy`, and on it the
product :func:`mul_terms` of two dicts from exponent tuples to scalars.

A rational is an ``int`` when it is integral and a ``fractions.Fraction``
otherwise: every built-in relation is integral and almost every echelon
pivot is ±1, so most arithmetic stays on ``int``.  The two kinds mix
freely, since ``str`` writes ``3`` and ``Fraction(3)`` alike and they
compare and hash equal; a ``Fraction`` that happens to be integral is
never converted back.  :func:`rational` makes one, :func:`parse_rational`
reads one.

A parameter value is a :class:`ParameterValue` of a :class:`ParameterField`
(for quantum-space coefficients).  Every value the generic quantum spaces
reach is a Laurent polynomial, held as a dict from exponent tuples to
rationals, whose ``+ - *`` run on :func:`axpy` and :func:`mul_terms`; only
a value whose reduced denominator is not a monomial is held in sympy's
fraction field.  sympy is imported on first need (for such a value, a
division by a value of several terms, the parameter-expression parser and
``str``), so a command that meets only Laurent values never imports it.

Scalars are duck-typed: everything downstream only uses ``+ - *``,
equality and truthiness, writes its zero and one as the literals ``0``
and ``1``, and divides only through :func:`div`, since ``int / int`` is a
float.  The only field object is :class:`ParameterField`, which parses
parameter values and makes the parameters; past the parser no code
carries one.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb
from operator import add, mul, sub, truediv


_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def div(a, b):
    """The exact quotient a / b: for two ``int`` operands an ``int`` when b
    divides a and a ``Fraction`` when it does not, for any other scalars
    ``a / b``.  Raises ZeroDivisionError when b is zero."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def axpy(acc, c, vec):
    """Add ``c·vec`` into ``acc`` in place, dropping entries that cancel.

    ``c`` must be nonzero and ``vec`` hold no zeros, so a new entry is
    never zero.  Returns ``acc``.
    """
    for col, val in vec.items():
        cur = acc.get(col)
        if cur is None:
            acc[col] = c * val
        else:
            cur = cur + c * val
            if cur:
                acc[col] = cur
            else:
                del acc[col]
    return acc


def rational(value):
    """The rational ``value`` (an ``int``, a ``Fraction`` or anything
    ``Fraction`` accepts) as an ``int`` when it is integral, else as a
    ``Fraction``."""
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def parse_rational(text: str):
    """Read ``"p/q"`` or ``"p"``, as ``str`` writes them; raises
    ValueError on anything else, including a zero denominator."""
    if _RATIONAL.fullmatch(text) is None:
        raise ValueError(f"not a rational 'p/q' or 'p' with q > 0: {text!r}")
    return rational(text)


_NAME = "[A-Za-z_][A-Za-z_0-9]*"  # a parameter name, as the expression parser reads it


class ParameterField:
    """Field of fractions of polynomials over QQ in named parameters.

    Its values are :class:`ParameterValue` objects.  The parameters are
    made without sympy; sympy's sparse fraction field, whose elements are
    kept in lowest terms with a sign-normalized denominator, is built on
    first need.
    """

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise ValueError("parameter field needs at least one parameter name")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names: {names}")
        for name in names:
            if re.fullmatch(_NAME, name) is None:
                raise ValueError(f"parameter name {name!r} does not match {_NAME}")
        self.parameters = names
        self._zero = (0,) * len(names)  # the exponent of a constant
        self._fraction_field = None  # sympy's, built by _sympy_field
        self._gens = {
            name: ParameterValue(self, {tuple(int(i == j) for i in range(len(names))): 1})
            for j, name in enumerate(names)
        }

    def parameter(self, name: str):
        return self._gens[name]

    def constant(self, c):
        """The rational ``c`` (an ``int`` or a ``Fraction``) as a value."""
        return ParameterValue(self, {self._zero: c} if c else {})

    def parse(self, text: str):
        """Read a rational expression in the parameters, as ``str`` writes
        it; raises ValueError on anything else.  The text is never
        evaluated as Python code."""
        return self._from_sympy(_ExpressionParser(self, text).parse())

    def _sympy_field(self):
        """sympy's fraction field in the parameters, built on first call."""
        if self._fraction_field is None:
            from sympy.polys.domains import QQ as sympy_qq
            from sympy.polys.fields import field

            self._fraction_field = field(" ".join(self.parameters), sympy_qq)[0]
        return self._fraction_field

    def _from_sympy(self, frac):
        """The sympy value ``frac`` in canonical form: Laurent when its
        reduced denominator is a monomial c·q^m, sympy's otherwise."""
        if len(frac.denom) != 1:
            return ParameterValue(self, None, frac)
        ((m, d),) = frac.denom.terms()
        d = _rational(d)
        return ParameterValue(
            self, {tuple(map(sub, e, m)): div(_rational(c), d) for e, c in frac.numer.terms()}
        )

    def __repr__(self):
        return f"QQ({', '.join(self.parameters)})"


def _rational(c):
    """The sympy rational ``c`` as an ``int`` or a ``Fraction``."""
    return div(int(c.numerator), int(c.denominator))


def _to_sympy(fld, c):
    """The rational ``c`` as an element of the ground domain of ``fld``."""
    return fld.domain(c.numerator, c.denominator)


def _laurent_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return axpy(dict(a), 1, b)


def _laurent_sub(a, b):
    return axpy(dict(a), -1, b)


def mul_terms(a, b):
    """The product of two term dicts, each from exponent tuples to nonzero
    scalars (a Laurent value, or a part of a series): a shifted copy of the
    longer per term of the shorter, summed by :func:`axpy`."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for e, c in a.items():
        axpy(out, c, {tuple(map(add, e, f)): d for f, d in b.items()})
    return out


def _laurent_div(a, b):
    """The quotient of two Laurent term dicts when ``b`` has one term; None
    when it has several."""
    if not b:
        raise ZeroDivisionError("division by zero")
    if len(b) > 1:
        return None
    ((m, d),) = b.items()
    return {tuple(map(sub, e, m)): div(c, d) for e, c in a.items()}


class ParameterValue:
    """An element of a :class:`ParameterField`, in one of two forms.

    A Laurent polynomial is held in ``terms``, a dict from exponent tuples
    (entries may be negative) to nonzero ``int`` or ``Fraction``
    coefficients; ``+ - *`` and a division by a one-term value stay in this
    form.  Any other value is a sympy ``FracElement`` in ``frac``, and
    ``terms`` is None.  An operation that involves such a value, or that
    divides by a value of several terms, is done in sympy's field and its
    result brought back to the Laurent form whenever it is one, as
    (q**2 - 1)/(q - 1) = q + 1 is.  The form is a function of the value,
    so equality is equality of representations, and a constant compares
    and hashes equal to the ``int`` or ``Fraction`` it is.  No
    ``FracElement`` leaves the class: sympy's ``==`` is False, not
    NotImplemented, against an operand it does not know.
    """

    __slots__ = ("field", "terms", "frac")

    def __init__(self, field, terms, frac=None):
        self.field = field
        self.terms = terms
        self.frac = frac

    def _sympy(self):
        """This value in sympy's fraction field."""
        if self.frac is not None:
            return self.frac
        fld = self.field._sympy_field()
        if not self.terms:
            return fld.zero
        shift = tuple(min(0, *col) for col in zip(*self.terms))
        numer = fld.ring.from_dict(
            {tuple(map(sub, e, shift)): _to_sympy(fld, c) for e, c in self.terms.items()}
        )
        denom = fld.ring.from_dict({tuple(-s for s in shift): fld.domain.one})
        return fld.new(numer, denom)

    def _apply(self, other, laurent, op):
        """``op(self, other)``: ``laurent`` on the two term dicts when both
        operands are Laurent and it gives a result, else ``op`` in sympy's
        field.  NotImplemented for an operand that is no scalar of this
        field."""
        if type(other) is ParameterValue:
            if other.field is not self.field and other.field.parameters != self.field.parameters:
                return NotImplemented
            terms = other.terms
        elif isinstance(other, (int, Fraction)):
            terms = {self.field._zero: other} if other else {}
        else:
            return NotImplemented
        if self.terms is not None and terms is not None:
            out = laurent(self.terms, terms)
            if out is not None:
                return ParameterValue(self.field, out)
        fld = self.field._sympy_field()
        rhs = other._sympy() if type(other) is ParameterValue else _to_sympy(fld, other)
        return self.field._from_sympy(op(self._sympy(), rhs))

    def __add__(self, other):
        return self._apply(other, _laurent_add, add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._apply(other, _laurent_sub, sub)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        return self._apply(other, mul_terms, mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply(other, _laurent_div, truediv)

    def __rtruediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.field.constant(other) / self

    def __pow__(self, e):
        if type(e) is not int:
            return NotImplemented
        if e < 0:
            return (1 / self) ** -e
        value = self.field.constant(1)
        for _ in range(e):
            value = value * self
        return value

    def __bool__(self):
        return bool(self.terms if self.frac is None else self.frac)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.constant(other)
        elif type(other) is not ParameterValue:
            return NotImplemented
        if self.frac is None and other.frac is None:
            return self.terms == other.terms and self.field.parameters == other.field.parameters
        return self._sympy() == other._sympy()

    def __hash__(self):
        if self.frac is not None:
            return hash(self.frac)
        if self.terms.keys() <= {self.field._zero}:  # a constant
            return hash(self.terms.get(self.field._zero, 0))
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return str(self._sympy())

    __repr__ = __str__


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


_TOKEN = re.compile(rf"\s*([0-9]+|{_NAME}|\*\*|[-+*/()])")


class _ExpressionParser:
    """Recursive descent over the grammar

        sum      := product (("+" | "-") product)*
        product  := unary (("*" | "/") unary)*
        unary    := ("+" | "-") unary | atom ["**" exponent]
        atom     := integer | parameter name | "(" sum ")"
        exponent := ("+" | "-") exponent | "(" exponent ")" | integer

    so unary minus binds as in Python: -q**2 is -(q**2).  It computes in
    sympy's fraction field, and each operation first checks the bounds above
    on the size of its result.
    """

    def __init__(self, field, text):
        self.field = field
        self.text = text
        fld = field._sympy_field()
        self.one = fld.one
        self.gens = dict(zip(field.parameters, fld.gens))
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
        """A sum of products.  Terms over the running denominator add in the
        polynomial ring, with no gcd; the sum is brought to lowest terms
        once, on return."""
        value = self.product()
        while op := self.accept("+", "-"):
            rhs = self.product()
            # a/b ± c/d = (a·d ± c·b) / (b·d)
            (a, b), (c, d) = _sizes(value), _sizes(rhs)
            ad, cb = _times(a, d), _times(c, b)
            self.bound((max(ad[0], cb[0]), ad[1] + cb[1]), _times(b, d))
            if value.denom == rhs.denom:
                numer = value.numer + rhs.numer if op == "+" else value.numer - rhs.numer
                value = self.checked(value.raw_new(numer, value.denom))
            else:
                value = self.checked(value + rhs if op == "+" else value - rhs)
        return value.new(value.numer, value.denom)

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
            value = self.checked(self.one * int(tok))
        elif tok in self.gens:
            value = self.gens[tok]
        else:
            raise self.error()
        self.pos += 1
        return value
