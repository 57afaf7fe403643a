"""Truncated power series.

Univariate series take their coefficients from a small ring adapter, so the
same arithmetic serves integer Hilbert series and series whose degree-d
coefficient is a degree-d element of a graded algebra (the form the
bialgebra identities live in).  Multivariate series are commutative
with scalar coefficients, truncated by total degree.
"""

from __future__ import annotations

from .linalg import axpy


class IntegerRing:
    def zero(self, degree):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return not a

    def invert_constant(self, a):
        if a == 1 or a == -1:
            return a
        raise ValueError(f"constant term {a!r} is not invertible over the integers")


class GradedRing:
    """Coefficients are graded-algebra classes; c_d must live in degree d."""

    def __init__(self, algebra):
        self.algebra = algebra

    def zero(self, degree):
        return self.algebra.zero_class(degree)

    def one(self):
        return self.algebra.unit()

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def is_zero(self, a):
        return a.is_zero()

    def invert_constant(self, a):
        if a != self.algebra.unit():
            raise ValueError("constant term must be the unit class")
        return a

    def check_degree(self, c, d):
        if c.degree != d:
            raise ValueError(f"coefficient at t^{d} has grade {c.degree}")


INTS = IntegerRing()


class UniSeries:
    """Series truncated at degree ``trunc``; coefficients c_0..c_trunc."""

    __slots__ = ("ring", "trunc", "coeffs")

    def __init__(self, ring, trunc, coeffs):
        if len(coeffs) != trunc + 1:
            raise ValueError("coefficient list does not match truncation degree")
        if hasattr(ring, "check_degree"):
            for d, c in enumerate(coeffs):
                ring.check_degree(c, d)
        self.ring = ring
        self.trunc = trunc
        self.coeffs = list(coeffs)

    def __mul__(self, other):
        ring = self.ring
        trunc = min(self.trunc, other.trunc)
        out = []
        for d in range(trunc + 1):
            acc = ring.zero(d)
            for i in range(d + 1):
                a = self.coeffs[i]
                b = other.coeffs[d - i]
                if ring.is_zero(a) or ring.is_zero(b):
                    continue
                acc = ring.add(acc, ring.mul(a, b))
            out.append(acc)
        return UniSeries(ring, trunc, out)

    def invert(self):
        ring = self.ring
        u = ring.invert_constant(self.coeffs[0])
        out = [u]
        for d in range(1, self.trunc + 1):
            acc = ring.zero(d)
            for i in range(1, d + 1):
                a = self.coeffs[i]
                b = out[d - i]
                if ring.is_zero(a) or ring.is_zero(b):
                    continue
                acc = ring.add(acc, ring.mul(a, b))
            out.append(ring.neg(ring.mul(u, acc)))
        return UniSeries(ring, self.trunc, out)

    def is_one(self) -> bool:
        ring = self.ring
        if self.ring.is_zero(self.coeffs[0]) or self.coeffs[0] != ring.one():
            return False
        return all(ring.is_zero(c) for c in self.coeffs[1:])

    def __eq__(self, other):
        if not isinstance(other, UniSeries):
            return NotImplemented
        trunc = min(self.trunc, other.trunc)
        return self.coeffs[: trunc + 1] == other.coeffs[: trunc + 1]

    def __repr__(self):
        return f"UniSeries(trunc={self.trunc}, {self.coeffs!r})"


def exponents_of_total(nvars, total):
    """All exponent vectors with the given total degree, lexicographically."""
    if nvars == 0:
        if total == 0:
            yield ()
        return
    if nvars == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in exponents_of_total(nvars - 1, total - head):
            yield (head,) + rest


class MultiSeries:
    """Commutative multivariate series over a scalar field, truncated by
    total degree; terms is an exponent-vector -> scalar map without zeros."""

    __slots__ = ("field", "nvars", "trunc", "terms")

    def __init__(self, field, nvars, trunc, terms=None):
        self.field = field
        self.nvars = nvars
        self.trunc = trunc
        clean = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise ValueError("exponent vector arity mismatch")
                if sum(e) > trunc:
                    raise ValueError("stored term beyond truncation")
                if c:
                    clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def one(cls, field, nvars, trunc):
        return cls(field, nvars, trunc, {(0,) * nvars: field.one})

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.field.zero)

    def __add__(self, other):
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        terms = {e: c for e, c in self.terms.items() if sum(e) <= trunc}
        kept = {e: c for e, c in other.terms.items() if sum(e) <= trunc}
        return MultiSeries(self.field, self.nvars, trunc, axpy(terms, 1, kept))

    def __neg__(self):
        return MultiSeries(
            self.field, self.nvars, self.trunc, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return MultiSeries(self.field, self.nvars, self.trunc, {})
        return MultiSeries(
            self.field, self.nvars, self.trunc, {e: c * v for e, v in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, MultiSeries):
            return self.scale(other)
        self._check(other)
        trunc = min(self.trunc, other.trunc)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if sum(e) <= trunc:
                    # the constructor drops the terms that cancel to zero
                    terms[e] = terms.get(e, self.field.zero) + c1 * c2
        return MultiSeries(self.field, self.nvars, trunc, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def invert(self):
        zero_exp = (0,) * self.nvars
        a0 = self.terms.get(zero_exp)
        if not a0:
            raise ValueError("constant term is zero")
        u = self.field.one / a0
        out = {zero_exp: u}
        rest = [(e, c) for e, c in self.terms.items() if e != zero_exp]
        for total in range(1, self.trunc + 1):
            for e in exponents_of_total(self.nvars, total):
                acc = None
                for f, c in rest:
                    if any(fi > ei for fi, ei in zip(f, e)):
                        continue
                    g = tuple(ei - fi for ei, fi in zip(e, f))
                    b = out.get(g)
                    if b is None:
                        continue
                    term = c * b
                    acc = term if acc is None else acc + term
                if acc:
                    out[e] = -u * acc
        return MultiSeries(self.field, self.nvars, self.trunc, out)

    def is_one(self) -> bool:
        one_terms = {(0,) * self.nvars: self.field.one}
        return self.terms == one_terms

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        if self.field != other.field or self.nvars != other.nvars:
            return False
        trunc = min(self.trunc, other.trunc)
        mine = {e: c for e, c in self.terms.items() if sum(e) <= trunc}
        theirs = {e: c for e, c in other.terms.items() if sum(e) <= trunc}
        return mine == theirs

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        if self.field != other.field:
            raise ValueError("field mismatch")

    def __repr__(self):
        return f"MultiSeries(nvars={self.nvars}, trunc={self.trunc}, {len(self.terms)} terms)"
