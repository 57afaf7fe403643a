"""Truncated power series.

Univariate series compute with their coefficients' own ``+``, ``*`` and
unary ``-``, so the same arithmetic serves integer Hilbert series and
series whose degree-d coefficient is a degree-d element of a graded algebra
(the form the bialgebra identities live in).  Multivariate series are
commutative with scalar coefficients, truncated by total degree.
"""

from __future__ import annotations

from .scalar import div


def _convolve(a, b, lo, d):
    """Σ_{i=lo}^{d} a_i·b_{d-i}, started from its first product, so no
    degree-d zero is needed; the other products are skipped when a factor
    is zero."""
    acc = a[lo] * b[d - lo]
    for i in range(lo + 1, d + 1):
        if a[i] and b[d - i]:
            acc = acc + a[i] * b[d - i]
    return acc


class UniSeries:
    """Series truncated at degree ``trunc``; coefficients c_0..c_trunc.

    ``one`` is the unit of the coefficient ring (``1``, or the unit class of
    a graded algebra).  A coefficient with a ``degree`` must have degree d
    at t^d.
    """

    __slots__ = ("one", "trunc", "coeffs")

    def __init__(self, one, trunc, coeffs):
        if len(coeffs) != trunc + 1:
            raise ValueError("coefficient list does not match truncation degree")
        for d, c in enumerate(coeffs):
            if getattr(c, "degree", d) != d:
                raise ValueError(f"coefficient at t^{d} has grade {c.degree}")
        self.one = one
        self.trunc = trunc
        self.coeffs = list(coeffs)

    def __mul__(self, other):
        trunc = min(self.trunc, other.trunc)
        out = [_convolve(self.coeffs, other.coeffs, 0, d) for d in range(trunc + 1)]
        return UniSeries(self.one, trunc, out)

    def invert(self):
        """The inverse series; the constant term u must satisfy u·u = one,
        so that u is its own inverse."""
        u = self.coeffs[0]
        if u * u != self.one:
            raise ValueError(f"constant term {u!r} is not invertible")
        out = [u]
        for d in range(1, self.trunc + 1):
            out.append(-(u * _convolve(self.coeffs, out, 1, d)))
        return UniSeries(self.one, self.trunc, out)

    def is_one(self) -> bool:
        return self.coeffs[0] == self.one and not any(self.coeffs[1:])

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
    """Commutative multivariate series with scalar coefficients, truncated
    by total degree; terms is an exponent-vector -> scalar map without
    zeros."""

    __slots__ = ("nvars", "trunc", "terms")

    def __init__(self, nvars, trunc, terms=None):
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

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), 0)

    def __mul__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        trunc = min(self.trunc, other.trunc)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if sum(e) <= trunc:
                    # the constructor drops the terms that cancel to zero
                    terms[e] = terms.get(e, 0) + c1 * c2
        return MultiSeries(self.nvars, trunc, terms)

    def invert(self):
        zero_exp = (0,) * self.nvars
        a0 = self.terms.get(zero_exp)
        if not a0:
            raise ValueError("constant term is zero")
        u = div(1, a0)
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
        return MultiSeries(self.nvars, self.trunc, out)

    def __eq__(self, other):
        if not isinstance(other, MultiSeries):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        trunc = min(self.trunc, other.trunc)
        mine = {e: c for e, c in self.terms.items() if sum(e) <= trunc}
        theirs = {e: c for e, c in other.terms.items() if sum(e) <= trunc}
        return mine == theirs

    def __repr__(self):
        return f"MultiSeries(nvars={self.nvars}, trunc={self.trunc}, {len(self.terms)} terms)"
