"""Truncated power series.

Univariate series have integer coefficients: Hilbert series and the
alternating series of the duality identities.  Multivariate series are
commutative with scalar coefficients, truncated by total degree.
"""

from __future__ import annotations

from .scalar import axpy, div, mul_terms


def _convolve(a, b, lo, d):
    """Σ_{i=lo}^{d} a_i·b_{d-i}."""
    return sum(a[i] * b[d - i] for i in range(lo, d + 1))


class UniSeries:
    """Series with integer coefficients c_0..c_trunc, truncated at the
    degree ``trunc`` of its last coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)

    @property
    def trunc(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other):
        trunc = min(self.trunc, other.trunc)
        return UniSeries([_convolve(self.coeffs, other.coeffs, 0, d) for d in range(trunc + 1)])

    def invert(self):
        """The inverse series; the constant term u must be ±1, so that u
        is its own inverse."""
        u = self.coeffs[0]
        if u * u != 1:
            raise ValueError(f"constant term {u!r} is not invertible")
        out = [u]
        for d in range(1, self.trunc + 1):
            out.append(-(u * _convolve(self.coeffs, out, 1, d)))
        return UniSeries(out)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    def __repr__(self):
        return f"UniSeries({self.coeffs!r})"


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
        """The product truncated at the lower truncation; part i of one
        factor meets part j of the other only where i + j is within it."""
        if not isinstance(other, MultiSeries):
            return NotImplemented
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        trunc = min(self.trunc, other.trunc)
        a, b = self._parts(), other._parts()
        terms = {}
        for i in range(trunc + 1):
            for j in range(trunc + 1 - i):
                axpy(terms, 1, mul_terms(a[i], b[j]))
        return MultiSeries(self.nvars, trunc, terms)

    def _parts(self):
        """The homogeneous parts: the terms of total degree t, t = 0..trunc."""
        parts = [{} for _ in range(self.trunc + 1)]
        for e, c in self.terms.items():
            parts[sum(e)][e] = c
        return parts

    def invert(self):
        """The inverse series, one total degree at a time: its part of
        degree t is -u·Σ_{j=1}^{t} a_j·b_{t-j}, a_j the part of degree j of
        this series, b_i that of the inverse and u the inverse of a_0."""
        zero_exp = (0,) * self.nvars
        a0 = self.terms.get(zero_exp)
        if not a0:
            raise ValueError("constant term is zero")
        u = div(1, a0)
        parts = self._parts()
        out = [{zero_exp: u}]
        for t in range(1, self.trunc + 1):
            part = {}
            for j in range(1, t + 1):
                axpy(part, -u, mul_terms(parts[j], out[t - j]))
            out.append(part)
        return MultiSeries(self.nvars, self.trunc, {e: c for part in out for e, c in part.items()})

    def __repr__(self):
        return f"MultiSeries(nvars={self.nvars}, trunc={self.trunc}, {len(self.terms)} terms)"
