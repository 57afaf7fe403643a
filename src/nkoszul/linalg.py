"""Exact linear algebra over a scalar field.

Vectors are sparse ``{column: scalar}`` dicts; columns index words of a
tensor power under the fixed lex order, so ambient dimensions can be large
(millions) as long as the vectors stay sparse.  All elimination is exact;
there is no tolerance anywhere.
"""

from __future__ import annotations

from collections.abc import Set
from heapq import heapify, heappop, heappush

from .scalar import axpy, div


class Matrix:
    """A list of sparse rows with a fixed column count."""

    __slots__ = ("ncols", "rows")

    def __init__(self, ncols: int, rows):
        self.ncols = ncols
        self.rows = list(rows)


def _eliminate(pivots, row_of, row):
    """Clear from ``row``, in place, every column in ``pivots``.

    ``row_of`` maps each pivot column to an echelon row: each row has entry
    1 at its pivot and nothing left of it, so subtracting c·row cancels
    column j exactly.  Pivots are cleared in increasing order from a heap;
    clearing pivot j only adds columns right of j, so each is cleared at
    most once.  What is left is the unique representative of ``row`` on
    non-pivot columns.
    """
    heap = [j for j in row if j in pivots]
    heapify(heap)
    while heap:
        j = heappop(heap)
        c = row.get(j)
        if c is None:
            continue
        prow = row_of[j]
        axpy(row, -c, prow)
        for col in prow:
            if col > j and col in pivots:
                heappush(heap, col)
    return row


class _WindowRows(dict):
    """Pivot column -> echelon row, for the words of length d that contain
    a leading word of a rule, over V of dimension ``n``.

    ``ends`` lists (k, n^k, echelon of the rules of length k, whose pivots
    are their leading words) by increasing k <= d, a length with no rules
    left out or not.  No leading word contains a shorter one, so at most
    one ends at each position of a word.  A column missing here is a word
    u·ℓ·v whose rightmost window that is a leading word is ℓ; its row is
    u ⊗ (the row of ℓ) ⊗ v, built on first use and kept, so a hit stays a
    plain dict lookup.  Storing it is idempotent.  At ℓ itself, a rule of
    length d, the row kept is the rule's own, not a copy: no stored row is
    ever changed, since a rewrite echelon takes no row and
    :meth:`Echelon.to_subspace` copies what it reduces.
    """

    __slots__ = ("ends", "length", "n")

    def __init__(self, ends, n, d):
        super().__init__()
        self.ends = ends
        self.length = d
        self.n = n

    def __missing__(self, p):
        tail = 1  # n^|v| of the window
        for right in range(self.length):  # |v|, from the right end
            for k, size, ech in self.ends:
                if k + right > self.length:
                    break
                rule = ech.row_of.get(p // tail % size)
                if rule is not None:
                    if k < self.length:
                        head = p - p % (tail * size) + p % tail
                        rule = {head + col * tail: c for col, c in rule.items()}
                    self[p] = rule
                    return rule
            tail *= self.n
        raise KeyError(p)


class Echelon:
    """Mutable row-echelon accumulator.

    ``row_of`` maps each pivot column to a row with entry 1 at the pivot
    and nothing left of it, so the rows are an echelon basis of the row
    space.  ``pivots`` is the live view of its keys, not a second copy.
    Rank, :meth:`reduce` and :meth:`to_subspace` work from any such basis.
    With ``reduced=True`` each insertion also clears the new pivot column
    from every other row, so the rows stay in reduced row echelon form; by
    default that back-substitution is left to :meth:`to_subspace`.
    """

    __slots__ = ("ncols", "reduced", "row_of")

    def __init__(self, ncols: int, reduced: bool = False):
        self.ncols = ncols
        self.reduced = reduced
        self.row_of = {}  # pivot column -> row dict (includes the pivot entry 1)

    @property
    def pivots(self):
        return self.row_of.keys()

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, vec) -> bool:
        """Absorb ``vec``; return True when the rank grew."""
        row = _eliminate(self.pivots, self.row_of, {j: v for j, v in vec.items() if v})
        if not row:
            return False
        j = min(row)
        lead = row[j]
        if lead != 1:
            row = {col: div(val, lead) for col, val in row.items()}
            row[j] = 1
        if self.reduced:
            for prow in self.row_of.values():
                c = prow.get(j)
                if c is not None:
                    axpy(prow, -c, row)
        self.row_of[j] = row
        return True

    def extend(self, vecs) -> None:
        for v in vecs:
            self.add(v)

    def reduce(self, vec):
        """Remainder of ``vec`` modulo the row space, in either mode.

        The remainder is supported on non-pivot columns and is the unique
        representative of ``vec`` modulo the row space there.
        """
        return _eliminate(self.pivots, self.row_of, {j: v for j, v in vec.items() if v})

    def to_subspace(self):
        """The row space as a :class:`Subspace` (reduced row echelon basis)."""
        rows = {}
        # Last pivot first: each row is cleared against rows already reduced.
        for p in sorted(self.pivots, reverse=True):
            rows[p] = _eliminate(rows, rows, dict(self.row_of[p]))
        return Subspace(self.ncols, dict(reversed(rows.items())))


class _Complement(Set):
    """The pivots of a :class:`RewriteEchelon`: the columns at which
    ``flags``, one byte per column, is 0.  The flags are the owner's, not a
    copy, so a column it clears becomes a pivot here; the pivots are listed
    only when iterated."""

    __slots__ = ("flags",)

    def __init__(self, flags):
        self.flags = flags

    def __contains__(self, col):
        return not self.flags[col]

    def __len__(self):
        return len(self.flags) - self.flags.count(1)

    def __iter__(self):
        return (col for col, flag in enumerate(self.flags) if not flag)


class RewriteEchelon(Echelon):
    """The echelon on the words of length d of a set of rules, V of
    dimension ``n``: its pivots are the words that contain a leading word,
    and the row of a pivot is u ⊗ (row of ℓ) ⊗ v at its rightmost window ℓ
    that is one.

    ``ends`` lists the rules of length at most d, and no leading word
    contains a shorter one (see :class:`_WindowRows`).  ``flags``, a
    bytearray of n^d bytes, is 1 exactly at the words that contain none,
    and ``pivots`` is their complement, read from the same bytes; it
    replaces the view of ``row_of``, which holds only the rows built so
    far.  That these rows are an echelon basis of I_d is what the caller
    proves (see :mod:`nkoszul.homog`).  Rank, :meth:`reduce` and :meth:`to_subspace`
    are those of :class:`Echelon`; the echelon is complete, so :meth:`add`
    raises, and no stray row enters ``row_of`` unchecked.
    """

    __slots__ = ("pivots",)

    def __init__(self, flags, ends, n, d):
        self.ncols = len(flags)
        self.pivots = _Complement(flags)
        self.row_of = _WindowRows(ends, n, d)

    def add(self, vec):
        raise TypeError("a rewrite echelon is complete; no row can be added")


class Subspace:
    """A subspace given by its reduced-row-echelon basis: ``row_of`` maps
    each pivot column, in increasing order, to its row, which has entry 1
    there and 0 at every other pivot.

    The representation is canonical: the row space fixes the pivots and
    their rows, so two subspaces are equal iff their ``row_of`` are.
    """

    __slots__ = ("ambient_dim", "row_of")

    def __init__(self, ambient_dim, row_of):
        self.ambient_dim = ambient_dim
        self.row_of = row_of

    @property
    def dim(self) -> int:
        return len(self.row_of)

    def coordinates(self, vec):
        """Coordinates of ``vec`` in the basis rows, as a sparse
        ``{pivot: scalar}`` dict; raises ValueError if not a member.

        For a reduced echelon basis the coordinate along the row of pivot p
        is the entry of ``vec`` at p, so they are read from the entries of
        ``vec`` alone; ``vec`` is a member exactly when the residual
        ``vec - Σ coordinate·row`` is zero.
        """
        residual = {j: v for j, v in vec.items() if v}
        coords = {p: v for p, v in residual.items() if p in self.row_of}
        for p, c in coords.items():
            axpy(residual, -c, self.row_of[p])
        if residual:
            raise ValueError("vector is not in the subspace")
        return coords

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.row_of == other.row_of
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def rank(matrix: Matrix) -> int:
    ech = Echelon(matrix.ncols)
    ech.extend(matrix.rows)
    return ech.rank


def kernel(sub: Subspace) -> Subspace:
    """{v : Σ_j row[j]·v[j] = 0 for every row of ``sub``}, the annihilator
    of a subspace given by its reduced row echelon basis."""
    ech = Echelon(sub.ambient_dim)
    for j in range(sub.ambient_dim):
        if j in sub.row_of:
            continue
        vec = {j: 1}
        for p, row in sub.row_of.items():
            c = row.get(j)
            if c:
                vec[p] = -c
        ech.add(vec)
    return ech.to_subspace()


def full_space(ambient_dim: int) -> Subspace:
    return Subspace(ambient_dim, {j: {j: 1} for j in range(ambient_dim)})


def tensor_shifts(sub: Subspace, n: int):
    """V ⊗ sub and sub ⊗ V, V of dimension n, as subspaces of V^{⊗(k+1)}
    when sub lies in V^{⊗k}: the rows x_a ⊗ row and row ⊗ x_a, pivots
    a·n^k + p and p·n + a.

    No echelon is needed: the shifted rows of one letter a are the rows of
    sub on their own columns, so they are in RREF, and those of distinct
    letters share no column.  The rows are listed in increasing pivot
    order, a before p on the left and p before a on the right.
    """
    stride = sub.ambient_dim
    rows = sub.row_of.items()
    left = {
        a * stride + p: {a * stride + col: c for col, c in row.items()}
        for a in range(n)
        for p, row in rows
    }
    right = {
        p * n + a: {col * n + a: c for col, c in row.items()}
        for p, row in rows
        for a in range(n)
    }
    return Subspace(n * stride, left), Subspace(n * stride, right)


def intersect(u: Subspace, w: Subspace) -> Subspace:
    """u ∩ w, of two subspaces of one space given by their RREF bases.

    Each row u_p is reduced modulo w in one pass,
    r_p = u_p − Σ_q u_p[q]·w_q over the pivots q of w; this is exact, since
    every row of w is 0 at every other pivot of w.  So r_p is the
    representative of u_p on the non-pivot columns of w, and
    v = Σ_p x_p·u_p lies in w exactly when Σ_p x_p·r_p = 0.  The rows
    (r_p, tag 1 at amb + p) go into one reduced echelon of width 2·amb;
    each stored row whose pivot is a tag holds such coordinates x on the
    tags alone.

    Lemma: these members v are the RREF basis of u ∩ w.  u is in RREF, so
    v[p] = x_p at every pivot p of u: the pivot of v is its least tag, and
    v is 0 at the pivots of the other members, since the reduced echelon
    keeps the tag rows in RREF.
    """
    amb = u.ambient_dim
    ech = Echelon(2 * amb, reduced=True)
    for p, row in u.row_of.items():
        rest = dict(row)
        for q, c in row.items():
            wq = w.row_of.get(q)
            if wq is not None:
                axpy(rest, -c, wq)
        rest[amb + p] = 1
        ech.add(rest)
    members = {}
    for t in sorted(t for t in ech.pivots if t >= amb):
        v = members[t - amb] = {}
        for tag, x in ech.row_of[t].items():
            axpy(v, x, u.row_of[tag - amb])
    return Subspace(amb, members)


class BasisSolver:
    """Coordinate extraction in an arbitrary (not necessarily echelon) basis.

    Augments each basis vector with a unit tag column and echelonizes once;
    coordinates of a member vector are then read off the tag columns of its
    remainder.
    """

    __slots__ = ("ambient_dim", "size", "_ech")

    def __init__(self, rows, ambient_dim: int):
        self.ambient_dim = ambient_dim
        self.size = len(rows)
        ech = Echelon(ambient_dim + self.size, reduced=True)
        for i, row in enumerate(rows):
            aug = dict(row)
            aug[ambient_dim + i] = 1
            ech.add(aug)
        if any(p >= ambient_dim for p in ech.pivots):
            raise ValueError("basis rows are linearly dependent")
        self._ech = ech

    def coordinates(self, vec):
        rem = self._ech.reduce(vec)
        coords = {}
        for col, val in rem.items():
            if col < self.ambient_dim:
                raise ValueError("vector is not in the span of the basis")
            coords[col - self.ambient_dim] = -val
        return coords
