"""The N-homogeneous algebra engine.

An algebra A = T(V)/(R) is presented by (n, N, relations).  Every word is
its base-n column and every element, each relation included, a
``{column: scalar}`` dict (see :mod:`nkoszul.freealg`).  Per degree d the
engine keeps one echelon basis, not reduced, of the ideal component I_d: a
:class:`nkoszul.linalg.RewriteEchelon` over a set of rules.  The words at
its non-pivot columns form the normal basis of A_d.  One byte per word, 1
exactly at those columns, is all the engine keeps of them, and
:meth:`AlgebraPresentation.normal_basis` lists them only on request.
Forward reduction against the echelon gives the unique normal form of any
element, which is the quotient arithmetic: an element lies in the ideal
exactly when that remainder is zero, and
:meth:`AlgebraPresentation.multiply` is the one product.  So an element of
A_d is its normal form, the echelon remainder as it is, with no class
around it.  The canonical reduced basis of I_d is built only when
:meth:`AlgebraPresentation.ideal_component` asks for it.

Columns of one length are ordered as integers, the lex order of words, and
a row's pivot is its least column, so the pivot of u ⊗ r ⊗ v is
u·lead(r)·v.  A rule is a row ρ_ℓ of the ideal with entry 1 at its leading
word ℓ.  Rewriting u·ℓ·v to u ⊗ (ℓ - ρ_ℓ) ⊗ v, a sum of larger words, is a
reduction system compatible with the order, which is a well-order in each
degree.  The rules are completed one degree at a time, a degree-truncated
noncommutative Buchberger algorithm (T. Mora, "Gröbner bases for
non-commutative polynomial rings", AAECC-3, LNCS 229 (1986)).  At degree d,
with the rules shorter than d fixed:

- the candidate rows are the relations, at d = N, and the row ρ_ℓ ⊗ v for
  each overlap w = ℓ·v = u·ℓ′ of two rules with |w| = d;
- each overlap row is reduced through the rewrite echelon of the shorter
  rules, whose own row at w is u ⊗ ρ_ℓ′, so it reduces as
  ρ_ℓ ⊗ v - u ⊗ ρ_ℓ′, the difference of the two rewritings of w;
- the relations and the overlap remainders that are not 0 are
  echelonized, and the pivots are the leading words of the rules of
  length d.

A remainder lies on words that contain no shorter leading word, so no
leading word contains a shorter one, and the rules of one length have
distinct leading words.  So the only ambiguities are the overlaps, and at
most one leading word ends at each position of a word.

Lemma.  The words of degree d that contain no leading word are a basis of
A_d, and for each word u·ℓ·v with ℓ a leading word, u ⊗ ρ_ℓ ⊗ v is a row
of I_d with pivot u·ℓ·v.

Proof.  Every rule lies in (R), and the rules of length N span R, so the
rows u ⊗ ρ_ℓ ⊗ v of degree d span I_d.  Reductions keep degree, so the
argument of Bergman's diamond lemma (G. M. Bergman, "The diamond lemma for
ring theory", Adv. Math. 29 (1978) 178-218, Theorem 1.2) runs in each
degree alone: the ambiguities it uses in degree d are the overlaps inside
words u'·w·v' of degree d.  An overlap w of length e ≤ d resolves: the
remainder of ρ_ℓ ⊗ v is a combination of the rules of length e, and
u' ⊗ - ⊗ v' maps reductions to reductions.  A rule or an overlap longer
than d cannot affect degree d.  So every element of degree d reduces to
one combination of words that contain no leading word, those words are a
basis of A_d, and the rows u ⊗ ρ_ℓ ⊗ v lie in I_d with the other words as
pivots.

A normal word of degree d extends one of degree d-1 by a letter, so it can
contain a leading word only as a suffix.  So the flags of degree d are
those of degree d-1 under each last letter, with the words that end in a
leading word of a shorter rule cleared: two slice assignments, no step per
word.  The leading words of the rules of length d are normal in those
flags, so until they are cleared the one echelon of degree d is the rewrite
echelon of the shorter rules, through which the overlap rows reduce, and
the rows it stores then stay valid.  The rewrite echelon takes the
row of a pivot at its rightmost window ℓ, which is unique; so its row at an
overlap w is u ⊗ ρ_ℓ′, not ρ_ℓ ⊗ v, and the reduction above checks w.  Two
rules of lengths k and k′ overlap only in words shorter than k + k′, so
when every rule has length N, as for each built-in algebra and its
envelope end(A), only the relations are ever eliminated, and from degree
2N on nothing is reduced to build a degree.
"""

from __future__ import annotations

from itertools import compress

from . import linalg
from . import series


class AlgebraPresentation:
    """An N-homogeneous algebra T(V)/(R) with per-degree caches.

    Each relation is a ``{column: scalar}`` dict over the columns of
    length-N words; zero entries are dropped.  Relations may be linearly
    dependent; only their span matters.  ``parameters`` names the
    parameters of the coefficients (none for rationals), for reports.
    The presentation itself is immutable; everything computed from it is
    kept in ``cache``, a :class:`PresentationCache`.
    """

    def __init__(self, n, N, relations, label="", parameters=()):
        if N < 2:
            raise ValueError("relation degree N must be >= 2")
        if n < 0:
            raise ValueError("generator count must be >= 0")
        relations = tuple(relations)
        size = n**N
        for r in relations:
            for col in r:
                if not 0 <= col < size:
                    raise ValueError(f"relation column {col} out of range {size}")
        self.n = n
        self.N = N
        self.relations = tuple({col: c for col, c in r.items() if c} for r in relations)
        self.label = label
        self.parameters = tuple(parameters)
        self.cache = PresentationCache()

    # ------------------------------------------------------------------
    # ideal components

    def _component(self, d):
        """Degree-d data; every lower degree is built first, since degree d
        needs the rules of every shorter length and the normal words of
        degree d-1."""
        if d < 0:
            raise ValueError("degree must be >= 0")
        degrees = self.cache.degrees
        while len(degrees) <= d:
            degrees.append(self._next_degree())
        return degrees[d]

    def _next_degree(self):
        n, degrees = self.n, self.cache.degrees
        d = len(degrees)
        if d == 0:
            return _DegreeData(linalg.RewriteEchelon(bytearray(b"\x01"), [], n, 0), [])
        below = degrees[d - 1].ends
        # a normal word extends one of degree d-1 by a letter, so it can hold
        # a leading word only as a suffix
        flags = bytearray(n**d)
        for a in range(n):
            flags[a::n] = degrees[d - 1].echelon.pivots.flags
        for k, size, ech in below:
            clear = bytes(n ** (d - k))
            for ell in ech.pivots:
                flags[ell::size] = clear
        # the rules of length d lead at normal words, so until their leading
        # words are cleared below this is the echelon of the shorter rules
        new = linalg.Echelon(n**d)
        ends = [*below, (d, n**d, new)]
        ech = linalg.RewriteEchelon(flags, ends, n, d)
        if d == self.N:
            new.extend(self.relations)
        for row in _overlap_rows(below, n, d):
            rem = ech.reduce(row)
            if rem:
                new.add(rem)
        for p in new.pivots:
            flags[p] = 0
        return _DegreeData(ech, ends if new.rank else below)

    def ideal_component(self, d) -> linalg.Subspace:
        """The degree-d component of the two-sided ideal (R), as a subspace."""
        data = self._component(d)
        if data.subspace is None:
            data.subspace = data.echelon.to_subspace()
        return data.subspace

    def ideal_rank(self, d) -> int:
        return self._component(d).echelon.rank

    # ------------------------------------------------------------------
    # quotient data

    def dim_component(self, d) -> int:
        return self.n**d - self.ideal_rank(d)

    def hilbert_series(self, max_degree) -> series.UniSeries:
        return series.UniSeries([self.dim_component(d) for d in range(max_degree + 1)])

    def normal_basis(self, d):
        """The non-pivot columns of I_d, increasing; their classes form a
        basis of A_d.  Listed from the flags of the echelon on every call,
        and not kept."""
        flags = self._component(d).echelon.pivots.flags
        return tuple(compress(range(self.n**d), flags))

    def reduce(self, d, vec):
        """Projection T(V)_d -> A_d of the column dict ``vec``: its normal
        form {normal column: scalar}, the echelon remainder."""
        return self._component(d).echelon.reduce(vec)

    def multiply(self, d, k, left, right, out=None):
        """Add into ``out`` (a new dict when None) the normal form in A_d of
        the product of the column dicts ``left``, of degree d - k, and
        ``right``, of degree k, and return ``out``.  Neither factor may hold
        a zero entry.  The word u then v has column u·n^k + v.  This is the
        one product of the quotient."""
        if out is None:
            out = {}
        shift = self.n**k
        for u, cu in left.items():
            head = u * shift
            for v, cv in right.items():
                linalg.axpy(out, cu * cv, self.class_of_word((d, head + v)))
        return out

    def class_of_word(self, word):
        """Normal form {normal column: scalar} of the word given as the pair
        (degree, column); memoized, the hot path for multiplication.  The
        cached dict is shared, so callers must not mutate it."""
        d, col = word
        data = self._component(d)
        vec = data.word_class.get(col)
        if vec is None:
            vec = data.word_class[col] = data.echelon.reduce({col: 1})
        return vec

    def __repr__(self):
        name = self.label or "algebra"
        return f"<{name}: n={self.n}, N={self.N}, {len(self.relations)} relations>"


def _overlap_rows(ends, n, d):
    """The rows ρ_ℓ ⊗ v, one for each overlap w = ℓ·v = u·ℓ′ of two rules
    with |w| = d, from ``ends``, the triples (k, n^k, echelon of the rules
    of length k) of the rules shorter than d.  ℓ′, of length j, is the one
    leading word that ends w, and it overlaps ℓ when it is longer than v."""
    for k, _, ech in ends:
        tail = n ** (d - k)
        for j, size, other in ends:
            if j <= d - k:
                continue
            for ell, row in ech.row_of.items():
                for v in range(tail):
                    if (ell * tail + v) % size in other.row_of:
                        yield {col * tail + v: c for col, c in row.items()}


class PresentationCache:
    """The lazily filled caches of one presentation, one field per cache.

    Each field is read and written only by the module named in its comment.
    An entry is computed on first use and never changes afterwards.  The
    caches must be written from one thread at a time; once the entries a
    computation needs are filled, any number of threads may read them,
    except that a read of a degree's echelon (``reduce``, ``class_of_word``)
    may store a row it had not used before, u ⊗ (row of ℓ) ⊗ v for the
    leading word ℓ of a rule; each such write stores the same value
    whoever makes it.
    ``mmt`` keeps nothing here: its G tables read the normal coordinates of
    ``degrees``.
    """

    __slots__ = ("degrees", "j_spaces", "j_slices", "symmetric", "word_contents", "j_contents")

    def __init__(self):
        self.degrees = []  # homog: _DegreeData of degrees 0, 1, 2, ...
        self.j_spaces = {}  # koszul: m -> the subspace J_m
        self.j_slices = {}  # koszul: (m, s) -> pivot of J_m -> pivot of J_{m-s} -> slice
        self.symmetric = None  # koszul: the verdict of _symmetric, None until checked
        self.word_contents = {}  # koszul: d -> {letter content: normal columns of degree d}
        self.j_contents = {}  # koszul: m -> {letter content: pivots of the rows of J_m}


class _DegreeData:
    """The echelon of I_d, the rules of length at most d, and what is
    derived from them.

    The flags of the echelon's pivots are the one record of the normal
    columns; ``subspace`` stays None until first asked for.
    """

    __slots__ = ("echelon", "ends", "subspace", "word_class")

    def __init__(self, echelon, ends):
        self.echelon = echelon
        # (k, n^k, Echelon of the rules of length k) for each k <= d that
        # has rules, by increasing k; a degree with none shares the list
        # of the degree below
        self.ends = ends
        self.subspace = None
        self.word_class = {}  # column -> normal form, see class_of_word
