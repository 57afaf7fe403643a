"""The N-homogeneous algebra engine.

An algebra A = T(V)/(R) is presented by (n, N, relations).  Per degree d the
engine keeps one echelon basis, not reduced, of the ideal component I_d,
built by the recursion

    I_d = V ⊗ I_{d-1} + R ⊗ V^{⊗(d-N)}        (d > N).

The shifted rows of I_{d-1} are already an echelon basis of V ⊗ I_{d-1},
so the degree-d echelon has the echelon of degree d-1 as its base (see
:class:`nkoszul.linalg.Echelon`): it starts with their pivots and builds a
shifted row only when elimination first needs it.  Since R ⊗ I_{d-N} ⊆
V ⊗ I_{d-1}, only the rows R ⊗ w for normal words w of degree d-N are
eliminated, and only the rows they add are new.  The words at
non-pivot columns form the normal basis of A_d, and forward reduction
against the echelon gives the unique normal form of any element, which is
the quotient arithmetic: an element lies in the ideal exactly when that
remainder is zero, and :meth:`AlgebraPresentation.multiply` is the one
product.  Every word here is its base-n column and every element, each
relation included, a ``{column: scalar}`` dict (see
:mod:`nkoszul.freealg`), so an element of A_d is its normal form, the
echelon remainder as it is, with no class around it.  The canonical
reduced basis of I_d is built only when
:meth:`AlgebraPresentation.ideal_component` asks for it.

When the relations are a Gröbner basis, no degree above 2N-1 is
eliminated.  Columns of one length are ordered as integers, the lex order
of words, and a row's pivot is its least column, so the pivot of u ⊗ r ⊗ v
is u·lead(r)·v.  Let L be the pivots of I_N, the leading words of R.

Lemma.  Suppose that for d = N+1, ..., 2N-1 every pivot of I_d contains a
word of L.  Then in every degree the pivots of I_d are the words that
contain a word of L, and for each occurrence ℓ of a word of L in a word
u·ℓ·v, u ⊗ (the row of ℓ in I_N) ⊗ v is a row of I_d with pivot u·ℓ·v.

Proof.  A word that contains a word of L is a pivot, since
u ⊗ I_N ⊗ v ⊆ I_d.  Rewriting u·ℓ·v to u ⊗ (ℓ - row of ℓ) ⊗ v, a sum of
larger words, is a reduction system compatible with the order, which is
a well-order in each degree.  All words of L have length N, so its only
ambiguities are overlaps a·b·c with a·b and b·c in L, of length N+1 to
2N-1.  Reducing an overlap fully in its two ways gives two elements whose
difference lies in I_d and is supported on words that avoid L; a nonzero
element of I_d has a pivot, which by the assumption contains a word of L,
so the difference is 0 and every ambiguity resolves.  By Bergman's diamond
lemma (G. M. Bergman, "The diamond lemma for ring theory", Adv. Math. 29
(1978) 178-218, Theorem 1.2) the words that avoid L are then a basis of A,
so in each degree they are the normal words and the pivots are the rest.

The assumption is checked by counting.  ``allowed[s]`` lists the letters
a for which s·a, s a word of N-1 letters, is not in L.  While every pivot
of I_{d-1} contains a word of L, the words of degree d that avoid L are
the normal words q of degree d-1 followed by a letter of allowed[the last
N-1 letters of q].  Every normal word of degree d is one of them: its
prefix is normal, as I_{d-1} ⊗ V ⊆ I_d, and it avoids L.  So their count
equals dim A_d exactly when every pivot of I_d contains a word of L.  From
degree 2N on, a presentation that passed in every degree N+1..2N-1 takes
those extensions as its normal words and a
:class:`nkoszul.linalg.RewriteEchelon` as its echelon, with no
elimination; any other presentation is eliminated in every degree.
"""

from __future__ import annotations

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
        """Degree-d data; every lower degree is built first, since I_d
        needs I_{d-1} and the normal words of degrees d-1 and d-N."""
        if d < 0:
            raise ValueError("degree must be >= 0")
        degrees = self.cache.degrees
        while len(degrees) <= d:
            degrees.append(self._next_degree())
        return degrees[d]

    def _next_degree(self):
        n, N, cache = self.n, self.N, self.cache
        degrees, allowed = cache.degrees, cache.groebner
        d = len(degrees)
        suffixes = n ** (N - 1)  # q % suffixes: the last N-1 letters of q
        if d >= 2 * N and allowed is not None:
            normal = tuple(q * n + a for q in degrees[d - 1].normal for a in allowed[q % suffixes])
            return _DegreeData(linalg.RewriteEchelon(n**d, normal, degrees[N].echelon, n), normal)
        if d > N:
            ech = linalg.Echelon(n**d, base=degrees[d - 1].echelon, n=n)
            tail = n ** (d - N)
            for r in self.relations:
                for widx in degrees[d - N].normal:
                    ech.add({ridx * tail + widx: c for ridx, c in r.items()})
        else:
            ech = linalg.Echelon(n**d)
            if d == N:
                for r in self.relations:
                    ech.add(r)
        if d == 0:
            normal = (0,)
        else:
            # I_{d-1} ⊗ V ⊆ I_d, so every normal word extends one of degree d-1.
            normal = tuple(
                i
                for q in degrees[d - 1].normal
                for i in range(q * n, q * n + n)
                if i not in ech.pivots
            )
        if d == N:
            cache.groebner = tuple(
                tuple(a for a in range(n) if s * n + a not in ech.pivots) for s in range(suffixes)
            )
        elif d > N and allowed is not None:
            if sum(len(allowed[q % suffixes]) for q in degrees[d - 1].normal) != len(normal):
                cache.groebner = None
        return _DegreeData(ech, normal)

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
        coeffs = [self.dim_component(d) for d in range(max_degree + 1)]
        return series.UniSeries(max_degree, coeffs)

    def normal_basis(self, d):
        """The non-pivot columns of I_d, increasing; their classes form a
        basis of A_d."""
        return self._component(d).normal

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

    # ------------------------------------------------------------------

    def dual(self) -> "AlgebraPresentation":
        """The dual N-homogeneous algebra on V* with relations R^⊥."""
        perp = linalg.kernel(self.ideal_component(self.N))
        label = f"{self.label}!" if self.label else "dual"
        return AlgebraPresentation(
            self.n, self.N, perp.rows, label=label, parameters=self.parameters
        )

    def __repr__(self):
        name = self.label or "algebra"
        return f"<{name}: n={self.n}, N={self.N}, {len(self.relations)} relations>"


class PresentationCache:
    """The lazily filled caches of one presentation, one field per cache.

    Each field is read and written only by the module named in its comment.
    An entry is computed on first use and never changes afterwards, except
    ``groebner``, which the degrees N..2N-1 set and may clear while they are
    built.  The caches must be written from one thread at a time; once the
    entries a computation needs are filled, any number of threads may read
    them, except that a read of a degree's echelon (``reduce``,
    ``class_of_word``) may store a row it had not used before: a shifted
    row of the degree below, or from degree 2N on a rewrite row
    u ⊗ (row of I_N) ⊗ v; that write stores the same row whoever makes it.
    ``mmt`` keeps nothing here: its G tables read the normal coordinates of
    ``degrees``.
    """

    __slots__ = ("degrees", "groebner", "j_spaces", "j_slices")

    def __init__(self):
        self.degrees = []  # homog: _DegreeData of degrees 0, 1, 2, ...
        # homog: the Gröbner check's table allowed[s], built at degree N:
        # the letters a for which s·a, s a word of N-1 letters, is not a
        # pivot of I_N; None before degree N and from the first degree
        # that fails the check
        self.groebner = None
        self.j_spaces = {}  # koszul: m -> the subspace J_m
        self.j_slices = {}  # koszul: (m, s) -> J_m in V^{⊗s} ⊗ J_{m-s} coordinates


class _DegreeData:
    """The echelon of I_d, its normal columns, and what is derived from them.

    ``subspace`` stays None until first asked for.
    """

    __slots__ = ("echelon", "normal", "subspace", "word_class")

    def __init__(self, echelon, normal):
        self.echelon = echelon
        self.normal = normal  # non-pivot columns, increasing
        self.subspace = None
        self.word_class = {}  # column -> normal form, see class_of_word
