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

Above degree N the relations are first tried as a Gröbner basis.
Columns of one length are ordered as integers, the lex order of words, and
a row's pivot is its least column, so the pivot of u ⊗ r ⊗ v is
u·lead(r)·v.  Let L be the pivots of I_N, the leading words of R, and ρ_ℓ
the row of ℓ in I_N.  Rewriting u·ℓ·v to u ⊗ (ℓ - ρ_ℓ) ⊗ v, a sum of
larger words, is a reduction system compatible with the order, which is a
well-order in each degree.  All words of L have length N, so none contains
another, and the only ambiguities are the overlaps w = ℓ·v = u·ℓ′ with ℓ,
ℓ′ in L and N < |w| < 2N; w resolves when ρ_ℓ ⊗ v - u ⊗ ρ_ℓ′, the
difference of its two rewritings, reduces to 0.

Lemma.  If every overlap of length at most d resolves, the words of degree
d that avoid L are a basis of A_d, and for each word u·ℓ·v with ℓ in L,
u ⊗ ρ_ℓ ⊗ v is a row of I_d with pivot u·ℓ·v.

Proof.  Reductions keep degree, so the argument of Bergman's diamond lemma
(G. M. Bergman, "The diamond lemma for ring theory", Adv. Math. 29 (1978)
178-218, Theorem 1.2) runs in each degree alone: the ambiguities it uses
in degree d are the overlaps inside words u'·w·v' of degree d, and such an
overlap resolves there because it resolves in degree |w| ≤ d and
u' ⊗ - ⊗ v' maps reductions to reductions.  An overlap longer than d cannot
affect degree d.  So every element of degree d reduces to one combination
of words that avoid L, and those words are a basis of A_d; the rows
u ⊗ ρ_ℓ ⊗ v lie in I_d, and their pivots are the other words.

So degree d, at d = N+1 or when degree d-1 is one, is first built as a
:class:`nkoszul.linalg.RewriteEchelon`: its normal words are the normal
words of degree d-1 followed by a letter, those that avoid L, and the row
of a pivot is u ⊗ ρ_ℓ ⊗ v at its rightmost window ℓ in L.  For d < 2N each
overlap w of length d is checked: the echelon's own row at w is u ⊗ ρ_ℓ′,
so w resolves when ρ_ℓ ⊗ v reduces to 0 through the echelon.  Conversely
a remainder that is not 0 is an element of I_d on words that avoid L, so
the check fails exactly when some pivot of I_d avoids L.  From degree 2N
on there is no overlap to check.  If one fails, degree d and every later
degree are eliminated over the degree below, which may be a rewrite
echelon.
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
        n, N, degrees = self.n, self.N, self.cache.degrees
        d = len(degrees)
        if d == 0:
            return _DegreeData(linalg.Echelon(1), (0,))
        below = degrees[d - 1]
        if d == N + 1 or isinstance(below.echelon, linalg.RewriteEchelon):
            lead = degrees[N].echelon
            # allowed[s]: the letters a for which s·a, s a word of N-1
            # letters, is not a pivot of I_N; q % suffixes is the last N-1
            # letters of q
            suffixes = n ** (N - 1)
            allowed = [[a for a in range(n) if s * n + a not in lead.pivots] for s in range(suffixes)]
            normal = tuple(q * n + a for q in below.normal for a in allowed[q % suffixes])
            ech = linalg.RewriteEchelon(n**d, normal, lead, n)
            if d >= 2 * N or _resolves(ech, lead, n ** (d - N)):
                return _DegreeData(ech, normal)
        if d > N:
            ech = linalg.Echelon(n**d, base=below.echelon, n=n)
            tail = n ** (d - N)
            for r in self.relations:
                for widx in degrees[d - N].normal:
                    ech.add({ridx * tail + widx: c for ridx, c in r.items()})
        else:
            ech = linalg.Echelon(n**d)
            if d == N:
                for r in self.relations:
                    ech.add(r)
        # I_{d-1} ⊗ V ⊆ I_d, so every normal word extends one of degree d-1.
        normal = tuple(
            i for q in below.normal for i in range(q * n, q * n + n) if i not in ech.pivots
        )
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


def _resolves(ech, lead, tail):
    """Whether every overlap w = ℓ·v = u·ℓ′ of two pivots of ``lead``, the
    echelon of I_N, with ``tail`` = n^|v|, resolves: the row ρ_ℓ ⊗ v of its
    leftmost occurrence reduces to 0 through the rewrite echelon ``ech``,
    whose own row at w is u ⊗ ρ_ℓ′ (see the module lemma)."""
    size = lead.ncols
    for ell in lead.pivots:
        for v in range(tail):
            if (ell * tail + v) % size in lead.pivots:
                if ech.reduce({col * tail + v: c for col, c in lead.row_of[ell].items()}):
                    return False
    return True


class PresentationCache:
    """The lazily filled caches of one presentation, one field per cache.

    Each field is read and written only by the module named in its comment.
    An entry is computed on first use and never changes afterwards.  The
    caches must be written from one thread at a time; once the entries a
    computation needs are filled, any number of threads may read them,
    except that a read of a degree's echelon (``reduce``, ``class_of_word``)
    may store a row it had not used before, u ⊗ (row of ℓ) ⊗ v for a pivot
    ℓ of the degree below or of I_N; that write stores the same row
    whoever makes it.
    ``mmt`` keeps nothing here: its G tables read the normal coordinates of
    ``degrees``.
    """

    __slots__ = ("degrees", "j_spaces", "j_slices")

    def __init__(self):
        self.degrees = []  # homog: _DegreeData of degrees 0, 1, 2, ...
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
