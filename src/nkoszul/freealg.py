"""Words and homogeneous tensors over a finite generator alphabet.

A word is a tuple of generator indices in ``range(n)``; a grade-k tensor is
a finite scalar combination of length-k words.  Words are ordered (and
numbered) lexicographically with x_1 < ... < x_n, i.e. a word is read as a
base-n numeral, its column; this single convention fixes every echelon basis
downstream.  The quotient layer works on columns only: the word u then v has
column u·n^|v| + v.  Tuples are for the edges (relations, files, reports),
which convert with :func:`word_index` and :func:`index_word`.

Tensors double as elements of V^{⊗k} and of its dual: the dual basis pairs
diagonally with the word basis, so "over V*" is a semantic annotation only.
"""

from __future__ import annotations

Word = tuple  # tuple of generator indices


def word_index(word, n: int) -> int:
    idx = 0
    for a in word:
        idx = idx * n + a
    return idx


def index_word(idx: int, k: int, n: int) -> Word:
    letters = [0] * k
    for pos in range(k - 1, -1, -1):
        idx, letters[pos] = divmod(idx, n)
    return tuple(letters)


class Tensor:
    """Homogeneous element of V^{⊗k}: a map word -> scalar without zeros."""

    __slots__ = ("n", "grade", "terms")

    def __init__(self, n: int, grade: int, terms=None):
        self.n = n
        self.grade = grade
        clean = {}
        if terms:
            for w, c in terms.items():
                if len(w) != grade:
                    raise ValueError(f"word {w} does not have grade {grade}")
                if any(a < 0 or a >= n for a in w):
                    raise ValueError(f"word {w} out of alphabet range {n}")
                if c:
                    clean[w] = c
        self.terms = clean

    @classmethod
    def from_word(cls, n, word, coeff=1):
        return cls(n, len(word), {tuple(word): coeff})

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.n == other.n
            and self.grade == other.grade
            and self.terms == other.terms
        )

    def to_vec(self):
        n = self.n
        return {word_index(w, n): c for w, c in self.terms.items()}

    @classmethod
    def from_vec(cls, n, grade, vec):
        return cls(n, grade, {index_word(i, grade, n): c for i, c in vec.items()})

    def __repr__(self):
        parts = [f"{c}*x{list(w)}" for w, c in sorted(self.terms.items())]
        return " + ".join(parts) if parts else "0"


def z_index(i: int, j: int, n: int) -> int:
    """Flat index of the generator z_i^j of end(A): subscript-major, i*n+j."""
    return i * n + j


def z_word(i: int, j: int, k: int, n: int) -> int:
    """Column of the z-word z_{i_1}^{j_1}...z_{i_k}^{j_k} over the n²
    letters of end(A), from the columns i and j of two length-k x-words."""
    z, place, nn = 0, 1, n * n
    for _ in range(k):
        i, a = divmod(i, n)
        j, b = divmod(j, n)
        z += z_index(a, b, n) * place
        place *= nn
    return z


def shuffle_pairs(xi: Tensor, v: Tensor) -> Tensor:
    """Interleave a dual tensor and a tensor into a word over the z-alphabet.

    On words: (j_1..j_N, i_1..i_N) -> (z_{i_1}^{j_1}, ..., z_{i_N}^{j_N}),
    extended bilinearly.  This realizes R^⊥ ⊗ R inside (V*⊗V)^{⊗N}.
    """
    if xi.n != v.n:
        raise ValueError("alphabet mismatch")
    if xi.grade != v.grade:
        raise ValueError("grade mismatch")
    n, k = xi.n, xi.grade
    # the z-word determines (i, j), so no two terms share a column
    vec = {
        z_word(i, j, k, n): cj * ci
        for j, cj in xi.to_vec().items()
        for i, ci in v.to_vec().items()
    }
    return Tensor.from_vec(n * n, k, vec)
