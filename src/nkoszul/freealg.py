"""Words and homogeneous elements over a finite generator alphabet.

A word is a tuple of generator indices in ``range(n)``.  Words are ordered
(and numbered) lexicographically with x_1 < ... < x_n, i.e. a word is read
as a base-n numeral, its column; this single convention fixes every echelon
basis downstream.  A homogeneous element of V^{⊗k}, a relation for
instance, is a ``{column: scalar}`` dict over the columns of length-k words,
and the word u then v has column u·n^|v| + v.  Tuples appear only where
words are spelled out (the built-in relations, files, reports), which
convert with :func:`word_index` and :func:`index_word`.

The dual basis of V^{⊗k}* pairs diagonally with the word basis, so the same
dicts serve for elements over V*; "over V*" is a semantic annotation only.
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


def shuffle_pairs(xi, v, k: int, n: int):
    """Interleave a dual grade-k element and a grade-k element into the
    z-alphabet, as a column dict over the n² letters of end(A).

    On words: (j_1..j_k, i_1..i_k) -> (z_{i_1}^{j_1}, ..., z_{i_k}^{j_k}),
    extended bilinearly.  This realizes R^⊥ ⊗ R inside (V*⊗V)^{⊗N}.
    """
    # the z-word determines (i, j), so no two terms share a column
    return {
        z_word(i, j, k, n): cj * ci
        for j, cj in xi.items()
        for i, ci in v.items()
    }
