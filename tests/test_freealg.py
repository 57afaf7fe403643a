import random
from fractions import Fraction
from itertools import product

import pytest

from nkoszul.freealg import Tensor, index_word, shuffle_pairs, word_index, z_index, z_word
from nkoszul.linalg import axpy


def _add(a, b):
    return Tensor(a.n, a.grade, axpy(dict(a.terms), 1, b.terms))


def _pair(xi, v):
    """Natural pairing <V*^{⊗k}, V^{⊗k}>; diagonal in the word bases."""
    if xi.n != v.n:
        raise ValueError("alphabet mismatch")
    if xi.grade != v.grade:
        raise ValueError("grade mismatch")
    return sum(c * v.terms.get(w, 0) for w, c in xi.terms.items())


def test_word_index_roundtrip():
    for n in (1, 2, 3, 5):
        for k in range(4):
            words = list(product(range(n), repeat=k))
            assert words == sorted(words)  # lex order
            for i, w in enumerate(words):
                assert word_index(w, n) == i
                assert index_word(i, k, n) == w


def test_z_word_interleaves_the_letters():
    # the z-word z_{i_1}^{j_1}...z_{i_k}^{j_k} over the n² letters i*n+j
    for n in (1, 2, 3):
        for k in range(4):
            for iw in product(range(n), repeat=k):
                for jw in product(range(n), repeat=k):
                    letters = [z_index(i, j, n) for i, j in zip(iw, jw)]
                    got = z_word(word_index(iw, n), word_index(jw, n), k, n)
                    assert got == word_index(letters, n * n)


def test_concat_words(concat):
    a = Tensor.from_word(2, (0,), Fraction(1))
    b = Tensor.from_word(2, (1,), Fraction(1))
    assert concat(a, b).terms == {(0, 1): Fraction(1)}


def test_concat_bilinear(concat):
    x1 = Tensor.from_word(2, (0,), Fraction(1))
    difference = Tensor(2, 1, {(0,): Fraction(1), (1,): Fraction(-1)})
    left = concat(difference, x1)
    assert left.terms == {(0, 0): Fraction(1), (1, 0): Fraction(-1)}


def _random_tensor(rng, n, k):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        w = tuple(rng.randrange(n) for _ in range(k))
        terms[w] = Fraction(rng.randint(-3, 3))
    return Tensor(n, k, terms)


def test_concat_associative_random(concat):
    rng = random.Random(7)
    for _ in range(30):
        a = _random_tensor(rng, 3, 2)
        b = _random_tensor(rng, 3, 1)
        c = _random_tensor(rng, 3, 2)
        assert concat(a, concat(b, c)) == concat(concat(a, b), c)


def test_pair_examples():
    xi = Tensor.from_word(2, (0, 1), Fraction(1))
    assert _pair(xi, Tensor.from_word(2, (0, 1), Fraction(1))) == 1
    assert _pair(xi, Tensor.from_word(2, (1, 0), Fraction(1))) == 0


def test_pair_antisymmetrizer_kills_symmetric():
    # n=3, k=2: the antisymmetric dual tensor pairs to zero with any
    # symmetric tensor; expected value written out by direct expansion
    n = 3
    xi = Tensor(n, 2, {(0, 1): Fraction(1), (1, 0): Fraction(-1)})
    sym = Tensor(n, 2, {(0, 1): Fraction(5), (1, 0): Fraction(5), (2, 2): Fraction(1)})
    # direct expansion: 1*5 + (-1)*5 + 0 = 0
    assert _pair(xi, sym) == 0


def test_pair_perfect_on_word_basis():
    n, k = 2, 3
    for u in product(range(n), repeat=k):
        for v in product(range(n), repeat=k):
            got = _pair(Tensor.from_word(n, u, Fraction(1)), Tensor.from_word(n, v, Fraction(1)))
            assert got == (1 if u == v else 0)


def test_pair_grade_mismatch():
    with pytest.raises(ValueError):
        _pair(Tensor.from_word(2, (0,), Fraction(1)), Tensor.from_word(2, (0, 1), Fraction(1)))


def test_shuffle_pairs_flat_index():
    # N=1: dual letter j=0 (x^1), vector letter i=1 (x_2), n=2 -> z_2^1 = 1*2+0
    xi = Tensor.from_word(2, (0,), Fraction(1))
    v = Tensor.from_word(2, (1,), Fraction(1))
    out = shuffle_pairs(xi, v)
    assert out.n == 4
    assert out.terms == {(z_index(1, 0, 2),): Fraction(1)}
    assert z_index(1, 0, 2) == 2


def test_shuffle_pairs_words():
    # N=2, n=2: (x^1⊗x^2)⊗(x_1⊗x_2) -> (z_1^1, z_2^2)
    xi = Tensor.from_word(2, (0, 1), Fraction(1))
    v = Tensor.from_word(2, (0, 1), Fraction(1))
    out = shuffle_pairs(xi, v)
    assert out.terms == {(z_index(0, 0, 2), z_index(1, 1, 2)): Fraction(1)}


def test_shuffle_pairs_linear():
    rng = random.Random(8)
    for _ in range(20):
        x1 = _random_tensor(rng, 2, 2)
        x2 = _random_tensor(rng, 2, 2)
        v = _random_tensor(rng, 2, 2)
        assert shuffle_pairs(_add(x1, x2), v) == _add(shuffle_pairs(x1, v), shuffle_pairs(x2, v))


def test_shuffle_pairs_injective_on_words():
    n, N = 2, 2
    seen = {}
    for jw in product(range(n), repeat=N):
        for iw in product(range(n), repeat=N):
            out = shuffle_pairs(
                Tensor.from_word(n, jw, Fraction(1)), Tensor.from_word(n, iw, Fraction(1))
            )
            [word] = out.terms
            assert word not in seen
            seen[word] = (jw, iw)


def test_tensor_vec_roundtrip():
    rng = random.Random(9)
    for _ in range(10):
        t = _random_tensor(rng, 3, 3)
        assert Tensor.from_vec(3, 3, t.to_vec()) == t
