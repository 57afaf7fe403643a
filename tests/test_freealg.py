import random
from fractions import Fraction
from itertools import product

from conftest import columns
from nkoszul.freealg import index_word, shuffle_pairs, word_index, z_index, z_word
from nkoszul.linalg import axpy


def _pair(xi, v):
    """Natural pairing <V*^{⊗k}, V^{⊗k}> of two grade-k column dicts;
    diagonal in the word bases."""
    return sum(c * v.get(w, 0) for w, c in xi.items())


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
    a = columns(2, {(0,): Fraction(1)})
    b = columns(2, {(1,): Fraction(1)})
    assert concat(2, a, 1, b, 1) == columns(2, {(0, 1): Fraction(1)})


def test_concat_bilinear(concat):
    x1 = columns(2, {(0,): Fraction(1)})
    difference = columns(2, {(0,): Fraction(1), (1,): Fraction(-1)})
    left = concat(2, difference, 1, x1, 1)
    assert left == columns(2, {(0, 0): Fraction(1), (1, 0): Fraction(-1)})


def _random_element(rng, n, k):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        w = tuple(rng.randrange(n) for _ in range(k))
        c = Fraction(rng.randint(-3, 3))
        if c:
            terms[w] = c
    return columns(n, terms)


def test_concat_associative_random(concat):
    rng = random.Random(7)
    for _ in range(30):
        a = _random_element(rng, 3, 2)
        b = _random_element(rng, 3, 1)
        c = _random_element(rng, 3, 2)
        left = concat(3, a, 2, concat(3, b, 1, c, 2), 3)
        assert left == concat(3, concat(3, a, 2, b, 1), 3, c, 2)


def test_pair_examples():
    xi = columns(2, {(0, 1): Fraction(1)})
    assert _pair(xi, columns(2, {(0, 1): Fraction(1)})) == 1
    assert _pair(xi, columns(2, {(1, 0): Fraction(1)})) == 0


def test_pair_antisymmetrizer_kills_symmetric():
    # n=3, k=2: the antisymmetric dual element pairs to zero with any
    # symmetric element; expected value written out by direct expansion
    n = 3
    xi = columns(n, {(0, 1): Fraction(1), (1, 0): Fraction(-1)})
    sym = columns(n, {(0, 1): Fraction(5), (1, 0): Fraction(5), (2, 2): Fraction(1)})
    # direct expansion: 1*5 + (-1)*5 + 0 = 0
    assert _pair(xi, sym) == 0


def test_pair_perfect_on_word_basis():
    n, k = 2, 3
    for u in product(range(n), repeat=k):
        for v in product(range(n), repeat=k):
            got = _pair(columns(n, {u: Fraction(1)}), columns(n, {v: Fraction(1)}))
            assert got == (1 if u == v else 0)


def test_shuffle_pairs_flat_index():
    # N=1: dual letter j=0 (x^1), vector letter i=1 (x_2), n=2 -> z_2^1 = 1*2+0
    xi = columns(2, {(0,): Fraction(1)})
    v = columns(2, {(1,): Fraction(1)})
    assert shuffle_pairs(xi, v, 1, 2) == columns(4, {(z_index(1, 0, 2),): Fraction(1)})
    assert z_index(1, 0, 2) == 2


def test_shuffle_pairs_words():
    # N=2, n=2: (x^1⊗x^2)⊗(x_1⊗x_2) -> (z_1^1, z_2^2)
    xi = columns(2, {(0, 1): Fraction(1)})
    v = columns(2, {(0, 1): Fraction(1)})
    out = shuffle_pairs(xi, v, 2, 2)
    assert out == columns(4, {(z_index(0, 0, 2), z_index(1, 1, 2)): Fraction(1)})


def test_shuffle_pairs_linear():
    rng = random.Random(8)
    for _ in range(20):
        x1 = _random_element(rng, 2, 2)
        x2 = _random_element(rng, 2, 2)
        v = _random_element(rng, 2, 2)
        left = shuffle_pairs(axpy(dict(x1), 1, x2), v, 2, 2)
        right = axpy(shuffle_pairs(x1, v, 2, 2), 1, shuffle_pairs(x2, v, 2, 2))
        assert left == right


def test_shuffle_pairs_injective_on_words():
    n, N = 2, 2
    seen = {}
    for jw in product(range(n), repeat=N):
        for iw in product(range(n), repeat=N):
            [word] = shuffle_pairs(
                columns(n, {jw: Fraction(1)}), columns(n, {iw: Fraction(1)}), N, n
            )
            assert word not in seen
            seen[word] = (jw, iw)
