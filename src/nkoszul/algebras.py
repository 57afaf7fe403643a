"""Built-in algebra presentations and descent-avoiding word combinatorics.

Provides the polynomial algebra, the degree-N antisymmetrizer algebras, the
multiparameter quantum space, and the free algebra, together with the count
and enumeration of admissible words (words with no N consecutive strictly
decreasing letters).
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

from .freealg import word_index
from .homog import AlgebraPresentation
from .scalar import ParameterField, rational


def perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        pos = start
        while not seen[pos]:
            seen[pos] = True
            pos = perm[pos]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def antisymmetrizers(n: int, N: int):
    """For each 1 <= i_1 < ... < i_N <= n, the signed sum of the words
    (i_1 ... i_N) over all position permutations, whose least column is
    the increasing word."""
    for combo in combinations(range(n), N):
        yield {word_index((combo[p] for p in perm), n): perm_sign(perm)
               for perm in permutations(range(N))}


def check_parameters(name: str, n: int, N: int = 2, q=None) -> None:
    """Raise ValueError unless the built-in ``name`` ("poly", "antisym",
    "qspace" or "free") exists on n generators with relations of degree N
    and, for "qspace", the numeric parameter q (None: generic): n >= 1,
    2 <= N <= n for "antisym", q != 0.  The one check of the builders, which
    the CLI runs before it weighs the cost, so that an invalid input is
    refused as such whatever its size.  free(n) takes any n >= 0, which
    :class:`AlgebraPresentation` checks."""
    if name == "antisym":
        if not 2 <= N <= n:
            raise ValueError(f"antisymmetrizer needs 2 <= N <= n, got N={N}, n={n}")
    elif name != "free" and n < 1:
        noun = "polynomial algebra" if name == "poly" else "quantum space"
        raise ValueError(f"{noun} needs n >= 1")
    if q is not None and not q:
        raise ValueError("parameter q must be nonzero")


def polynomial(n: int) -> AlgebraPresentation:
    """S(V), the antisymmetrizer algebra at N = 2: relations
    x_i⊗x_j - x_j⊗x_i for i < j, none for n = 1."""
    check_parameters("poly", n)
    return AlgebraPresentation(n, 2, antisymmetrizers(n, 2), label=f"poly({n})")


def antisymmetrizer(n: int, N: int) -> AlgebraPresentation:
    """Relations = all degree-N antisymmetrizers over ascending index tuples.

    For each 1 <= i_1 < ... < i_N <= n the relation is the signed sum over
    all position permutations; N = 2 recovers the polynomial algebra.
    """
    check_parameters("antisym", n, N)
    return AlgebraPresentation(n, N, antisymmetrizers(n, N), label=f"antisym({n},{N})")


def quantum_space(n: int, q=None) -> AlgebraPresentation:
    """The quantum space x_j x_i = q_ij x_i x_j for i < j.

    With ``q=None`` the coefficients are independent generic parameters
    q_ij over the rational function field; a nonzero rational ``q`` sets
    every q_ij to that value over the rationals.
    """
    if q is not None:
        q = rational(q)
    check_parameters("qspace", n, q=q)
    pairs = list(combinations(range(n), 2))
    names = ()
    if q is None:
        names = tuple(f"q{i + 1}{j + 1}" for i, j in pairs)
        # qspace(1) has no pairs, hence no parameters to make
        field = ParameterField(names) if names else None
        coeff = {pair: field.parameter(name) for pair, name in zip(pairs, names)}
    else:
        coeff = dict.fromkeys(pairs, q)
    rels = [
        {word_index((j, i), n): 1, word_index((i, j), n): -coeff[(i, j)]}
        for i, j in pairs
    ]
    return AlgebraPresentation(n, 2, rels, label=f"qspace({n})", parameters=names)


def free_algebra(n: int) -> AlgebraPresentation:
    """T(V): no relations (N recorded as 2, irrelevant for an empty R)."""
    return AlgebraPresentation(n, 2, [], label=f"free({n})")


# ----------------------------------------------------------------------
# admissible (descent-avoiding) words


def admissible_counts(n: int, N: int, max_length: int) -> list:
    """Numbers of admissible words of each length 0..max_length, by one
    dynamic programme over (last letter, length of the current strictly
    decreasing run)."""
    counts = [1]
    # state[(a, r)] = number of admissible words ending in letter a whose
    # maximal strictly decreasing suffix has length r (1 <= r <= N-1)
    state = {(a, 1): 1 for a in range(n)}
    while len(counts) <= max_length:
        counts.append(sum(state.values()))
        nxt = {}
        for (a, r), cnt in state.items():
            for b in range(n):
                if b < a:
                    if r + 1 >= N:
                        continue
                    key = (b, r + 1)
                else:
                    key = (b, 1)
                nxt[key] = nxt.get(key, 0) + cnt
        state = nxt
    return counts


def enumerate_admissible(n: int, N: int, k: int):
    """All admissible length-k words in lex order."""
    out = []

    def extend(word, last, run):
        if len(word) == k:
            out.append(tuple(word))
            return
        for b in range(n):
            if last is not None and b < last:
                if run + 1 >= N:
                    continue
                word.append(b)
                extend(word, b, run + 1)
            else:
                word.append(b)
                extend(word, b, 1)
            word.pop()

    extend([], None, 0)
    return out


def dual_dims_closed_form(n: int, N: int, m: int) -> int:
    """dim A^!_m for the antisymmetrizer algebra: n^m below degree N,
    binomial in the middle range, zero above n."""
    if not 2 <= N <= n:
        raise ValueError(f"need 2 <= N <= n, got N={N}, n={n}")
    if m < 0:
        raise ValueError("degree must be >= 0")
    if m <= N - 1:
        return n**m
    if m <= n:
        return math.comb(n, m)
    return 0
