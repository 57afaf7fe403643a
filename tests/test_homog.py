import gc
import json
import math
import random
import weakref
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    COEFFS,
    assert_exact,
    columns,
    dual,
    elements,
    full_copy_echelons,
    groebner_presentations,
    perturbed_antisym43,
    presentations,
    series_product_by_concat,
)
from nkoszul.algebras import (
    antisymmetrizer,
    enumerate_admissible,
    free_algebra,
    polynomial,
    quantum_space,
)
from nkoszul.freealg import index_word, word_index
from nkoszul.homog import AlgebraPresentation
from nkoszul.jsonio import algebra_from_obj
from nkoszul.koszul import koszul_certificate
from nkoszul.cli import main
from nkoszul.linalg import Echelon, RewriteEchelon
from nkoszul.manin import build_end, kmt_check
from nkoszul.mmt import nmt_check, random_rational_matrix
from nkoszul.scalar import axpy


def ideal_bruteforce(A, d):
    """Independent oracle: direct span of all windows V^i ⊗ R ⊗ V^j."""
    ech = Echelon(A.n**d)
    for i in range(d - A.N + 1):
        j = d - A.N - i
        for r in A.relations:
            rwords = {index_word(rw, A.N, A.n): c for rw, c in r.items()}
            for u in product(range(A.n), repeat=i):
                for w in product(range(A.n), repeat=j):
                    ech.add(columns(A.n, {u + rw + w: c for rw, c in rwords.items()}))
    return ech.to_subspace()


def test_ideal_poly2_degree2():
    assert polynomial(2).ideal_component(2).dim == 1


def test_ideal_antisym33_degree3():
    # relation count C(3,3) = 1 spans a 1-dimensional space
    assert antisymmetrizer(3, 3).ideal_component(3).dim == 1


def test_ideal_poly2_degree3_bruteforce():
    A = polynomial(2)
    oracle = ideal_bruteforce(A, 3)
    assert oracle.dim == 4
    assert A.ideal_component(3) == oracle
    assert A.dim_component(3) == 4 == math.comb(4, 3)


def test_recursion_matches_bruteforce():
    for A in (polynomial(2), polynomial(3), antisymmetrizer(3, 3), antisymmetrizer(4, 3)):
        for d in range(A.N + 3):
            assert A.ideal_component(d) == ideal_bruteforce(A, d), (A.label, d)


def test_hilbert_polynomial():
    A = polynomial(3)
    assert A.hilbert_series(6).coeffs == [math.comb(d + 2, 2) for d in range(7)]


def test_hilbert_free():
    assert free_algebra(2).hilbert_series(6).coeffs == [2**d for d in range(7)]


def test_hilbert_antisym33():
    assert antisymmetrizer(3, 3).dim_component(3) == 26


def test_normal_basis_counts():
    A = polynomial(2)
    assert len(A.normal_basis(2)) == 3
    assert A.normal_basis(1) == (0, 1)  # d < N: all words
    assert len(antisymmetrizer(3, 3).normal_basis(3)) == 26


def test_dims_match_ideal_component():
    # dimensions from the echelon rank agree with the reduced subspace
    A = antisymmetrizer(3, 3)
    rank_dims = [A.dim_component(d) for d in range(6)]
    full_dims = [A.n**d - A.ideal_component(d).dim for d in range(6)]
    assert rank_dims == full_dims


def test_low_degree_ideal_components_vanish():
    A = antisymmetrizer(3, 3)
    assert A.ideal_component(0).dim == 0
    assert A.ideal_component(1).dim == 0
    assert A.ideal_component(2).dim == 0
    assert A.ideal_component(3) == ideal_bruteforce(A, 3)  # = span(R)


def _word(A, w):
    """The normal form of the word tuple ``w``."""
    return A.reduce(len(w), columns(A.n, {w: Fraction(1)}))


def test_reduce_is_unit_map_on_normal_words():
    A = polynomial(2)
    for w in A.normal_basis(3):
        assert A.reduce(3, {w: Fraction(1)}) == {w: Fraction(1)}


def test_reduce_relation_to_zero():
    for A in (polynomial(2), antisymmetrizer(3, 3)):
        for r in A.relations:
            assert not A.reduce(A.N, r)


def test_reduce_commutation():
    A = polynomial(2)
    assert _word(A, (1, 0)) == _word(A, (0, 1))


def test_reduce_mod_ideal_random():
    rng = random.Random(11)
    A = antisymmetrizer(3, 3)
    d = 4
    ideal = A.ideal_component(d)
    for _ in range(20):
        words = list(product(range(3), repeat=d))
        t = columns(3, {rng.choice(words): Fraction(rng.randint(-3, 3)) for _ in range(4)})
        shifted = dict(t)  # t plus a random element of the ideal
        for row in ideal.row_of.values():
            c = Fraction(rng.randint(-2, 2))
            for col, val in row.items():
                shifted[col] = shifted.get(col, Fraction(0)) + c * val
        assert A.reduce(d, shifted) == A.reduce(d, t)


def test_multiply_unit():
    A = antisymmetrizer(3, 3)
    x = _word(A, (0, 2, 1))
    assert A.multiply(3, 3, {0: 1}, x) == x and A.multiply(3, 0, x, {0: 1}) == x


def test_multiply_commutes_polynomial():
    A = polynomial(2)
    x1 = _word(A, (0,))
    x2 = _word(A, (1,))
    assert A.multiply(2, 1, x1, x2) == A.multiply(2, 1, x2, x1)


def test_multiply_associative_random():
    rng = random.Random(12)
    A = antisymmetrizer(3, 3)
    for _ in range(15):
        degs = [rng.randint(1, 2) for _ in range(3)]
        if sum(degs) > 6:
            continue
        words = [tuple(rng.randrange(3) for _ in range(k)) for k in degs]
        a, b, c = (_word(A, w) for w in words)
        da, db, dc = degs
        ab = A.multiply(da + db, db, a, b)
        bc = A.multiply(db + dc, dc, b, c)
        assert A.multiply(sum(degs), dc, ab, c) == A.multiply(sum(degs), db + dc, a, bc)


def test_dual_polynomial2():
    A = polynomial(2)
    D = dual(A)
    assert A.ideal_component(2).dim == 1
    assert D.ideal_component(2).dim == 3


def test_double_dual_dimensions():
    A = polynomial(2)
    DD = dual(dual(A))
    for d in range(5):
        assert DD.ideal_rank(d) == A.ideal_rank(d)


def test_dual_antisym43_degree4():
    # closed form gives dim A!_4 = C(4,4) = 1; here via the dual presentation
    D = dual(antisymmetrizer(4, 3))
    assert D.dim_component(4) == 1


def test_dim_plus_ideal_is_full():
    for A in (polynomial(2), polynomial(3), antisymmetrizer(3, 3), free_algebra(2)):
        for d in range(6):
            assert A.ideal_rank(d) + A.dim_component(d) == A.n**d


def test_admissible_words_span_quotient():
    # spanning test: the admissible classes span A_d and their count matches
    for n, N in ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4)):
        A = antisymmetrizer(n, N)
        for d in range(7):
            adm = enumerate_admissible(n, N, d)
            dim = A.dim_component(d)
            assert len(adm) == dim, (n, N, d)
            pos = {w: i for i, w in enumerate(A.normal_basis(d))}
            ech = Echelon(dim)
            for w in adm:
                vec = A.class_of_word((d, word_index(w, n)))
                ech.add({pos[nw]: c for nw, c in vec.items()})
            assert ech.rank == dim, (n, N, d)


def test_dependent_relation_lists_take_span():
    r = columns(2, {(0, 1): Fraction(1), (1, 0): Fraction(-1)})
    r2 = columns(2, {(0, 1): Fraction(2), (1, 0): Fraction(-2)})
    A = AlgebraPresentation(2, 2, [r, r, r2])
    assert A.ideal_component(2).dim == 1
    assert [A.dim_component(d) for d in range(4)] == [1, 2, 3, 4]


def test_presentation_validation():
    with pytest.raises(ValueError):
        AlgebraPresentation(2, 1, [])
    for col in (-1, 4):  # a column outside range(n**N)
        with pytest.raises(ValueError):
            AlgebraPresentation(2, 2, [{0: Fraction(1), col: Fraction(1)}])


def test_degenerate_free_and_empty():
    A = free_algebra(2)
    assert A.ideal_component(4).dim == 0
    assert len(A.normal_basis(3)) == 8
    Z = AlgebraPresentation(0, 2, [], label="empty")
    assert Z.dim_component(0) == 1
    assert Z.dim_component(1) == 0


@pytest.mark.parametrize(
    "run",
    [
        lambda: koszul_certificate(antisymmetrizer(3, 3), 5),
        lambda: nmt_check(antisymmetrizer(3, 3), random_rational_matrix(3, 1), 5),
        lambda: kmt_check(build_end(polynomial(2)), 4),
    ],
    ids=["koszul_certificate", "nmt_check", "kmt_check"],
)
def test_presentations_are_freed_without_the_cycle_collector(monkeypatch, run):
    # the caches hold no reference back to their presentation, so a
    # presentation dies with its last reference, not at the next gc pass
    built = []
    init = AlgebraPresentation.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(weakref.ref(self))

    monkeypatch.setattr(AlgebraPresentation, "__init__", tracked_init)
    gc.disable()
    try:
        run()
        assert built
        assert [ref for ref in built if ref() is not None] == []
    finally:
        gc.enable()


@settings(max_examples=100, deadline=None)
@given(presentations(), st.data())
def test_random_presentations_match_oracles(concat, A, data):
    n = A.n
    top = A.N + 2
    # build every degree before anything reduced is asked for
    assert A.ideal_rank(top) + A.dim_component(top) == n**top
    for d in range(top + 1):
        assert A.ideal_rank(d) + A.dim_component(d) == n**d
        ideal = A.ideal_component(d)
        assert ideal == ideal_bruteforce(A, d), d
        rows = ideal.row_of
        assert list(A.normal_basis(d)) == [i for i in range(n**d) if i not in rows]
        for idx in range(n**d):
            if idx in rows:
                expected = {c: -v for c, v in rows[idx].items() if c != idx}
            else:
                expected = {idx: 1}
            assert A.class_of_word((d, idx)) == expected, (d, idx)
    # the product of normal forms concatenates columns as concat does tuples
    for d in range(top + 1):
        s = data.draw(elements(n, d))
        t = data.draw(elements(n, top - d))
        product_st = A.multiply(top, top - d, A.reduce(d, s), A.reduce(top - d, t))
        assert product_st == A.reduce(top, concat(n, s, d, t, top - d)), d
        # multiply adds the product into out, and an empty factor adds
        # nothing; like axpy it takes factors with no zero entries
        s, t = ({w: c for w, c in v.items() if c} for v in (s, t))
        acc = A.reduce(top, data.draw(elements(n, top)))
        assert A.multiply(top, top - d, s, t, out=dict(acc)) == axpy(dict(acc), 1, product_st), d
        assert A.multiply(top, top - d, {}, t, out=dict(acc)) == acc, d
        assert A.multiply(top, top - d, s, {}) == {}, d


@settings(max_examples=50, deadline=None)
@given(presentations(), st.data())
def test_random_presentations_stay_exact(A, data):
    # divisions go through scalar.div, so pivots that are not ±1 give
    # Fractions, never floats, in every layer built on the echelon
    top = A.N + 2
    s = [{0: 1}] + [A.reduce(d, data.draw(elements(A.n, d))) for d in range(1, top + 1)]
    # the inverse series in A, c_d = -Σ_{i=1}^{d} s_i·c_{d-i}, by multiply
    inverse = [{0: 1}]
    for d in range(1, top + 1):
        acc = {}
        for i in range(1, d + 1):
            A.multiply(d, d - i, s[i], inverse[d - i], acc)
        inverse.append({w: -c for w, c in acc.items()})
    assert series_product_by_concat(A, s, inverse) == [{0: 1}] + [{}] * top
    for d in range(top + 1):
        assert_exact(v for row in A.cache.degrees[d].echelon.row_of.values() for v in row.values())
        assert_exact(v for row in A.ideal_component(d).row_of.values() for v in row.values())
        assert_exact(v for i in range(A.n**d) for v in A.class_of_word((d, i)).values())
        assert_exact(inverse[d].values())
    assert_exact(v for r in dual(A).relations for v in r.values())


def _full_copy_checks(A, top):
    """Compare every degree up to ``top`` with the full-copy recursion of
    ``full_copy_echelons``: rank, pivot set, normal basis and the canonical
    ideal component.  Returns the oracle echelons for ``reduce`` checks."""
    oracle = full_copy_echelons(A, top)
    for d, (ech, normal) in enumerate(oracle):
        assert A.ideal_rank(d) == ech.rank, d
        assert A.cache.degrees[d].echelon.pivots == ech.pivots, d
        assert A.normal_basis(d) == normal, d
        assert A.ideal_component(d) == ech.to_subspace(), d
    return oracle


def _rule_degrees(A):
    """The degrees built so far that have rules of their own."""
    return [k for k, _, _ in A.cache.degrees[-1].ends]


def _reduce_checks(A, oracle, data):
    for d, (ech, _) in enumerate(oracle):
        vec = data.draw(elements(A.n, d))
        assert A.reduce(d, vec) == ech.reduce(vec), d


@settings(max_examples=100, deadline=None)
@given(presentations(), st.data())
def test_random_presentations_match_full_copy_recursion(A, data):
    oracle = _full_copy_checks(A, A.N + 3)
    _reduce_checks(A, oracle, data)


MONO_XYX = {
    "label": "mono_xyx",
    "n": 2,
    "N": 3,
    "relations": [{"grade": 3, "terms": [{"coeff": "1", "word": [0, 1, 0]}]}],
}


@pytest.mark.parametrize(
    "build",
    [
        lambda: polynomial(3),
        lambda: antisymmetrizer(4, 3),
        lambda: quantum_space(3),
        lambda: quantum_space(2, q=2),
        lambda: free_algebra(2),
        lambda: algebra_from_obj(MONO_XYX),
    ],
    ids=["poly3", "antisym43", "qspace3", "qspace2_q2", "free2", "mono_xyx"],
)
def test_builtins_match_full_copy_recursion(build):
    # the relations of every built-in are a Gröbner basis, so its only rules
    # are of length N (none for the free algebra), compared up to 2N + 1
    A = build()
    oracle = _full_copy_checks(A, 2 * A.N + 1)
    assert _rule_degrees(A) == ([A.N] if A.relations else [])

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def reduce_matches(data):
        _reduce_checks(A, oracle, data)

    reduce_matches()


def test_ideal_stores_only_new_and_used_rows(normal_basis_calls):
    # no degree copies the rows of the degree below: I_8 is a rewrite
    # echelon, over the rules of length 3 of antisym(4,3) or of lengths 3
    # and 4 of the perturbed one, and stores a row only when a reduction
    # uses it, so hilbert, which needs only counts, stores none and lists
    # no normal words
    for A, rank in ((antisymmetrizer(4, 3), 21855), (perturbed_antisym43(0), 23040)):
        assert A.hilbert_series(8).coeffs[8] == 4**8 - rank
        assert normal_basis_calls == []
        ech = A.cache.degrees[8].echelon
        assert type(ech) is RewriteEchelon and ech.rank == rank
        assert len(ech.row_of) == 0
        for col in sorted(ech.pivots)[:50]:
            A.class_of_word((8, col))
        assert 0 < len(ech.row_of) < rank / 2
        for p, row in ech.row_of.items():
            assert p in ech.pivots and row[p] == 1 and min(row) == p
    # the counter sees a listing when there is one
    A.normal_basis(2)
    assert normal_basis_calls == [2]


@pytest.mark.parametrize(
    "make, top, degrees",
    [(lambda: polynomial(3), 5, [2]), (lambda: perturbed_antisym43(1), 6, [3, 4, 5])],
    ids=["poly3", "perturbed1"],
)
def test_row_of_a_leading_word_is_its_rule(make, top, degrees):
    # at a pivot of degree d whose rightmost window is a rule of length d,
    # the rewrite echelon keeps the rule's own row, not a copy; no stored
    # row is ever changed, so a koszul-check leaves every rule as it was
    A = make()
    A.hilbert_series(top)
    rules = {
        d: ech
        for d, data in enumerate(A.cache.degrees)
        for k, _, ech in data.ends
        if k == d
    }
    assert sorted(rules) == degrees

    def kept_rules():
        for d, ech in rules.items():
            rows = A.cache.degrees[d].echelon.row_of
            assert all(rows[p] is rule for p, rule in ech.row_of.items())
        return {d: {p: dict(row) for p, row in ech.row_of.items()} for d, ech in rules.items()}

    before = kept_rules()
    koszul_certificate(A, top)
    assert kept_rules() == before


@settings(max_examples=60, deadline=None)
@given(groebner_presentations(), st.data())
def test_groebner_presentations_match_full_copy_recursion(A, data):
    # every overlap resolves, so the only rules are the relations, and
    # every degree agrees with the full-copy recursion up to 2N + 1
    oracle = _full_copy_checks(A, 2 * A.N + 1)
    _reduce_checks(A, oracle, data)
    assert _rule_degrees(A) == [A.N]


# 010 - 011 + 2·110 over two letters: its one leading word 010 overlaps
# itself in 01010, which does not resolve, and the completion goes on to
# add one rule in every odd degree
MIDWAY = {2: 1, 3: -1, 6: 2}


@settings(max_examples=100, deadline=None)
@given(st.one_of(presentations(), groebner_presentations()))
@example(AlgebraPresentation(2, 3, [MIDWAY]))
def test_rewrite_degrees_match_the_pivot_oracle(A):
    # every degree is a rewrite echelon over the rules up to its length;
    # the leading words of the rules of degree d are the pivots of the
    # full-copy I_d that contain no pivot of I_{d-1} as a prefix or suffix,
    # so none contains a shorter leading word
    n, top = A.n, 2 * A.N + 1
    oracle = full_copy_echelons(A, top)
    A.ideal_rank(top)
    for d in range(1, top + 1):
        below, size = oracle[d - 1][0].pivots, n ** (d - 1)
        expected = {p for p in oracle[d][0].pivots if p // n not in below and p % size not in below}
        rules = {p for k, _, ech in A.cache.degrees[d].ends if k == d for p in ech.pivots}
        assert rules == expected, d


@settings(max_examples=60, deadline=None)
@given(st.one_of(presentations(), groebner_presentations()))
@example(perturbed_antisym43(1))
@example(perturbed_antisym43(2))
@example(AlgebraPresentation(2, 3, [MIDWAY]))
def test_normal_words_have_normal_prefixes(A):
    # flags_d[f] implies flags_{d-1}[f // n]: the flags of degree d are
    # built under those of degree d-1, and koszul.homology_report takes
    # rank d_1 = dim A_m from this invariant
    top = 2 * A.N + 1
    A.ideal_rank(top)
    flags = [data.echelon.pivots.flags for data in A.cache.degrees]
    for d in range(1, top + 1):
        normal = (f for f in range(A.n**d) if flags[d][f])
        assert all(flags[d - 1][f // A.n] for f in normal), d


def test_midway_presentation_matches_full_copy_recursion(monkeypatch):
    # each degree builds one rewrite echelon, its rules of length d included
    built = []
    init = RewriteEchelon.__init__

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(RewriteEchelon, "__init__", counted_init)
    A = AlgebraPresentation(2, 3, [MIDWAY], label="midway")
    oracle = _full_copy_checks(A, 11)
    assert _rule_degrees(A) == [3, 5, 7, 9, 11]
    assert len(built) == len(A.cache.degrees) == 12

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def reduce_matches(data):
        _reduce_checks(A, oracle, data)

    reduce_matches()


@pytest.mark.parametrize(
    "index, degrees", [(0, [3, 4]), (1, [3, 4, 5]), (2, [3, 4, 6]), (3, [3, 4])], ids=range(4)
)
def test_perturbed_antisym_completes(index, degrees):
    # doubling one coefficient of one relation of antisym(4,3) breaks the
    # Gröbner property: an overlap of degree N + 1 does not resolve, the
    # completion adds rules of higher degree, and the Hilbert series is
    # still the full-copy recursion's
    A = perturbed_antisym43(index)
    coeffs = A.hilbert_series(7).coeffs
    assert _rule_degrees(A) == degrees
    assert coeffs == [len(normal) for _, normal in full_copy_echelons(A, 7)]
    assert coeffs != antisymmetrizer(4, 3).hilbert_series(7).coeffs


def _perturbed_file(tmp_path):
    """The ``--algebra`` value of a file holding ``perturbed_antisym43(0)``."""
    relations = [
        {"grade": 3, "terms": [{"coeff": str(c), "word": list(index_word(w, 3, 4))} for w, c in r.items()]}
        for r in perturbed_antisym43(0).relations
    ]
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps({"label": "perturbed", "n": 4, "N": 3, "relations": relations}))
    return (f"file:{path}",)


@pytest.mark.parametrize(
    "algebra, n, top, rank, ambients",
    [
        (lambda _: ("antisym", "--n", "4", "--N", "3"), 4, 8, 21855, [4**3] * 4),
        (lambda _: ("poly", "--n", "3"), 3, 7, 3**7 - 36, [3**2] * 3),
        (_perturbed_file, 4, 8, 23040, [4**3] * 4 + [4**4]),
    ],
    ids=["antisym43_D8", "poly3_D7", "perturbed0_D8"],
)
def test_no_elimination_above_N(capsys, monkeypatch, tmp_path, algebra, n, top, rank, ambients):
    # hilbert eliminates only the relations, and the overlap remainders that
    # are not 0, in the degree of each new rule; no row R ⊗ w is eliminated
    offered = []
    add = Echelon.add

    def counted_add(self, vec):
        offered.append(self.ncols)
        return add(self, vec)

    monkeypatch.setattr(Echelon, "add", counted_add)
    argv = ("--algebra", *algebra(tmp_path), "--max-degree", str(top), "--format", "json")
    assert main(["hilbert", *argv]) == 0
    coeffs = json.loads(capsys.readouterr().out)["report"]["coefficients"]
    assert coeffs[top] == n**top - rank
    assert offered == ambients
