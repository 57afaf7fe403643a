import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import COEFFS, full_copy_echelons, in_span, rref, zassenhaus_intersect
from nkoszul.homog import AlgebraPresentation
from nkoszul.linalg import (
    BasisSolver,
    Echelon,
    axpy,
    Matrix,
    RewriteEchelon,
    Subspace,
    full_space,
    intersect,
    kernel,
    rank,
)
from nkoszul.scalar import ParameterField, div


def dense(entries):
    rows = [{j: Fraction(v) for j, v in enumerate(row) if v} for row in entries]
    return Matrix(len(entries[0]), rows)


def _apply(m, vec):
    """M·v for a sparse vector v, as a sparse vector without zeros."""
    out = {}
    for i, row in enumerate(m.rows):
        s = sum((a * vec[j] for j, a in row.items() if j in vec), Fraction(0))
        if s:
            out[i] = s
    return out


def test_rref_proportional_rows():
    sub = rref(dense([[2, 4], [1, 2]]))
    assert sub.dim == 1
    assert sub.row_of == {0: {0: 1, 1: Fraction(2)}}


def test_rref_zero_matrix():
    sub = rref(dense([[0, 0], [0, 0]]))
    assert sub.dim == 0


def test_rref_identity():
    sub = rref(dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert sub.dim == 3
    assert sub == full_space(3)


def test_rref_idempotent():
    rng = random.Random(1)
    for _ in range(20):
        m = dense([[rng.randint(-5, 5) for _ in range(6)] for _ in range(4)])
        sub = rref(m)
        again = rref(Matrix(6, [dict(r) for r in sub.row_of.values()]))
        assert again == sub


def test_kernel_examples():
    k = kernel(rref(dense([[1, 1]])))
    assert k.dim == 1
    [row] = k.row_of.values()
    # the kernel vector satisfies v_0 + v_1 = 0
    assert row[0] + row[1] == 0
    assert kernel(rref(dense([[1, 2], [3, 4]]))).dim == 0


def test_rank_nullity_random():
    rng = random.Random(2)
    for _ in range(25):
        m = dense([[rng.randint(-4, 4) for _ in range(10)] for _ in range(6)])
        k = kernel(rref(m))
        rk = rank(m)
        assert rk + k.dim == 10
        for row in k.row_of.values():
            assert not _apply(m, row)


def _random_subspace(rng, ambient, nrows):
    rows = [
        {j: Fraction(rng.randint(-3, 3)) for j in range(ambient)} for _ in range(nrows)
    ]
    ech = Echelon(ambient)
    ech.extend(rows)
    return ech.to_subspace()


def test_grassmann_dimension_formula(subspace_sum):
    rng = random.Random(3)
    for _ in range(25):
        u = _random_subspace(rng, 8, rng.randint(0, 5))
        w = _random_subspace(rng, 8, rng.randint(0, 5))
        s = subspace_sum(u, w)
        i = intersect(u, w)
        assert s.dim + i.dim == u.dim + w.dim
        for row in i.row_of.values():
            assert in_span(u, row) and in_span(w, row)


def _intersect_bruteforce(u, w):
    # independent oracle: kernel of the coefficient map (c, d) -> c·U - d·W
    cols = u.dim + w.dim
    urows, wrows = list(u.row_of.values()), list(w.row_of.values())
    support = set()
    for row in urows + wrows:
        support.update(row)
    rows = []
    for col in sorted(support):
        row = {}
        for i, urow in enumerate(urows):
            c = urow.get(col)
            if c:
                row[i] = c
        for i, wrow in enumerate(wrows):
            c = wrow.get(col)
            if c:
                row[u.dim + i] = -c
        rows.append(row)
    combos = kernel(rref(Matrix(cols, rows)))
    ech = Echelon(u.ambient_dim)
    for combo in combos.row_of.values():
        vec = {}
        for i, c in combo.items():
            if i >= u.dim:
                continue
            for col, val in urows[i].items():
                vec[col] = vec.get(col, Fraction(0)) + c * val
        ech.add(vec)
    return ech.to_subspace()


def test_intersection_against_bruteforce():
    rng = random.Random(4)
    for _ in range(20):
        u = _random_subspace(rng, 7, rng.randint(1, 4))
        w = _random_subspace(rng, 7, rng.randint(1, 4))
        assert intersect(u, w) == _intersect_bruteforce(u, w)


#: Scalars of the three kinds an intersection meets: ints, Fractions and
#: Laurent polynomials a·q^e + b, whose quotients may leave the Laurent form.
INTERSECT_SCALARS = {
    "int": st.integers(-3, 3),
    "fraction": COEFFS,
    "laurent": st.builds(
        lambda a, e, b: a * _Q**e + b, st.integers(-2, 2), st.integers(-1, 1), st.integers(-2, 2)
    ),
}


@st.composite
def rref_subspaces(draw, ambient, scalars):
    """A subspace of dimension-``ambient`` space given directly in RREF:
    random pivots, each row 1 at its pivot and random scalars at the
    non-pivot columns right of it."""
    pivots = draw(st.sets(st.integers(0, ambient - 1)))
    rows = {}
    for p in sorted(pivots):
        row = rows[p] = {p: 1}
        for col in range(p + 1, ambient):
            c = 0 if col in pivots else draw(scalars)
            if c:
                row[col] = c
    return Subspace(ambient, rows)


@pytest.mark.parametrize("kind", sorted(INTERSECT_SCALARS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_intersect_matches_zassenhaus(kind, data):
    # the one-pass reduction against the doubled echelon it replaced, both
    # ways round, values and pivot order, on random, empty, full, equal and
    # disjoint (the unit vectors off the pivots of u) operands
    scalars = INTERSECT_SCALARS[kind]
    amb = data.draw(st.integers(1, 5))
    u = data.draw(rref_subspaces(amb, scalars))
    off_pivots = Subspace(amb, {j: {j: 1} for j in range(amb) if j not in u.row_of})
    operands = {
        "random": lambda: data.draw(rref_subspaces(amb, scalars)),
        "empty": lambda: Subspace(amb, {}),
        "full": lambda: full_space(amb),
        "equal": lambda: u,
        "disjoint": lambda: off_pivots,
    }
    w = operands[data.draw(st.sampled_from(sorted(operands)))]()
    for a, b in ((u, w), (w, u)):
        got = intersect(a, b)
        oracle = zassenhaus_intersect(amb, a.row_of.values(), b.row_of.values())
        assert got == oracle and list(got.row_of) == list(oracle.row_of)
    assert intersect(u, off_pivots).dim == 0
    assert intersect(u, u) == u == intersect(u, full_space(amb))


def test_sum_intersection_trivial_cases(subspace_sum):
    e1 = Subspace(2, {0: {0: 1}})
    e2 = Subspace(2, {1: {1: 1}})
    assert subspace_sum(e1, e2).dim == 2
    assert intersect(e1, e2).dim == 0
    assert subspace_sum(e1, e1) == e1
    assert intersect(e1, e1) == e1


@st.composite
def subspaces(draw):
    """The row space of up to four random rows in an ambient space of
    dimension at most 7."""
    ambient = draw(st.integers(1, 7))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ambient - 1), COEFFS), max_size=4))
    ech = Echelon(ambient)
    ech.extend(rows)
    return ech.to_subspace()


def _nonzero(vec):
    return {j: v for j, v in vec.items() if v}


@settings(max_examples=200, deadline=None)
@given(subspaces(), st.data())
def test_contains_iff_coordinates(u, data):
    # coordinates succeeds exactly on the members the rank oracle accepts,
    # and a member's coordinates are its own entries at the pivots
    amb = u.ambient_dim
    cols = st.integers(0, amb - 1)
    nonzero = COEFFS.filter(bool)
    inside = {}
    for p in data.draw(st.lists(st.sampled_from(sorted(u.row_of)), max_size=3)) if u.dim else ():
        axpy(inside, data.draw(nonzero), u.row_of[p])
    free = [j for j in range(amb) if j not in u.row_of]
    off_pivot = data.draw(st.dictionaries(st.sampled_from(free), COEFFS)) if free else {}
    noise = data.draw(st.dictionaries(cols, COEFFS))
    zeros = dict.fromkeys(data.draw(st.lists(cols, max_size=3)), 0)
    assert in_span(u, inside)
    # a nonzero vector with no entry at a pivot is no member of an RREF span
    assert in_span(u, off_pivot) == (not _nonzero(off_pivot))
    for vec in (inside, off_pivot, axpy(dict(inside), 1, _nonzero(off_pivot)), noise):
        for padded in (vec, {**zeros, **vec}):
            if not in_span(u, padded):
                with pytest.raises(ValueError):
                    u.coordinates(padded)
                continue
            coords = u.coordinates(padded)
            assert coords == {p: v for p, v in _nonzero(vec).items() if p in u.row_of}
            rebuilt = {}
            for p, c in coords.items():
                axpy(rebuilt, c, u.row_of[p])
            assert rebuilt == _nonzero(vec)


def test_ambient_mismatch(subspace_sum):
    with pytest.raises(ValueError):
        subspace_sum(full_space(2), full_space(3))


_Q = ParameterField(["q"]).parameter("q")
# kind -> (make the scalar k, rounds); sympy's field is slow, so it gets fewer
SCALAR_KINDS = {
    "fraction": (Fraction, 20),
    "laurent": (lambda k: k * _Q, 20),
    "sympy_form": (lambda k: div(k, _Q + 1), 4),
}


@pytest.mark.parametrize("kind", sorted(SCALAR_KINDS))
def test_rank_only_echelon_matches_rref_rank(kind):
    # elimination subtracts whole echelon rows and lets each pivot cancel in
    # exact arithmetic, so this must hold for every kind of scalar; the zero
    # entries are kept, and Echelon.add must drop them
    scalar, rounds = SCALAR_KINDS[kind]
    rng = random.Random(6)
    for _ in range(rounds):
        rows = [
            {j: scalar(rng.randint(-3, 3)) for j in range(9)} for _ in range(7)
        ]
        m = Matrix(9, rows)
        assert rank(m) == rref(m).dim
        # the remainder on non-pivot columns is unique, reduced form or not
        plain, full = Echelon(9, reduced=False), Echelon(9, reduced=True)
        plain.extend(rows[:4])
        full.extend(rows[:4])
        assert plain.reduce(rows[-1]) == full.reduce(rows[-1])
        assert plain.to_subspace() == full.to_subspace()
        for ech in (plain, full):
            pivots = set(ech.row_of)
            for p, row in ech.row_of.items():
                assert row[p] == 1 and min(row) == p and all(row.values())
                if ech.reduced:
                    assert pivots & set(row) == {p}
            for vec in rows:
                assert not pivots & set(ech.reduce(vec))
    acc = {0: Fraction(1), 1: Fraction(2)}
    assert axpy(acc, Fraction(-2), {1: Fraction(1), 2: Fraction(3)}) == {
        0: Fraction(1),
        2: Fraction(-6),
    }
    assert 1 not in acc


def test_basis_solver():
    rows = [{0: Fraction(1), 1: Fraction(1)}, {1: Fraction(2)}]
    solver = BasisSolver(rows, 3)
    coords = solver.coordinates({0: Fraction(3), 1: Fraction(7)})
    assert coords == {0: Fraction(3), 1: Fraction(2)}
    with pytest.raises(ValueError):
        solver.coordinates({2: Fraction(1)})
    with pytest.raises(ValueError):
        BasisSolver([{0: Fraction(1)}, {0: Fraction(2)}], 2)


def test_echelon_pivots_are_its_row_keys():
    # the pivots are a view of row_of, not a set kept beside it, so a row
    # taken out of row_of is no longer a pivot and no longer counts
    ech = Echelon(4)
    ech.extend([{0: 1, 2: 1}, {1: 2, 3: 1}])
    assert ech.pivots == {0, 1} and ech.rank == 2
    del ech.row_of[1]
    assert ech.pivots == {0} and 1 not in ech.pivots and ech.rank == 1


def _bitmap(ncols, normal):
    """The flags of ``range(ncols)``, 1 exactly at the columns in ``normal``."""
    return bytearray(col in normal for col in range(ncols))


def test_rewrite_echelon():
    # I_3 of poly(2), whose one leading word is x0x1 (column 1 of I_2): the
    # normal words are those that avoid it, 000, 100, 110 and 111
    lead = Echelon(4)
    lead.add({1: 1, 2: -1})
    ech = RewriteEchelon(_bitmap(8, (0, 4, 6, 7)), [(2, 4, lead)], 2, 3)
    assert ech.rank == 4 and len(ech.pivots) == 4 and dict(ech.row_of) == {}
    assert ech.pivots == {1, 2, 3, 5} and sorted(ech.pivots) == [1, 2, 3, 5]
    assert 5 in ech.pivots and 4 not in ech.pivots
    # 011 rewrites at its one window that is a pivot, 01·1 → 10·1, then
    # 101 at its rightmost window, 1·01 → 1·10
    assert ech.reduce({3: Fraction(2)}) == {6: Fraction(2)}
    assert dict(ech.row_of) == {3: {3: 1, 5: -1}, 5: {5: 1, 6: -1}}
    assert ech.to_subspace() == rref(Matrix(8, [{1: 1, 2: -1}, {2: 1, 4: -1}, {3: 1, 5: -1}, {5: 1, 6: -1}]))
    with pytest.raises(TypeError):
        ech.add({0: 1})
    # in degree 4 the row of 0101 is taken at its rightmost window,
    # 01·01 → 01·10, not at 01·01 → 10·01
    ech = RewriteEchelon(_bitmap(16, (0, 8, 12, 14, 15)), [(2, 4, lead)], 2, 4)
    assert ech.row_of[5] == {5: 1, 6: -1}
    assert ech.reduce({5: Fraction(1)}) == {12: Fraction(1)}


def _avoiding(d, words):
    """The columns of the binary words of length d that contain none of
    ``words``."""
    return tuple(i for i in range(2**d) if not any(w in format(i, f"0{d}b") for w in words))


def test_rewrite_echelon_with_rules_of_two_lengths():
    # the rules of lengths 3 and 5 of 010 - 011 + 2·110: the second is the
    # remainder of the overlap 01010, 010 ⊗ 10 reduced by 01 ⊗ 010, and
    # contains no 010; up to degree 6 there is no other rule
    r3, r5 = Echelon(8), Echelon(32)
    r3.add({0b010: 1, 0b011: -1, 0b110: 2})
    r5.add({0b01110: 3, 0b01111: -1, 0b11110: 4})
    ends = [(3, 8, r3), (5, 32, r5)]
    ech = RewriteEchelon(_bitmap(128, _avoiding(7, ("010", "01110"))), ends, 2, 7)
    # 0101110 holds 010 at its start and 01110 at its end; 0111010 the
    # other way round: each row is taken at the window that ends the word
    assert ech.row_of[0b0101110] == {0b0101110: 1, 0b0101111: Fraction(-1, 3), 0b0111110: Fraction(4, 3)}
    assert ech.row_of[0b0111010] == {0b0111010: 1, 0b0111011: -1, 0b0111110: 2}
    # a normal word has no row, though 1011111 padded on the left with a 0
    # would begin with 010
    with pytest.raises(KeyError):
        ech.row_of[0b1011111]
    A = AlgebraPresentation(2, 3, [{0b010: 1, 0b011: -1, 0b110: 2}])
    oracle, normal = full_copy_echelons(A, 6)[6]
    ech = RewriteEchelon(_bitmap(64, _avoiding(6, ("010", "01110"))), ends, 2, 6)
    assert ech.pivots == oracle.pivots and _avoiding(6, ("010", "01110")) == normal
    rng = random.Random(7)
    for _ in range(20):
        vec = {rng.randrange(64): Fraction(rng.randint(-3, 3)) for _ in range(4)}
        assert ech.reduce(vec) == oracle.reduce(vec)
    assert ech.to_subspace() == oracle.to_subspace()
