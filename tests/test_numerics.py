"""Exact linear algebra: rank, nullspace, complements, canonical subspaces."""

import random
import re
from decimal import Decimal
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, strategies as st

import infodesign as idg
from infodesign import numerics
from infodesign.numerics import Matrix, Subspace, _clear_column, dot, rref

from support import (
    fraction_nullspace,
    fraction_pivot_step,
    fraction_rref,
    fraction_spans,
    raw_motivating_model,
)


def test_scalar_parsing_is_exact():
    assert idg.scalar("0.05") == F(1, 20)
    assert idg.scalar("2/5") == F(2, 5)
    assert idg.scalar(-3) == F(-3)
    with pytest.raises(TypeError):
        idg.scalar(0.05)
    with pytest.raises(ValueError):
        idg.scalar("not-a-number")


def test_dot_is_exact_and_refuses_inexact_entries():
    assert dot((1, F(1, 2), 0), (F(1, 3), F(1, 6), "x")) == F(5, 12)
    assert type(dot((), ())) is F
    for u, v in [((F(1, 2),), (0.5,)), ((0.5, F(1)), (F(1), F(1))), ((Decimal("0.5"),), (F(1),))]:
        with pytest.raises(TypeError, match="not an exact number"):
            dot(u, v)


def test_elimination_refuses_inexact_entries():
    # a float row's basis and a float matrix's kernel used to come back with floats in them
    with pytest.raises(TypeError, match="not an exact number"):
        Subspace.from_vectors(3, [(0.5, -0.25, -0.25)])
    with pytest.raises(TypeError, match="not an exact number"):
        idg.nullspace(Matrix(1, 3, ((0.1, 0.2, 0.7),)))
    exact = Subspace.from_vectors(3, [(F(1), F(-1), F(0))])
    for bad in (0.5, Decimal("0.5")):
        row = (bad, F(-1, 4), F(-1, 4))
        calls = [
            lambda: rref([row], 3),
            lambda: idg.nullspace(Matrix(1, 3, (row,))),
            lambda: Subspace(3, (row,)),
            lambda: Subspace.from_vectors(3, [row]),
            lambda: idg.rank(Matrix(1, 3, (row,))),
            lambda: exact.contains_vector(row),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="not an exact number"):
                call()


@st.composite
def exact_matrices(draw):
    """Rows of ints and Fractions, 0-9 of them over 1-12 columns, so wide and tall shapes occur.

    Rows may be zero, repeat an earlier row, or combine two earlier rows, and
    entries take either sign, so pivots may be negative and rows dependent.
    """
    n_rows = draw(st.integers(0, 9))
    n_cols = draw(st.integers(1, 12))
    entry = st.one_of(
        st.integers(-5, 5),
        st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 7, 12, 10**12 + 39))),
    )
    sparse = draw(st.sets(st.integers(0, n_cols - 1), max_size=n_cols))
    rows = []
    for i in range(n_rows):
        kind = draw(st.sampled_from(("random", "random", "zero", "repeat", "combination")))
        if kind == "zero":
            row = (0,) * n_cols
        elif kind == "repeat" and rows:
            row = rows[draw(st.integers(0, i - 1))]
        elif kind == "combination" and rows:
            a, b = draw(entry), draw(entry)
            first, second = rows[draw(st.integers(0, i - 1))], rows[draw(st.integers(0, i - 1))]
            row = tuple(a * x + b * y for x, y in zip(first, second))
        else:
            row = tuple(0 if c in sparse else draw(entry) for c in range(n_cols))
        rows.append(row)
    return tuple(rows), n_cols


@given(exact_matrices(), st.data())
def test_integer_elimination_matches_fraction_oracle(case, data):
    rows, cols = case
    # the oracle divides its entries, so it is given Fractions: on int
    # entries its quotients would be floats
    exact = tuple(tuple(F(x) for x in row) for row in rows)
    reduced, pivots = rref(rows, cols)
    expected_rows, expected_pivots = fraction_rref(exact, cols)
    assert reduced == expected_rows and pivots == expected_pivots
    assert all(type(x) is F for row in reduced for x in row)
    m = Matrix(len(rows), cols, rows)
    assert idg.rank(m) == len(expected_pivots)
    assert idg.nullspace(m).basis == fraction_nullspace(exact, cols)
    # a subspace from a prefix of the rows, tested against single rows and
    # against the subspaces of other slices
    split = data.draw(st.integers(0, len(rows)))
    a = Subspace.from_vectors(cols, rows[:split])
    for v, exact_v in zip(rows, exact):
        assert a.contains_vector(v) == fraction_spans(a.basis, (exact_v,), cols)
    for start in range(0, len(rows) + 1, 2):
        b = Subspace.from_vectors(cols, rows[start:])
        assert idg.subspace_contains(a, b) == fraction_spans(a.basis, b.basis, cols)
        assert idg.subspace_contains(b, a) == fraction_spans(b.basis, a.basis, cols)


@given(exact_matrices(), st.data())
def test_the_constructor_holds_the_canonical_basis(case, data):
    rows, cols = case
    # nonzero multiples of some rows, appended, span nothing new
    scales = data.draw(st.lists(st.sampled_from((2, -1, F(1, 3), F(-7, 2))), max_size=len(rows)))
    rows += tuple(tuple(k * x for x in row) for k, row in zip(scales, rows))
    s = Subspace(cols, rows)
    assert s == Subspace.from_vectors(cols, rows)
    exact = tuple(tuple(F(x) for x in row) for row in rows)
    assert s.basis == tuple(fraction_rref(exact, cols)[0])
    assert Subspace(cols, s.basis) == s


def test_a_hand_built_subspace_equals_the_reduced_one():
    by_hand = Subspace(3, ((2, -2, 0),))
    reduced = Subspace.from_vectors(3, [(1, -1, 0)])
    assert by_hand == reduced
    assert idg.subspace_contains(by_hand, reduced) and idg.subspace_contains(reduced, by_hand)
    assert idg.orthogonal_complement(idg.orthogonal_complement(by_hand)) == by_hand
    assert Subspace(3, ((0, 0, 0), (1, -1, 0), (3, -3, 0))) == reduced
    assert Subspace.zero(3) == Subspace(3, ((0, 0, 0),))


@given(st.data())
def test_integer_pivot_matches_fraction_step(data):
    # the one row operation of rref, rank, nullspace and the simplex tableau,
    # on narrow dense rows and on wide rows that are mostly zero, the shape of
    # a supporting-prior tableau (up to 45 columns, about 10 nonzeros a row)
    cols = data.draw(st.integers(1, 45))
    entry = st.one_of(st.integers(-6, 6), st.integers(-(10**15), 10**15))
    dense = st.lists(entry, min_size=cols, max_size=cols)
    sparse = st.dictionaries(st.integers(0, cols - 1), entry, max_size=10).map(
        lambda at: [at.get(j, 0) for j in range(cols)]
    )
    row = dense if cols <= 7 else st.one_of(dense, sparse)
    rows = data.draw(st.lists(row, min_size=1, max_size=6))
    r = data.draw(st.integers(0, len(rows) - 1))
    c = data.draw(st.integers(0, cols - 1))
    if not rows[r][c]:
        rows[r][c] = data.draw(st.sampled_from((1, -1, 2, -3, 6, -12, 10**15 + 37)))
    g = gcd(*rows[r])
    rows[r] = [x // g for x in rows[r]]  # rows are kept with gcd 1, the pivot row included
    # entries f in the pivot column that share a factor with the head h, or that
    # h divides, so that h / gcd(h, f) is 1
    h = abs(rows[r][c])
    for i in range(len(rows)):
        if i != r and data.draw(st.booleans()):
            factor = data.draw(st.sampled_from((h, gcd(h, 6), gcd(h, 10))))
            rows[i][c] = factor * data.draw(st.sampled_from((1, -1, 2, -5, 7)))
    before = [list(row) for row in rows]
    work = list(rows)  # the row lists themselves: the pivot must not write into them
    _clear_column(work, r, c)
    assert rows == before
    expected = fraction_pivot_step(rows, r, c)
    assert work[r][c] > 0 and work[r] in (rows[r], [-x for x in rows[r]])
    for i, (row, got, want) in enumerate(zip(rows, work, expected)):
        if i == r:
            continue
        if not row[c]:
            assert got == row
            continue
        assert got is not row
        assert got[c] == 0 and gcd(*got) in (0, 1)
        # a positive multiple of the Fraction step: one positive ratio t over every entry
        lead = next((j for j, x in enumerate(want) if x), None)
        if lead is None:
            assert not any(got)
        else:
            t = F(got[lead]) / want[lead]
            assert t > 0 and all(a == t * b for a, b in zip(got, want))


@given(exact_matrices())
def test_nullspace_hands_over_the_integer_basis_its_subspace_would_compute(case):
    rows, cols = case
    kernel = idg.nullspace(Matrix(len(rows), cols, rows))
    matrix = kernel.basis_matrix()
    assert matrix is kernel.basis_matrix() and matrix.entries == kernel.basis
    den, integers = matrix._integer_entries
    assert den > 0
    assert tuple(tuple(F(x, den) for x in row) for row in integers) == kernel.basis
    # a matrix not made by nullspace computes the same view from its entries
    assert Matrix(kernel.dim, cols, kernel.basis)._integer_entries == (den, integers)


@given(exact_matrices())
def test_every_matrix_has_an_integer_view_of_its_entries(case):
    rows, cols = case
    m = Matrix(len(rows), cols, rows)
    den, integers = m._integer_entries
    assert den > 0 and m._integer_entries is m._integer_entries
    assert [len(row) for row in integers] == [cols] * len(rows)
    for row, entries in zip(integers, m.entries):
        assert all(F(x, den) == entry for x, entry in zip(row, entries))


def _integer_rows_and_fractions(den, n_rows, cols, data):
    row = st.lists(st.integers(-20, 20), min_size=cols, max_size=cols)
    rows = data.draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    return rows, Matrix(n_rows, cols, tuple(tuple(F(x, den) for x in r) for r in rows))


@given(st.integers(1, 12), st.integers(0, 5), st.integers(0, 6), st.data())
def test_a_matrix_over_integers_equals_the_matrix_of_its_fractions(den, n_rows, cols, data):
    rows, plain = _integer_rows_and_fractions(den, n_rows, cols, data)
    m = Matrix._over(den, rows, cols)
    assert m == plain and hash(m) == hash(plain) and repr(m) == repr(plain)
    assert m._integer_entries == (den, rows)
    # one Fraction per distinct value
    seen = {}
    for x, entry in zip((x for r in rows for x in r), (e for r in m.entries for e in r)):
        assert seen.setdefault(x, entry) is entry


@given(st.integers(1, 12), st.integers(0, 5), st.integers(0, 6), st.data())
def test_nullspace_of_a_matrix_over_integers_is_that_of_its_fractions(den, n_rows, cols, data):
    rows, plain = _integer_rows_and_fractions(den, n_rows, cols, data)
    kept = [list(r) for r in rows]
    over = idg.nullspace(Matrix._over(den, rows, cols))
    assert rows == kept  # the elimination leaves the view's rows as they were
    expected = idg.nullspace(plain)
    assert over == expected
    assert over.basis_matrix()._integer_entries == expected.basis_matrix()._integer_entries


def test_rank_identity_and_row():
    assert idg.rank(Matrix.identity(3)) == 3
    assert idg.rank(Matrix.from_rows([[1, 1, 1, 1]])) == 1


def test_rank_of_marginal_experiment_is_four():
    # the (Y, T) coarsening of the eight-state example has four distinct
    # deterministic columns
    structure = idg.marginal_structure(raw_motivating_model(), ["Y", "T"])
    assert idg.rank(structure.experiment) == 4


def test_nullspace_examples():
    assert idg.nullspace(Matrix.identity(4)).dim == 0
    ns = idg.nullspace(Matrix.from_rows([[1, 1, 1, 1]]))
    assert ns.dim == 3
    assert ns.contains_vector(idg.vector([1, -1, 0, 0]))
    marg = idg.marginal_structure(raw_motivating_model(), ["Y", "T"])
    assert idg.nullspace(marg.experiment).dim == 4


def test_orthogonal_complement_examples():
    full = idg.orthogonal_complement(Subspace.zero(3))
    assert full.dim == 3
    s = Subspace.from_vectors(3, [idg.vector([1, -1, 0])])
    comp = idg.orthogonal_complement(s)
    assert comp.dim == 2
    for w in comp.basis:
        for v in s.basis:
            assert dot(w, v) == 0
    hyper = idg.nullspace(Matrix.from_rows([[1] * 5]))
    assert idg.orthogonal_complement(hyper) == Subspace.from_vectors(5, [idg.vector([1] * 5)])


def test_subspace_contains_examples():
    s = Subspace.from_vectors(2, [idg.vector([1, 0])])
    assert idg.subspace_contains(s, Subspace.zero(2))
    assert not idg.subspace_contains(s, Subspace.from_vectors(2, [idg.vector([0, 1])]))
    hyper = idg.nullspace(Matrix.from_rows([[1] * 4]))
    assert idg.subspace_contains(hyper, Subspace.from_vectors(4, [idg.vector([2, -1, -1, 0])]))
    with pytest.raises(idg.DimensionMismatch):
        idg.subspace_contains(s, Subspace.zero(3))


def test_rank_nullity_on_random_matrices():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = Matrix.from_rows(
            [[F(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        )
        assert idg.rank(m) + idg.nullspace(m).dim == cols


def test_complement_is_an_involution():
    rng = random.Random(12)
    for _ in range(30):
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        vecs = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(k)]
        s = Subspace.from_vectors(n, vecs)
        assert idg.orthogonal_complement(idg.orthogonal_complement(s)) == s


def test_canonical_form_survives_basis_recombination():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 6)
        k = rng.randint(1, n)
        vecs = [idg.vector([rng.randint(-3, 3) for _ in range(n)]) for _ in range(k)]
        s = Subspace.from_vectors(n, vecs)
        if s.dim == 0:
            continue
        basis = list(s.basis)
        mixed = []
        for i, b in enumerate(basis):
            # unit-triangular recombination with a nonzero diagonal scale,
            # so the span is unchanged by construction
            scale = F(rng.choice([1, 2, 3, -1, -2]))
            combo = [scale * x for x in b]
            for j in range(i):
                c = F(rng.randint(-2, 2))
                if c:
                    combo = [x + c * y for x, y in zip(combo, basis[j])]
            mixed.append(tuple(combo))
        rng.shuffle(mixed)
        assert Subspace.from_vectors(n, mixed) == s


@pytest.mark.parametrize(
    "call, error, fragment",
    [
        pytest.param(lambda: dot((F(1),), ()), idg.DimensionMismatch,
                     "dot product of lengths 1 and 0", id="dot"),
        pytest.param(lambda: numerics.sparse_dot(numerics.sparse_row((F(1),)), (0.5,)),
                     TypeError, "not an exact number: 0.5", id="sparse-dot"),
        pytest.param(lambda: numerics.vec_sub((F(1),), ()), idg.DimensionMismatch,
                     "subtracting vectors of lengths 1 and 0", id="vec-sub"),
        pytest.param(lambda: numerics._integer_difference((F(1),), ()), idg.DimensionMismatch,
                     "subtracting vectors of lengths 1 and 0", id="integer-difference"),
        pytest.param(lambda: Matrix(-1, 0, ()), idg.DimensionMismatch,
                     "matrix dimensions must be nonnegative", id="negative-shape"),
        pytest.param(lambda: Matrix(1, 0, ()), idg.DimensionMismatch,
                     "expected 1 rows, got 0", id="row-count"),
        pytest.param(lambda: Matrix(1, 2, ((F(1),),)), idg.DimensionMismatch,
                     "ragged row of length 1, expected 2", id="ragged"),
        pytest.param(lambda: Matrix.from_rows([]), idg.DimensionMismatch,
                     "column count required for a matrix with no rows", id="no-rows"),
        pytest.param(lambda: Matrix.identity(2).matvec((F(1),)), idg.DimensionMismatch,
                     "matvec: 2 columns vs vector of length 1", id="matvec"),
        pytest.param(lambda: Subspace(2, ((F(1),),)), idg.DimensionMismatch,
                     "basis vector of length 1 in ambient dimension 2", id="basis-length"),
        pytest.param(lambda: Subspace.zero(2).contains_vector((F(1),)), idg.DimensionMismatch,
                     "vector of length 1 in ambient dimension 2", id="contains-length"),
    ],
)
def test_numerics_refuses_bad_operands(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
