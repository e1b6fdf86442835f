"""Exact linear algebra: rank, nullspace, complements, canonical subspaces."""

import random
from decimal import Decimal
from fractions import Fraction as F

import pytest

import infodesign as idg
from infodesign.numerics import Matrix, Subspace, dot

from support import raw_motivating_model


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
