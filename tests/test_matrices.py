"""Exact determinants: Bareiss pipeline vs division-free cofactor oracle."""

import random
from fractions import Fraction

import pytest

from asmice import matrices
from asmice.brackets import qdiff
from asmice.dets import EpsilonGrid, general_x_matrix
from asmice.laurent import LaurentPoly, RatFunc
from asmice.matrices import (RingMatrix, _det_cofactor, cleared_reciprocals,
                             det_exact)


def test_pinned_small_determinants():
    assert det_exact(RingMatrix([[1, 2], [3, 4]])) == -2
    assert det_exact(RingMatrix([[2, 3], [5, 7]])) == -1
    assert det_exact(RingMatrix([[5]])) == 5
    identity = RingMatrix.from_fn(4, 4, lambda i, j: int(i == j))
    assert det_exact(identity) == 1
    m3 = RingMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 10]])
    assert det_exact(m3) == -3


def test_methods_agree_on_random_integer_matrices():
    rng = random.Random(11)
    for _ in range(6):
        m = RingMatrix.from_fn(4, 4, lambda i, j: rng.randrange(-9, 10))
        assert det_exact(m) == _det_cofactor(m)


def test_methods_agree_on_random_fraction_matrices():
    rng = random.Random(13)
    for _ in range(4):
        m = RingMatrix.from_fn(
            3, 3, lambda i, j: Fraction(rng.randrange(-9, 10),
                                        rng.randrange(1, 7)))
        assert det_exact(m) == _det_cofactor(m)


def test_methods_agree_on_laurent_entries():
    rng = random.Random(17)

    def entry(i, j):
        return qdiff(rng.randrange(1, 6)) + LaurentPoly.const(rng.randrange(-3, 4))

    m = RingMatrix.from_fn(3, 3, entry)
    assert det_exact(m) == _det_cofactor(m)


def test_ratfunc_entries_clear_denominators():
    m = RingMatrix.from_fn(
        3, 3, lambda i, j: RatFunc(LaurentPoly.one(), qdiff(i + j + 1)))
    d = det_exact(m)
    assert d == _det_cofactor(m)
    assert not d.is_zero


def test_singular_and_zero_pivot_cases():
    assert det_exact(RingMatrix([[1, 2], [2, 4]])) == 0
    assert det_exact(RingMatrix([[0, 1], [1, 0]])) == -1      # needs a row swap
    zero_col = RingMatrix([[0, 1, 2], [0, 3, 4], [0, 5, 6]])
    assert det_exact(zero_col) == 0


def test_shape_validation():
    with pytest.raises(ValueError):
        det_exact(RingMatrix([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ValueError):
        RingMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RingMatrix([])


def test_matrix_helpers():
    m = RingMatrix([[1, 2], [3, 4]])
    assert m[0, 1] == 2
    assert RingMatrix.from_fn(2, 2, lambda i, j: m[j, i]) == \
        RingMatrix([[1, 3], [2, 4]])
    assert RingMatrix.from_fn(2, 2, lambda i, j: 2 * m[i, j]) == \
        RingMatrix([[2, 4], [6, 8]])
    assert m.is_square
    assert not RingMatrix([[1, 2, 3], [4, 5, 6]]).is_square


def test_cleared_reciprocals():
    rng = random.Random(9)
    for n in (1, 2, 3, 4):
        e = [[qdiff(Fraction(rng.randrange(1, 20), rng.choice([1, 2])))
              * LaurentPoly.const(rng.choice([1, 2, -3]), 1, 2)
              for _ in range(n)] for _ in range(n)]
        c = cleared_reciprocals(e)
        for i in range(n):
            for j in range(n):
                want = LaurentPoly.one(1, 2)
                for k in range(n):
                    if k != j:
                        want = want * e[i][k]
                assert c[i, j] == want
        prod = LaurentPoly.one(1, 2)
        for row in e:
            for x in row:
                prod = prod * x
        recip = RingMatrix([[RatFunc(LaurentPoly.one(1, 2), x) for x in row]
                            for row in e])
        assert det_exact(c) == _det_cofactor(recip) * prod


def test_bareiss_runs_over_the_integers(monkeypatch):
    grid = EpsilonGrid.symmetric((-4, -2, 0, 2, 4))
    m = general_x_matrix(grid, s=Fraction(7, 5))
    seen = set()
    mul = LaurentPoly.__mul__
    bareiss = matrices._det_bareiss

    def checked(a, b):
        for p in (a, b):
            coeffs = p.terms.values() if isinstance(p, LaurentPoly) else (p,)
            seen.update(map(type, coeffs))
        return mul(a, b)

    def traced(rows):
        monkeypatch.setattr(LaurentPoly, "__mul__", checked)
        try:
            return bareiss(rows)
        finally:
            monkeypatch.setattr(LaurentPoly, "__mul__", mul)

    monkeypatch.setattr(matrices, "_det_bareiss", traced)
    d = det_exact(m)
    assert seen == {int}
    monkeypatch.undo()
    for u in (3, Fraction(1, 2)):           # x = u^2
        at_x = general_x_matrix(grid, x=u * u, s=Fraction(7, 5))
        assert d.eval_units(u) == _det_cofactor(at_x)


def test_row_contents_multiply_back():
    rng = random.Random(19)
    for _ in range(4):
        m = RingMatrix.from_fn(
            3, 3, lambda i, j: (qdiff(rng.randrange(1, 5))
                                + LaurentPoly.const(rng.randrange(-3, 4)))
            * Fraction(rng.randrange(1, 9), rng.randrange(1, 9)) * (i + 2))
        d = det_exact(m)
        assert d == _det_cofactor(m)
    m = RingMatrix([[Fraction(1, 2), Fraction(3, 4)], [6, 4]])
    assert det_exact(m) == Fraction(-5, 2)
    assert type(det_exact(RingMatrix([[2, 4], [3, 9]]))) is int
    zero_row = RingMatrix([[LaurentPoly.zero(), LaurentPoly.zero()],
                           [qdiff(1), qdiff(2)]])
    assert det_exact(zero_row) == 0
