"""Cauchy-type and ratio determinants, the general-x matrix, block splitting."""

import random
from fractions import Fraction

import pytest

from asmice.brackets import qdiff
from asmice.dets import (EpsilonGrid, antidiagonal_block_det, cauchy_det_closed,
                         cauchy_matrix, general_x_matrix, kronecker_exponent,
                         s_det_closed, s_det_closed_bivariate, s_det_product,
                         s_matrix, s_matrix_bivariate)
from asmice.laurent import LaurentPoly, RatFunc, divide_exact
from asmice.matrices import RingMatrix, det_exact


def lp(terms, scale=1):
    return LaurentPoly(scale, terms)


# ---------- reciprocal-bracket determinant ----------

def test_cauchy_single_entry():
    xs, ys = [3], [0]
    m = cauchy_matrix(xs, ys)
    assert det_exact(m) == cauchy_det_closed(xs, ys)
    assert m[0, 0] == RatFunc(lp({1: 1, -1: -1}), lp({3: 1, -3: -1}))


def test_cauchy_closed_form_matches_determinant():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        while True:
            xs = rng.sample([Fraction(k, 2) for k in range(2, 40)], n)
            ys = rng.sample([Fraction(k, 2) for k in range(-40, 1)], n)
            if all(x != y for x in xs for y in ys):
                break
        assert det_exact(cauchy_matrix(xs, ys)) == cauchy_det_closed(xs, ys)


def test_cauchy_validation():
    with pytest.raises(ValueError):
        cauchy_matrix([1, 1], [0, -1])          # coincident x's
    with pytest.raises(ValueError):
        cauchy_matrix([1, 2], [2, 0])           # entry pole x_i = y_j
    with pytest.raises(ValueError):
        cauchy_matrix([1, 2], [0, -1, -2])      # length mismatch
    with pytest.raises(ValueError):
        cauchy_det_closed([5], [1, 2])          # length mismatch


def test_closed_forms_refuse_the_sizes_their_matrices_refuse():
    for call in (lambda: s_det_product(-2, 1, 3),
                 lambda: s_det_closed(0, 1, 3), lambda: s_matrix(0, 1, 3),
                 lambda: s_matrix_bivariate(0),
                 lambda: s_det_closed_bivariate(-1),
                 lambda: s_det_closed_bivariate(0)):
        with pytest.raises(ValueError, match="n must be positive"):
            call()
    for call in (cauchy_det_closed, cauchy_matrix):
        with pytest.raises(ValueError, match="at least one x and one y"):
            call([], [])


# ---------- ratio matrices ----------

def test_ratio_det_closed_form():
    for (a, b) in ((1, 3), (2, 4), (2, 6), (2, 3), (5, 2), (-1, 3)):
        for n in (1, 2, 3, 4):
            assert det_exact(s_matrix(n, a, b)) == s_det_closed(n, a, b), \
                (a, b, n)


def test_ratio_matrix_equal_arguments_has_rank_one():
    m = s_matrix(3, 2, 2)
    assert all(m[i, j] == RatFunc(LaurentPoly.one())
               for i in range(3) for j in range(3))
    assert det_exact(m).is_zero
    assert s_det_closed(2, 1, 1).num.is_zero


def test_ratio_det_rank_collapse_at_multiples():
    # a = 2b makes the matrix rank 2: zero determinant from n = 3 on
    assert s_det_product(3, 6, 3).zero
    assert det_exact(s_matrix(3, 6, 3)).is_zero
    assert not s_det_product(2, 6, 3).zero
    # a = 0 collapses to the zero matrix
    assert det_exact(s_matrix(2, 0, 3)).is_zero
    assert s_det_product(2, 0, 3).zero


def test_ratio_matrix_rejects_zero_denominator_argument():
    with pytest.raises(ValueError):
        s_matrix(2, 1, 0)


def test_bivariate_closed_form():
    for n in (1, 2, 3):
        assert det_exact(s_matrix_bivariate(n)) == s_det_closed_bivariate(n)


def test_bivariate_vanishing_orders():
    n = 3
    num = det_exact(s_matrix_bivariate(n)).num
    for k in range(n):
        # s - t^k under s -> u^K, t -> u, up to a unit
        factor = qdiff(kronecker_exponent(n) - k)
        q = num
        for _ in range(n - k):
            q = divide_exact(q, factor)       # raises if the order is short


def d_at(root, m):
    """d(m) = x^(m/2) - x^(-m/2) at the point x^(1/2) = root."""
    return root ** m - root ** -m


def closed_at(n, s_root, t_root, drop=None):
    """The closed form of det S(n; s, t) at s^(1/2) = s_root and
    t^(1/2) = t_root, each mixed factor s^(1/2) t^(-k/2) - s^(-1/2) t^(k/2)
    taken to the power n - |k|, one power fewer for k = drop."""
    value = Fraction(1)
    for i in range(n):
        for j in range(i):
            value *= d_at(t_root, i - j) ** 2
        for j in range(n):
            value /= d_at(t_root, i + j + 1)
    for k in range(1 - n, n):
        mixed = s_root * t_root ** -k - s_root ** -1 * t_root ** k
        value *= mixed ** (n - abs(k) - (k == drop))
    return value


def test_bivariate_identity_at_rational_points():
    # an oracle apart from the Kronecker image: S(n; s, t) as a Fraction
    # matrix at points with s^(1/2) and t^(1/2) rational, against the
    # closed product there; dropping one factor s - t^k breaks it
    points = [(Fraction(a), Fraction(b)) for a, b in
              ((2, Fraction(3, 2)), (Fraction(3, 2), Fraction(5, 3)),
               (Fraction(5, 3), 2), (Fraction(1, 3), Fraction(7, 2)))]
    for n in (1, 2, 3, 4):
        for s_root, t_root in points:
            m = RingMatrix.from_fn(n, n, lambda i, j: d_at(s_root, i + j + 1)
                                   / d_at(t_root, i + j + 1))
            assert det_exact(m) == closed_at(n, s_root, t_root), (n, s_root)
        for k in range(n):
            assert any(closed_at(n, *p, drop=k) != closed_at(n, *p)
                       for p in points)

def test_variation_relates_to_general_x_matrix():
    # (-1/3) M(x=3)_{ij} equals t^(i+j+1) times the plus-one ratio
    # (u^m + 1)/(u^(3m) + 1), m = i+j+1, built here independently
    def plus_ratio(m):
        return RatFunc(LaurentPoly.var_power(m) + 1,
                       LaurentPoly.var_power(3 * m) + 1)

    for n in (2, 3):
        m = general_x_matrix(EpsilonGrid.standard(n), x=3)
        sp = RingMatrix.from_fn(n, n, lambda i, j: plus_ratio(i + j + 1))
        for i in range(n):
            for j in range(n):
                shift = RatFunc(LaurentPoly.var_power(i + j + 1))
                assert m[i, j] * Fraction(-1, 3) == sp[i, j] * shift
        lhs = det_exact(m) * (Fraction(-1, 3) ** n)
        rhs = det_exact(sp) * RatFunc(LaurentPoly.var_power(n * n))
        assert lhs == rhs


# ---------- deformation grids ----------

def test_standard_grid_differences():
    g = EpsilonGrid.standard(3)
    assert [g.g(i, j) for i in range(3) for j in range(3)] == \
        [1, 2, 3, 2, 3, 4, 3, 4, 5]
    assert g.n == 3


def test_symmetric_grid():
    g = EpsilonGrid.symmetric([-3, -1, 1, 3])
    assert g.g(0, 3) == -6 and g.g(1, 1) == 0
    with pytest.raises(ValueError):
        EpsilonGrid.symmetric([1, 2, 3])      # not antisymmetric


# ---------- the general-x matrix ----------

def test_x_one_entries():
    m = general_x_matrix(EpsilonGrid.standard(2), x=1)
    for i in range(2):
        for j in range(2):
            k = i + j + 1
            want = RatFunc(LaurentPoly.const(-3),
                           lp({2 * k: 1, 0: 1, -2 * k: 1}))
            assert m[i, j] == want


def test_x_two_entries_match_ratio_matrix():
    n = 3
    m = general_x_matrix(EpsilonGrid.standard(n), x=2)
    s = s_matrix(n, 2, 4)
    for i in range(n):
        for j in range(n):
            assert m[i, j] * Fraction(-1, 4) == s[i, j]


def test_x_zero_gives_zero_matrix():
    m = general_x_matrix(EpsilonGrid.standard(2), x=0)
    assert all(m[i, j].is_zero for i in range(2) for j in range(2))


def test_all_parameter_modes_agree_at_sample_points():
    grid = EpsilonGrid.standard(2)
    m_x1 = general_x_matrix(grid, x=1)             # s formal
    m_s2 = general_x_matrix(grid, s=2)             # x formal
    m_num = general_x_matrix(grid, x=1, s=4)       # both numeric
    for i in range(2):
        for j in range(2):
            assert m_x1[i, j].eval_units(Fraction(2)) == m_num[i, j]
            assert m_s2[i, j].eval_units(Fraction(1)) == \
                general_x_matrix(grid, x=1, s=2)[i, j]


# ---------- each distinct entry built once ----------

def same_entry(got, want):
    """got and want are equal scalars, or RatFuncs with the same num and
    den terms in the same order on the same grid."""
    if not isinstance(want, RatFunc):
        return type(got) is type(want) and got == want
    return all((p.scale, list(p.terms.items()))
               == (q.scale, list(q.terms.items()))
               for p, q in ((got.num, want.num), (got.den, want.den)))


def assert_shared(m, key):
    """Entries with equal key(i, j) are one object, others are not."""
    n = m.nrows
    cells = [(i, j) for i in range(n) for j in range(n)]
    for i, j in cells:
        for k, l in cells:
            assert (m[i, j] is m[k, l]) == (key(i, j) == key(k, l))


def test_ratio_matrix_entries_are_built_once_per_sum():
    n = 4
    cases = ((s_matrix(n, 2, 3), lambda m: RatFunc(qdiff(2 * m), qdiff(3 * m))),
             (s_matrix(n, Fraction(1, 2), -1),
              lambda m: RatFunc(qdiff(Fraction(m, 2)), qdiff(-m))),
             (s_matrix_bivariate(n),
              lambda m: RatFunc(qdiff(kronecker_exponent(n) * m), qdiff(m))))
    for matrix, entry in cases:
        for i in range(n):
            for j in range(n):
                assert same_entry(matrix[i, j], entry(i + j + 1))
        assert_shared(matrix, lambda i, j: i + j)


def general_x_entry(grid, i, j, x, s):
    """Entry (i, j) of general_x_matrix built on its own."""
    g = grid.g(i, j)
    if s is None:
        sg, sm = LaurentPoly.var_power(g), LaurentPoly.var_power(-g)
    else:
        sg, sm = Fraction(s) ** g, Fraction(s) ** -g
    x = LaurentPoly.var_power(1) if x is None else Fraction(x)
    den = sg + sm + 2 - x
    num = x * x - 4 * x
    return num / den if isinstance(den, Fraction) else RatFunc(num, den)


def test_general_x_entries_are_built_once_per_difference():
    grid = EpsilonGrid.symmetric([-3, -1, 1, 3])
    for x, s in ((None, Fraction(7, 5)), (3, None),
                 (Fraction(1, 2), Fraction(7, 5))):
        m = general_x_matrix(grid, x=x, s=s)
        for i in range(grid.n):
            for j in range(grid.n):
                assert same_entry(m[i, j], general_x_entry(grid, i, j, x, s))
        assert_shared(m, grid.g)


def test_general_x_zero_denominator_names_its_first_entry():
    # g = f_i - f'_j vanishes first at (1, 1) and again at (2, 2); at
    # x = 4 exactly those entries have the denominator 4 - x = 0
    grid = EpsilonGrid((1, 2, 3), (0, 2, 3))
    for s in (None, Fraction(7, 5)):
        with pytest.raises(ValueError,
                           match=r"^zero denominator at entry \(1,1\)$"):
            general_x_matrix(grid, x=4, s=s)


# ---------- antidiagonal block splitting ----------

def test_two_by_two_split():
    a = RatFunc(LaurentPoly.var_power(1))
    b = RatFunc(LaurentPoly.var_power(2) + 3)
    even, odd = antidiagonal_block_det(RingMatrix([[a, b], [b, a]]))
    assert even == a + b and odd == a - b
    assert even * odd == det_exact(RingMatrix([[a, b], [b, a]]))


def test_single_entry_split():
    m = RingMatrix([[RatFunc(LaurentPoly.const(7))]])
    even, odd = antidiagonal_block_det(m)
    assert even == RatFunc(LaurentPoly.const(7))
    assert odd == 1


def test_split_factorizes_symmetric_instances():
    for f, s in (([-1, 1], 2), ([-2, 0, 2], 3),
                 ([-3, -1, 1, 3], 2), ([-4, -2, 0, 2, 4], 3)):
        m = general_x_matrix(EpsilonGrid.symmetric(f), s=s)
        even, odd = antidiagonal_block_det(m)
        assert even * odd == det_exact(m), f


@pytest.mark.parametrize("refused, cause", [
    (lambda: EpsilonGrid([1, 2], [0]),
     "row and column grids must have equal length"),
    (lambda: general_x_matrix(EpsilonGrid([Fraction(1, 2)], [0]), s=2),
     "rational s requires integer grid exponents"),
    (lambda: general_x_matrix(EpsilonGrid.standard(2)),
     "x and s cannot both be formal: the entries have one variable"),
    (lambda: antidiagonal_block_det(RingMatrix([[1, 2]])),
     "matrix must be square"),
])
def test_refusals_name_their_cause(refused, cause):
    with pytest.raises(ValueError, match=cause):
        refused()


def test_split_requires_flip_symmetry():
    with pytest.raises(ValueError):
        antidiagonal_block_det(general_x_matrix(EpsilonGrid.standard(2), x=1))
