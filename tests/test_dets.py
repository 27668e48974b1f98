"""Cauchy-type and ratio determinants, the general-x matrix, block splitting."""

import random
from fractions import Fraction

import pytest

from asmice.brackets import qdiff
from asmice.chain import RATIO_EXPONENTS, tau_poly
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
    # at x = 3 the general-x entry M_{ij} = (x^2-4x)/tau(m) is -3/tau(m),
    # and 1/tau(m), m = i+j+1, equals t^m times the plus-one ratio
    # (u^m + 1)/(u^(3m) + 1), built here independently
    def plus_ratio(m):
        return RatFunc(LaurentPoly.var_power(m) + 1,
                       LaurentPoly.var_power(3 * m) + 1)

    for n in (2, 3):
        m = RingMatrix.from_fn(n, n,
                               lambda i, j: RatFunc(1, tau_poly(i + j + 1, 3)))
        sp = RingMatrix.from_fn(n, n, lambda i, j: plus_ratio(i + j + 1))
        for i in range(n):
            for j in range(n):
                shift = RatFunc(LaurentPoly.var_power(i + j + 1))
                assert m[i, j] == sp[i, j] * shift
        rhs = det_exact(sp) * RatFunc(LaurentPoly.var_power(n * n))
        assert det_exact(m) == rhs


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


# ---------- the tau entries at x = 1 and x = 2 ----------

def test_x_one_entries():
    # 1/tau(m) = (-1/3) M_{ij} at x = 1, m = i+j+1, is d(m)/d(3m)
    a, b = RATIO_EXPONENTS[1]
    for m in range(1, 10):
        assert tau_poly(m, 1) == lp({2 * m: 1, 0: 1, -2 * m: 1})
        assert RatFunc(1, tau_poly(m, 1)) == RatFunc(qdiff(a * m),
                                                     qdiff(b * m))


def test_x_two_entries_match_ratio_matrix():
    # 1/tau(m) = (-1/4) M_{ij} at x = 2 is the ratio matrix's entry
    a, b = RATIO_EXPONENTS[2]
    s = s_matrix(5, a, b)
    for m in range(1, 10):
        assert RatFunc(1, tau_poly(m, 2)) == RatFunc(qdiff(a * m),
                                                     qdiff(b * m))
        assert RatFunc(1, tau_poly(m, 2)) == s[(m - 1) // 2, m // 2]


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


def general_x_entry(g, s):
    """(x^2-4x) / (s^g + s^(-g) + 2 - x) built on its own, its constant
    a Fraction."""
    x = LaurentPoly.var_power(1)
    return RatFunc(x * x - 4 * x, Fraction(s) ** g + Fraction(s) ** -g + 2 - x)


def refuse_fraction_polys(monkeypatch):
    """Make every LaurentPoly built raise on a Fraction coefficient."""
    init, clean = LaurentPoly.__init__, LaurentPoly._clean.__func__

    def checked(p):
        assert Fraction not in set(map(type, p.terms.values())), p
        return p

    def checked_init(self, scale, terms):
        init(self, scale, terms)
        checked(self)

    monkeypatch.setattr(LaurentPoly, "__init__", checked_init)
    monkeypatch.setattr(LaurentPoly, "_clean", classmethod(
        lambda cls, scale, terms: checked(clean(cls, scale, terms))))


def test_general_x_entries_are_built_once_per_difference():
    # int coefficients, whatever the sign and the denominator of s, and
    # no Fraction on the way to them
    for s in (Fraction(7, 5), Fraction(-7, 5), 2, Fraction(1, 3),
              Fraction(-11, 13)):
        for f in ((0,), (-1, 1), (-2, 0, 2), (-3, -1, 1, 3),
                  (-4, -2, 0, 2, 4)):
            grid = EpsilonGrid.symmetric(f)
            with pytest.MonkeyPatch.context() as mp:
                refuse_fraction_polys(mp)
                m = general_x_matrix(grid, s=s)
            for i in range(grid.n):
                for j in range(grid.n):
                    e = m[i, j]
                    assert e == general_x_entry(grid.g(i, j), s), (s, f)
                    assert {type(c) for p in (e.num, e.den)
                            for c in p.terms.values()} == {int}
                    assert e.eval_units(0) == 0         # x = 0
            assert_shared(m, grid.g)


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
    (lambda: general_x_matrix(EpsilonGrid.standard(2), s=0),
     "s must be nonzero"),
    (lambda: antidiagonal_block_det(RingMatrix([[1, 2]])),
     "matrix must be square"),
])
def test_refusals_name_their_cause(refused, cause):
    with pytest.raises(ValueError, match=cause):
        refused()


def test_split_requires_flip_symmetry():
    with pytest.raises(ValueError):
        antidiagonal_block_det(general_x_matrix(EpsilonGrid.standard(2), s=2))
