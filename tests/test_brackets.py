"""q-brackets, two-term differences, and factored bracket products."""

from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from asmice.brackets import (BracketProduct, bracket, bracket_ratio, qdiff,
                             qdiff_product)
from asmice.chain import q_fourth_root
from asmice.laurent import LaurentPoly, NonDivisible, RatFunc, diff_product


def lp(terms, scale=1):
    return LaurentPoly(1, scale, {(k,): c for k, c in terms.items()})


def d(a, e=1):
    """d(a)^e as a BracketProduct."""
    return BracketProduct(1, 0, {a: e})


ONE = BracketProduct()


def bracket_factor(a):
    """[a] = d(a) * d(1)^(-1) as a BracketProduct."""
    diffs = {a: 1}
    diffs[1] = diffs.get(1, 0) - 1
    return BracketProduct(1, 0, diffs)


# ---------- qdiff and bracket values ----------

def test_qdiff_basic_values():
    assert qdiff(0).is_zero
    assert qdiff(1) == lp({1: 1, -1: -1})
    assert qdiff(3) == lp({3: 1, -3: -1})
    assert qdiff(Fraction(1, 2)) == lp({1: 1, -1: -1}, scale=2)
    assert qdiff(Fraction(-2, 3)) == lp({-2: 1, 2: -1}, scale=3)
    # each on the coarsest grid that holds t^(a/2): D = a.denominator
    for a in (0, 1, -3, Fraction(1, 2), Fraction(5, 4), Fraction(-7, 6)):
        assert qdiff(a).scale == Fraction(a).denominator
    for nvars in (0, 3):
        with pytest.raises(ValueError, match="only 1 or 2 variables"):
            qdiff(1, nvars)


@given(st.fractions(-12, 12, max_denominator=12),
       st.sampled_from([(1, 0), (2, 0), (2, 1)]))
@example(Fraction(0), (1, 0))
@example(Fraction(0), (2, 1))
@example(Fraction(-5, 12), (2, 1))
def test_qdiff_is_the_difference_of_its_monomials(a, place):
    nvars, var = place
    direct = qdiff(a, nvars, var)
    want = (LaurentPoly.var_power(a / 2, var, nvars)
            - LaurentPoly.var_power(-a / 2, var, nvars))
    assert (direct.nvars, direct.scale) == (want.nvars, want.scale)
    assert list(direct.terms.items()) == list(want.terms.items())


def test_beta_is_the_unit_difference():
    assert qdiff(1) == lp({1: 1, -1: -1})
    assert qdiff(1, 2, 1) == LaurentPoly(2, 1, {(0, 1): 1, (0, -1): -1})


def test_bracket_values():
    assert bracket(0).is_zero
    assert bracket(1) == LaurentPoly.one()
    assert bracket(2) == lp({1: 1, -1: 1})
    assert bracket(3) == lp({2: 1, 0: 1, -2: 1})
    with pytest.raises(NonDivisible, match=r"\[1/2\]"):
        bracket(Fraction(1, 2))


@given(st.integers(-8, 8))
def test_bracket_is_odd(a):
    assert bracket(-a) == bracket(a) * -1


@given(st.integers(-6, 6), st.integers(-6, 6))
def test_bracket_exchange_identity(a, b):
    lhs = bracket(a) * bracket(b) - bracket(a + 1) * bracket(b - 1)
    assert lhs == bracket(a - b + 1)


@given(st.integers(-12, 12), st.integers(-12, 12))
def test_difference_exchange_identity_on_the_quarter_grid(p, q):
    a, b = Fraction(p, 4), Fraction(q, 4)
    lhs = qdiff(a) * qdiff(b) - qdiff(a + 1) * qdiff(b - 1)
    assert lhs == qdiff(1) * qdiff(a - b + 1)


def test_bracket_ratio_matches_polynomial_bracket():
    for a in (-3, 0, 1, 2, 5):
        assert bracket_ratio(a) == RatFunc(bracket(a))
    half = bracket_ratio(Fraction(1, 2))
    assert half * half == bracket_ratio(Fraction(1, 2)) ** 2
    assert not half.is_poly


# ---------- factored products ----------

def test_product_one_and_monomial():
    assert ONE.limit_at_one() == 1
    m = BracketProduct(1, -9)
    assert m.unit_expo == -9 and m.limit_at_one() == 1


def test_diff_normalizes_negative_arguments():
    assert d(-3).diffs == {3: 1} and d(-3).coeff == -1
    assert d(-3, 2).coeff == 1


def test_diff_zero_argument_gives_zero_product():
    z = d(0)
    assert z.zero and z.coeff == 0 and z.limit_at_one() == 0
    assert z.expand_ratfunc().is_zero
    with pytest.raises(ZeroDivisionError):
        d(0, -1)


# {a: e} -> (coefficient, normalised factors) of prod d(a)^e
NORMAL_FORMS = [
    ({}, 1, {}),
    ({2: 0, -3: 0}, 1, {}),
    ({-3: 1}, -1, {3: 1}),
    ({-3: 2}, 1, {3: 2}),
    ({-3: 1, 3: 2, Fraction(-1, 2): 3}, 1, {3: 3, Fraction(1, 2): 3}),
    ({2: 1, -2: 1}, -1, {2: 2}),
    ({0: 1, 3: 2, -1: 1}, 0, {}),
    ({0: 0, 5: 1}, 1, {5: 1}),
]


@pytest.mark.parametrize("diffs, coeff, factors", NORMAL_FORMS)
def test_one_normal_form_for_difference_products(diffs, coeff, factors):
    p = BracketProduct(1, 0, diffs)
    assert (p.coeff, p.diffs) == (coeff, factors)
    assert p.zero == (coeff == 0)
    want = LaurentPoly.one()
    for a, e in factors.items():
        want = want * qdiff(a) ** e
    assert diff_product(diffs) == want * coeff


@pytest.mark.parametrize("diffs", [{0: -1}, {3: 1, 0: -2}])
def test_negative_power_of_d0(diffs):
    with pytest.raises(ZeroDivisionError):
        BracketProduct(1, 0, diffs)
    with pytest.raises(ValueError):
        diff_product(diffs)


def test_negative_exponents_stay_factored():
    # d(2) d(-2)^(-1) = -1: the factors cancel, the sign stays
    p = BracketProduct(1, 0, {2: 1, -2: -1, 4: -2})
    assert (p.coeff, p.diffs) == (-1, {4: -2})


def test_bracket_factor_balances_unit_differences():
    f = bracket_factor(3)
    assert f.diffs == {3: 1, 1: -1}
    assert f.net_diff_power == 0
    assert f.limit_at_one() == 3
    assert bracket_factor(1) == ONE


def test_product_algebra():
    a = bracket_factor(3)
    b = bracket_factor(2)
    prod = a * b
    assert prod.limit_at_one() == 6
    assert (prod / b).limit_at_one() == 3
    assert (b ** 2).limit_at_one() == 4
    assert (b ** -1).limit_at_one() == Fraction(1, 2)
    assert (a * 5).limit_at_one() == 15
    assert (a / 3).limit_at_one() == 1


def test_limit_unbalanced_cases():
    assert d(2).limit_at_one() == 0                           # net > 0
    with pytest.raises(NonDivisible):
        d(2, -1).limit_at_one()                               # pole


def test_limit_alias():
    assert bracket_factor(4).limit_at_one() == 4


def test_expand_ratfunc_matches_direct_polynomials():
    p = BracketProduct(Fraction(2), -1, {3: 1, 1: -1})
    expanded = p.expand_ratfunc()
    direct = RatFunc(lp({-1: 2}) * qdiff(3), qdiff(1))
    assert expanded == direct


def test_equality_is_extensional():
    # d(3)/d(1) == [3] == unit^2 + 1 + unit^-2 as expanded values
    a = bracket_factor(3)
    b = d(3) / d(1)
    assert a == b


def test_power_of_zero():
    z = d(0)
    assert (z ** 3).zero
    assert (z ** 0) == ONE
    assert (z * d(2, -1)).limit_at_one() == 0
    assert (z * BracketProduct(1, 5, {2: -1})).diffs == {}
    with pytest.raises(ZeroDivisionError):
        z ** -1
    with pytest.raises(ZeroDivisionError):
        ONE / z


# ---------- packed expansion against the factor-by-factor oracle ----------

def factor_by_factor(p):
    """p as a RatFunc expanded one qdiff(a) ** e at a time, the coefficient
    and monomial multiplied in first."""
    num = LaurentPoly.var_power(Fraction(p.unit_expo, 2)) * p.coeff
    den = LaurentPoly.one()
    for a, e in sorted(p.diffs.items()):
        if e > 0:
            num = num * qdiff(a) ** e
        else:
            den = den * qdiff(a) ** -e
    return RatFunc(num, den)


def cross_multiplied_equal(p, q):
    return factor_by_factor(p) == factor_by_factor(q)


products = st.builds(
    BracketProduct,
    st.sampled_from([1, -1, 3, Fraction(-2, 5), q_fourth_root(1)]),
    st.integers(-6, 6),
    st.dictionaries(st.builds(Fraction, st.integers(-6, 6),
                              st.sampled_from([1, 2, 3, 4])),
                    st.integers(-3, 3), max_size=4)
    .filter(lambda d: d.get(0, 0) >= 0),         # d(0) may not divide
)


@given(products)
def test_expand_ratfunc_matches_the_factor_by_factor_oracle(p):
    assert p.expand_ratfunc() == factor_by_factor(p)


@given(products, products)
def test_equality_matches_the_cross_multiplied_comparison(p, q):
    assert (p == q) == cross_multiplied_equal(p, q)


@given(products, products.filter(bool))
def test_equality_on_equal_pairs(p, q):
    # the same function built another way: q cancels, and d(-a)^e is
    # (-1)^e d(a)^e
    flipped = BracketProduct(p.coeff * (-1) ** (p.net_diff_power % 2),
                             p.unit_expo, {-a: e for a, e in p.diffs.items()})
    for other in (p * q / q, flipped):
        assert p == other
        assert cross_multiplied_equal(p, other)


def test_equality_with_the_zero_product():
    zero = d(0)
    assert zero == BracketProduct(0) == BracketProduct(5, 3, {0: 2, 4: -1})
    assert cross_multiplied_equal(zero, BracketProduct(0))
    for p in (ONE, d(2, -1),
              BracketProduct(Fraction(1, 3), 1, {1: 1})):
        assert p != zero and zero != p
        assert not cross_multiplied_equal(p, zero)


def test_equality_with_cyclotomic_coefficients_inverts_nothing(monkeypatch):
    # the quotient keeps the other coefficient as a factor of its
    # denominator, so no Cyclotomic is inverted
    w = q_fourth_root(1)
    equal = [(BracketProduct(w, 1, {2: 1}), BracketProduct(-w, 1, {-2: 1})),
             (BracketProduct(w * w, 0, {3: 2}),
              BracketProduct(w ** 2, 0, {3: 1}) * d(3)),
             (BracketProduct(w * 3, 2, {4: 1, 2: -1}),
              BracketProduct(3 * w, 2, {4: 1, 2: -1})),
             (BracketProduct(w ** 3, 1, {1: 1}),       # w = zeta_6
              BracketProduct(-1, 1, {1: 1}))]
    unequal = [(BracketProduct(w, 1, {2: 1}),
                BracketProduct(w * w, 1, {2: 1})),
               (BracketProduct(w, 1, {2: 1}), BracketProduct(w, 3, {2: 1})),
               (BracketProduct(w, 0, {2: 1}),
                BracketProduct(w, 0, {2: 1, 1: 1})),
               (BracketProduct(w), ONE)]
    for pairs, same in ((equal, True), (unequal, False)):
        for p, q in pairs:
            assert cross_multiplied_equal(p, q) is same
    monkeypatch.setattr(type(w), "inverse", None)
    for pairs, same in ((equal, True), (unequal, False)):
        for p, q in pairs:
            assert (p == q) is same and (q == p) is same


def test_integral_coefficients_stay_ints():
    assert type(BracketProduct(3).coeff) is int
    assert type(BracketProduct(Fraction(6, 2)).coeff) is int
    assert type(d(0).coeff) is int
    assert type((BracketProduct(3) * 2).coeff) is int
    assert type(BracketProduct(Fraction(1, 2)).coeff) is Fraction
    assert type(BracketProduct(3).limit_at_one()) is Fraction
    assert BracketProduct(3, 0, {2: 1, 1: -1}).limit_at_one() == 6
    assert all(type(c) is int for c in BracketProduct(
        3, -1, {2: 2, 5: -1}).expand_ratfunc().num.terms.values())


@given(st.lists(st.lists(st.builds(Fraction, st.integers(-8, 8),
                                   st.sampled_from([1, 2, 4])), max_size=5),
                max_size=3),
       st.integers(0, 6))
def test_qdiff_product_matches_sequential_differences(lists, power):
    want = qdiff(1) ** power
    for values in lists:
        for i, v in enumerate(values):
            for u in values[:i]:
                want = want * qdiff(v - u)
    assert qdiff_product(*lists, beta_power=power) == want
