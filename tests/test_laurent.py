"""Half-integral Laurent polynomial and rational-function kernel."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from asmice import laurent
from asmice.chain import q_fourth_root
from asmice.cyclotomic import Cyclotomic, cyclotomic_embed
from asmice.laurent import (GridViolation, LaurentPoly, NonDivisible, RatFunc,
                            _bits, _divide_ints, _divide_rational,
                            _long_divide, _mul_cyclotomic, _mul_rational,
                            _mul_terms, _pack, _unpack, _width, divide_exact,
                            limit_at_one, reduced, vanishing_order_at_one)


def lp(terms, scale=1):
    return LaurentPoly(1, scale, {(k,): c for k, c in terms.items()})


small_polys = st.builds(
    lp,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5),
    st.sampled_from([1, 2, 3]),
)


# ---------- construction and the exponent grid ----------

def test_unit_power_places_half_integer_exponents():
    t = LaurentPoly.unit_power(2)          # t^(2/2) = t
    assert t == LaurentPoly(1, 1, {(2,): 1})
    half = LaurentPoly.unit_power(1)       # t^(1/2)
    assert half * half == t


def test_var_power_accepts_grid_rationals():
    assert LaurentPoly.var_power(Fraction(3, 2)) == LaurentPoly.unit_power(3)
    assert LaurentPoly.var_power(Fraction(1, 3), scale=3) == \
        LaurentPoly.unit_power(2, scale=3)


def test_var_power_rejects_off_grid_exponent():
    with pytest.raises(GridViolation):
        LaurentPoly.var_power(Fraction(1, 3))


def test_constructor_rejects_non_integral_exponent_keys():
    with pytest.raises(GridViolation):
        LaurentPoly(1, 1, {(0.5,): 3})
    with pytest.raises(GridViolation):
        LaurentPoly(2, 1, {(1, Fraction(1, 2)): 1})
    with pytest.raises(GridViolation):
        LaurentPoly(1, 1, {(0.5,): 0})                 # even with zero coefficient
    assert LaurentPoly(1, 1, {(2.0,): 3}).terms == {(2,): 3}
    assert LaurentPoly(1, 1, {(Fraction(4, 2),): 3}) == lp({2: 3})


def test_rescale_refines_but_never_coarsens():
    p = LaurentPoly.unit_power(1)                      # t^(1/2) at scale 1
    q = p.rescale(2)
    assert q.scale == 2 and q == p
    with pytest.raises(GridViolation):
        q.rescale(3)


def test_mixed_scale_arithmetic_promotes_to_common_grid():
    a = LaurentPoly.unit_power(1, scale=2)             # t^(1/4)
    b = LaurentPoly.unit_power(1, scale=3)             # t^(1/6)
    s = a + b
    assert s.scale == 6
    assert s.eval_units(Fraction(64)) == 64 ** 3 + 64 ** 2


def test_constant_helpers():
    assert LaurentPoly.zero().is_zero
    assert LaurentPoly.one().terms == {(0,): 1}
    assert LaurentPoly.const(7).terms == {(0,): 7}
    assert LaurentPoly.unit_power(1).terms.keys() != {(0,)}    # not constant


# ---------- arithmetic ----------

def test_square_of_half_power_binomial():
    p = LaurentPoly.unit_power(1) + LaurentPoly.unit_power(-1)
    sq = p * p
    assert sq == lp({2: 1, 0: 2, -2: 1})


def test_scalar_operations():
    p = lp({2: 1, 0: -1})
    assert p * 3 == lp({2: 3, 0: -3})
    assert 3 * p == p * 3
    assert p + 1 == lp({2: 1})
    assert 1 + p == p + 1
    assert p - 1 == lp({2: 1, 0: -2})
    assert -p == lp({2: -1, 0: 1})


@given(small_polys, small_polys, small_polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_equality_across_scales():
    assert lp({1: 1}, scale=1) == lp({2: 1}, scale=2)
    assert lp({1: 1}, scale=1) != lp({1: 1}, scale=2)


def test_two_variable_terms():
    p = LaurentPoly(2, 1, {(1, -2): 3, (0, 0): 1})
    q = p * p
    assert q == LaurentPoly(2, 1, {(2, -4): 9, (1, -2): 6, (0, 0): 1})
    assert p.eval_units(2, 3) == 3 * 2 * Fraction(1, 9) + 1


# ---------- exact division ----------

def test_divide_one_by_unit_monomial():
    one = LaurentPoly.one()
    t = LaurentPoly.unit_power(2)
    assert divide_exact(one, t) == LaurentPoly.unit_power(-2)


def test_divide_difference_by_half_power_difference():
    num = lp({2: 1, -2: -1})                       # t - t^(-1)
    den = lp({1: 1, -1: -1})                       # t^(1/2) - t^(-1/2)
    assert divide_exact(num, den) == lp({1: 1, -1: 1})


def test_divide_rejects_nonfactor():
    num = lp({2: 1, 0: 1})                         # t + 1
    den = lp({2: 1, 0: -1})                        # t - 1
    with pytest.raises(NonDivisible):
        divide_exact(num, den)


def test_divide_by_zero_polynomial():
    with pytest.raises(ZeroDivisionError):
        divide_exact(LaurentPoly.one(), LaurentPoly.zero())


@given(small_polys, small_polys.filter(lambda q: not q.is_zero))
def test_divide_recovers_factor(p, q):
    assert divide_exact(p * q, q) == p


def test_divide_two_variable_product():
    p = LaurentPoly(2, 1, {(1, 0): 1, (0, 1): -1})
    q = LaurentPoly(2, 1, {(2, 2): 1, (0, 0): 5})
    assert divide_exact(p * q, q) == p
    with pytest.raises(NonDivisible):
        divide_exact(LaurentPoly(2, 1, {(1, 0): 1, (0, 0): 1}), p)


def test_divide_scalar_numerator_of_any_ring():
    z = cyclotomic_embed(3)
    assert divide_exact(z, LaurentPoly.const(2)) == LaurentPoly.const(z / 2)
    assert divide_exact(z, LaurentPoly.unit_power(2)) == \
        LaurentPoly.monomial(z, (-2,))
    assert divide_exact(Fraction(1, 2), lp({0: 3})) == lp({0: Fraction(1, 6)})


bivariate = st.builds(
    lambda terms: LaurentPoly(2, 1, terms),
    st.dictionaries(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                    st.integers(-9, 9) | st.fractions(max_denominator=5),
                    max_size=8),
)


@given(bivariate, bivariate.filter(lambda q: not q.is_zero))
def test_bivariate_divide_recovers_factor(p, q):
    quotient = divide_exact(p * q, q)
    assert quotient == p
    assert quotient * q == p * q


@given(bivariate.filter(lambda p: not p.is_zero),
       bivariate.filter(lambda q: len(q.terms) > 1),
       st.tuples(st.integers(-6, 6), st.integers(-6, 6)))
def test_bivariate_divide_rejects_product_plus_monomial(p, q, exps):
    # q is not a unit, so it cannot divide p*q + t^a*u^b
    with pytest.raises(NonDivisible):
        divide_exact(p * q + LaurentPoly.monomial(1, exps), q)


# ---------- the packed-integer kernel against the schoolbook oracle ----------

def schoolbook(p, q):
    return LaurentPoly._clean(1, p.scale, _mul_terms(p.terms, q.terms, 1))


def packed(p, q):
    lo1, a = p._dense1()
    lo2, b = q._dense1()
    return LaurentPoly._from_dense1(lo1 + lo2, _mul_rational(a, b), p.scale)


def quotients(p, q):
    """(packed, schoolbook) outcomes of p / q: a LaurentPoly, None when the
    packed kernel leaves it undecided, or NonDivisible."""
    lo1, a = p._dense1()
    lo2, b = q._dense1()
    out = []
    for divide in (_divide_rational, _long_divide):
        try:
            cs = divide(a, b) if len(a) >= len(b) else None
        except NonDivisible as exc:
            out.append(type(exc))
        else:
            out.append(cs and LaurentPoly._from_dense1(lo1 - lo2, cs, p.scale))
    return out


def dense(coeffs, lo=0):
    return lp({lo + i: c for i, c in enumerate(coeffs)})


boundary = st.integers(0, 90).flatmap(
    lambda k: st.sampled_from([2 ** k - 1, 1 - 2 ** k]))
boundary_polys = st.lists(st.just(0) | boundary, min_size=1, max_size=40) \
    .map(dense).filter(lambda p: not p.is_zero)


@given(boundary_polys, boundary_polys)
def test_packed_multiply_at_slot_boundaries(p, q):
    assert packed(p, q) == schoolbook(p, q) == p * q


@given(boundary_polys, boundary_polys)
def test_packed_divide_at_slot_boundaries(p, q):
    product = schoolbook(p, q)
    assert quotients(product, q) == [p, p]
    assert divide_exact(product, q) == p


@given(st.integers(0, 2 ** 32), st.integers(1, 3))
def test_packed_multiply_huge_by_short(seed, short):
    rng = random.Random(seed)
    p = dense([rng.randint(-10 ** 30, 10 ** 30) for _ in range(1500)], -700)
    q = dense([rng.randint(1, 10 ** 6) for _ in range(short)], 7)
    assert packed(p, q) == schoolbook(p, q) == p * q
    assert quotients(p * q, q) == [p, p]


rational_polys = st.builds(
    lambda num, den, content: dense([Fraction(c, den) * content for c in num]),
    st.lists(st.integers(-50, 50), min_size=1, max_size=30),
    st.integers(1, 12),
    st.sampled_from([Fraction(6, 35), Fraction(-9, 4), 12]),
).filter(lambda p: not p.is_zero)


@given(rational_polys, rational_polys)
def test_packed_kernel_with_fraction_content(p, q):
    assert packed(p, q) == schoolbook(p, q) == p * q
    assert quotients(schoolbook(p, q), q) == [p, p]


sparse_wide = st.dictionaries(st.integers(-3000, 3000),
                              st.integers(-10 ** 9, 10 ** 9),
                              min_size=1, max_size=6).map(lp) \
    .filter(lambda p: not p.is_zero)


@given(sparse_wide, sparse_wide)
def test_packed_kernel_on_sparse_wide_operands(p, q):
    assert packed(p, q) == schoolbook(p, q) == p * q
    assert quotients(p * q, q) == [p, p]


@given(rational_polys, rational_polys.filter(lambda q: len(q.terms) > 1),
       st.integers(-40, 40))
def test_packed_divide_rejects_product_plus_monomial(p, q, e):
    # q is not a unit, so it cannot divide p*q + t^e
    num = p * q + lp({e: 1})
    by_packing, by_schoolbook = quotients(num, q)
    assert by_packing in (NonDivisible, None)
    assert by_schoolbook is NonDivisible
    with pytest.raises(NonDivisible):
        divide_exact(num, q)


def q_factorial_pair(k):
    """(prod_{i<=k} (1 - t^i), (1 - t)^k, [k]_t!) as coefficient lists.

    The quotient's coefficients (up to about k!) are far wider than those of
    the dividend and the divisor, which set the first slot width."""
    a, d, q = lp({0: 1}), lp({0: 1}), lp({0: 1})
    for i in range(1, k + 1):
        a = schoolbook(a, lp({0: 1, 2 * i: -1}))
        d = schoolbook(d, lp({0: 1, 2: -1}))
        q = schoolbook(q, lp({2 * j: 1 for j in range(i)}))
    return [a._dense1()[1][::2] for a in (a, d, q)]


def test_packed_divide_widens_for_a_wide_quotient():
    a, d, q = q_factorial_pair(20)
    assert _bits(q) + 1 > _width(max(_bits(a), _bits(d)) + 1)
    assert _divide_ints(a, d) == q


def test_packed_divide_falls_back_to_the_schoolbook():
    a, d, q = q_factorial_pair(50)
    assert _bits(q) + 1 > 4 * _width(max(_bits(a), _bits(d)) + 1)
    assert _divide_ints(a, d) is None
    assert divide_exact(dense(a), dense(d)) == dense(q)


def test_pack_round_trips_balanced_slots():
    for width in (8, 16, 72):
        top = 2 ** (width - 1) - 1
        cs = [top, -top, 0, 1, -1, top]
        assert _unpack(_pack(cs, width), len(cs), width) == cs


def test_unpack_rejects_bits_above_the_top_slot():
    assert _unpack(_pack([127, -127, 5], 8), 3, 8) == [127, -127, 5]
    for v in (1 << 24, _pack([127, 127, 127], 8) + 1,
              _pack([-128, -128, -128], 8) - 1):
        with pytest.raises(ArithmeticError):
            _unpack(v, 3, 8)


# ---------- Q(zeta_24) coefficients, one z-component at a time ----------

def packed_cyclotomic(p, q):
    lo1, a = p._dense1()
    lo2, b = q._dense1()
    return LaurentPoly._from_dense1(lo1 + lo2, _mul_cyclotomic(a, b), p.scale)


def assert_cyclotomic_product(p, q):
    product = packed_cyclotomic(p, q)
    assert product == schoolbook(p, q) == p * q
    assert all(product.terms.values())


rationals = st.integers(-10 ** 6, 10 ** 6) | st.fractions(max_denominator=30)
full_cyclotomic = st.builds(
    lambda cs, den: Cyclotomic([Fraction(c, den) for c in cs]),
    st.lists(st.integers(-99, 99), min_size=8, max_size=8), st.integers(1, 6))
dense_cyclotomic = st.lists(full_cyclotomic, min_size=1, max_size=12) \
    .map(dense).filter(lambda p: not p.is_zero)
dense_rational = st.lists(rationals, min_size=1, max_size=40) \
    .map(dense).filter(lambda p: not p.is_zero)
z4 = cyclotomic_embed(6)
scalars = st.sampled_from([z4, z4 - 1]) | st.builds(
    lambda x, n: q_fourth_root(x).inverse() ** n,
    st.sampled_from([1, 2, 3]), st.integers(1, 6))
mixed = st.lists(st.just(0) | rationals | full_cyclotomic,
                 min_size=1, max_size=30) \
    .map(dense).filter(lambda p: not p.is_zero)


@given(dense_cyclotomic, dense_cyclotomic)
def test_cyclotomic_kernel_with_full_components(p, q):
    assert_cyclotomic_product(p, q)


@given(scalars, dense_rational, dense_rational)
def test_cyclotomic_kernel_with_one_scalar_times_rationals(c, p, q):
    assert_cyclotomic_product(p * c, q)
    assert_cyclotomic_product(p * c, q * c)


@given(mixed, mixed)
def test_cyclotomic_kernel_with_mixed_coefficients(p, q):
    assert_cyclotomic_product(p, q)


def test_cyclotomic_kernel_drops_coefficients_that_fold_to_zero():
    # (z^4 + t)(1 - z^4 + z^4 t) has t-coefficient z^8 - z^4 + 1 = Phi_24(z)
    p = dense([z4, 1] * 20)
    q = dense([1 - z4, z4])
    product = packed_cyclotomic(p, q)
    assert product == schoolbook(p, q)
    assert sorted(product.terms) == [(k,) for k in range(0, 41, 2)]
    assert all(product.terms.values())
    assert product.terms[(2,)] == z4 + 1


def test_dense_cyclotomic_operands_skip_the_schoolbook(monkeypatch):
    p = dense([Cyclotomic(range(k, k + 8)) for k in range(30)])
    q = dense([z4 * k for k in range(1, 30)])
    expected = schoolbook(p, q)

    def refuse(*args):
        raise AssertionError("dense operands reached the schoolbook")

    monkeypatch.setattr(laurent, "_mul_terms", refuse)
    assert p * q == expected


# ---------- rational functions ----------

def test_ratfunc_equality_by_cross_multiplication():
    num, den = lp({1: 1, -1: -1}), lp({2: 1, -2: -1})
    a = RatFunc(num, den)
    extra = lp({3: 2, 0: 5})
    b = RatFunc(num * extra, den * extra)
    assert a == b


def test_ratfunc_monomial_denominator_folds_away():
    r = RatFunc(lp({2: 1, 0: 1}), lp({2: 3}))
    assert r.is_poly
    assert r.poly() == lp({0: Fraction(1, 3), -2: Fraction(1, 3)})


def test_ratfunc_arithmetic():
    half = RatFunc(LaurentPoly.one(), lp({1: 1, -1: -1}))
    t = RatFunc(LaurentPoly.unit_power(2))
    assert half + half == 2 * half
    assert half - half == RatFunc(LaurentPoly.zero())
    assert (half * t) / t == half
    assert half ** -2 == (half * half).reciprocal()
    assert 1 / half == half.reciprocal()
    with pytest.raises(ZeroDivisionError):
        half / RatFunc(LaurentPoly.zero())


def test_ratfunc_from_a_scalar():
    assert RatFunc(3) == 3
    assert RatFunc(3).poly() == LaurentPoly.const(3)
    assert RatFunc(Fraction(1, 2), lp({1: 1}, scale=2)).poly() == \
        lp({-1: Fraction(1, 2)}, scale=2)


def test_reduced_divides_when_exact():
    num, den = lp({2: 1, -2: -1}), lp({1: 1, -1: -1})
    r = reduced(num, den)
    assert r.is_poly and r.poly() == lp({1: 1, -1: 1})
    r = reduced(den, num)                   # 1/(t^(1/2)+t^(-1/2)) stays
    assert not r.is_poly
    assert r == RatFunc(den, num)


def test_ratfunc_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(LaurentPoly.one(), LaurentPoly.zero())


def test_ratfunc_poly_raises_on_true_quotient():
    r = RatFunc(LaurentPoly.one(), lp({2: 1, 0: 1}))
    assert not r.is_poly
    with pytest.raises(NonDivisible):
        r.poly()


def test_ratfunc_eval_units():
    r = RatFunc(lp({2: 1, 0: -1}), lp({1: 1, 0: -1}))   # (t-1)/(t^(1/2)-1)
    assert r.eval_units(2) == Fraction(3, 1)             # (4-1)/(2-1)
    with pytest.raises(ZeroDivisionError):
        r.eval_units(1)


# ---------- limits at the unit point ----------

def test_vanishing_order():
    d1 = lp({1: 1, -1: -1})
    order, cof = vanishing_order_at_one(d1)
    assert order == 1 and cof.subs_all_one() != 0
    assert vanishing_order_at_one(d1 ** 3)[0] == 3
    assert vanishing_order_at_one(LaurentPoly.const(5))[0] == 0
    with pytest.raises(ValueError):
        vanishing_order_at_one(LaurentPoly.zero())


def test_limit_matched_orders():
    d3, d1 = lp({3: 1, -3: -1}), lp({1: 1, -1: -1})
    assert limit_at_one(RatFunc(d3, d1)) == 3
    assert limit_at_one(RatFunc(d3 * d3, d1 * d1)) == 9


def test_limit_higher_numerator_order_is_zero():
    d1 = lp({1: 1, -1: -1})
    assert limit_at_one(RatFunc(d1, LaurentPoly.const(4))) == 0
    assert limit_at_one(RatFunc(LaurentPoly.zero(), d1)) == 0


def test_limit_pole_is_detected():
    d1 = lp({1: 1, -1: -1})
    with pytest.raises(NonDivisible):
        limit_at_one(RatFunc(d1, d1 * d1))


# ---------- display ----------

def test_format():
    assert LaurentPoly.zero().format() == "0"
    assert lp({2: 1, 0: -3}).format() == "t - 3"
    assert lp({1: 1}).format() == "t^(1/2)"
    assert LaurentPoly(2, 1, {(2, -1): 4}).format() == "4*t*u^(-1/2)"
