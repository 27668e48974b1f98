"""Half-integral Laurent polynomial and rational-function kernel."""

import ast
import importlib
import inspect
import pkgutil
import random
from fractions import Fraction
from math import comb, gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import asmice
from asmice import laurent
from asmice.brackets import BracketProduct, qdiff
from asmice.chain import q_fourth_root
from asmice.cyclotomic import Cyclotomic, cyclotomic_embed
from asmice.laurent import (GridViolation, LaurentPoly, NonDivisible, RatFunc,
                            _bits, _divide_ints, _lattice_step, _long_divide,
                            _mul_terms, _pack, _split, _unpack, _width,
                            _worth_packing, common_grid, diff_product,
                            divide_exact, limit_at_one, reduced,
                            vanishing_order_at_one)
from asmice.sixvertex import _packed_sweep


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
    assert LaurentPoly.var_power(Fraction(1, 3)) == \
        LaurentPoly.unit_power(2, scale=3)
    assert LaurentPoly.var_power(Fraction(-5, 4), 1, 2) == \
        LaurentPoly(2, 2, {(0, -5): 1})


def test_var_power_picks_the_coarsest_grid():
    # t^a lands on the 1/(2D) grid exactly when D is a multiple of
    # (2a).denominator
    for a, scale in ((0, 1), (3, 1), (Fraction(1, 2), 1), (Fraction(1, 3), 3),
                     (Fraction(-1, 4), 2), (Fraction(5, 6), 3)):
        assert LaurentPoly.var_power(a).scale == scale


def test_no_signature_outside_laurent_takes_a_grid():
    # constructors pick the grid and operations promote, so no function or
    # method of another module has a scale to pass
    for info in pkgutil.iter_modules(asmice.__path__):
        if info.name in ("laurent", "__main__"):
            continue
        module = importlib.import_module(f"asmice.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj]
            if inspect.isclass(obj):
                members = [getattr(m, "__func__", m)
                           for m in vars(obj).values()]
            for fn in members:
                if inspect.isfunction(fn):
                    params = inspect.signature(fn).parameters
                    assert "scale" not in params, f"{module.__name__}.{name}"


def test_no_module_outside_laurent_imports_the_packed_format():
    # the slot format is laurent's: other modules pack through _Layout
    private = {"_pack", "_unpack", "_bias", "_width", "_WORDS", "_SIGN"}
    for path in sorted(Path(asmice.__path__[0]).glob("*.py")):
        if path.name == "laurent.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and \
                    node.module in ("laurent", "asmice.laurent"):
                assert not private & {a.name for a in node.names}, path.name


def test_scale_must_be_a_positive_int():
    # only an int of at least 1 is a scale: 2.0 used to store float keys
    for scale in (2.0, True, Fraction(2), 0):
        with pytest.raises(ValueError, match="positive integer"):
            LaurentPoly(1, scale, {(1,): 1})
        with pytest.raises(ValueError, match="positive integer"):
            LaurentPoly.var_power(1).rescale(scale)


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


def test_shift_unit_moves_every_key_on_the_same_grid():
    p = LaurentPoly(2, 2, {(1, -3): 4, (0, 5): -1})
    q = p.shift_unit((2, Fraction(-4, 2)))
    assert q.scale == 2 and q.terms == {(3, -5): 4, (2, 3): -1}
    assert lp({1: 2, -3: 1}).shift_unit((3,)) == lp({4: 2, 0: 1})
    with pytest.raises(GridViolation):
        p.shift_unit((Fraction(1, 2), 0))
    with pytest.raises(ValueError):
        p.shift_unit((1,))


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
    assert divide_exact(z, LaurentPoly.unit_power(2)) == lp({-2: z})
    assert divide_exact(Fraction(1, 2), lp({0: 3})) == lp({0: Fraction(1, 6)})


def test_divide_by_a_scalar_of_any_ring():
    t = LaurentPoly.var_power(1)
    z = cyclotomic_embed(8)
    assert divide_exact(2 * t, 2) == t
    assert divide_exact(t, Fraction(2, 3)) == lp({2: Fraction(3, 2)})
    assert divide_exact(z * t + z, z) == t + 1
    two = LaurentPoly(2, 3, {(6, 0): 4, (0, 3): 2})
    assert divide_exact(two, 2) == LaurentPoly(2, 3, {(6, 0): 2, (0, 3): 1})
    with pytest.raises(ZeroDivisionError):
        divide_exact(t, 0)


def operand_kinds():
    """(kind, operand) pairs for the type guards of the laurent entry
    points: scalars, LaurentPolys in one and two variables, and others."""
    t = LaurentPoly.var_power(1)
    kinds = [("scalar", x)
             for x in (0, 3, Fraction(1, 2), cyclotomic_embed(8))]
    kinds += [("poly", p) for p in (LaurentPoly.zero(), 2 * t + 4, t * t - 1,
                                    LaurentPoly(2, 1, {(2, 0): 2, (0, 2): 2}))]
    kinds += [("other", x) for x in (RatFunc(t, qdiff(1)), RatFunc(3),
                                     BracketProduct(2, 1, {1: 1}), 0.5)]
    return kinds


def test_divide_exact_operand_types():
    # a LaurentPoly over a LaurentPoly or a scalar, or a scalar over a
    # LaurentPoly; every other pair is a TypeError naming both types
    kinds = operand_kinds()
    for a, num in kinds:
        for b, den in kinds:
            pair = (type(num).__name__, type(den).__name__)
            if "other" not in (a, b) and "poly" in (a, b):
                try:
                    assert isinstance(divide_exact(num, den), LaurentPoly)
                except (NonDivisible, ZeroDivisionError, ValueError):
                    pass
            else:
                with pytest.raises(TypeError, match=" / ".join(pair)):
                    divide_exact(num, den)


def test_ratfunc_and_reduced_operand_types():
    # RatFunc takes LaurentPolys and scalars on both sides, reduced what
    # divide_exact takes; every other pair is a TypeError naming both
    # types, before any lift of the other operand
    kinds = operand_kinds()
    for a, num in kinds:
        for b, den in kinds:
            pair = " / ".join((type(num).__name__, type(den).__name__))
            for make, ok in ((RatFunc, "other" not in (a, b)),
                             (reduced, "other" not in (a, b)
                              and "poly" in (a, b))):
                if ok:
                    try:
                        assert isinstance(make(num, den), RatFunc)
                    except (ZeroDivisionError, ValueError):
                        pass
                else:
                    with pytest.raises(TypeError, match=pair):
                        make(num, den)
    t = LaurentPoly.var_power(1)
    with pytest.raises(TypeError, match="RatFunc / int"):
        RatFunc(RatFunc(t, qdiff(1)))
    assert reduced(2, t) == RatFunc(2 * t ** -1)
    assert reduced(t, 2) == RatFunc(Fraction(1, 2) * t)


def test_limits_take_polynomials_and_scalars():
    # a polynomial's limit at 1 is its coefficient sum, a scalar's is
    # itself; a two-variable value has no such limit
    for kind, x in operand_kinds():
        if kind == "scalar":
            assert limit_at_one(x) == x
            if x:
                order, cof = vanishing_order_at_one(x)
                assert order == 0 and cof == LaurentPoly.const(x)
            else:
                with pytest.raises(ValueError):
                    vanishing_order_at_one(x)
        elif kind == "other":
            with pytest.raises(TypeError, match=type(x).__name__):
                vanishing_order_at_one(x)
            if not isinstance(x, RatFunc):
                with pytest.raises(TypeError, match=type(x).__name__):
                    limit_at_one(x)
        elif x.nvars == 2:
            for f in (limit_at_one, vanishing_order_at_one):
                with pytest.raises(ValueError):
                    f(x)
        else:
            assert limit_at_one(x) == x.subs_all_one()


def test_constructor_rejects_non_scalar_coefficients():
    for c in (0.5, 0.0, 1j, "1", None, RatFunc(3)):
        with pytest.raises(TypeError, match="coefficient"):
            LaurentPoly(1, 1, {(0,): c})
    assert LaurentPoly(1, 1, {(0,): True}).terms == {(0,): True}


def counting_inverse(monkeypatch):
    """A list that collects one entry per Cyclotomic.inverse call."""
    calls = []
    inverse = Cyclotomic.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(Cyclotomic, "inverse", counted)
    return calls


def test_long_division_inverts_the_lead_once(monkeypatch):
    z = cyclotomic_embed(24)
    d = [1, z, z * z + 3]                   # lead z^2 + 3, not rational
    q = [Fraction(k, 7) * z ** k + k for k in range(1, 9)]
    a = _mul_terms({(i,): c for i, c in enumerate(d)},
                   {(i,): c for i, c in enumerate(q)})
    a = [a.get((i,), 0) for i in range(len(d) + len(q) - 1)]
    calls = counting_inverse(monkeypatch)
    assert _long_divide(a, d) == q
    assert len(calls) == 1


def test_two_variable_division_inverts_the_lead_once(monkeypatch):
    z = cyclotomic_embed(24)
    d = LaurentPoly(2, 1, {(1, 1): z + 2, (0, 0): 1})
    q = LaurentPoly(2, 1, {(k, 3 - k): z ** k + k for k in range(4)})
    product = d * q
    calls = counting_inverse(monkeypatch)
    assert divide_exact(product, d) == q
    assert len(calls) == 1


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
        divide_exact(p * q + LaurentPoly(2, 1, {exps: 1}), q)


def test_bivariate_quotient_outside_the_t_range_is_not_divisible():
    # keys t^2 - u over 1 - t: on base B = 3 the images s^2 - s^3 and 1 - s
    # divide with quotient s^2, which decodes to t^2, but a divisor of
    # t-degree 1 leaves a quotient of t-degree at most 2 - 1 = 1
    num = LaurentPoly(2, 1, {(2, 0): 1, (0, 1): -1})
    den = LaurentPoly(2, 1, {(0, 0): 1, (1, 0): -1})
    with pytest.raises(NonDivisible):
        divide_exact(num, den)
    with pytest.raises(NonDivisible):               # larger t-degree below
        divide_exact(LaurentPoly(2, 1, {(0, 0): 1, (0, 1): 1}), den)


# ---------- the packed-integer kernel against the schoolbook oracle ----------

def schoolbook(p, q):
    return LaurentPoly._clean(1, p.scale, _mul_terms(p.terms, q.terms))


class Schoolbook(Exception):
    """The packed kernel handed an operation to the schoolbook."""


def refuse(*args):
    raise Schoolbook


def long_quotient(p, q):
    """p / q by the schoolbook on the full grid: a LaurentPoly, or
    NonDivisible."""
    lo1, a = p._dense1()
    lo2, b = q._dense1()
    try:
        return LaurentPoly._from_dense1(lo1 - lo2, _long_divide(a, b), p.scale)
    except NonDivisible as exc:
        return type(exc)


def lattice_quotient(p, q):
    try:
        return divide_exact(p, q)
    except NonDivisible as exc:
        return type(exc)
    except Schoolbook:
        return None


def packed(p, q):
    """p * q by the kernel with packing forced and the schoolbook refused."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_worth_packing", lambda pairs, slots: True)
        mp.setattr(laurent, "_mul_terms", refuse)
        return p * q


def quotients(p, q):
    """(packed, schoolbook) outcomes of p / q: a LaurentPoly, None when the
    packed kernel leaves it undecided, or NonDivisible."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(laurent, "_worth_packing", lambda pairs, slots: True)
        mp.setattr(laurent, "_long_divide", refuse)
        by_packing = lattice_quotient(p, q)
    return [by_packing, long_quotient(p, q)]


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


def test_packed_divide_falls_back_to_the_schoolbook():
    for k in (20, 50):
        a, d, q = q_factorial_pair(k)
        assert _bits(q) + 1 > _width(max(_bits(a), _bits(d)) + 1)
        assert _divide_ints(a, d) is None
        assert divide_exact(dense(a), dense(d)) == dense(q)


def test_quotient_past_its_top_slot_falls_back_to_the_schoolbook(
        monkeypatch):
    # (t - 1)(110 + 227t + 127t^2): the dividend and the divisor set 8-bit
    # slots, which hold every quotient coefficient but 227, whose carry
    # takes the top slot past 127: the unpack fails before the multiply-back
    a, d, q = [-110, -117, 100, 127], [-1, 1], [110, 227, 127]
    assert _width(max(_bits(a), _bits(d)) + 1) == 8
    with pytest.raises(ArithmeticError, match="top slot"):
        _unpack(_pack(a, 8) // _pack(d, 8), len(q), 8)
    seen = []

    def spy(a, d):
        seen.append(_divide_ints(a, d))
        return seen[-1]

    monkeypatch.setattr(laurent, "_divide_ints", spy)
    monkeypatch.setattr(laurent, "_worth_packing", lambda pairs, slots: True)
    assert divide_exact(dense(a), dense(d)) == dense(q)
    assert seen == [None]


def test_pack_round_trips_balanced_slots():
    # every byte width: whole words (8, 16, 32, 64 bits), words with pad
    # bytes (24, 40, 48, 56) and per-slot conversion (72)
    for width in range(8, 73, 8):
        half = 2 ** (width - 1)
        for cs in ([half - 1, -half, 0, 1, -1, half - 1, -half + 1],
                   [0, 0, 0], [-half], [half - 1], [0], []):
            v = _pack(cs, width)
            assert v == sum(c << i * width for i, c in enumerate(cs))
            assert _unpack(v, len(cs), width) == cs


def test_pack_rejects_coefficients_outside_their_slots():
    for width in range(8, 73, 8):
        half = 2 ** (width - 1)
        for bad in (half, -half - 1):
            with pytest.raises(OverflowError):
                _pack([0, bad, 1], width)
    # a 24-bit slot is written through a 32-bit word, which holds these
    for bad in (1 << 23, -(1 << 23) - 1):
        with pytest.raises(OverflowError):
            _pack([bad], 24)


def test_unpack_rejects_bits_above_the_top_slot():
    assert _unpack(_pack([127, -127, 5], 8), 3, 8) == [127, -127, 5]
    for v in (1 << 24, _pack([127, 127, 127], 8) + 1,
              _pack([-128, -128, -128], 8) - 1):
        with pytest.raises(ArithmeticError):
            _unpack(v, 3, 8)
    for width in (24, 72):
        half = 2 ** (width - 1)
        top, bottom = _pack([half - 1] * 3, width), _pack([-half] * 3, width)
        assert _unpack(top, 3, width) == [half - 1] * 3
        assert _unpack(bottom, 3, width) == [-half] * 3
        for v in (1 << 3 * width, top + 1, bottom - 1):
            with pytest.raises(ArithmeticError):
                _unpack(v, 3, width)


# ---------- packed site weights against the schoolbook ----------

unit_weights = st.dictionaries(st.tuples(st.integers(-9, 9),
                                         st.integers(-3, 3)),
                               st.sampled_from([1, -1]), max_size=2)


@given(st.integers(1, 3),
       st.lists(st.tuples(unit_weights, st.sampled_from([1, 2, 4])),
                min_size=9, max_size=9),
       st.sampled_from([1, 3]))
def test_packed_site_product_round_trips(n, weights, grid_scale):
    # the six weights of a site are equal, so each of the A(n) domain-wall
    # states of n x n sites takes the same product, one weight per site;
    # a weight's terms are (t, u) exponents, its t-exponents drawn on the
    # grid 1/(2*scale) and laid on the common grid, which grid_scale may
    # make finer than every weight's, its u-exponents as drawn, so the
    # product is checked in Z[t, u] by the schoolbook
    grid = lcm(grid_scale, *[scale for _, scale in weights[:n * n]])
    sites = [({(t * (grid // scale), u): c for (t, u), c in terms.items()},)
             * 6 for terms, scale in weights[:n * n]]
    expected = {(0, 0): 1}
    for w, *_ in sites:
        product = {}
        for (t, u), c in expected.items():
            for (t2, u2), c2 in w.items():
                k = (t + t2, u + u2)
                product[k] = product.get(k, 0) + c * c2
        expected = {k: c for k, c in product.items() if c}
    packed = _packed_sweep(n, sites)
    assert {(t, u): c for u, terms in packed.items()
            for (t,), c in terms.items()} == {
        k: (1, 2, 7)[n - 1] * c for k, c in expected.items()}


def test_packed_site_weights_reject_bits_above_the_top_slot(monkeypatch):
    # at n = 1 the state sum is the site's first weight,
    # t^(g/2) - t^(-g/2), the others 1: its L1 bound 2 needs 3 signed
    # bits, one byte per slot, and its grid exponents -g, 0, g fill 3
    # slots of the lattice gZ
    seen = []
    coefficients = laurent._Layout.coefficients
    monkeypatch.setattr(laurent._Layout, "coefficients", lambda layout, v:
                        seen.append((layout, v)) or coefficients(layout, v))
    for g in (1, 2):
        seen.clear()
        site = ({(g, 0): 1, (-g, 0): -1},) + ({(0, 0): 1},) * 5
        assert _packed_sweep(1, [site]) == {0: {(g,): 1, (-g,): -1}}
        (layout, v), = seen
        assert v == _pack([-1, 0, 1], 8)
        # a slot count read off the bit length would take these as 4 slots
        for bad in (v + (1 << 24), v - (1 << 24)):
            with pytest.raises(ArithmeticError):
                layout.unpack(bad)


def test_packed_site_weights_need_int_coefficients():
    with pytest.raises(TypeError, match="int coefficients"):
        _packed_sweep(1, [({(0, 0): Fraction(1, 2)},) * 6])


# ---------- packed layouts ----------

@given(st.sampled_from([1, 2, 3]), st.integers(-6, 6),
       st.sampled_from([1, 2, 4]),
       st.dictionaries(st.integers(0, 8), st.integers(-10 ** 6, 10 ** 6),
                       max_size=5))
def test_layout_places_and_packs_on_its_lattice(g, shift, scale, coeffs):
    # p has exponents shift + g*k at its own scale; on the layout's grid 4
    # each is step = 4 / scale times as many units, 9 slots of g*step, and
    # its placed terms pack coefficient k into slot k
    step = 4 // scale
    p = LaurentPoly(1, scale, {(shift + g * k,): c for k, c in coeffs.items()})
    layout = laurent._Layout(4, [g * step],
                             max(map(abs, coeffs.values()), default=0),
                             shift * step, 8 * g * step)
    v = sum(c << s for s, c in layout.place(p, shift * step))
    assert v == _pack([coeffs.get(k, 0) for k in range(9)], layout.width)
    assert layout.unpack(v) == p
    assert layout.slots == 9
    for bad in (v + (1 << 9 * layout.width), v - (1 << 9 * layout.width)):
        with pytest.raises(ArithmeticError):
            layout.unpack(bad)


# ---------- the schoolbook's one-term shortcut ----------

def accumulated(a, b):
    """The schoolbook's accumulation loop over every pair of terms, with no
    shortcut: the oracle for the one-term product."""
    if len(a) < len(b):
        a, b = b, a
    out = {}
    for (e,), cb in b.items():
        for (k,), c in a.items():
            s = out.get((k + e,), 0) + c * cb
            if s:
                out[(k + e,)] = s
            else:
                out.pop((k + e,), None)
    return out


@pytest.mark.parametrize("kind", ["int", "Fraction", "Cyclotomic"])
def test_one_term_products_match_the_accumulation_loop(kind):
    rng = random.Random(30)

    def coefficient():
        c = rng.choice([k for k in range(-9, 10) if k])
        if kind == "Fraction":
            return Fraction(c, rng.randint(1, 7))
        if kind == "Cyclotomic":
            return Cyclotomic([c, *rng.choices(range(-3, 4), k=7)])
        return c

    for size in (1, 2, 5, 12):
        poly = {(k,): coefficient()
                for k in rng.sample(range(-20, 21), size)}
        mono = {(rng.randint(-9, 9),): coefficient()}
        for a, b in ((poly, mono), (mono, poly)):
            got, want = _mul_terms(a, b), accumulated(a, b)
            assert list(got.items()) == list(want.items())


def test_one_term_bivariate_products_through_the_kronecker_map():
    rng = random.Random(31)
    p = LaurentPoly(2, 2, {(rng.randint(-6, 6), rng.randint(-6, 6)):
                           rng.choice([-3, -1, 2, Fraction(1, 3)])
                           for _ in range(8)})
    for c in (5, Fraction(-2, 7), q_fourth_root(3)):
        m = LaurentPoly(2, 2, {(3, -5): c})
        want = {(e + 3, f - 5): v * c for (e, f), v in p.terms.items()}
        assert (p * m).terms == want == (m * p).terms


# ---------- difference products against the schoolbook ----------

def schoolbook_diff_product(diffs):
    """prod qdiff(a) ** e, one schoolbook multiply per factor."""
    out = LaurentPoly.one()
    for a, e in diffs.items():
        for _ in range(e):
            out, f = out._matched(qdiff(a))
            out = LaurentPoly._clean(1, out.scale,
                                     _mul_terms(out.terms, f.terms))
    return out


# integer, half, third and quarter arguments of either sign, and zero
diff_arguments = st.builds(Fraction, st.integers(-12, 12),
                           st.sampled_from([1, 2, 3, 4]))


@given(st.dictionaries(diff_arguments, st.integers(0, 4), max_size=6))
def test_diff_product_matches_the_schoolbook(diffs):
    assert diff_product(diffs) == schoolbook_diff_product(diffs)


def test_diff_product_on_seeded_wide_draws():
    for seed in range(20):
        rng = random.Random(seed)
        diffs = {Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 6])):
                 rng.randint(0, 9) for _ in range(rng.randint(1, 8))}
        assert diff_product(diffs) == schoolbook_diff_product(diffs), diffs


def test_diff_product_edge_cases():
    assert diff_product({}) == LaurentPoly.one()
    assert diff_product({0: 1, 3: 2}).is_zero
    assert diff_product({0: 0, 3: 0, -2: 1}) == qdiff(-2)
    assert diff_product({2: 1, -2: 1}) == qdiff(2) * qdiff(-2)
    assert all(type(c) is int for c in diff_product({Fraction(1, 3): 5,
                                                     -7: 2}).terms.values())
    with pytest.raises(ValueError):
        diff_product({2: -1})


def test_diff_product_reaches_the_width_bound_at_the_centre():
    # d(1)^E has the coefficients +-C(E, k), the largest (-1)^(E/2) C(E, E/2)
    # in the middle: at E = 120 it needs 117 bits and a sign in slots of
    # _width(122) = 128 bits, at E = 62 it needs 60 bits and a sign, so a
    # slot one byte narrower than _width(64) could not hold it
    for e in (62, 120):
        p = diff_product({1: e})
        assert p.terms[(0,)] == (-1) ** (e // 2) * comb(e, e // 2)
        assert len(p.terms) == e + 1
        assert p == schoolbook_diff_product({1: e})
    assert comb(62, 31).bit_length() + 1 > _width(62 + 2) - 8


def test_diff_product_unpacks_exactly_its_slots(monkeypatch):
    seen = []

    def spy(v, slots, width):
        seen.append((v, slots, width))
        return _unpack(v, slots, width)

    monkeypatch.setattr(laurent, "_unpack", spy)
    diffs = {Fraction(1, 2): 2, 3: 1, -1: 1}
    p = diff_product(diffs)
    (v, slots, width), = seen
    # grid 2: t^(1/2), t^3 and t^1 are 2, 12 and 4 units, on the lattice
    # 2Z, so degree 2*2 + 12 + 4 = 20 is 11 slots; four factors, 6 bits
    assert (slots, width) == (11, _width(4 + 2))
    assert p == schoolbook_diff_product(diffs)
    for bad in (v + (1 << slots * width), v - (1 << slots * width)):
        with pytest.raises(ArithmeticError):
            _unpack(bad, slots, width)


def test_common_grid_promotes_once_and_keeps_scalars():
    a, b, c, d = common_grid([lp({1: 1}), lp({1: 2}, 3), 5, lp({4: 1}, 2)])
    assert (a.scale, b.scale, d.scale) == (6, 6, 6)
    assert a == lp({1: 1}) and b == lp({1: 2}, 3) and d == lp({4: 1}, 2)
    assert c == 5


# ---------- Q(zeta_24) coefficients: one scalar content ----------

rationals = st.integers(-10 ** 6, 10 ** 6) | st.fractions(max_denominator=30)
dense_rational = st.lists(rationals, min_size=1, max_size=40) \
    .map(dense).filter(lambda p: not p.is_zero)
z4 = cyclotomic_embed(6)
scalars = st.sampled_from([z4, z4 - 1]) | st.builds(
    lambda x, n: q_fourth_root(x).inverse() ** n,
    st.sampled_from([1, 2, 3]), st.integers(1, 6))


@given(scalars, st.lists(rationals, min_size=1, max_size=30).filter(any))
def test_split_takes_out_a_cyclotomic_content(c, rs):
    cs = [c * r for r in rs]
    content, ints = _split(cs)
    assert [content * v for v in ints] == cs
    assert all(type(v) is int for v in ints) and gcd(*ints) == 1


def test_split_refuses_lists_with_no_common_scalar():
    assert _split([z4, 2 * z4, z4 - 1]) is None         # not proportional
    assert _split([3, 0, z4]) is None                   # int beside z^4
    content, ints = _split([Cyclotomic([3]), 2, 0])     # z^0 beside ints
    assert [content * v for v in ints] == [3, 2, 0]


@given(scalars, st.sampled_from([1, -2, Fraction(1, 3), Fraction(5, 2)]),
       st.lists(st.integers(-50, 50), max_size=8))
def test_scaled_builds_what_cyclotomic_multiply_builds(c, r, ints):
    # int components are multiplied out directly, others by __mul__; the
    # coefficients must come out equal and of the same types either way
    content = c * r
    out = laurent._scaled(content, ints)
    want = [content * v if v else 0 for v in ints]
    assert out == want
    assert [tuple(map(type, x.coeffs)) for x in out if x] == \
        [tuple(map(type, x.coeffs)) for x in want if x]


@given(scalars, dense_rational, dense_rational)
def test_cyclotomic_kernel_with_one_scalar_times_rationals(c, p, q):
    for x, y in ((p * c, q), (p * c, q * c)):
        product = packed(x, y)
        assert product == schoolbook(x, y) == x * y
        assert all(product.terms.values())


def test_scalar_multiples_divide_on_the_kernel(monkeypatch):
    c = q_fourth_root(3).inverse() ** 5
    p = dense([Fraction(k, 3) for k in range(1, 20)])
    q = dense([k - 7 for k in range(12)])
    num = schoolbook(p * c, q)
    monkeypatch.setattr(laurent, "_long_divide", refuse)
    assert divide_exact(num, q) == p * c
    assert divide_exact(num, q * c) == p


# ---------- the exponent lattice: operands t^lo * A(t^g) ----------

def on_lattice(coeffs, g, lo):
    """t^lo * A(t^g) in grid units, A with the given coefficients."""
    return lp({lo + g * i: c for i, c in enumerate(coeffs)})


nonzero_rationals = rationals.filter(bool)
lattice_coeffs = (
    st.lists(st.integers(-10 ** 6, 10 ** 6).filter(bool),
             min_size=10, max_size=20)
    | st.lists(nonzero_rationals, min_size=10, max_size=20)
    | st.builds(lambda c, rs: [c * r for r in rs], scalars,
                st.lists(nonzero_rationals, min_size=10, max_size=14)))
odd_offsets = st.integers(-30, 30).map(lambda k: 2 * k + 1)


@given(st.sampled_from([2, 3, 24]), lattice_coeffs, lattice_coeffs,
       odd_offsets, odd_offsets)
def test_lattice_kernel_against_the_schoolbook(g, a, b, lo1, lo2):
    p, q = on_lattice(a, g, lo1), on_lattice(b, g, lo2)
    assert _lattice_step(p, q) == g
    product = schoolbook(p, q)
    assert packed(p, q) == product == p * q
    assert lattice_quotient(product, q) == long_quotient(product, q) == p


def test_lattices_2z_and_3z_together_pack_on_the_full_grid():
    for kinds in ([5, -3, 7], [Fraction(1, 3), 2, Fraction(-5, 7)],
                  [(z4 - 1) * r for r in (3, Fraction(1, 2), -7)]):
        p = on_lattice([kinds[i % 3] * (i + 1) for i in range(30)], 2, -7)
        q = on_lattice([kinds[i % 3] * (2 * i - 19) for i in range(30)], 3, 5)
        assert _lattice_step(p, q) == 1
        product = schoolbook(p, q)
        assert packed(p, q) == product == p * q
        assert lattice_quotient(product, q) == long_quotient(product, q) == p
        assert lattice_quotient(product, p) == long_quotient(product, p) == q


def test_lattice_step_spans_both_operands():
    assert _lattice_step(lp({7: 2}), lp({-3: 1})) == 1
    assert _lattice_step(lp({7: 2}), lp({-3: 1, 3: 1})) == 6


@given(st.sampled_from([2, 3, 24]), lattice_coeffs, lattice_coeffs,
       odd_offsets, st.integers(1, 23))
def test_one_off_lattice_term_is_not_divisible(g, a, b, lo, shift):
    q = on_lattice(b, g, lo)
    num = schoolbook(on_lattice(a, g, lo), q)
    lo = min(num.terms)[0]
    num = num + lp({lo + shift % (g - 1) + 1: 1})      # off the lattice
    assert long_quotient(num, q) is NonDivisible
    assert lattice_quotient(num, q) is NonDivisible


def test_compacted_operands_reach_the_kernel(monkeypatch):
    # on 2Z, 9 terms each: 81 pairs against 34 full-grid slots does not
    # pack, against the 18 lattice slots it does
    p = on_lattice(range(1, 10), 2, -5)
    q = on_lattice(range(-9, 0), 2, 3)
    assert not _worth_packing(81, p._span1(1) + q._span1(1))
    assert _worth_packing(81, p._span1(2) + q._span1(2))
    expected = schoolbook(p, q)

    monkeypatch.setattr(laurent, "_mul_terms", refuse)
    assert p * q == expected


# ---------- two variables: the Kronecker map against a 2-tuple oracle ----------

def schoolbook2(p, q):
    """Two-variable p * q over pairs of 2-tuple keys."""
    out = {}
    for (e, f), c in p.terms.items():
        for (g, h), d in q.terms.items():
            out[e + g, f + h] = out.get((e + g, f + h), 0) + c * d
    return LaurentPoly(2, p.scale, out)


def rectangle(rows, lo):
    """sum over f, e of rows[f][e] t^(lo[0] + e) u^(lo[1] + f), in keys."""
    return LaurentPoly(2, 1, {(lo[0] + e, lo[1] + f): c
                              for f, row in enumerate(rows)
                              for e, c in enumerate(row)})


integral_cyclotomic = st.builds(
    Cyclotomic, st.lists(st.integers(-9, 9), min_size=8, max_size=8)) \
    .filter(bool)
coefficients2 = (st.integers(-9, 9) | st.fractions(max_denominator=5)
                 | integral_cyclotomic)
corners = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
sparse2 = st.dictionaries(corners, coefficients2, max_size=8) \
    .map(lambda terms: LaurentPoly(2, 1, terms))
# at least 5 x 5 nonzero terms: the images always pack (_worth_packing)
dense2 = st.builds(
    rectangle,
    st.integers(5, 7).flatmap(lambda w: st.lists(
        st.lists(coefficients2.filter(bool), min_size=w, max_size=w),
        min_size=5, max_size=7)),
    corners)


@given(sparse2 | dense2, sparse2 | dense2)
def test_bivariate_product_matches_the_oracle(p, q):
    assert p * q == schoolbook2(p, q)


def test_dense_two_variable_products_skip_the_schoolbook(monkeypatch):
    rows = [[(3 * f - e) or 7 for e in range(6)] for f in range(5)]
    p = rectangle(rows, (-2, 1))
    for q in (rectangle([[Fraction(c, 5) for c in row] for row in rows],
                        (3, -4)),
              rectangle([[z4 * c for c in row] for row in rows], (1, 1))):
        expected = schoolbook2(p, q)
        with monkeypatch.context() as m:
            m.setattr(laurent, "_mul_terms", refuse)
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


def test_ratfunc_keeps_integer_coefficients():
    num = lp({2: Fraction(3, 4), 0: 1})
    den = lp({1: Fraction(1, 6), -1: Fraction(-5, 2)})
    r = RatFunc(num, den)
    for p in (r.num, r.den):
        assert {type(c) for c in p.terms.values()} == {int}
    assert r.num * den == num * r.den                   # the same value
    assert r.eval_units(3) == num.eval_units(3) / den.eval_units(3)
    # a polynomial value keeps its Fraction coefficients
    for value in (RatFunc(num), RatFunc(num * lp({2: 1}), lp({2: 1}))):
        assert value.poly() == num
        assert Fraction in {type(c) for c in value.poly().terms.values()}
    assert RatFunc(num, lp({2: Fraction(2, 3)})).poly() == \
        lp({0: Fraction(9, 8), -2: Fraction(3, 2)})
    # Cyclotomic coefficients are left as they are
    z = cyclotomic_embed(8)
    cnum, cden = lp({1: z, 0: Fraction(1, 2)}), lp({2: 1, 0: z})
    c = RatFunc(cnum, cden)
    assert c.num.terms == cnum.terms and c.den.terms == cden.terms


def test_ratfunc_equal_denominators_compare_numerators(monkeypatch):
    num, den = lp({1: 1, -1: -1}), lp({2: 1, -2: -1})
    extra = lp({3: 2, 0: 5})
    a, same = RatFunc(num, den), RatFunc(num, den)
    other = RatFunc(num + 1, den)
    scaled = RatFunc(num * extra, den * extra)
    plus_one = scaled + 1
    products = []
    mul = LaurentPoly.__mul__
    monkeypatch.setattr(LaurentPoly, "__mul__",
                        lambda p, q: products.append(1) or mul(p, q))
    assert a == same and a != other
    assert products == []               # equal denominators multiply nothing
    assert a == scaled and a != plus_one
    assert products == []               # unequal ones compare packed ints


@given(small_polys, small_polys, small_polys, small_polys,
       st.sampled_from(["same", "nudged", "other"]))
def test_cross_equal_matches_the_products(a, b, c, e, kind):
    # _cross_equal(a, d, c, b) asks a/b == c/d, denominators never zero.
    # "same": c/d is a/b times e/e; "nudged": c is a*e plus its lowest
    # monomial, so the end exponents mostly agree while the values do not
    b, e = b or lp({0: 1}), e or lp({0: 1})
    d = e
    if kind != "other":
        c, d = a * e, b * e
    if kind == "nudged" and c:
        c = c + LaurentPoly(1, c.scale, {min(c.terms): 1})
    assert laurent._cross_equal(a, d, c, b) == (a * d == c * b)
    assert laurent._cross_equal(a, d, c, b) or kind != "same"


def test_cross_equal_reads_inside_equal_end_exponents():
    # equal least and greatest exponent sums, unequal middle coefficients
    one = lp({0: 1})
    assert not laurent._cross_equal(lp({0: 1, 2: 1, 4: 1}), one,
                                    lp({0: 1, 2: 2, 4: 1}), one)
    assert laurent._cross_equal(lp({0: 1, 2: 2, 4: 1}), one,
                                lp({0: 1, 2: 1}), lp({0: 1, 2: 1}))
    assert laurent._cross_equal(lp({}), lp({1: 1, 0: 1}), lp({}), one)
    assert not laurent._cross_equal(lp({}), one, lp({0: 1}), one)


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


def test_vanishing_order_rejects_two_variables():
    one_minus_u = LaurentPoly(2, 1, {(0, 0): 1, (0, 2): -1})
    for call in (lambda: vanishing_order_at_one(one_minus_u),
                 lambda: limit_at_one(RatFunc(one_minus_u)),
                 lambda: limit_at_one(RatFunc(LaurentPoly.zero(2)))):
        with pytest.raises(ValueError, match="univariate"):
            call()


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
    assert lp({2: -1, 0: 1}).format() == "-t + 1"
    assert RatFunc(lp({2: 1}), lp({2: 1, 0: 1})).format() == "(t) / (t + 1)"
    assert lp({1: 1}).format() == "t^(1/2)"
    assert LaurentPoly(2, 1, {(2, -1): 4}).format() == "4*t*u^(-1/2)"


@pytest.mark.parametrize("refused, error, cause", [
    (lambda: LaurentPoly(1, 1, {(1, 2): 1}), ValueError,
     "exponent tuple length != nvars"),
    (lambda: (lp({2: 1}) + 1) ** -1, NonDivisible,
     "negative power of a non-unit"),
    (lambda: LaurentPoly.one().eval_units(1, 2), ValueError,
     "need one value per variable"),
    (lambda: RatFunc(LaurentPoly.zero()).reciprocal(), ZeroDivisionError,
     "reciprocal of zero"),
])
def test_refusals_name_their_cause(refused, error, cause):
    with pytest.raises(error, match=cause):
        refused()


def test_equality_and_truth_across_kinds():
    assert LaurentPoly.one(1) != LaurentPoly.one(2)
    assert not RatFunc(LaurentPoly.zero())
    assert RatFunc(lp({1: 1}), qdiff(1))


@pytest.mark.parametrize("value", [LaurentPoly.one(),
                                   RatFunc(lp({1: 1}), qdiff(1))])
def test_polynomials_and_quotients_are_unhashable(value):
    # they compare equal across grids, where their terms differ
    with pytest.raises(TypeError):
        hash(value)
