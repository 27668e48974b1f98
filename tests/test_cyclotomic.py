"""Exact arithmetic in cyclotomic fields Q(zeta_m)."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from asmice.cyclotomic import (Cyclotomic, _zpoly_divide, cyclotomic_embed,
                               cyclotomic_polynomial)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert len(cyclotomic_polynomial(12)) == 5     # degree 4
    assert len(cyclotomic_polynomial(24)) == 9     # degree 8
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_inexact_integer_division_raises():
    assert _zpoly_divide([2, 3, 1], [1, 1]) == [2, 1]
    with pytest.raises(ArithmeticError, match="inexact"):
        _zpoly_divide([1, 1], [2, 1])          # nonzero remainder
    with pytest.raises(ArithmeticError, match="inexact"):
        _zpoly_divide([0, 1], [0, 2])          # leading term not divisible


def test_trivial_roots():
    assert Cyclotomic.zeta(1) == 1
    assert Cyclotomic.zeta(2) == -1
    assert Cyclotomic.zeta(2).as_integer() == -1


def test_third_root_relations():
    z = Cyclotomic.zeta(3)
    assert z + z * z == -1
    assert z ** 3 == 1
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.as_rational()


def test_fourth_and_sixth_roots():
    i = Cyclotomic.zeta(4)
    assert i * i == -1
    z6 = Cyclotomic.zeta(6)
    assert z6 * z6 == z6 - 1               # from z^2 - z + 1 = 0
    assert z6 ** 6 == 1 and z6 ** 3 == -1


def test_root_power_wraps_modulo_order():
    z = Cyclotomic.zeta(12)
    assert Cyclotomic.root_power(12, 13) == z
    assert Cyclotomic.root_power(12, -1) == z ** 11


def test_from_rational_and_casts():
    r = Cyclotomic.from_rational(Fraction(3, 2), order=12)
    assert r.is_rational() and r.as_rational() == Fraction(3, 2)
    with pytest.raises(ValueError):
        r.as_integer()
    assert Cyclotomic.from_rational(5).as_integer() == 5


def test_inverse():
    z = Cyclotomic.zeta(8)
    assert z * z.inverse() == 1
    v = 2 + 3 * z - z ** 2
    assert v * v.inverse() == 1
    assert (1 / v) * v == 1
    with pytest.raises(ZeroDivisionError):
        Cyclotomic.from_rational(0).inverse()


def test_pow_supports_negative_exponents():
    z = Cyclotomic.zeta(12)
    assert z ** -5 == z.inverse() ** 5
    assert z ** 0 == 1


def test_promote_and_cross_order_operations():
    z3 = Cyclotomic.zeta(3)
    in24 = z3.promote(24)
    assert in24 == cyclotomic_embed(3)
    assert in24.order == 24
    # mixed orders combine through the common field
    assert z3 + cyclotomic_embed(2) == in24 - 1
    with pytest.raises(ValueError):
        z3.promote(8)


def test_embed_requires_divisibility():
    assert cyclotomic_embed(1) == 1
    assert cyclotomic_embed(2) == -1
    assert cyclotomic_embed(8, 24) ** 8 == 1
    with pytest.raises(ValueError):
        cyclotomic_embed(5, 24)


def test_scalar_mixing():
    z = Cyclotomic.zeta(6)
    assert 1 + z == z + 1
    assert Fraction(1, 2) * z == z * Fraction(1, 2)
    assert 1 - z == -(z - 1)
    assert (2 * z) / 2 == z


elements = st.builds(
    lambda cs, order: Cyclotomic(order, cs[: len(cyclotomic_polynomial(order)) - 1]),
    st.lists(st.integers(-5, 5), min_size=1, max_size=4),
    st.sampled_from([3, 4, 6, 12]),
)


@given(elements, st.integers(-4, 4), st.integers(-4, 4))
def test_ring_laws_same_order(a, m, k):
    b = Cyclotomic.zeta(a.order) * m + k
    c = Cyclotomic.root_power(a.order, 2) - m
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_hashable_when_used_as_dict_key():
    z = Cyclotomic.zeta(3)
    d = {z: "root"}
    assert d[Cyclotomic.zeta(3)] == "root"
