"""Exact arithmetic in the cyclotomic field Q(zeta_24)."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from asmice.chain import q_fourth_root
from asmice.cyclotomic import Cyclotomic, cyclotomic_embed

#: Phi_24 = z^8 - z^4 + 1, ascending coefficients
PHI_24 = (1, 0, 0, 0, -1, 0, 0, 0, 1)


def oracle_product(a, b):
    """Schoolbook product of two coefficient vectors, then long division
    by Phi_24; independent of the fold used by Cyclotomic."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    d = len(PHI_24) - 1
    for i in range(len(prod) - 1, d - 1, -1):
        c = prod[i]
        for j, p in enumerate(PHI_24):
            prod[i - d + j] -= c * p
    return prod[:d]


def test_embedded_roots_have_exact_order():
    for k in (1, 2, 3, 4, 6, 8, 12, 24):
        z = cyclotomic_embed(k)
        assert z ** k == 1
        assert all(z ** j != 1 for j in range(1, k)), k


def test_generator_satisfies_phi_24():
    z = cyclotomic_embed(24)
    assert z ** 8 - z ** 4 + 1 == 0
    assert z.coeffs == (0, 1, 0, 0, 0, 0, 0, 0)


def test_trivial_roots():
    assert cyclotomic_embed(1) == 1
    assert cyclotomic_embed(2) == -1
    assert cyclotomic_embed(2).as_rational() == -1


def test_third_root_relations():
    z = cyclotomic_embed(3)
    assert z + z * z == -1
    assert z ** 3 == 1
    assert not z.is_rational()
    with pytest.raises(ValueError):
        z.as_rational()


def test_fourth_and_sixth_roots():
    i = cyclotomic_embed(4)
    assert i * i == -1
    z6 = cyclotomic_embed(6)
    assert z6 * z6 == z6 - 1               # from z^2 - z + 1 = 0
    assert z6 ** 6 == 1 and z6 ** 3 == -1


def test_powers_wrap_modulo_order():
    z = cyclotomic_embed(12)
    assert z ** 13 == z
    assert z ** -1 == z ** 11


def test_from_rational_and_casts():
    r = Cyclotomic([Fraction(3, 2)])
    assert r.is_rational() and r.as_rational() == Fraction(3, 2)
    five = Cyclotomic([5]).as_rational()
    assert five == 5 and type(five) is int
    assert not hasattr(r, "order")


def test_int_coefficients_stay_ints():
    z = cyclotomic_embed(24)
    assert all(type(c) is int for c in (z ** 5 + 3 * z - 2).coeffs)


def integral_are_ints(a):
    return all(type(c) is int for c in a.coeffs if c.denominator == 1)


def test_integral_quotients_stay_ints():
    for x in (1, 2, 3):
        root = q_fourth_root(x)
        inverse = root.inverse()
        assert root * inverse == 1
        assert all(type(c) is int for c in inverse.coeffs)
        assert all(type(c) is int for c in (1 / root).coeffs)
        assert all(type(c) is int for c in (root ** -5).coeffs)
    z = cyclotomic_embed(8)
    assert all(type(c) is int for c in ((4 * z - 2) / 2).coeffs)
    assert all(type(c) is int for c in ((z / 3) * Fraction(3)).coeffs)


def test_coefficients_must_be_rational():
    for bad in (0.5, "1", cyclotomic_embed(3), complex(1, 0)):
        with pytest.raises(TypeError):
            Cyclotomic([1, bad])
    with pytest.raises(TypeError):
        Cyclotomic([0.5])
    with pytest.raises(ValueError):
        Cyclotomic([0] * 9)


def test_inverse():
    z = cyclotomic_embed(8)
    assert z * z.inverse() == 1
    v = 2 + 3 * z - z ** 2
    assert v * v.inverse() == 1
    assert (1 / v) * v == 1
    with pytest.raises(ZeroDivisionError):
        Cyclotomic([0]).inverse()
    with pytest.raises(ZeroDivisionError):
        z / 0


def test_pow_supports_negative_exponents():
    z = cyclotomic_embed(12)
    assert z ** -5 == z.inverse() ** 5
    assert z ** 0 == 1


def test_embed_requires_divisibility():
    assert cyclotomic_embed(8) ** 8 == 1
    # roots of different orders combine in the one field
    assert cyclotomic_embed(3) + cyclotomic_embed(2) == cyclotomic_embed(3) - 1
    for k in (0, 5, 16, 48):
        with pytest.raises(ValueError):
            cyclotomic_embed(k)


def test_scalar_mixing():
    z = cyclotomic_embed(6)
    assert 1 + z == z + 1
    assert Fraction(1, 2) * z == z * Fraction(1, 2)
    assert 1 - z == -(z - 1)
    assert (2 * z) / 2 == z
    assert z / Fraction(1, 3) == 3 * z


coefficient = st.one_of(st.integers(-5, 5),
                        st.fractions(-3, 3, max_denominator=4))
elements = st.builds(Cyclotomic,
                     st.lists(coefficient, min_size=8, max_size=8))


@given(elements, elements)
def test_product_matches_schoolbook_oracle(a, b):
    assert (a * b).coeffs == tuple(oracle_product(a.coeffs, b.coeffs))


@given(elements)
def test_inverse_of_random_elements(a):
    assume(a)
    assert a * a.inverse() == 1
    assert a / a == 1


@given(elements, st.integers(1, 6) | st.fractions(max_denominator=6))
def test_integral_coefficients_stay_ints(a, r):
    assume(a and r)
    assert integral_are_ints(a.inverse())
    assert integral_are_ints(a / r)
    assert integral_are_ints(a * r)
    assert (a * r) / r == a


@given(elements, elements, elements)
def test_ring_laws_same_order(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - b == -(b - a)


def test_hashable_when_used_as_dict_key():
    z = cyclotomic_embed(3)
    d = {z: "root", Cyclotomic([2]): "two"}
    assert d[cyclotomic_embed(3)] == "root"
    assert d[2] == "two"
