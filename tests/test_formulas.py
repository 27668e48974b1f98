"""Closed-form counts and the polynomial factor chain."""

from fractions import Fraction
from math import factorial, prod

import pytest

from asmice import formulas
from asmice.asm import count_asms_brute
from asmice.formulas import (BChain, a2_formula, a3_formula, a_formula,
                             b_chain)
from asmice.intpoly import IntPoly
from asmice.transfer import transfer_count


def test_plain_count_formula():
    assert [a_formula(n) for n in range(1, 8)] == \
        [1, 2, 7, 42, 429, 7436, 218348]
    for n in (1, 2, 3, 4, 5):
        assert a_formula(n) == count_asms_brute(n)


def test_integer_steps_match_the_factorial_products():
    # A(n) and A(2m+1;3) by their products of factorial ratios, over Q
    def ratio(nums, dens, c=1):
        return c * Fraction(prod(map(factorial, nums)),
                            prod(map(factorial, dens)))

    for n in range(1, 41):
        assert a_formula(n) == ratio([3 * i + 1 for i in range(n)],
                                     [n + i for i in range(n)])
    for m in range(20):
        assert a3_formula(2 * m + 1) == ratio(
            [3 * j - 1 for j in range(1, m + 1)],
            [m + j for j in range(1, m + 1)], 3 ** (m * (m + 1) // 2)) ** 2


def test_inexact_steps_raise(monkeypatch):
    # one factorial off by one leaves a remainder in each formula
    monkeypatch.setattr(formulas, "factorial", lambda k: factorial(k) + 1)
    with pytest.raises(ArithmeticError, match="A\\(n\\) is not an integer"):
        a_formula(3)
    with pytest.raises(ArithmeticError, match="3-enumeration value"):
        a3_formula(5)


@pytest.mark.parametrize("formula", [a_formula, a2_formula, a3_formula])
def test_formulas_refuse_sizes_below_one(formula):
    with pytest.raises(ValueError, match="n must be >= 1"):
        formula(0)


def test_two_enumeration_formula():
    for n in range(1, 10):
        assert a2_formula(n) == 2 ** (n * (n - 1) // 2)
        assert a2_formula(n) == transfer_count(n)(2)


def test_three_enumeration_formula():
    assert a3_formula(1) == 1
    assert a3_formula(2) == 2
    assert a3_formula(3) == 9
    assert a3_formula(4) == 90
    for n in range(1, 10):                 # both parity branches
        assert a3_formula(n) == transfer_count(n)(3)


def test_chain_pinned_polynomials():
    ch = b_chain(7)
    x = IntPoly.x()
    one = IntPoly.const(1)
    assert ch[1] == one and ch[2] == one and ch[3] == one
    assert ch[4] == x + IntPoly.const(6)
    assert ch[5] == x + IntPoly.const(2)
    assert ch[6] == IntPoly([60, 70, 12, 1])
    assert ch[6](1) == 143


def test_chain_defining_identity():
    ch = b_chain(11)
    for n in range(1, 11):
        c = 1 if n % 2 else 2
        assert transfer_count(n) == ch[n] * ch[n + 1] * c


def test_chain_coefficients_observed_nonnegative():
    assert all(c >= 0 for p in b_chain(9) for c in p.ascending())


def test_chain_container_protocol():
    ch = b_chain(5)
    assert len(ch) == 5
    assert list(ch) == [ch[k] for k in range(1, 6)]
    with pytest.raises(IndexError):
        ch[0]
    with pytest.raises(IndexError):
        ch[6]


def test_chain_accepts_explicit_enumeration_polynomials():
    polys = [transfer_count(k) for k in range(1, 6)]
    ch = b_chain(6, polys)
    assert ch[6] == IntPoly([60, 70, 12, 1])


def test_chain_bound_and_validation():
    with pytest.raises(ValueError):
        b_chain(0)
    with pytest.raises(ValueError):
        b_chain(30)                            # beyond the transfer bound
    with pytest.raises(ValueError):
        BChain(3, [IntPoly.const(1)])          # length mismatch


def test_chain_names_the_enumerations_it_needs():
    with pytest.raises(ValueError, match=r"needs A\(1;x\)\.\.A\(4;x\), 4 "
                       r"polynomials, got 1"):
        b_chain(5, [transfer_count(1)])
    assert b_chain(2, [transfer_count(1)])[2] == IntPoly.const(1)


def test_chain_rejects_inexact_division():
    bad = [IntPoly.const(1), IntPoly.const(4), IntPoly([1, 1])]
    with pytest.raises(ArithmeticError):
        b_chain(4, bad)


def test_chain_rejects_broken_anchoring():
    with pytest.raises(ArithmeticError, match="anchoring"):
        b_chain(2, [IntPoly.const(2)])
