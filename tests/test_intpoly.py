"""Integer-coefficient polynomials in one variable."""

from fractions import Fraction

import pytest

from asmice.intpoly import IntPoly


def test_construction_and_degree():
    p = IntPoly([6, 1])
    assert p.degree == 1
    assert IntPoly.const(5).degree == 0
    assert IntPoly.x() == IntPoly([0, 1])
    assert IntPoly([]).degree == IntPoly.const(0).degree


def test_str_formats():
    assert str(IntPoly([6, 1])) == "x + 6"
    assert str(IntPoly([24, 16, 2])) == "2x^2 + 16x + 24"
    assert str(IntPoly([60, 70, 12, 1])) == "x^3 + 12x^2 + 70x + 60"
    assert str(IntPoly.const(1)) == "1"
    assert str(IntPoly([0])) == "0"
    assert str(IntPoly([0, -1])) == "-x"


def test_arithmetic():
    x = IntPoly.x()
    assert (x + IntPoly.const(6)) * (x + IntPoly.const(2)) == \
        IntPoly([12, 8, 1])
    assert (x + IntPoly.const(1)) - x == IntPoly.const(1)
    assert x * 3 == IntPoly([0, 3])
    assert x ** 3 == IntPoly([0, 0, 0, 1])


def test_evaluation():
    p = IntPoly([24, 16, 2])
    assert p(1) == 42
    assert p(2) == 64
    assert p(Fraction(1, 2)) == Fraction(65, 2)
    assert p(0) == 24


def test_ascending_coefficients():
    assert IntPoly([24, 16, 2]).ascending() == [24, 16, 2]
    assert IntPoly([]).ascending() == []


def test_divide_exact():
    num = IntPoly([12, 8, 1])                  # x^2 + 8x + 12
    assert num.divide_exact(IntPoly([6, 1])) == IntPoly([2, 1])
    assert num.divide_exact(IntPoly.const(1)) == num
    with pytest.raises(ArithmeticError):
        IntPoly([1, 1]).divide_exact(IntPoly([2, 1]))
    with pytest.raises(ZeroDivisionError):
        num.divide_exact(IntPoly([0]))


def test_inexact_integer_division_raises():
    assert IntPoly([2, 3, 1]).divide_exact(IntPoly([1, 1])) == IntPoly([2, 1])
    with pytest.raises(ArithmeticError, match="inexact"):
        IntPoly([1, 1]).divide_exact(IntPoly([2, 1]))   # nonzero remainder
    with pytest.raises(ArithmeticError, match="inexact"):
        IntPoly([0, 1]).divide_exact(IntPoly([0, 2]))   # leading term not divisible
    with pytest.raises(ArithmeticError, match="inexact"):
        IntPoly([1, 1]).divide_exact(IntPoly([1, 0, 1]))  # degree too small
    assert IntPoly([]).divide_exact(IntPoly([1, 1])) == IntPoly([])


def test_fraction_operand_is_not_implemented():
    x = IntPoly.x()
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
               lambda a, b: b + a, lambda a, b: b - a, lambda a, b: b * a):
        with pytest.raises(TypeError):
            op(x, Fraction(1, 2))


def test_divide_alias():
    assert IntPoly([12, 8, 1]).divide_exact(IntPoly([2, 1])) == IntPoly([6, 1])
