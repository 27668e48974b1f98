"""Row-sweep dynamic programming over vertical-edge masks."""

import math

import pytest

from asmice.asm import x_enumerate_brute
from asmice.formulas import a2_formula, a3_formula, a_formula
from asmice.intpoly import IntPoly
from asmice.transfer import (DEFAULT_BOUND, _sweep, _unpack, coeff_count,
                             transfer_count)


def formula_count(n):
    num = math.prod(math.factorial(3 * i + 1) for i in range(n))
    den = math.prod(math.factorial(n + i) for i in range(n))
    return num // den


def test_matches_brute_enumeration():
    for n in range(1, 7):
        assert transfer_count(n) == x_enumerate_brute(n)


def test_meet_in_the_middle_matches_the_full_sweep():
    for n in range(1, 14):
        width = n * n + 1
        full = _sweep(n, width, n, {0: 1}).get((1 << n) - 1, 0)
        assert transfer_count(n) == IntPoly(
            _unpack(full, coeff_count(n), width)), n


def test_backends_agree():
    """The sweep matches all three closed forms at every n up to the bound."""
    for n in range(1, DEFAULT_BOUND + 1):
        p = transfer_count(n)
        assert p(1) == a_formula(n) == formula_count(n), n
        assert p(2) == a2_formula(n), n
        assert p(3) == a3_formula(n), n
        assert len(p.ascending()) == coeff_count(n)


def test_pinned_values():
    assert transfer_count(3) == IntPoly([6, 1])
    assert transfer_count(4) == IntPoly([24, 16, 2])
    assert transfer_count(10)(2) == 2 ** 45


def test_coeff_count():
    assert [coeff_count(n) for n in (1, 2, 3, 4, 5)] == [1, 1, 2, 3, 5]


def test_bound_checks():
    with pytest.raises(ValueError):
        transfer_count(0)
    with pytest.raises(ValueError):
        transfer_count(DEFAULT_BOUND + 1)


def test_unpack_rejects_bits_above_the_top_slot():
    with pytest.raises(ArithmeticError, match="top slot"):
        _unpack(1 << 12, 3, 4)
