"""Row-sweep dynamic programming over vertical-edge masks."""

import math

import pytest

from asmice.asm import x_enumerate_brute
from asmice.formulas import a2_formula, a3_formula, a_formula
from asmice.intpoly import IntPoly
from asmice import formulas, transfer
from asmice.transfer import (DEFAULT_BOUND, _block_count, _folded_sweep,
                             _halves, _pair, _reversals, _slot_width, _sweep,
                             _sweep_width, _unpack, coeff_count,
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
        width = _slot_width(n)
        full = _sweep(n, width, n, {0: 1}).get((1 << n) - 1, 0)
        assert transfer_count(n) == IntPoly(
            _unpack(full, coeff_count(n), width)), n


def test_slot_width_bounds_every_count():
    """The slot width is the bit length of U(n) = prod_{0<i<n} C(n, i),
    which bounds A(n) and so every coefficient of A(n;x)."""
    for n in range(1, 41):
        u = math.prod(math.comb(n, i) for i in range(1, n))
        assert _slot_width(n) == u.bit_length(), n
        assert u >= a_formula(n), n
    for n in range(1, DEFAULT_BOUND + 1):
        assert max(transfer_count(n).ascending()) < 1 << _slot_width(n), n
    assert [_slot_width(n) for n in (13, 14, 16)] == [98, 115, 153]


def block_bits(n):
    """The bit length of prod_{0<i<=ceil(n/2)} C(n, i), which bounds every
    frontier count of the meet-in-the-middle sweep."""
    return math.prod(math.comb(n, i)
                     for i in range(1, (n + 1) // 2 + 1)).bit_length()


def sweep_widths(monkeypatch):
    """The widths transfer_count sweeps at, one per _folded_sweep call."""
    widths = []
    folded = transfer._folded_sweep
    monkeypatch.setattr(transfer, "_folded_sweep", lambda n, width, *a:
                        widths.append(width) or folded(n, width, *a))
    return widths


def test_proposed_width_is_narrower_than_the_slot_width(monkeypatch):
    widths = sweep_widths(monkeypatch)
    for n in range(1, DEFAULT_BOUND + 1):
        width = min(_sweep_width(n), _slot_width(n))
        assert (width < _slot_width(n)) == (n >= 5), n
        widths.clear()
        transfer_count(n)
        assert widths == [width, width], n      # no second sweep
    assert [_sweep_width(n) for n in (4, 13, 14, 16)] == [7, 64, 75, 97]


def test_block_count_is_the_exact_count():
    """Frontier values mod 2^w - 1 give A(n) exactly once w is one bit
    above the block bound, however far A(n) overflows the slots."""
    for n in range(1, DEFAULT_BOUND + 1):
        rev = _reversals(n)
        for width in (block_bits(n) + 1, _sweep_width(n)):
            top, bottom = _halves(n, width, rev)
            assert _block_count(n, top, bottom, rev, width) == a_formula(n), n
    assert a_formula(14).bit_length() > block_bits(14) + 1


def test_too_narrow_a_proposal_falls_back_to_the_slot_width(monkeypatch):
    """With the formula patched to 0, the proposal is one bit above the
    block bound, too narrow for A(n) from n = 6 on; the sweep's own count
    sends it to _slot_width(n), and every answer stays right."""
    monkeypatch.setattr(formulas, "a_formula", lambda n: 0)
    widths = sweep_widths(monkeypatch)
    for n in range(1, 7):
        assert transfer_count(n) == x_enumerate_brute(n), n
    for n in range(1, 14):
        width = _slot_width(n)
        full = _sweep(n, width, n, {0: 1}).get((1 << n) - 1, 0)
        assert transfer_count(n) == IntPoly(
            _unpack(full, coeff_count(n), width)), n
    for n in range(1, DEFAULT_BOUND + 1):
        widths.clear()
        p = transfer_count(n)
        assert p(1) == a_formula(n) == formula_count(n), n
        assert p(2) == a2_formula(n) and p(3) == a3_formula(n), n
        narrow = min(block_bits(n) + 1, _slot_width(n))
        if a_formula(n) >> narrow:
            assert widths == [narrow, narrow, _slot_width(n),
                              _slot_width(n)], n
        else:
            assert widths == [narrow, narrow], n
    assert a_formula(6) >> block_bits(6) + 1


def test_too_wide_a_proposal_stops_at_the_slot_width(monkeypatch):
    monkeypatch.setattr(formulas, "a_formula", lambda n: 1 << 400)
    widths = sweep_widths(monkeypatch)
    for n in (1, 7, 14):
        widths.clear()
        assert transfer_count(n)(1) == formula_count(n), n
        assert widths == [_slot_width(n)] * 2, n


def test_reversals_read_each_mask_right_to_left():
    for n in range(1, 9):
        assert _reversals(n) == [int(f"{m:0{n}b}"[::-1], 2)
                                 for m in range(1 << n)], n


def test_folded_frontier_is_the_full_frontier_on_canonical_masks():
    """Row by row, the mirror-folded sweep keeps exactly the unfolded
    frontier's values at the masks m <= rev m.  At n = 1 and 2 every
    mask is a palindrome or the mirror image of its complement."""
    for n in range(1, 13):
        width = _slot_width(n)
        rev = _reversals(n)
        full, folded = {0: 1}, {0: 1}
        for k in range(n + 1):
            assert folded == {m: v for m, v in full.items()
                              if m <= rev[m]}, (n, k)
            full = _sweep(n, width, 1, full)
            folded = _folded_sweep(n, width, 1, folded, rev)


def test_orbit_pairing_matches_pairing_every_mask():
    for n in range(1, 13):
        width = _slot_width(n)
        rev = _reversals(n)
        ones = (1 << n) - 1
        top = _sweep(n, width, n // 2, {0: 1})
        bottom = _sweep(n, width, n - n // 2, {0: 1})
        every = sum(v * bottom.get(ones ^ m, 0) for m, v in top.items())
        folded_top = _folded_sweep(n, width, n // 2, {0: 1}, rev)
        folded_bottom = _folded_sweep(n, width, n % 2, folded_top, rev)
        assert _pair(n, folded_top, folded_bottom, rev) == every, n


def test_sweep_matches_the_closed_forms():
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
