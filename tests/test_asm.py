"""Alternating-sign matrices: validation, enumeration, weighted counts."""

from collections import Counter
from itertools import product

import pytest

from asmice.asm import (Asm, AsmInvalid, _alternating_rows, _FittingRows,
                        count_asms_brute, enumerate_asms, format_asm,
                        parse_asm, validate, x_enumerate_brute)
from asmice.intpoly import IntPoly


def test_counting_sequence():
    assert [count_asms_brute(n) for n in range(1, 6)] == [1, 2, 7, 42, 429]


def test_permutation_matrices_are_included():
    ms = list(enumerate_asms(3))
    perms = [m for m in ms if m.neg_count() == 0]
    assert len(perms) == 6
    assert len(ms) - len(perms) == 1          # the single matrix with a -1


def test_fitting_rows_filter_the_alternating_rows():
    """Every mask a walk reaches (fewer than n ones) looks up exactly the
    alternating rows that fit it, in their lexicographic order."""
    for n in range(1, 7):
        fits = _FittingRows(n)
        for c in range(1 << n):
            if c.bit_count() < n:
                assert fits[c] == [
                    (row, plus ^ minus, minus.bit_count())
                    for row, plus, minus in _alternating_rows(n)
                    if not plus & c and minus & c == minus], (n, c)


def _is_asm(rows):
    try:
        validate(rows)
    except AsmInvalid:
        return False
    return True


def test_enumeration_matches_filtering_every_matrix():
    for n in (1, 2, 3):
        every = (tuple(entries[i * n:(i + 1) * n] for i in range(n))
                 for entries in product((-1, 0, 1), repeat=n * n))
        assert [m.rows for m in enumerate_asms(n)] == list(
            filter(_is_asm, every)), n


def test_enumeration_is_lexicographic():
    for n in (3, 4, 5):
        flat = [tuple(x for row in m.rows for x in row)
                for m in enumerate_asms(n)]
        assert flat == sorted(flat)
        assert len(set(flat)) == len(flat)


def test_four_by_four_example_with_negative_entry():
    m = Asm([[0, 1, 0, 0],
             [1, -1, 1, 0],
             [0, 0, 0, 1],
             [0, 1, 0, 0]])
    assert m.n == 4 and m.neg_count() == 1


def test_rejections():
    with pytest.raises(AsmInvalid):
        Asm([[1, -1], [-1, 1]])               # leading nonzero must be +1
    with pytest.raises(AsmInvalid, match="column"):
        Asm([[1, 0], [1, 0]])
    with pytest.raises(AsmInvalid, match="entry"):
        Asm([[0, 2], [1, -1]])
    with pytest.raises(AsmInvalid):
        Asm([[1, 0, 0], [0, 1, 0]])           # not square
    with pytest.raises(AsmInvalid):
        Asm([[1, 1], [0, 0]])                 # row sum 2


def test_weighted_enumeration_polynomials():
    x = IntPoly.x()
    assert x_enumerate_brute(1) == IntPoly.const(1)
    assert x_enumerate_brute(2) == IntPoly.const(2)
    assert x_enumerate_brute(3) == x + IntPoly.const(6)
    assert x_enumerate_brute(4) == IntPoly([24, 16, 2])
    expected5 = (x + IntPoly.const(2)) * IntPoly([60, 70, 12, 1])
    assert x_enumerate_brute(5) == expected5


def test_weighted_count_specializations():
    for n in (1, 2, 3, 4, 5):
        p = x_enumerate_brute(n)
        assert p(1) == count_asms_brute(n)
        assert p(2) == 2 ** (n * (n - 1) // 2)


def test_brute_count_matches_the_matrices_enumerated():
    for n in range(1, 7):
        assert count_asms_brute(n) == sum(1 for _ in enumerate_asms(n)), n


def test_brute_polynomial_matches_the_matrices_enumerated():
    for n in range(1, 7):
        counts = Counter(m.neg_count() for m in enumerate_asms(n))
        assert x_enumerate_brute(n) == IntPoly(
            [counts[d] for d in range(max(counts) + 1)]), n


def test_text_round_trip():
    for m in enumerate_asms(3):
        assert parse_asm(format_asm(m)) == m


def test_parse_rejects_bad_tokens():
    with pytest.raises(ValueError):
        parse_asm("0 1\n1 q")
    with pytest.raises(AsmInvalid):
        parse_asm("1 1\n0 0")
