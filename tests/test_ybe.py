"""The star-triangle identity over all boundary orientations."""

from fractions import Fraction

import pytest

from asmice import ybe
from asmice.sixvertex import _label_weights
from asmice.verify import build_suite
from asmice.ybe import ybe_check
from ybe_pictures import picture_sides


def test_integer_label_pair():
    r = ybe_check(2, 3)
    assert r.passed
    assert r.cases == 64
    assert r.equal_count == 64
    assert r.trivial_count == 44
    assert r.rotation_pairing_ok
    assert not r.failures


def test_half_integer_label_pair():
    r = ybe_check(Fraction(1, 2), Fraction(3, 2))
    assert r.passed and r.trivial_count == 44 and not r.failures


def test_negative_and_mixed_labels():
    for y, z in ((-1, 4), (Fraction(5, 3), Fraction(1, 3)), (7, -2)):
        r = ybe_check(y, z)
        assert r.passed, (y, z, r)


def test_nontrivial_case_count_is_constant():
    for y, z in ((2, 3), (Fraction(1, 2), Fraction(3, 2)), (-1, 4)):
        r = ybe_check(y, z)
        assert r.cases - r.trivial_count == 20


def test_labels_that_silence_more_cases_pass():
    # at label 1 the turn weight vanishes, so more than the 44 cases that
    # change the number of upward arrows are 0 = 0
    for (y, z), trivial in (((1, 1), 64), ((1, 2), 56), ((2, 1), 56),
                            ((1, 5), 56)):
        r = ybe_check(y, z)
        assert r.passed, r
        assert r.equal_count == 64 and r.trivial_count == trivial


def test_a_nonzero_case_that_changes_the_arrow_count_fails(monkeypatch):
    # both sides agree and the rotation pairing holds, but a case whose
    # bottom and top differ in upward arrows carries a value
    sides = ybe._sides

    def leaky(y, z):
        lhs, rhs = sides(y, z)
        case = (True, False, False, False, False, False)
        for side in (lhs, rhs):
            for b in (case, ybe._rotate(case)):
                side[b] = side[b] + 1
        return lhs, rhs

    monkeypatch.setattr(ybe, "_sides", leaky)
    r = ybe_check(2, 3)
    assert r.equal_count == 64 and r.rotation_pairing_ok
    assert r.trivial_count == 42
    assert not r.passed


def test_report_repr_mentions_counts():
    r = ybe_check(1, 1)
    assert "64" in repr(r) and "trivial" in repr(r)


# the 7 pairs of the seed-0 suite, then the other pairs of the tests above
ORACLE_PAIRS = ([(kw["y"], kw["z"]) for _, kw in build_suite("ybe", seed=0)]
                + [(-1, 4), (Fraction(5, 3), Fraction(1, 3)), (7, -2), (1, 1)])


@pytest.mark.parametrize("y, z", ORACLE_PAIRS)
def test_crossing_products_equal_the_picture_sums(y, z):
    lhs, rhs = ybe._sides(Fraction(y), Fraction(z))
    pic_lhs, pic_rhs = picture_sides(Fraction(y), Fraction(z))
    assert len(lhs) == len(rhs) == len(pic_lhs) == 64
    for bits, value in pic_lhs.items():
        assert lhs[bits] == value, bits
        assert rhs[bits] == pic_rhs[bits], bits


def _doubled_state_1(v):
    w = _label_weights(v)
    return (w[0] * 2,) + w[1:]


def _turn_and_side_swapped(v):
    w = _label_weights(v)
    return w[:2] + (w[4], w[5], w[2], w[3])


@pytest.mark.parametrize("perturbed, equal", ((_doubled_state_1, 56),
                                              (_turn_and_side_swapped, 52)))
def test_perturbed_weights_fail(monkeypatch, perturbed, equal):
    monkeypatch.setattr(ybe, "_label_weights", perturbed)
    r = ybe_check(2, 3)
    assert not r.passed
    assert r.equal_count == equal and len(r.failures) == 64 - equal
    assert not r.rotation_pairing_ok
    # the oracle sees the same failures
    lhs, rhs = picture_sides(Fraction(2), Fraction(3), perturbed)
    assert r.failures == [b for b in lhs if lhs[b] != rhs[b]]
