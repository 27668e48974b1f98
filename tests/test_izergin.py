"""The determinant formula for the domain-wall state sum."""

import random
from fractions import Fraction

import pytest

from asmice import izergin, sixvertex
from asmice.brackets import bracket_ratio
from asmice.izergin import IkInstance, ik_matrix, ik_z
from asmice.laurent import LaurentPoly, RatFunc, reduced
from asmice.sixvertex import SpectralParams, z_brute
from asmice.verify import _draw_ik_params


def lp(terms, scale=1):
    return LaurentPoly(scale, terms)


def test_single_entry_matrix():
    m = ik_matrix(IkInstance(SpectralParams([2], [0])))
    assert m[0, 0] == (bracket_ratio(2) * bracket_ratio(1)).reciprocal()


def test_single_site_closed_form():
    p = SpectralParams([Fraction(7, 2)], [Fraction(1, 2)])
    assert ik_z(IkInstance(p)) == RatFunc(lp({-3: -1}))    # -q^(-3/2)
    assert ik_z(IkInstance(p)) == z_brute(p)


def test_two_by_two_against_enumeration():
    p = SpectralParams([3, 4], [0, 1])
    assert ik_z(IkInstance(p)) == z_brute(p)


def test_random_parameters_match_enumeration():
    rng = random.Random(20260814)

    def draw(n):
        while True:
            xs = [Fraction(rng.randrange(4, 60), rng.choice([1, 2]))
                  for _ in range(n)]
            ys = [Fraction(rng.randrange(-40, 0), rng.choice([1, 2]))
                  for _ in range(n)]
            try:
                return IkInstance(SpectralParams(xs, ys))
            except ValueError:
                continue

    for n in (1, 2, 3, 4):
        inst = draw(n)
        assert ik_z(inst) == z_brute(inst.params), (n, inst.params)


def test_entry_pole_rejected():
    with pytest.raises(ValueError, match="singular"):
        IkInstance(SpectralParams([3, 4], [2, 1]))     # a label equals 1
    with pytest.raises(ValueError, match="singular"):
        IkInstance(SpectralParams([2], [2]))           # a label equals 0


def test_coincident_parameters_rejected():
    with pytest.raises(ValueError, match="prefactor"):
        IkInstance(SpectralParams([3, 3], [0, 1]))
    with pytest.raises(ValueError, match="prefactor"):
        IkInstance(SpectralParams([3, 4], [0, 0]))


def test_instance_size():
    inst = IkInstance(SpectralParams([3, 4], [0, 1]))
    assert inst.n == 2
    assert ik_matrix(inst).nrows == 2


def both_sides(p):
    return z_brute(p), ik_z(IkInstance(p))


def test_integral_labels_and_one_site_give_laurent_polynomials():
    # the weights make Z a Laurent polynomial on the integer grid and at
    # n = 1, where its one state weighs a monomial; both sides divide out
    rng = random.Random(38)
    for n in range(1, 5):
        p = SpectralParams(rng.sample(range(2, 40), n),
                           rng.sample(range(-20, 1), n))
        assert p.grid == 1
        assert all(z.is_poly for z in both_sides(p)), n
    p = SpectralParams([Fraction(7, 3)], [Fraction(-1, 2)])
    assert p.grid == 6
    assert all(z.is_poly for z in both_sides(p))


def test_fractional_labels_keep_their_values(monkeypatch):
    # off the integer grid the quotient is left unreduced; it equals the
    # value that always attempts the division, which never succeeds here
    rng = random.Random(39)
    draws = [SpectralParams(*_draw_ik_params(rng, n))
             for n in (2, 3, 4) for _ in range(5)]
    draws = [p for p in draws if p.grid > 1]
    assert len(draws) >= 12
    kept = [both_sides(p) for p in draws]
    for module in (sixvertex, izergin):
        monkeypatch.setattr(module, "_z_quotient",
                            lambda grid, n, num, den: reduced(num, den))
    divided = [both_sides(p) for p in draws]
    assert kept == divided
    assert [[z.is_poly for z in zs] for zs in kept] == [
        [z.is_poly for z in zs] for zs in divided]
