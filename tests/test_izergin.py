"""The determinant formula for the domain-wall state sum."""

import random
from fractions import Fraction

import pytest

from asmice.brackets import bracket_ratio
from asmice.izergin import IkInstance, ik_matrix, ik_z
from asmice.laurent import LaurentPoly, RatFunc
from asmice.sixvertex import SpectralParams, z_brute


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
