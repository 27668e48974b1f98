"""The merged-parameter limit chain from the determinant formula to counts."""

from fractions import Fraction

import pytest

from asmice.chain import (a_via_chain, ean_normalize, half_spec_value,
                          ik_eps_product, ik_eps_ratfunc, q_fourth_root,
                          tau_poly, z_half_eps_brute, z_half_eps_product)
from asmice.asm import enumerate_asms
from asmice.dets import EpsilonGrid
from asmice.ice import to_ice
from asmice.laurent import LaurentPoly, RatFunc
from asmice.transfer import transfer_count


def test_fourth_root_bookkeeping():
    for x in (1, 2, 3):
        q4 = q_fourth_root(x)
        lam = q4 ** 2 + q4.inverse() ** 2
        assert lam.is_rational() and lam.as_rational() == x - 2
        beta_sq = (q4 ** 2 - q4.inverse() ** 2) ** 2
        assert beta_sq.as_rational() == x * x - 4 * x
    with pytest.raises(ValueError):
        q_fourth_root(4)


def test_fourth_root_rejects_non_integral_x():
    # x = 3/2 would truncate to the x = 1 root without the check
    for x in (Fraction(3, 2), Fraction(5, 2), Fraction(1, 3)):
        with pytest.raises(ValueError, match="no pinned root"):
            q_fourth_root(x)
    with pytest.raises(ValueError, match="no pinned root"):
        half_spec_value(2, Fraction(3, 2))
    assert q_fourth_root(Fraction(2)) == q_fourth_root(2)


def test_tau_at_zero_offset_is_constant():
    for x in (1, 2, 3):
        t = tau_poly(0, x)
        assert t.terms == {(0,): 4 - x}


def test_tau_keeps_integral_coefficients_integers():
    for x in (1, Fraction(2), Fraction(6, 2)):
        for g in (0, Fraction(1, 2), 2):
            assert all(type(c) is int for c in tau_poly(g, x).terms.values())
    t = tau_poly(1, Fraction(5, 2))
    assert t.terms[(0,)] == Fraction(-1, 2)


def test_determinant_evaluation_stays_over_z_for_integral_x():
    # the beta^2 power joins the denominator as an int, not a Fraction
    for x in (1, 2, 3):
        w = ik_eps_ratfunc(3, x)
        for p in (w.num, w.den):
            assert all(type(c) is int for c in p.terms.values())


def test_state_sum_equals_determinant_evaluation():
    for n in (1, 2):
        for x in (1, 2, 3):
            q4 = q_fourth_root(x)
            pref = (Fraction(-1) ** n) * q4.inverse() ** n
            assert z_half_eps_brute(n, x) == ik_eps_ratfunc(n, x) * pref


def test_grid_state_sum_matches_enumeration():
    # the sum over every state of the site products, u = s^(g/2) per site
    for n in (1, 2, 3):
        for x in (1, 2, 3):
            q4 = q_fourth_root(x)
            q4i = q4.inverse()
            beta = q4 * q4 - q4i * q4i
            grid = EpsilonGrid.standard(n)
            total = LaurentPoly.zero()
            for ice in (to_ice(a) for a in enumerate_asms(n)):
                term = LaurentPoly.one()
                for i in range(n):
                    for j in range(n):
                        u = LaurentPoly.var_power(Fraction(grid.g(i, j), 2))
                        ui = u ** -1
                        term = term * {1: -beta * q4i * ui, 2: -beta * q4 * u,
                                       3: q4i * u - q4 * ui,
                                       4: q4i * u - q4 * ui,
                                       5: q4 * u - q4i * ui,
                                       6: q4 * u - q4i * ui}[ice[i, j]]
                total = total + term
            want = RatFunc(total * beta.inverse() ** (n * n))
            assert z_half_eps_brute(n, x) == want


def test_state_sum_on_a_symmetric_grid():
    g = EpsilonGrid.symmetric([-3, -1, 1, 3])
    for x in (1, 3):
        q4 = q_fourth_root(x)
        pref = q4.inverse() ** 4
        assert z_half_eps_brute(4, x, g) == ik_eps_ratfunc(4, x, g) * pref


def test_factored_and_determinant_forms_agree():
    for n in (1, 2, 3):
        for x in (1, 2):
            assert ik_eps_product(n, x).expand_ratfunc() == \
                ik_eps_ratfunc(n, x)


def test_product_form_only_exists_for_ratio_cases():
    with pytest.raises(ValueError, match="factored"):
        ik_eps_product(2, 3)


def test_displayed_product_single_site():
    p1 = z_half_eps_product(1)
    assert p1.unit_expo == -1 and not p1.diffs
    assert p1.coeff == -q_fourth_root(1).inverse()


def test_displayed_product_matches_factored_evaluation():
    for n in (1, 2, 3):
        q4 = q_fourth_root(1)
        pref = (Fraction(-1) ** n) * q4.inverse() ** n
        assert z_half_eps_product(n) == ik_eps_product(n, 1) * pref


def test_counts_through_the_product_route():
    want = [1, 2, 7, 42]
    for n in (1, 2, 3, 4):
        assert a_via_chain(n, 1) == want[n - 1]
        assert a_via_chain(n, 2) == 2 ** (n * (n - 1) // 2)


def test_counts_through_the_determinant_route():
    for n in (1, 2, 3):
        assert a_via_chain(n, 1, route="det") == [1, 2, 7][n - 1]
        assert a_via_chain(n, 3, route="det") == transfer_count(n)(3)


def test_route_validation():
    with pytest.raises(ValueError, match="route"):
        a_via_chain(2, 1, route="guess")
    with pytest.raises(ValueError, match="factored"):
        a_via_chain(2, 3, route="product")


def test_merged_point_normalization():
    for n in (1, 2, 3):
        for x in (1, 2, 3):
            value = half_spec_value(n, x)
            assert ean_normalize(n, value, x) == transfer_count(n)(x)


def test_normalize_rejects_irrational_values():
    with pytest.raises((ArithmeticError, ValueError)):
        ean_normalize(1, q_fourth_root(1), 1)
