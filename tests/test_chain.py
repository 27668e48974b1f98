"""The merged-parameter limit chain from the determinant formula to counts."""

from fractions import Fraction
from math import factorial

import pytest

from asmice import laurent, matrices, transfer
from asmice.brackets import BracketProduct
from asmice.chain import (RATIO_EXPONENTS, _merged_count, a_via_chain,
                          ean_normalize, half_spec_value, ik_eps_product,
                          ik_eps_ratfunc, q_fourth_root, tau_poly,
                          z_half_eps_brute, z_half_eps_product, z_prefactor)
from asmice.asm import enumerate_asms
from asmice.cyclotomic import Cyclotomic
from asmice.dets import EpsilonGrid, s_det_product
from asmice.formulas import a2_formula, a3_formula, a_formula
from asmice.ice import to_ice
from asmice.laurent import LaurentPoly, RatFunc, limit_at_one
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
    # tau_poly(g, p/r) is r * tau(g): int coefficients for every rational x
    s = LaurentPoly.var_power
    for x in (1, Fraction(2), Fraction(6, 2), Fraction(5, 2), Fraction(7, 3),
              Fraction(-1, 2)):
        r = Fraction(x).denominator
        for g in (0, Fraction(1, 2), 2):
            t = tau_poly(g, x)
            assert all(type(c) is int for c in t.terms.values())
            assert t == (s(g) + s(-g) - (x - 2)) * r
    assert tau_poly(1, Fraction(5, 2)).terms[(0,)] == -1


def test_determinant_evaluation_stays_over_z_for_integral_x():
    # the beta^2 power joins the denominator as an int, not a Fraction
    for x in (1, 2, 3):
        w = ik_eps_ratfunc(3, x)
        for p in (w.num, w.den):
            assert all(type(c) is int for c in p.terms.values())


def test_chain_at_non_integral_x_packs_and_matches_transfer(monkeypatch):
    # the tau matrix cleared by the denominator of x packs for n <= 6, and
    # x^((n^2-n)/2) lim W(n, x; s) is A(n; x) at a non-integral x too
    monkeypatch.setattr(matrices, "_det_bareiss", None)     # packed only
    for x in (Fraction(5, 2), Fraction(7, 3), Fraction(-1, 2)):
        for n in range(1, 7):
            w = ik_eps_ratfunc(n, x)
            for p in (w.num, w.den):
                assert all(type(c) is int for c in p.terms.values())
            assert (x ** ((n * n - n) // 2) * laurent.limit_at_one(w)
                    == transfer_count(n)(x))


def test_state_sum_equals_determinant_evaluation():
    for n in (1, 2, 3, 4, 5):
        for x in (1, 2, 3):
            q4 = q_fourth_root(x)
            pref = (Fraction(-1) ** n) * q4.inverse() ** n
            assert z_half_eps_brute(n, x) == ik_eps_ratfunc(n, x) * pref


def test_grid_state_sum_matches_enumeration():
    # the sum over every state of the site products, u = s^(g/2) per site;
    # the symmetric grid has the s-exponents g/2 in (1/3)Z
    grids = [EpsilonGrid.standard(n) for n in (1, 2, 3)]
    grids.append(EpsilonGrid.symmetric([Fraction(-2, 3), 0, Fraction(2, 3)]))
    for grid in grids:
        n = grid.n
        for x in (1, 2, 3):
            q4 = q_fourth_root(x)
            q4i = q4.inverse()
            beta = q4 * q4 - q4i * q4i
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
            assert z_half_eps_brute(n, x, grid) == want


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


def test_displayed_equality_multiplies_the_prefactor_packed(monkeypatch):
    # the q^(-n/4) prefactor times rationals packs as one scalar content;
    # on the schoolbook the cross-multiplications run to 211 x 58 and
    # 198 x 71 term pairs of Q(zeta_24) products at n = 6
    products = []
    schoolbook = laurent._mul_terms

    def recorded(a, b):
        if any(type(c) is Cyclotomic for c in (*a.values(), *b.values())):
            products.append(len(a) * len(b))
        return schoolbook(a, b)

    monkeypatch.setattr(laurent, "_mul_terms", recorded)
    n = 6
    pref = (Fraction(-1) ** n) * q_fourth_root(1).inverse() ** n
    assert ik_eps_ratfunc(n, 1) * pref == z_half_eps_product(n).expand_ratfunc()
    assert products and max(products) <= 1000


def test_counts_through_the_product_route():
    want = [1, 2, 7, 42]
    for n in (1, 2, 3, 4):
        assert a_via_chain(n, 1) == want[n - 1]
        assert a_via_chain(n, 2) == 2 ** (n * (n - 1) // 2)


def grid_limit(n, x):
    """A(n; x) as x^((n^2-n)/2) times the s -> 1 limit of the exact
    rational function on the epsilon grid, any rational x outside {0, 4}."""
    return (limit_at_one(ik_eps_ratfunc(n, x))
            * Fraction(x) ** ((n * n - n) // 2))


def test_counts_through_the_determinant_route():
    for n in (1, 2, 3):
        assert grid_limit(n, 1) == [1, 2, 7][n - 1]
        assert grid_limit(n, 3) == transfer_count(n)(3)


def test_counts_at_non_integral_x_are_exact_fractions():
    # x^((n^2-n)/2) lim W is A(n; x) at every rational x, not only at ints
    for count in (grid_limit, a_via_chain):
        for x in (Fraction(5, 2), Fraction(7, 3), Fraction(-1, 2)):
            for n in (1, 2, 3, 4):
                assert count(n, x) == transfer_count(n)(x), (n, x, count)
        assert count(3, Fraction(1, 2)) == Fraction(13, 2)
    assert type(a_via_chain(3, Fraction(6, 2))) is int


def test_merged_route_equals_the_closed_forms():
    # the merged limit is also right at x = 1 and 2, where a_via_chain
    # takes the factored form
    for n in range(1, 41):
        for x, formula in ((1, a_formula), (2, a2_formula), (3, a3_formula)):
            assert _merged_count(n, x) == formula(n), (n, x)
            got = a_via_chain(n, x)
            assert got == formula(n) and type(got) is int, (n, x)


def test_merged_route_equals_transfer_at_non_integral_x():
    xs = (Fraction(1, 2), Fraction(-1, 2), Fraction(7, 3), Fraction(5, 2),
          Fraction(9, 2), Fraction(-7, 5))
    for n in range(1, 13):
        poly = transfer_count(n)
        for x in xs:
            assert a_via_chain(n, x) == poly(x), (n, x)


def test_merged_route_equals_the_grid_limit():
    for n in range(1, 9):
        for x in (3, Fraction(7, 3)):
            assert a_via_chain(n, x) == grid_limit(n, x), (n, x)


def test_auto_takes_the_merged_route_off_the_factored_cases(monkeypatch):
    # the grid's rational function is not built at x = 3 or at a
    # non-integral x
    monkeypatch.setattr("asmice.chain.ik_eps_ratfunc", None)
    assert a_via_chain(6, 3) == a3_formula(6)
    assert a_via_chain(4, Fraction(5, 2)) == transfer_count(4)(Fraction(5, 2))


def test_merged_route_at_zero_and_four():
    # A(n; 0) = n! (permutation matrices), where the grid limit divides
    # by beta^2 = 0; x = 4 puts a pole at the merged point
    for n in range(1, 9):
        assert a_via_chain(n, 0) == factorial(n)
    with pytest.raises(ValueError, match="degenerates"):
        ik_eps_ratfunc(2, 0)
    for count in (a_via_chain, _merged_count):
        with pytest.raises(ValueError, match="x = 4"):
            count(3, 4)
        with pytest.raises(ValueError, match="n must be positive"):
            count(0, Fraction(7, 3))


def test_sizes_below_one_are_refused():
    for x in (1, 2, 3):
        with pytest.raises(ValueError, match="n must be positive"):
            a_via_chain(0, x)
    with pytest.raises(ValueError, match="n must be positive"):
        a_via_chain(-1, 2)
    with pytest.raises(ValueError, match="n must be positive"):
        ik_eps_ratfunc(0, 3)
    with pytest.raises(ValueError, match="n must be positive"):
        half_spec_value(0, 1)
    for n in (0, -1):
        for refused in (lambda: ik_eps_product(n, 1),
                        lambda: z_half_eps_product(n),
                        lambda: z_half_eps_brute(n, 1),
                        lambda: ean_normalize(n, q_fourth_root(1), 1)):
            with pytest.raises(ValueError, match="n must be positive"):
                refused()
    with pytest.raises(ValueError, match="n must be positive"):
        ik_eps_product(-2, 1)


@pytest.mark.parametrize("refused", [
    lambda grid: ik_eps_ratfunc(2, 3, grid),
    lambda grid: z_half_eps_brute(2, 1, grid)])
def test_grid_of_another_size_is_refused(refused):
    with pytest.raises(ValueError, match="grid size mismatch"):
        refused(EpsilonGrid.standard(3))


def test_route_validation():
    with pytest.raises(ValueError, match="factored"):
        ik_eps_product(2, 3)


def test_merged_point_normalization():
    for n in (1, 2, 3):
        for x in (1, 2, 3):
            value = half_spec_value(n, x)
            assert ean_normalize(n, value, x) == transfer_count(n)(x)


def test_normalize_rejects_irrational_values():
    with pytest.raises((ArithmeticError, ValueError)):
        ean_normalize(1, q_fourth_root(1), 1)


def test_normalize_rejects_non_integral_values():
    with pytest.raises(ArithmeticError, match="not an integer"):
        ean_normalize(1, z_prefactor(1, 1) / 2, 1)


def test_prefactor_is_the_inverted_fourth_root_power(monkeypatch):
    # the oracle inverts q^(1/4); z_prefactor takes a positive power
    for x in (1, 2, 3):
        for n in range(-30, 31):
            want = Fraction(-1) ** n * q_fourth_root(x).inverse() ** n
            assert z_prefactor(n, x) == want
            assert z_prefactor(n, x) * z_prefactor(-n, x) == 1
    inverted = []
    monkeypatch.setattr(Cyclotomic, "inverse", inverted.append)
    for x in (1, 2, 3):
        for n in range(-30, 31):
            z_prefactor(n, x)
    assert inverted == []


def test_chain_refuses_a_non_integral_count_at_integral_x(monkeypatch):
    # the merged limit is an integer at an integral x; a value that is not
    # one signals a broken invariant and raises, never truncates
    monkeypatch.setattr("asmice.chain._merged_count",
                        lambda n, x: Fraction(7, 2))
    with pytest.raises(ArithmeticError, match="not an integer"):
        a_via_chain(2, 3)
    assert a_via_chain(2, Fraction(1, 3)) == Fraction(7, 2)


def test_chain_refuses_a_grid_limit_with_a_pole(monkeypatch):
    # the factored product balances its difference factors at x = 1, 2;
    # an unbalanced one would vanish or blow up at s = 1
    monkeypatch.setattr("asmice.chain.ik_eps_product",
                        lambda n, x: BracketProduct(1, 0, {1: 1}))
    with pytest.raises(ArithmeticError, match="grid limit degenerates"):
        a_via_chain(2, 1)


@pytest.mark.parametrize("n", range(1, 17))
def test_merged_count_holds_every_coefficient_of_the_x_enumeration(n):
    # the coefficients of A(n; x) are nonnegative and sum to A(n) <=
    # prod_{0<i<n} C(n, i) < 2^(B-1) (transfer's docstring), so at
    # x = 2^B they are the base-2^B digits of A(n; x); B >= 3 keeps x off
    # the pole at 4
    width = max(transfer._slot_width(n) + 1, 3)
    value = _merged_count(n, 2 ** width)
    assert value.denominator == 1
    digits, rest = [], value.numerator
    while rest:
        rest, digit = divmod(rest, 1 << width)
        digits.append(digit)
    assert tuple(digits) == transfer_count(n).coeffs


# ---------- closed forms against their factor-by-factor products ----------

def d(a, e=1):
    return BracketProduct(1, 0, {a: e})


def chained_s_det(n, a, b):
    out = BracketProduct()
    for i in range(n):
        for j in range(i):
            out = out * d(b * (i - j), 2)
    for i in range(n):
        for j in range(n):
            out = out * d(b * (i + j + 1), -1)
    for k in range(n):
        out = out * d(a - b * k, n - k)
    for k in range(1, n):
        out = out * d(a + b * k, n - k)
    return out


def chained_ik_eps(n, x):
    a, b = RATIO_EXPONENTS[x]
    w = BracketProduct(1, -n * n)
    for m in range(1, 2 * n):
        cnt = n - abs(m - n)
        w = w * BracketProduct(1, 0, {b * m: cnt, a * m: -cnt})
    w = w * chained_s_det(n, a, b)
    w = w / (Fraction(x * x - 4 * x) ** ((n * n - n) // 2))
    for k in range(1, n):
        w = w * d(k, -2 * (n - k))
    return w


def chained_z_half_eps(n):
    coeff = (Fraction(-1) ** n) * q_fourth_root(1).inverse() ** n
    p = BracketProduct(coeff, -n * n)
    for i in range(n):
        for j in range(i):
            k = i - j
            p = p * BracketProduct(Fraction(1, 3), 0, {3 * k: 1, k: -1})
    for i in range(n):
        row = {}
        for j in range(1, 3 * i + 2):
            row[j] = row.get(j, 0) + 1
        for j in range(1, n + i + 1):
            row[j] = row.get(j, 0) - 1
        row[1] = row.get(1, 0) - sum(row.values())
        p = p * BracketProduct(1, 0, row)
    return p


def same_product(p, q):
    return (p.coeff, p.unit_expo, p.diffs) == (q.coeff, q.unit_expo, q.diffs)


@pytest.mark.parametrize("n", range(1, 7))
def test_closed_forms_equal_their_chained_products(n):
    for a, b in ((1, 3), (2, 4), (6, 3), (0, 3), (-2, 1), (Fraction(1, 2), 2)):
        assert same_product(s_det_product(n, a, b), chained_s_det(n, a, b))
    for x in (1, 2):
        assert same_product(ik_eps_product(n, x), chained_ik_eps(n, x))
    assert same_product(z_half_eps_product(n), chained_z_half_eps(n))
