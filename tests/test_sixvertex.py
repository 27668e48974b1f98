"""Weighted six-vertex state sums and their exchange/recursion properties."""

import random
from fractions import Fraction

import pytest

from asmice.asm import count_asms_brute, enumerate_asms
from asmice.brackets import bracket, bracket_ratio, qdiff
from asmice.ice import from_ice, search_dwbc_states, to_ice
from asmice.laurent import LaurentPoly, RatFunc, divide_exact
from asmice.sixvertex import (SpectralParams, Z_BRUTE_BOUND,
                              _scaled_weights, _scaled_weights_formal,
                              _z_formal, lemma_degree_check,
                              lemma_recursion_check, state_sweep,
                              vertex_weights, z_brute)


def lp(terms, scale=1):
    return LaurentPoly(1, scale, {(k,): c for k, c in terms.items()})


def enumerated_states(n):
    """Every domain-wall state, through the matrix bijection."""
    return [to_ice(a) for a in enumerate_asms(n)]


def enumerated_sum(site, states, one=1):
    """The state sum as a plain sum over states of per-site products;
    site[i][j] holds the six weights, indexed by state - 1."""
    total = 0
    for state in states:
        term = one
        for i, row in enumerate(site):
            for j, w in enumerate(row):
                term = term * w[state[i, j] - 1]
        total = total + term
    return total


def random_params(rng, n):
    xs = [Fraction(rng.randrange(2, 40), rng.choice([1, 2])) for _ in range(n)]
    ys = [Fraction(rng.randrange(-20, 1), rng.choice([1, 2, 3]))
          for _ in range(n)]
    return SpectralParams(xs, ys)


# ---------- per-site weights ----------

def test_weights_at_label_one():
    w = vertex_weights(Fraction(1))
    assert w[1] == RatFunc(lp({-1: -1}))          # -q^(-1/2)
    assert w[2] == RatFunc(lp({1: -1}))           # -q^(1/2)
    assert w[3].is_zero and w[4].is_zero
    assert w[5] == RatFunc(LaurentPoly.one()) and w[6] == w[5]


def test_weights_at_integer_label():
    w = vertex_weights(5)
    assert w[5] == RatFunc(bracket(5))
    assert w[3] == RatFunc(bracket(4))
    assert w[3] == w[4] and w[5] == w[6]


def test_weights_at_half_integer_label():
    v = Fraction(3, 2)
    w = vertex_weights(v)
    assert w[5] == bracket_ratio(v, 2)
    assert w[1] == RatFunc(lp({-3: -1}, scale=2))


# ---------- the domain-wall sweep ----------

def test_sweep_matches_enumeration_with_distinct_site_weights():
    # six distinct weights per site, so a wrong state label anywhere in
    # the sweep (3 for 4, a wrong zero-entry state) changes the sum
    rng = random.Random(11)
    for n in range(1, 6):
        site = [[tuple(rng.sample(range(2, 1000), 6)) for _ in range(n)]
                for _ in range(n)]
        frontier = state_sweep({0: 1}, site)
        assert list(frontier) == [(1 << n) - 1]
        total = frontier[(1 << n) - 1]
        assert total == enumerated_sum(site, enumerated_states(n))
        assert total == enumerated_sum(site, search_dwbc_states(n))


def test_sweep_by_rows_composes():
    # the frontier after the top rows is the start of the rest
    rng = random.Random(12)
    n = 4
    site = [[tuple(rng.sample(range(2, 1000), 6)) for _ in range(n)]
            for _ in range(n)]
    for k in range(n + 1):
        top = state_sweep({0: 1}, site[:k])
        assert all(bin(mask).count("1") == k for mask in top)
        assert state_sweep(top, site[k:]) == state_sweep({0: 1}, site)


def test_scaled_weights_are_the_weights_times_b():
    for v in (Fraction(1), Fraction(5), Fraction(3, 2), Fraction(-7, 3)):
        scale = v.denominator
        b = RatFunc(qdiff(1, scale))
        plain = vertex_weights(v, scale)
        for s, w in enumerate(_scaled_weights(v, scale), start=1):
            assert RatFunc(w) == plain[s] * b


def test_state_sum_matches_enumeration():
    rng = random.Random(5)
    for n in range(1, 5):
        p = random_params(rng, n)
        site = [[_scaled_weights(p.label(i, j), p.scale) for j in range(n)]
                for i in range(n)]
        total = enumerated_sum(site, enumerated_states(n),
                               LaurentPoly.one(1, p.scale))
        assert z_brute(p) == RatFunc(total, qdiff(1, p.scale) ** (n * n))


def test_formal_row_sum_matches_enumeration():
    rng = random.Random(6)
    for n in range(1, 4):
        p = random_params(rng, n)
        site = [[_scaled_weights_formal(y, p.scale) for y in p.ys]]
        site += [[_scaled_weights(p.label(i, j), p.scale, 2)
                  for j in range(n)] for i in range(1, n)]
        total = enumerated_sum(site, enumerated_states(n),
                               LaurentPoly.one(2, p.scale))
        denom = qdiff(1, p.scale, 2) ** (n * n)
        assert _z_formal(p) == RatFunc(total, denom)


# ---------- the state sum ----------

def test_single_site_value():
    p = SpectralParams([Fraction(7, 2)], [Fraction(1, 2)])
    assert z_brute(p) == RatFunc(lp({-3: -1}))    # -q^(-3/2)


def test_brute_bound_enforced():
    n = Z_BRUTE_BOUND + 1
    with pytest.raises(ValueError):
        z_brute(SpectralParams(range(1, n + 1), [0] * n))
    with pytest.raises(ValueError):
        lemma_degree_check(n, SpectralParams(range(1, n + 1), [0] * n))


def test_row_and_column_exchange_symmetry():
    rng = random.Random(7)
    for n in (2, 3):
        xs = [Fraction(rng.randrange(2, 40), rng.choice([1, 2]))
              for _ in range(n)]
        ys = [Fraction(rng.randrange(-20, 1), rng.choice([1, 2]))
              for _ in range(n)]
        p = SpectralParams(xs, ys)
        z = z_brute(p)
        assert z == z_brute(p.swap_x(0, n - 1))
        assert z == z_brute(p.swap_y(0, n - 1))


def test_deletion_recursion_at_corner():
    assert lemma_recursion_check(1, SpectralParams([Fraction(3)],
                                                   [Fraction(2)]), 0, 0)
    ys = [Fraction(0), Fraction(5, 2)]
    p = SpectralParams([ys[0] + 1, Fraction(9, 2)], ys)
    assert lemma_recursion_check(2, p, 0, 0)


def test_deletion_recursion_off_corner():
    ys = [Fraction(0), Fraction(2), Fraction(1, 2)]
    xs = [Fraction(4), ys[2] + 1, Fraction(13, 2)]
    assert lemma_recursion_check(3, SpectralParams(xs, ys), 1, 2)


def test_degree_bound_in_first_row_parameter():
    for n in (1, 2, 3):
        xs = [Fraction(0)] + [Fraction(7 * k + 1, 2) for k in range(1, n)]
        ys = [Fraction(k, 2) for k in range(n)]
        assert lemma_degree_check(n, SpectralParams(xs, ys))


def test_contributing_states_at_unit_corner_label():
    # with x_0 - y_0 = 1 and every other label generic, a state carries
    # nonzero weight exactly when its matrix has a 1 in the top-left corner
    n = 3
    p = SpectralParams([1, 7, 9], [0, 3, 5])
    assert p.label(0, 0) == 1
    weights = {(i, j): vertex_weights(p.label(i, j))
               for i in range(n) for j in range(n)}
    seen_zero = seen_nonzero = False
    for state in enumerated_states(n):
        prod = RatFunc(LaurentPoly.one())
        for i in range(n):
            for j in range(n):
                prod = prod * weights[i, j][state[i, j]]
        corner_one = from_ice(state).rows[0][0] == 1
        assert prod.is_zero == (not corner_one)
        seen_zero |= prod.is_zero
        seen_nonzero |= not prod.is_zero
    assert seen_zero and seen_nonzero


def test_uniform_label_two_collapses_to_plain_count():
    # with every label equal to 2, each state weighs (-1)^n q^(-n) times
    # a power of [2]; at [2] = -1 (unit cube root of q) the sum counts all
    # states, so t^n (-1)^n Z - count is divisible by t + t^(1/2) + 1
    phi = lp({2: 1, 1: 1, 0: 1})
    for n in (2, 3):
        z = z_brute(SpectralParams([2] * n, [0] * n))
        val = z * RatFunc(LaurentPoly.unit_power(2 * n)) * (Fraction(-1) ** n)
        diff = val - count_asms_brute(n)
        divide_exact(diff.poly(), phi)        # raises if the identity failed


def test_parameter_validation():
    with pytest.raises(ValueError):
        SpectralParams([1, 2], [0])
    with pytest.raises(ValueError, match="at least one"):
        SpectralParams([], [])
    p = SpectralParams([3, 5], [0, 1])
    assert p.drop(0, 1).xs == (Fraction(5),)
    assert p.drop(0, 1).ys == (Fraction(0),)
