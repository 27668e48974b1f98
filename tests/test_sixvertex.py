"""Weighted six-vertex state sums and their exchange/recursion properties."""

import random
from fractions import Fraction
from math import lcm

import pytest

from asmice.asm import count_asms_brute, enumerate_asms
from asmice.brackets import bracket, bracket_ratio, qdiff
from asmice.formulas import a_formula
from asmice.ice import from_ice, to_ice
from asmice import sixvertex
from asmice.laurent import LaurentPoly, RatFunc, divide_exact
from asmice.sixvertex import (SpectralParams, Z_BRUTE_BOUND, _label_weights,
                              _packed_sweep, _state_sum,
                              _weight_terms, lemma_degree_check,
                              lemma_recursion_check, state_sweep,
                              vertex_weights, z_brute)
from dwbc_search import search_dwbc_states


def lp(terms, scale=1):
    return LaurentPoly(scale, terms)


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


def common_scale(p):
    """A grid that holds every label and parameter of p: the lcm of their
    denominators."""
    return lcm(*(v.denominator for v in p.xs + p.ys))


class TW:
    """A polynomial in t = q^(1/(2*scale)) and w as its terms {(t, w): c}
    in grid units, multiplied term by term: the test's own ring for the
    state sum with row 0 formal."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        self.terms = {k: c for k, c in terms.items() if c}

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return TW(out)

    def __radd__(self, other):          # the 0 that enumerated_sum starts at
        return self

    def __neg__(self):
        return TW({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        out = {}
        for (a, b), c in self.terms.items():
            for (e, f), d in other.terms.items():
                out[a + e, b + f] = out.get((a + e, b + f), 0) + c * d
        return TW(out)

    def __eq__(self, other):
        return self.terms == other.terms


def written_weights(v, scale, mono=None):
    """The six weights at label v times b = q^(1/2)-q^(-1/2), written out
    on the 1/(2*scale) grid: -b q^(-v/2), -b q^(v/2), then d(v-1) twice
    and d(v) twice, d(a) = q^(a/2) - q^(-a/2); mono(a) is q^(a/2), a
    LaurentPoly with the key a*scale when None."""
    mono = mono or (lambda a: LaurentPoly(scale, {a * scale: 1}))

    def d(a):
        return mono(a) - mono(-a)
    b = d(1)
    return (-(b * mono(-v)), -(b * mono(v)), d(v - 1), d(v - 1), d(v), d(v))


def formal_row_weights(y, scale):
    """written_weights at the label x0 - y with w = q^(x0/2) carried as the
    second variable: t^(a/2) w^e has the key (a*scale, 2*e*scale)."""
    def mono(a, e):
        return TW({(a * scale, 2 * e * scale): 1})
    b = mono(1, 0) - mono(-1, 0)
    d_minus_one = mono(-y - 1, 1) - mono(y + 1, -1)
    d = mono(-y, 1) - mono(y, -1)
    return (-(b * mono(y, -1)), -(b * mono(-y, 1)),
            d_minus_one, d_minus_one, d, d)


def sweep_terms(ts, blocks):
    """A packed sweep's blocks {u: cs} as {u: {t: c}}."""
    return {u: {t: c for t, c in zip(ts, cs) if c} for u, cs in blocks.items()}


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
    assert w[5] == bracket_ratio(v)
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


def test_packed_sweep_matches_the_laurent_sweep():
    # quarter-grid labels, and the labels 0 (side weights vanish) and
    # 1 (turn weights vanish), at the largest n the verify suite runs
    n = 5
    p = SpectralParams([Fraction(1, 4), 1, Fraction(7, 2), 5, Fraction(9, 4)],
                       [0, Fraction(-3, 4), 1, Fraction(1, 2), 4])
    labels = {p.label(i, j) for i in range(n) for j in range(n)}
    assert {0, 1} <= labels and Fraction(1, 4) in labels
    site = [[_label_weights(p.label(i, j)) for j in range(n)]
            for i in range(n)]
    one = {0: LaurentPoly.one()}
    total = state_sweep(one, site)[(1 << n) - 1]
    # the same weights for the packer: their terms on the grid 1/8, no u
    grid = 4
    packed = sweep_terms(*_packed_sweep(n, [
        [{(k * (grid // w.scale), 0): c for k, c in w.terms.items()}
         for w in weights] for row in site for weights in row]))
    assert LaurentPoly(grid, packed[0]) == total
    assert z_brute(p) == RatFunc(total, qdiff(1) ** (n * n))


def test_rows_read_upward_sum_the_same_states():
    # six distinct weights per site: the rows in reverse order, each
    # site's weights taken through _UPWARD, sum what the rows sum top down
    rng = random.Random(13)
    for n in range(1, 6):
        site = [[tuple(rng.sample(range(2, 1000), 6)) for _ in range(n)]
                for _ in range(n)]
        upward = [[tuple(w[s] for s in sixvertex._UPWARD) for w in row]
                  for row in reversed(site)]
        assert state_sweep({0: 1}, upward) == state_sweep({0: 1}, site)


def integral_params(rng, n):
    return SpectralParams(rng.sample(range(2, 40), n),
                          rng.sample(range(-20, 1), n))


def top_down_sum(p, formal):
    """The state sum _state_sum takes, as {(t, u): c}, by state_sweep top
    down over p's rows in their own order and their weights' own states:
    the table's terms on the grid of p's labels, row 0's m times
    u^(2*grid) when formal."""
    n, grid = p.n, p.grid
    rows = [[tuple(map(TW, _weight_terms(
        (grid, 0), (int(p.label(i, j) * grid), 2 * grid * (formal and not i)))))
        for j in range(n)] for i in range(n)]
    return state_sweep({0: TW({(0, 0): 1})}, rows)[(1 << n) - 1].terms


def bottom_up_sum(p, formal):
    _, ts, blocks = _state_sum(p, formal)
    return {(t, u): c for u, cs in blocks.items()
            for t, c in zip(ts, cs) if c}


def test_state_sum_reads_the_rows_bottom_up(monkeypatch):
    # every u-block of the bottom-up sum, on integral and fractional
    # labels, with row 0 plain and formal; weights 3 and 4 are equal, as
    # are 5 and 6, so a wrong swap shows where it mixes the two pairs
    rng = random.Random(14)
    cases = [(draw(rng, n), formal) for n in range(1, 6)
             for draw in (integral_params, random_params)
             for formal in (False, True)]

    want = [top_down_sum(p, formal) for p, formal in cases]

    def wrong():
        return [(p.n, formal) for (p, formal), terms in zip(cases, want)
                if bottom_up_sum(p, formal) != terms]
    assert wrong() == []
    monkeypatch.setattr(sixvertex, "_UPWARD", (0, 1, 4, 3, 2, 5))   # 3 <-> 5
    assert {n for n, _ in wrong()} == {2, 3, 4, 5}


def test_grid_is_computed_only_where_it_is_read(monkeypatch):
    # constructing parameters computes no grid; z_brute reads it once,
    # in _state_sum, and hands it on to _z_quotient
    calls = []
    monkeypatch.setattr(sixvertex, "lcm",
                        lambda *ds: calls.append(ds) or lcm(*ds))
    p = SpectralParams([Fraction(5, 2), 3, 7], [0, Fraction(-1, 3), -4])
    p.drop(0, 0).swap_x(0, 1).swap_y(0, 1)
    assert not calls
    z = z_brute(p)
    assert len(calls) == 1 and p.grid == 6
    assert z == z_brute(SpectralParams(p.xs, p.ys))


def test_packed_sweep_bound_is_reached_by_all_ones_weights(monkeypatch):
    # every weight the constant 1: each of the A(n) states weighs 1, so
    # the L1 sweep's bound is A(n) and so is the sum's one coefficient
    bounds = []
    layout = sixvertex._Layout
    monkeypatch.setattr(sixvertex, "_Layout", lambda grid, exps, bound, *a:
                        bounds.append(bound) or layout(grid, exps, bound, *a))
    for n in range(1, Z_BRUTE_BOUND + 1):
        bounds.clear()
        sites = [({(0, 0): 1},) * 6] * (n * n)
        assert sweep_terms(*_packed_sweep(n, sites)) == {
            0: {0: a_formula(n)}}, n
        assert bounds == [a_formula(n)], n


def test_scaled_weights_are_the_weights_times_b():
    b = RatFunc(qdiff(1))
    for v in (Fraction(1), Fraction(5), Fraction(3, 2), Fraction(-7, 3)):
        plain = vertex_weights(v)
        for s, w in enumerate(_label_weights(v), start=1):
            assert RatFunc(w) == plain[s] * b
        for s, w in enumerate(written_weights(v, v.denominator), start=1):
            assert RatFunc(w) == plain[s] * b


def test_state_sum_matches_enumeration():
    rng = random.Random(5)
    for n in range(1, 5):
        p = random_params(rng, n)
        scale = common_scale(p)
        site = [[written_weights(p.label(i, j), scale) for j in range(n)]
                for i in range(n)]
        total = enumerated_sum(site, enumerated_states(n),
                               LaurentPoly.one(scale))
        assert z_brute(p) == RatFunc(total, qdiff(1) ** (n * n))


def formal_row_sum(p):
    """b^(n^2) Z with row 0 formal, summed over the enumerated states on
    the common grid of p."""
    n, scale = p.n, common_scale(p)
    site = [[formal_row_weights(y, scale) for y in p.ys]]
    site += [[written_weights(p.label(i, j), scale,
                              lambda a: TW({(a * scale, 0): 1}))
              for j in range(n)] for i in range(1, n)]
    return enumerated_sum(site, enumerated_states(n), TW({(0, 0): 1}))


def formal_state_sum(p, scale=None):
    """The packed state sum with row 0 formal that lemma_degree_check
    reads, swept with x0 = 0, as a TW on the grid 1/(2*scale) (the sum's
    own grid when None), and that grid."""
    grid, *sweep = _state_sum(SpectralParams((0,) + p.xs[1:], p.ys), True)
    total = sweep_terms(*sweep)
    m = (scale or grid) // grid
    return TW({(t * m, u * m): c for u, ts in total.items()
               for t, c in ts.items()}), grid


def test_formal_row_sum_matches_enumeration():
    # the formal state sum is the scaled sum b^(n^2) Z itself, undivided;
    # n = 4 is the largest the verify suite runs
    rng = random.Random(6)
    for n in range(1, 5):
        p = random_params(rng, n)
        assert formal_state_sum(p, common_scale(p))[0] == formal_row_sum(p)


def test_formal_row_sum_when_top_row_terms_cancel():
    # with equal column parameters, terms of the top row's weights cancel at
    # its two inner masks, in several w-exponents, and at its outer masks
    # none do; the packed sweep carries each w-exponent as a block
    p = SpectralParams([0, 3, Fraction(7, 2), 2], [0, 0, 0, 0])
    top = state_sweep({0: TW({(0, 0): 1})},
                      [[formal_row_weights(y, 1) for y in p.ys]])
    lost = {mask: 2 ** 4 - sum(map(abs, w.terms.values()))
            for mask, w in top.items()}
    assert lost == {1: 0, 2: 4, 4: 4, 8: 0}
    assert all(len({f for _, f in w.terms}) == 4 for w in top.values())
    assert formal_state_sum(p, common_scale(p))[0] == formal_row_sum(p)
    assert lemma_degree_check(4, p)


@pytest.mark.parametrize("bad_key, scale", [(6, 1), (4, 1), (2, 2)])
def test_degree_check_rejects_a_bad_w_exponent(monkeypatch, bad_key, scale):
    # n = 3 allows the w-exponents -3, -1 and 1, each 2*scale grid units;
    # the bad keys are the w-exponents n, the even 2 and the half 1/2; a
    # w-exponent whose q-part is empty is no term
    p = SpectralParams([1, 2, 3], [0, 0, 0])
    good = {-6 * scale: {0: 1}, -2 * scale: {1: 2}, 2 * scale: {-1: -1}}
    ts = range(-1, 4)
    for total, ok in ((good, True), ({**good, bad_key: {}}, True),
                      ({**good, bad_key: {3: 5}}, False)):
        blocks = {u: [terms.get(t, 0) for t in ts]
                  for u, terms in total.items()}
        monkeypatch.setattr(sixvertex, "_state_sum",
                            lambda params, formal, blocks=blocks:
                            (scale, ts, blocks))
        assert lemma_degree_check(3, p) is ok


def test_formal_row_sum_when_x0_has_the_finest_grid():
    # the formal sum ignores x0, so its grid can be coarser than the common
    # one;
    # in the first case the other rows sit on a finer grid than some top-row
    # weights, in the second on a coarser one than some
    for xs, ys in (([Fraction(1, 4), 3, 5], [0, Fraction(1, 2), 1]),
                   ([Fraction(1, 4), Fraction(11, 2), Fraction(17, 2)],
                    [Fraction(1, 2), Fraction(-3, 2), Fraction(5, 2)])):
        p = SpectralParams(xs, ys)
        grid = formal_state_sum(p)[1]
        assert grid < common_scale(p)
        z = formal_state_sum(p, common_scale(p))[0]
        assert z.terms and z == formal_row_sum(p)
        assert lemma_degree_check(3, p)


def test_formal_row_at_a_value_is_the_state_sum():
    # setting w = q^(x0/2) in the formal sum gives b^(n^2) Z at that x0
    rng = random.Random(8)
    for n in (1, 2, 3):
        p = random_params(rng, n)
        scale = common_scale(p)
        at = {}
        for (k, kw), c in formal_state_sum(p, scale)[0].terms.items():
            key = k + kw * p.xs[0] / 2
            at[key] = at.get(key, 0) + c
        scaled = RatFunc(LaurentPoly(scale, at), qdiff(1) ** (n * n))
        assert scaled == z_brute(p)


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


@pytest.mark.parametrize("refused, cause", [
    (lambda p: lemma_recursion_check(3, p, 0, 0),
     "n does not match the parameter count"),
    (lambda p: lemma_recursion_check(2, p, 0, 0),
     r"precondition x_0 = y_0 \+ 1 violated"),
    (lambda p: lemma_degree_check(1, p),
     "n does not match the parameter count"),
])
def test_lemma_checks_refuse_parameters_they_do_not_fit(refused, cause):
    with pytest.raises(ValueError, match=cause):
        refused(SpectralParams([3, 5], [0, 1]))


def test_parameter_validation():
    with pytest.raises(ValueError):
        SpectralParams([1, 2], [0])
    with pytest.raises(ValueError, match="at least one"):
        SpectralParams([], [])
    p = SpectralParams([3, 5], [0, 1])
    assert p.drop(0, 1).xs == (Fraction(5),)
    assert p.drop(0, 1).ys == (Fraction(0),)
