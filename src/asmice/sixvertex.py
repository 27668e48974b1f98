"""Spectral-parameter six-vertex model with domain-wall boundaries.

A site in row i, column j carries the label v = x_i - y_j, and its six
possible states are weighted

    state:   1           2          3      4      5    6
    weight:  -q^(-v/2)   -q^(v/2)   [v-1]  [v-1]  [v]  [v]

in a formal variable q, with [a] = (q^(a/2)-q^(-a/2))/(q^(1/2)-q^(-1/2)).
The state sum over all domain-wall configurations is assembled exactly: each
weight is scaled by b = q^(1/2)-q^(-1/2) so that every site contributes a
genuine Laurent polynomial, the states are summed row by row by a sweep
over column masks (the transfer sweep's rules, carrying weights instead of
counts), and the sum is divided back by b^(n^2).  The division is
attempted only where the weights make Z a Laurent polynomial: every label
integral (SpectralParams.grid is 1), or n = 1, where the one state's
weight is a monomial.  There, and only there, the quotient is returned
in reduced (denominator-one) form; elsewhere the fraction is returned as
it is, the same RatFunc, since == cross-multiplies (_z_quotient, which
izergin.ik_z shares).  The tests check the sweep against the sum over
every enumerated state.

The scaled weights are written once, as the table _WEIGHTS of terms
c*h^a*m^b, h = q^(1/2), m = q^(v/2), two with c = +-1 per weight:

    state:   1, -b/m         2, -b*m         3, 4            5, 6
    terms:   -h/m + 1/(hm)   -hm + m/h       m/h - h/m       m - 1/m

_weight_terms reads it for h and m given as exponent pairs.
_label_weights (for vertex_weights, which divides by b, and ybe) builds
LaurentPolys from it; the packed sweep takes int exponents, h = t^grid
and m = t^(v*grid) on t = q^(1/(2*grid)) for z_brute, the same with
m = t^(v*grid) u^(2*grid) on row 0 for the degree check, whose
w = q^(x_0/2) rides as u, and h = u^2, m = u s^(g/2), u = q^(1/4), for
chain.z_half_eps_brute.  state_sweep is ring-generic: it only multiplies
a frontier entry by a weight and adds entries.

Packed site weights.  _packed_sweep lays each site's weights, given as
{(t, u): c}, on one laurent._Layout, and sweeps from {0: 1}.  Each state
takes one weight per site, so taking each site's least t- and u-exponent
out of all its weights changes every state's product by one monomial.
Every product then has t-exponents in [0, T] and u-exponents in [0, U]
(T, U the sums of the spans), on lattices of steps g_t and g_u, and slot
i + (T/g_t + 1)*j holds t^(g_t*i) u^(g_u*j): the u-exponent is a block
index, and no block spills into the next.  A frontier entry is one int
that a weight multiplies by a shift and an add per term (laurent._Shifts,
as the packed determinants do).  The degree check's w rides as u, so
one sweep carries every w-exponent as a block.  _packed_sweep hands the
sum back as a range ts of t-exponents and one coefficient list per
u-block, cs[i] the coefficient of t^ts[i], so that each caller builds
only what it reads: z_brute one terms dict, chain.z_half_eps_brute
every block's, and the degree check none, only whether a block is
nonzero.

Bottom-up rows.  _state_sum sums the rows bottom to top, so that the
formal row 0 comes last and the frontier ints stay one u-block wide for
n - 1 rows.  Read upward, a mask bit is the sum c of the entries below
in its column, and the sum above a zero entry is 1 - c; the +-1 entries
keep their rules (+1 needs (c, r) = (0, 0), -1 needs (1, 1)).  So
state_sweep runs unchanged on the reversed rows once each site's weights
are relabelled by _UPWARD: ZERO_STATE[(c, r)] takes the weight of
ZERO_STATE[(1 - c, r)], which swaps states 3 <-> 6 and 4 <-> 5.  This is
the reflection that the transfer sweep's meet in the middle uses (its
bottom rows turned over).

Slot width.  Packing is a ring map: t and u go to powers of 2, so every
sum and product of packed ints is exactly the packed sum and product,
and no value inside the sweep needs to fit its slots.  Only the
coefficients of the final sum are read back, and each is at most the
same state sum taken over L1 norms: state_sweep run on plain ints,
with each weight's L1 in its place, since L1(fg) <= L1(f) L1(g) and
L1(f + g) <= L1(f) + L1(g).  That sum is the layout's bound.  With
sites whose six weights are all 1, every L1 is 1 and the bound is the
number of states, A(n), which is also the sum's one coefficient.

The module also exposes the exact functional checks that pin the state sum
down: the deletion recursion at x_i = y_j + 1 and the degree bound in
q^(x_0).  Both run on the state sum itself, independent of the
determinant, so they are meaningful oracles for the determinant evaluation
elsewhere in the package.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from .brackets import BracketProduct, qdiff
from .ice import ZERO_STATE
from .laurent import (LaurentPoly, RatFunc, _l1, _Layout, _Shifts,
                      diff_product, reduced)
from .laurent import divide_exact  # noqa: F401  perfbench/selftest.py

Z_BRUTE_BOUND = 6

#: the scaled weights by state - 1, each as the terms (a, b, c) of c*h^a*m^b
_WEIGHTS = (((1, -1, -1), (-1, -1, 1)), ((1, 1, -1), (-1, 1, 1)),
            ((-1, 1, 1), (1, -1, -1)), ((-1, 1, 1), (1, -1, -1)),
            ((0, 1, 1), (0, -1, -1)), ((0, 1, 1), (0, -1, -1)))


class SpectralParams:
    """Row parameters x_i and column parameters y_j, all rational."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs, ys):
        self.xs = tuple(Fraction(x) for x in xs)
        self.ys = tuple(Fraction(y) for y in ys)
        if len(self.xs) != len(self.ys) or not self.xs:
            raise ValueError(
                "need equally many row and column parameters, at least one")

    @property
    def n(self):
        return len(self.xs)

    @property
    def grid(self):
        """The least grid of the labels x_i - y_j, the lcm of their
        denominators, computed on each read."""
        return lcm(*[(x - y).denominator for x in self.xs for y in self.ys])

    def label(self, i, j):
        return self.xs[i] - self.ys[j]

    def drop(self, i, j):
        """Parameters with row i and column j removed."""
        return SpectralParams(
            [x for k, x in enumerate(self.xs) if k != i],
            [y for k, y in enumerate(self.ys) if k != j])

    def swap_x(self, i, k):
        xs = list(self.xs)
        xs[i], xs[k] = xs[k], xs[i]
        return SpectralParams(xs, self.ys)

    def swap_y(self, i, k):
        ys = list(self.ys)
        ys[i], ys[k] = ys[k], ys[i]
        return SpectralParams(self.xs, ys)


def vertex_weights(v):
    """The six weights at label v as a map state -> RatFunc in q: the
    scaled weights divided by b = q^(1/2) - q^(-1/2)."""
    b = qdiff(1)
    return {state: reduced(w, b)
            for state, w in enumerate(_label_weights(v), start=1)}


def _weight_terms(h, m):
    """The table's six weights as {exponents: coefficient} dicts, for h
    and m given as exponent pairs.  The two terms of a weight have
    opposite coefficients, so a weight whose terms meet is {}."""
    (h0, h1), (m0, m1) = h, m
    return [w if len(w) == 2 else {} for w in (
        {(a * h0 + b * m0, a * h1 + b * m1): c for a, b, c in terms}
        for terms in _WEIGHTS)]


def _label_weights(v):
    """The six scaled weights at the label v, LaurentPolys on its grid."""
    v = Fraction(v)
    weights = _weight_terms((v.denominator, 0), (v.numerator, 0))
    return tuple(LaurentPoly._clean(v.denominator,
                                    {k[0]: c for k, c in w.items()})
                 for w in weights)


def state_sweep(frontier, rows):
    """Carry a domain-wall frontier through rows of site weights.

    A frontier maps a column mask, bit j set when the entries above in
    column j sum to 1, to the summed weight of the partial states that
    reach it; rows[i][j] is the site's six weights, indexed by state - 1.
    Along a row a key also holds the row prefix r, with the rules of the
    transfer sweep: at a column with bit ct, entry +1 (state 1) needs
    (ct, r) = (0, 0), entry -1 (state 2) needs (1, 1), and entry 0 takes
    state ZERO_STATE[(ct, r)].  A row ends with r = 1, so only those keys
    are returned.  Start from {0: 1} for the top row; after all n rows the
    state sum sits at the all-ones mask.
    """
    for row in rows:
        r0, r1 = frontier, {}
        for j, w in enumerate(row):
            bit = 1 << j
            n0, n1 = {}, {}
            for r, cur, stay, turn in ((0, r0, n0, n1), (1, r1, n1, n0)):
                for mask, v in cur.items():
                    ct = (mask >> j) & 1
                    u = v * w[ZERO_STATE[ct, r] - 1]
                    stay[mask] = stay[mask] + u if mask in stay else u
                    if ct == r:         # +1 (state 1) or -1 (state 2)
                        key = mask ^ bit
                        u = v * w[r]
                        turn[key] = turn[key] + u if key in turn else u
            r0, r1 = n0, n1
        frontier = r1
    return frontier


def _packed_sweep(n, sites):
    """The all-ones entry of state_sweep({0: 1}, rows) on packed ints, as
    (ts, {u: cs}): sites lists the rows' sites in order, each as its six
    weights {(t, u): int}, and cs[i] is the coefficient of t^ts[i] u^u."""
    # per site the least (t, u) exponents, and per variable the lattice
    # step and top
    groups = [[k for w in site for k in w] for site in sites]
    lows = [tuple(map(min, zip(*group))) or (0, 0) for group in groups]
    highs = [tuple(map(max, zip(*group))) or (0, 0) for group in groups]
    steps = [gcd(*[k[i] - lo[i] for group, lo in zip(groups, lows)
                   for k in group]) or 1 for i in (0, 1)]
    top, top_u = [sum(hi[i] - lo[i] for hi, lo in zip(highs, lows))
                  // steps[i] for i in (0, 1)]
    block = top + 1         # the t-slots of one u-exponent
    l1_rows = [[_l1(w) for w in site] for site in sites]
    bound = state_sweep({0: 1}, [l1_rows[i:i + n]
                                 for i in range(0, len(sites), n)])
    # the slot indices are dense, so the layout's lattice step is 1; only
    # its slots are read, never its grid
    layout = _Layout(1, (), bound[(1 << n) - 1], 0, top + block * top_u)

    def shift(k, lo):       # the bit offset of t^k[0] u^k[1] over lo
        return layout.width * ((k[0] - lo[0]) // steps[0]
                               + block * ((k[1] - lo[1]) // steps[1]))
    flat = [tuple(_Shifts([[(shift(k, lo), c) for k, c in w.items()]])
                  for w in site) for site, lo in zip(sites, lows)]
    rows = [flat[i:i + n] for i in range(0, len(flat), n)]
    cs = layout.coefficients(state_sweep({0: 1}, rows)[(1 << n) - 1])
    low = [sum(lo[i] for lo in lows) for i in (0, 1)]
    return (range(low[0], low[0] + steps[0] * block, steps[0]),
            {low[1] + steps[1] * j: cs[j * block:(j + 1) * block]
             for j in range(top_u + 1)})


#: the weight index of each state - 1 in a row read upward: 3 <-> 6 and
#: 4 <-> 5 (see "Bottom-up rows" in the module docstring)
_UPWARD = (0, 1, 5, 4, 3, 2)


def _state_sum(p, formal):
    """The packed sweep of p's sites on the least grid of its labels, as
    (grid, ts, {u: cs}), its rows summed bottom to top; when formal, row
    0's m also carries u^(2*grid), so that u stands for w = q^(x_0/2)
    (see lemma_degree_check)."""
    if p.n > Z_BRUTE_BOUND:
        raise ValueError(
            f"n={p.n} exceeds the state-sum bound {Z_BRUTE_BOUND}")
    grid, n = p.grid, p.n
    labels = [p.label(i, j) for i in reversed(range(n)) for j in range(n)]
    # row 0, formal or not, is the last n sites
    sites = [_weight_terms((grid, 0), (v.numerator * grid // v.denominator,
                                       2 * grid * (formal and k >= n * n - n)))
             for k, v in enumerate(labels)]
    return (grid, *_packed_sweep(n, [[w[s] for s in _UPWARD] for w in sites]))


def _z_quotient(grid, n, num, den):
    """num/den as a RatFunc for Z on n rows whose labels have the least
    grid `grid`, divided out only where the weights make Z a Laurent
    polynomial: every label integral (grid 1), or n = 1, one site whose
    weight is a monomial.  Elsewhere the fraction stays unreduced; it is
    the same RatFunc, and == cross-multiplies.  A monomial den needs no
    division: RatFunc folds it into num."""
    divide = (grid == 1 or n == 1) and not den.is_monomial()
    return reduced(num, den) if divide else RatFunc(num, den)


def z_brute(p):
    """The state sum Z(n; X, Y) as a RatFunc in q, summed by the domain-wall
    sweep over the scaled site weights."""
    grid, ts, blocks = _state_sum(p, False)
    num = LaurentPoly._clean(grid, {t: c for t, c in zip(ts, blocks[0]) if c})
    return _z_quotient(grid, p.n, num, diff_product({1: p.n * p.n}))


def lemma_recursion_check(n, p, i, j):
    """Exact deletion recursion at x_i = y_j + 1.

    Verifies Z(n;X,Y) = -q^(-1/2) * (prod over k != j of [x_i - y_k])
    * (prod over k != i of [x_k - y_j]) * Z(n-1; X minus x_i, Y minus y_j).
    The product exclusions pair the deleted row with the surviving columns
    and vice versa; at a corner (i = j) the two exclusion patterns agree.
    """
    if n != p.n:
        raise ValueError("n does not match the parameter count")
    if p.xs[i] != p.ys[j] + 1:
        raise ValueError(f"precondition x_{i} = y_{j} + 1 violated")
    lhs = z_brute(p)
    diffs = Counter(p.xs[i] - y for k, y in enumerate(p.ys) if k != j)
    diffs.update(x - p.ys[j] for k, x in enumerate(p.xs) if k != i)
    diffs[1] -= 2 * (n - 1)                 # [a] = d(a) / d(1)
    factor = BracketProduct(-1, -1, diffs).expand_ratfunc()
    if n == 1:
        return lhs == factor
    return lhs == factor * z_brute(p.drop(i, j))


def lemma_degree_check(n, p):
    """Degree bound: q^(n*x_0/2) * Z is polynomial in q^(x_0), degree < n.

    Z is summed with w = q^(x_0/2) formal and scaled by b^(n^2), which
    does not involve w: p is swept with x_0 = 0, and w rides as u.  The
    check is that every w-exponent e of that sum with a nonzero q-part
    has n + e in {0, 2, ..., 2(n-1)}.
    """
    if n != p.n:
        raise ValueError("n does not match the parameter count")
    grid, _, blocks = _state_sum(SpectralParams((0,) + p.xs[1:], p.ys), True)
    half = 2 * grid                         # grid units per w-exponent 1
    return ({u for u, cs in blocks.items() if any(cs)}
            <= {(2 * j - n) * half for j in range(n)})
