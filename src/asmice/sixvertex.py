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
counts), and the sum is divided back by b^(n^2).  For integral labels the
quotient is itself a Laurent polynomial and is returned in reduced
(denominator-one) form.  The tests check the sweep against the sum over
every enumerated state.

The scaled weights are written once, in site_weights(m, h), m = q^(v/2),
h = q^(1/2); its callers pass a generic label (z_brute, ybe.ybe_check),
a label keeping w = q^(x_0/2) formal (the degree check), or a label
pinned to a root of unity on the epsilon grid (chain.z_half_eps_brute).
vertex_weights divides them back by b.  site_weights puts m and h on
their common grid first (laurent.common_grid), so each weight sits on the
exponent grid its own label needs and no operation promotes again; a
caller that mixes labels (ybe.ybe_check) puts their weights on one grid
the same way.

state_sweep is ring-generic: it only multiplies a frontier entry by a
weight and adds entries.  chain.z_half_eps_brute, with Q(zeta_24)
coefficients, sweeps LaurentPoly values.  z_brute and the degree check
have int coefficients and sweep packed ints (_packed_sweep).  The degree
check sweeps its formal top row in (q, w) as LaurentPolys, then the other
rows once per w-exponent, so only the n sites of that row multiply in two
variables.

Packed site weights.  _packed_sweep lays every weight and start value on
one laurent._Layout.  Each state takes exactly one weight per site, so
taking each site's least exponent out of all its weights changes every
state's product by the same monomial; the start values have their least
exponent taken out too.  Every product then has its exponents in
[0, top], top the sum of the sites' and the start's spans, on the lattice
of their shifted exponents.  A frontier entry is one int, and a weight
sum_k c_k t^(g*k) multiplies it as sum_k c_k (v << k*W) (_Shifts): a
shift and an add per term, and no slot is read until the end.

Slot width.  Along a row the sweep takes at most two of a site's weights
from any key (entry 0, and +1 or -1 where the column and row bits allow),
so from any start key at most 2^c fillings of c sites reach the end; as
L1(fg) <= L1(f) L1(g), every coefficient of the sum is at most
L1(start) * prod over sites (2 * the site's largest L1).  Each scaled
weight has at most two terms, with coefficients +-1, so from the start 1
the n^2 sites bound every coefficient of b^(n^2) Z by 4^(n^2).  A formal
top row swept first and handed over as the start has L1 at most
n 2^n < 4^n over its n masks, so the same bound holds.

The module also exposes the exact functional checks that pin the state sum
down: the deletion recursion at x_i = y_j + 1 and the degree bound in
q^(x_0).  Both run on the state sum itself, independent of the
determinant, so they are meaningful oracles for the determinant evaluation
elsewhere in the package.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm

from .brackets import BracketProduct, qdiff
from .ice import ZERO_STATE
from .laurent import (LaurentPoly, _l1, _Layout, common_grid, diff_product,
                      reduced)
from .laurent import divide_exact  # noqa: F401  perfbench/selftest.py

Z_BRUTE_BOUND = 6


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

    def __repr__(self):
        return f"SpectralParams(X={list(self.xs)}, Y={list(self.ys)})"


def vertex_weights(v):
    """The six weights at label v as a map state -> RatFunc in q: the
    scaled weights divided by b = q^(1/2) - q^(-1/2)."""
    b = qdiff(1)
    return {state: reduced(w, b)
            for state, w in enumerate(_label_weights(v), start=1)}


def site_weights(m, h):
    """The six weights at a site, multiplied by b = h - 1/h.

    m = q^(v/2) for the site label v, a one-term LaurentPoly, and
    h = q^(1/2), another or a scalar; the scaled weights are
    (-b/m, -b*m, m/h - h/m, m/h - h/m, m - 1/m, m - 1/m).
    """
    m, h = common_grid((m, h))
    mi, hi = m ** -1, h ** -1
    b = h - hi
    turn = m * hi - mi * h
    side = m - mi
    return (-(mi * b), -(m * b), turn, turn, side, side)


def _label_weights(v):
    """site_weights at the label v."""
    return site_weights(LaurentPoly.var_power(Fraction(v) / 2),
                        LaurentPoly.var_power(Fraction(1, 2)))


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


def _site(p, rows):
    """Scaled site weights of the given rows, within the size bound."""
    if p.n > Z_BRUTE_BOUND:
        raise ValueError(
            f"n={p.n} exceeds the state-sum bound {Z_BRUTE_BOUND}")
    return [[_label_weights(p.label(i, j)) for j in range(p.n)]
            for i in rows]


class _Shifts:
    """A weight as the (bit offset, coefficient) pairs of its terms on a
    layout: v * w is the sum of c * (v << s) over them, 0 for no pairs."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        self.pairs = pairs

    def __rmul__(self, v):
        return sum([c * (v << s) for s, c in self.pairs])


def _packed_sweep(n, start, rows):
    """The all-ones entry of state_sweep(start, rows) for a start of
    nonzero LaurentPolys in t or in (t, u) and univariate int-coefficient
    weights, swept on packed ints (see "Packed site weights" in the module
    docstring)."""
    sites = [site for row in rows for site in row]
    grid = lcm(*[w.scale for site in sites for w in site],
               *[p.scale for p in start.values()])
    start = {key: p.rescale(grid) for key, p in start.items()}
    # the start values, then each site: grid exponents and the least one
    groups = [tuple(start.values())] + sites
    exps = [[k[0] * (grid // p.scale) for p in group for k in p.terms]
            for group in groups]
    lows = [min(e, default=0) for e in exps]
    bound = sum(map(_l1, start.values()))
    for site in sites:
        bound *= 2 * max(map(_l1, site))
    layout = _Layout(grid, [k - lo for e, lo in zip(exps, lows) for k in e],
                     bound, sum(lows),
                     sum(max(e, default=0) for e in exps) - sum(lows))
    flat = [tuple(_Shifts(layout.place(w, lo)) for w in site)
            for site, lo in zip(sites, lows[1:])]
    packed = [flat[i:i + n] for i in range(0, len(flat), n)]
    frontiers = {}          # one packed frontier per u-exponent
    for key, p in start.items():
        for (s, c), k in zip(layout.place(p, lows[0]), p.terms):
            frontier = frontiers.setdefault(k[1:], {})
            frontier[key] = frontier.get(key, 0) + (c << s)
    full = (1 << n) - 1
    terms = {}
    for rest, frontier in frontiers.items():
        terms.update(layout.terms(state_sweep(frontier, packed)[full], rest))
    return LaurentPoly._clean(groups[0][0].nvars, grid, terms)


def z_brute(p):
    """The state sum Z(n; X, Y) as a RatFunc in q, summed by the domain-wall
    sweep over the scaled site weights."""
    n = p.n
    total = _packed_sweep(n, {0: LaurentPoly.one()}, _site(p, range(n)))
    return reduced(total, diff_product({1: n * n}))


def _z_formal(p):
    """b^(n^2) * Z with row 0 formal, a LaurentPoly in q and w = q^(x_0/2);
    x_0 is ignored.

    By linearity in the top row: that row alone ends at the n masks of
    its +1, and the other rows, which do not involve w, are swept from
    there in q alone, once for each w-exponent of the top row's weights.
    """
    n = p.n
    h = LaurentPoly.var_power(Fraction(1, 2), 0, 2)
    w = LaurentPoly.var_power(1, 1, 2)
    row = [site_weights(LaurentPoly.var_power(-y / 2, 0, 2) * w, h)
           for y in p.ys]
    top = state_sweep({0: LaurentPoly.one(2)}, [row])
    return _packed_sweep(n, top, _site(p, range(1, n)))


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

    Z is computed with w = q^(x_0/2) formal and scaled by b^(n^2), which
    does not involve w; the check is that every w-exponent e of that
    numerator has n + e in {0, 2, ..., 2(n-1)}.
    """
    if n != p.n:
        raise ValueError("n does not match the parameter count")
    z = _z_formal(p)
    half = 2 * z.scale                      # grid units per w-exponent 1
    return ({k[1] for k in z.terms}
            <= {(2 * j - n) * half for j in range(n)})
