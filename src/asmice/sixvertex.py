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

The module also exposes the exact functional checks that pin the state sum
down: the deletion recursion at x_i = y_j + 1 and the degree bound in
q^(x_0).  Both run on the state sum itself, independent of the
determinant, so they are meaningful oracles for the determinant evaluation
elsewhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .brackets import bracket_ratio, qdiff
from .ice import ZERO_STATE
from .laurent import LaurentPoly, RatFunc, reduced
from .laurent import divide_exact  # noqa: F401  perfbench/selftest.py

Z_BRUTE_BOUND = 6


class SpectralParams:
    """Row parameters x_i and column parameters y_j, all rational."""

    __slots__ = ("xs", "ys", "scale")

    def __init__(self, xs, ys):
        self.xs = tuple(Fraction(x) for x in xs)
        self.ys = tuple(Fraction(y) for y in ys)
        if len(self.xs) != len(self.ys) or not self.xs:
            raise ValueError(
                "need equally many row and column parameters, at least one")
        self.scale = lcm(*(v.denominator for v in self.xs + self.ys))

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


def vertex_weights(v, scale=None):
    """The six weights at label v as a map state -> RatFunc in q."""
    v = Fraction(v)
    if scale is None:
        scale = v.denominator
    minus_lo = LaurentPoly.var_power(Fraction(-v, 2), scale) * -1
    minus_hi = LaurentPoly.var_power(Fraction(v, 2), scale) * -1
    side = bracket_ratio(v - 1, scale)
    turn = bracket_ratio(v, scale)
    return {1: RatFunc(minus_lo), 2: RatFunc(minus_hi),
            3: side, 4: side, 5: turn, 6: turn}


def site_weights(m, h):
    """The six weights at a site, multiplied by b = h - 1/h.

    m = q^(v/2) for the site label v, a one-term LaurentPoly, and
    h = q^(1/2), another or a scalar; the scaled weights are
    (-b/m, -b*m, m/h - h/m, m/h - h/m, m - 1/m, m - 1/m).
    """
    mi, hi = m ** -1, h ** -1
    b = h - hi
    turn = m * hi - mi * h
    side = m - mi
    return (-(mi * b), -(m * b), turn, turn, side, side)


def _label_weights(v, scale):
    """site_weights at the label v, on the 1/(2*scale) grid."""
    return site_weights(LaurentPoly.var_power(Fraction(v, 2), scale),
                        LaurentPoly.var_power(Fraction(1, 2), scale))


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
    return [[_label_weights(p.label(i, j), p.scale) for j in range(p.n)]
            for i in rows]


def z_brute(p):
    """The state sum Z(n; X, Y) as a RatFunc in q, summed by the domain-wall
    sweep over the scaled site weights."""
    n = p.n
    site = _site(p, range(n))
    total = state_sweep({0: LaurentPoly.one(1, p.scale)}, site)[(1 << n) - 1]
    return reduced(total, qdiff(1, p.scale) ** (n * n))


def _z_formal(p):
    """b^(n^2) * Z with row 0 formal, a LaurentPoly in q and w = q^(x_0/2);
    x_0 is ignored.

    By linearity in the top row: that row alone ends at the n masks of
    its +1, and each key's bivariate weight multiplies the sweep of the
    other rows started from that key.  Those rows do not involve w, so
    they are swept in q alone and lifted to (q, w) once at the end; one
    sweep of all rows would carry bivariate values through every frontier
    (tens of thousands of live terms at n = 4).
    """
    n = p.n
    scale = p.scale
    rest = _site(p, range(1, n))
    h = LaurentPoly.var_power(Fraction(1, 2), scale, 0, 2)
    w = LaurentPoly.var_power(1, scale, 1, 2)
    row = [site_weights(LaurentPoly.var_power(-y / 2, scale, 0, 2) * w, h)
           for y in p.ys]
    top = state_sweep({0: LaurentPoly.one(2, scale)}, [row])
    one = LaurentPoly.one(1, scale)
    total = LaurentPoly.zero(2, scale)
    for mask, weight in top.items():
        below = state_sweep({mask: one}, rest)[(1 << n) - 1]
        total = total + weight * LaurentPoly._clean(
            2, scale, {(k[0], 0): c for k, c in below.terms.items()})
    return total


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
    scale = p.scale
    factor = RatFunc(LaurentPoly(1, scale, {(-scale,): -1}))
    for k in range(n):
        if k != j:
            factor = factor * bracket_ratio(p.xs[i] - p.ys[k], scale)
    for k in range(n):
        if k != i:
            factor = factor * bracket_ratio(p.xs[k] - p.ys[j], scale)
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
    half = 2 * z.scale
    allowed = set(range(0, 2 * n - 1, 2))
    for k in z.terms:
        e = Fraction(k[1], half) + n
        if e.denominator != 1 or int(e) not in allowed:
            return False
    return True
