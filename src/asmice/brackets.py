"""q-number brackets and structured bracket products with exact limits.

The bracket of a is the q-number

    [a] = (t^(a/2) - t^(-a/2)) / (t^(1/2) - t^(-1/2)),

a Laurent polynomial exactly when a is an integer ([0]=0, [1]=1,
[2]=t^(1/2)+t^(-1/2), [-a]=-[a]).  One normalization (the half-power
denominator) is used everywhere in this package.

BracketProduct keeps products of the difference factors

    d(a) = t^(a/2) - t^(-a/2) = [a] * d(1)

in factored form together with a scalar prefactor and a monomial, so the
t -> 1 limit can be taken structurally: d(a)/d(b) -> a/b, monomials -> 1.
A product whose difference factors do not balance (net power nonzero) either
vanishes in the limit or has a pole; no expanded 0/0 evaluation ever occurs.
Its factors are normalised as laurent.diff_product's are, and a product
is zero exactly when its coefficient is 0.
Expanded, every difference product goes through laurent.diff_product once:
qdiff_product, the numerator and denominator of expand_ratfunc, and the
quotient that decides equality of two products.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .cyclotomic import _integral
from .laurent import (LaurentPoly, NonDivisible, RatFunc, _diff_factors,
                      _inv_scalar, diff_product, divide_exact)


def qdiff(a, nvars=1, var=0):
    """The two-term Laurent polynomial t^(a/2) - t^(-a/2), for any
    rational a, built directly on the coarsest grid that holds it: scale
    a.denominator, where t^(a/2) has the key a.numerator."""
    a = Fraction(a)
    if not a or nvars not in (1, 2):     # zero() refuses any other nvars
        return LaurentPoly.zero(nvars)
    hi, lo = [0] * nvars, [0] * nvars
    hi[var], lo[var] = a.numerator, -a.numerator
    return LaurentPoly._clean(nvars, a.denominator,
                              {tuple(hi): 1, tuple(lo): -1})


def qdiff_product(*value_lists, beta_power=0):
    """beta^beta_power times prod_{j<i} d(v_i - v_j) over the values of
    each list in the given order, expanded by one laurent.diff_product."""
    diffs = Counter({1: beta_power})
    for values in value_lists:
        for i, v in enumerate(values):
            for u in values[:i]:
                diffs[v - u] += 1
    return diff_product(diffs)


def bracket(a):
    """The bracket [a] = d(a)/d(1) as a LaurentPoly, by exact division; a
    must be an integer.

    For non-integral rational a the quotient is not a Laurent polynomial
    on any grid (e.g. [1/2] = 1/(t^(1/4)+t^(-1/4))); callers that need
    those values work with RatFunc via bracket_ratio.
    """
    a = Fraction(a)
    if a.denominator != 1:
        raise NonDivisible(f"[{a}] is not a Laurent polynomial")
    return divide_exact(qdiff(a), qdiff(1))


def bracket_ratio(a):
    """[a] as an exact RatFunc, valid for any rational a."""
    return RatFunc(qdiff(a), qdiff(1))


class BracketProduct:
    """prefactor * unit^expo * prod d(a)^e in factored form.

    ``diffs`` maps positive rational arguments a (in units of the
    variable's half-power, so d(a) = s^(a/2)-s^(-a/2)) to integer
    exponents; negative arguments are normalized away via d(-a) = -d(a),
    and d(0) makes the coefficient 0: the zero product, whose monomial and
    factors are dropped.  An
    integral coefficient is kept as an int.  ``unit_expo`` counts
    half-powers of the variable.  In bracket terms the product equals
    prefactor * s^(unit_expo/2) * prod [a]^e * d(1)^(net) with
    net = sum of exponents, since [a] = d(a)/d(1) and [1] = 1.
    """

    __slots__ = ("coeff", "unit_expo", "diffs")

    def __init__(self, coeff=1, unit_expo=0, diffs=None):
        sign, diffs = _diff_factors(diffs or {})
        coeff = _integral(coeff)
        self.coeff = coeff if sign > 0 else -coeff if sign else 0
        self.unit_expo = unit_expo if self.coeff else 0
        self.diffs = diffs if self.coeff else {}

    # ---------- algebra ----------

    def __mul__(self, other):
        if isinstance(other, BracketProduct):
            d = dict(self.diffs)
            for a, e in other.diffs.items():
                d[a] = d.get(a, 0) + e
            return BracketProduct(self.coeff * other.coeff,
                                  self.unit_expo + other.unit_expo, d)
        return BracketProduct(self.coeff * other, self.unit_expo, self.diffs)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, BracketProduct):
            return self * BracketProduct(
                _inv_scalar(other.coeff), -other.unit_expo,
                {a: -e for a, e in other.diffs.items()})
        return self * _inv_scalar(other)

    def __pow__(self, n):
        c = self.coeff ** n if n >= 0 else _inv_scalar(self.coeff) ** (-n)
        return BracketProduct(c, self.unit_expo * n,
                              {a: e * n for a, e in self.diffs.items()})

    @property
    def zero(self):
        return not self.coeff

    def __bool__(self):
        return bool(self.coeff)

    @property
    def net_diff_power(self):
        return sum(self.diffs.values())

    def limit_at_one(self):
        """Exact limit as the variable goes to 1."""
        net = self.net_diff_power
        if net > 0:
            return Fraction(0)
        if net < 0:
            raise NonDivisible("pole at 1: unbalanced difference factors")
        value = Fraction(1)
        for a, e in self.diffs.items():
            value *= Fraction(a) ** e
        return self.coeff * value

    def _expanded(self):
        """(numerator, denominator) LaurentPolys of a nonzero product: the
        factors with e > 0 and with e < 0 each expanded on ints by
        laurent.diff_product, the coefficient and monomial applied last."""
        num = diff_product({a: e for a, e in self.diffs.items() if e > 0})
        den = diff_product({a: -e for a, e in self.diffs.items() if e < 0})
        mono = LaurentPoly.var_power(Fraction(self.unit_expo, 2)) * self.coeff
        return mono * num, den

    def expand_ratfunc(self):
        """The product as an explicit RatFunc in one variable."""
        if not self.coeff:
            return RatFunc(LaurentPoly.zero())
        return RatFunc(*self._expanded())

    def __eq__(self, other):
        """Equality as functions, decided on the quotient self / other
        without other's coefficient, whose common factors have cancelled:
        self equals other exactly when its numerator expands to its
        denominator times other's coefficient, so no coefficient is
        inverted."""
        if not isinstance(other, BracketProduct):
            return NotImplemented
        if not (self.coeff and other.coeff):
            return not (self.coeff or other.coeff)
        diffs = Counter(self.diffs)
        diffs.subtract(other.diffs)
        num, den = BracketProduct(self.coeff, self.unit_expo - other.unit_expo,
                                  diffs)._expanded()
        return num == den * other.coeff

