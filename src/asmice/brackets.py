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
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import (GridViolation, LaurentPoly, NonDivisible, RatFunc,
                      _inv_scalar)


def qdiff(a, scale=1, nvars=1, var=0):
    """The two-term Laurent polynomial t^(a/2) - t^(-a/2)."""
    k = Fraction(a) * scale
    if k.denominator != 1:
        raise GridViolation(f"{a}/2 is not on the 1/{2 * scale} grid")
    k = int(k)
    if k == 0:
        return LaurentPoly.zero(nvars, scale)
    pos = [0] * nvars
    neg = [0] * nvars
    pos[var] = k
    neg[var] = -k
    return LaurentPoly(nvars, scale, {tuple(pos): 1, tuple(neg): -1})


def qdiff_product(values, scale=1):
    """prod_{j<i} d(v_i - v_j) over the values in the given order."""
    out = LaurentPoly.one(1, scale)
    for i, v in enumerate(values):
        for u in values[:i]:
            out = out * qdiff(v - u, scale)
    return out


def beta(scale=1, nvars=1, var=0):
    """t^(1/2) - t^(-1/2), the bracket denominator."""
    return qdiff(1, scale, nvars, var)


def bracket(a, scale=1, nvars=1, var=0):
    """The bracket [a] as a LaurentPoly; a must be an integer.

    For non-integral rational a the quotient d(a)/d(1) is not a Laurent
    polynomial on any grid (e.g. [1/2] = 1/(t^(1/4)+t^(-1/4))); callers that
    need those values work with RatFunc via bracket_ratio.
    """
    a = Fraction(a)
    if a.denominator != 1:
        raise NonDivisible(f"[{a}] is not a Laurent polynomial")
    n = a.numerator
    if n == 0:
        return LaurentPoly.zero(nvars, scale)
    sign = 1 if n > 0 else -1
    n = abs(n)
    terms = {}
    for j in range(n):
        exps = [0] * nvars
        exps[var] = (n - 1 - 2 * j) * scale
        terms[tuple(exps)] = sign
    return LaurentPoly(nvars, scale, terms)


def bracket_ratio(a, scale=1, nvars=1, var=0):
    """[a] as an exact RatFunc, valid for any grid-representable rational a."""
    return RatFunc(qdiff(a, scale, nvars, var), beta(scale, nvars, var))


class BracketProduct:
    """prefactor * unit^expo * prod d(a)^e in factored form.

    ``diffs`` maps positive integer arguments a (in units of the variable's
    half-power, so d(a) = s^(a/2)-s^(-a/2)) to integer exponents; negative
    arguments are normalized away via d(-a) = -d(a).  ``unit_expo`` counts
    half-powers of the variable.  In bracket terms the product equals
    prefactor * s^(unit_expo/2) * prod [a]^e * d(1)^(net) with
    net = sum of exponents, since [a] = d(a)/d(1) and [1] = 1.
    """

    __slots__ = ("coeff", "unit_expo", "diffs", "zero")

    def __init__(self, coeff=1, unit_expo=0, diffs=None, zero=False):
        self.coeff = coeff if not isinstance(coeff, int) else Fraction(coeff)
        self.unit_expo = unit_expo
        store = {}
        if not zero:
            for a, e in (diffs or {}).items():
                if e == 0:
                    continue
                if a == 0:
                    if e > 0:
                        zero = True
                        continue
                    raise ZeroDivisionError("d(0) with negative exponent")
                if a < 0:
                    if e % 2:
                        self.coeff = -self.coeff
                    a = -a
                store[a] = store.get(a, 0) + e
        self.diffs = {a: e for a, e in store.items() if e} if not zero else {}
        self.zero = zero or (not zero and not self.coeff)
        if self.zero:
            self.coeff = Fraction(0)
            self.unit_expo = 0
            self.diffs = {}

    # ---------- constructors ----------

    @classmethod
    def one(cls):
        return cls(1)

    @classmethod
    def diff(cls, a, e=1):
        return cls(1, 0, {a: e})

    @classmethod
    def monomial(cls, half_expo):
        return cls(1, half_expo)

    # ---------- algebra ----------

    def __mul__(self, other):
        if isinstance(other, BracketProduct):
            if self.zero or other.zero:
                return BracketProduct(zero=True)
            d = dict(self.diffs)
            for a, e in other.diffs.items():
                d[a] = d.get(a, 0) + e
            return BracketProduct(self.coeff * other.coeff,
                                  self.unit_expo + other.unit_expo, d)
        return BracketProduct(self.coeff * other, self.unit_expo, self.diffs,
                              self.zero)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, BracketProduct):
            if other.zero:
                raise ZeroDivisionError("division by a zero bracket product")
            inv = BracketProduct(_inv_scalar(other.coeff), -other.unit_expo,
                                 {a: -e for a, e in other.diffs.items()})
            return self * inv
        return self * _inv_scalar(other)

    def __pow__(self, n):
        if self.zero:
            if n > 0:
                return BracketProduct(zero=True)
            if n == 0:
                return BracketProduct.one()
            raise ZeroDivisionError("negative power of zero")
        c = self.coeff ** n if n >= 0 else _inv_scalar(self.coeff) ** (-n)
        return BracketProduct(c, self.unit_expo * n,
                              {a: e * n for a, e in self.diffs.items()})

    def __bool__(self):
        return not self.zero

    @property
    def net_diff_power(self):
        return sum(self.diffs.values())

    def limit_at_one(self):
        """Exact limit as the variable goes to 1."""
        if self.zero:
            return Fraction(0)
        net = self.net_diff_power
        if net > 0:
            return Fraction(0)
        if net < 0:
            raise NonDivisible("pole at 1: unbalanced difference factors")
        value = Fraction(1)
        for a, e in self.diffs.items():
            value *= Fraction(a) ** e
        return self.coeff * value

    def expand_ratfunc(self, scale=1):
        """The product as an explicit RatFunc in one variable."""
        num = LaurentPoly.monomial(self.coeff, (self.unit_expo * scale,), scale) \
            if not self.zero else LaurentPoly.zero(1, scale)
        den = LaurentPoly.one(1, scale)
        for a, e in sorted(self.diffs.items()):
            f = _diff_units(a, scale)
            if e > 0:
                num = num * f ** e
            else:
                den = den * f ** (-e)
        return RatFunc(num, den)

    def __eq__(self, other):
        if not isinstance(other, BracketProduct):
            return NotImplemented
        return self.expand_ratfunc() == other.expand_ratfunc()

    def __repr__(self):
        if self.zero:
            return "BracketProduct(0)"
        fs = " * ".join(f"d({a})^{e}" for a, e in sorted(self.diffs.items()))
        return f"BracketProduct({self.coeff} * u^{self.unit_expo}{' * ' + fs if fs else ''})"


def _diff_units(a, scale):
    """d(a) with the argument in half-power units: s^(a/2) - s^(-a/2)."""
    return LaurentPoly(1, scale, {(a * scale,): 1, (-a * scale,): -1})

