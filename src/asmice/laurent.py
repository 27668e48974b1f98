"""Exact Laurent polynomials with half-integral exponents, and their quotients.

Exponents live on the grid (1/(2*D))*Z for a per-polynomial positive integer
scale D, stored as integer multiples of the grid unit.  So at scale D=1 the
monomial t^(1/2) has exponent key 1 and t^(-3) has key -6.  One or two
variables are supported; keys are exponent tuples of length nvars.

Coefficients are exact scalars: int, fractions.Fraction, or any ring element
that sets the class attribute ``scalar_ring = True`` (the cyclotomic numbers
in this package do).  Zero coefficients are never stored.

Division follows the Laurent convention that monomials are units: t divides 1,
with quotient t^(-1).  divide_exact raises NonDivisible when the quotient is
not itself a Laurent polynomial on the grid.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class GridViolation(ValueError):
    """A requested exponent does not land on the 1/(2D) grid."""


class NonDivisible(ArithmeticError):
    """Laurent division with a nontrivial remainder."""


def _is_scalar(x):
    return isinstance(x, (int, Fraction)) or getattr(x, "scalar_ring", False)


class LaurentPoly:
    __slots__ = ("nvars", "scale", "terms")

    def __init__(self, nvars, scale, terms):
        if nvars not in (1, 2):
            raise ValueError("only 1 or 2 variables supported")
        if scale < 1:
            raise ValueError("scale must be a positive integer")
        clean = {}
        for exps, c in terms.items():
            if len(exps) != nvars:
                raise ValueError("exponent tuple length != nvars")
            key = tuple(int(e) for e in exps)
            if key != exps:
                raise GridViolation(f"exponent {exps} is not integral")
            if c:
                clean[key] = c
        self.nvars = nvars
        self.scale = scale
        self.terms = clean

    # ---------- constructors ----------

    @classmethod
    def zero(cls, nvars=1, scale=1):
        return cls(nvars, scale, {})

    @classmethod
    def one(cls, nvars=1, scale=1):
        return cls(nvars, scale, {(0,) * nvars: 1})

    @classmethod
    def const(cls, c, nvars=1, scale=1):
        return cls(nvars, scale, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, coeff, exps, scale=1):
        exps = tuple(exps)
        return cls(len(exps), scale, {exps: coeff})

    @classmethod
    def unit_power(cls, k, scale=1, var=0, nvars=1):
        """The monomial t_var^(k/(2*scale))."""
        exps = [0] * nvars
        exps[var] = k
        return cls(nvars, scale, {tuple(exps): 1})

    @classmethod
    def var_power(cls, a, scale=1, var=0, nvars=1):
        """The monomial t_var^a for rational a; a*2*scale must be integral."""
        k = Fraction(a) * 2 * scale
        if k.denominator != 1:
            raise GridViolation(f"exponent {a} not on the 1/{2*scale} grid")
        return cls.unit_power(int(k), scale, var, nvars)

    # ---------- structure ----------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def min_exponents(self):
        return tuple(min(e[i] for e in self.terms) for i in range(self.nvars))

    def max_exponents(self):
        return tuple(max(e[i] for e in self.terms) for i in range(self.nvars))

    def as_scalar(self):
        """The coefficient, when the polynomial is constant."""
        if self.is_zero:
            return 0
        if self.terms.keys() == {(0,) * self.nvars}:
            return self.terms[(0,) * self.nvars]
        raise ValueError("not a constant polynomial")

    def rescale(self, new_scale):
        if new_scale == self.scale:
            return self
        if new_scale % self.scale:
            raise GridViolation("new scale must be a multiple of the old one")
        m = new_scale // self.scale
        return LaurentPoly(self.nvars, new_scale,
                           {tuple(e * m for e in k): c for k, c in self.terms.items()})

    def _matched(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        if self.scale == other.scale:
            return self, other
        s = self.scale * other.scale // gcd(self.scale, other.scale)
        return self.rescale(s), other.rescale(s)

    # ---------- ring operations ----------

    def __add__(self, other):
        if _is_scalar(other):
            other = LaurentPoly.const(other, self.nvars, self.scale)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._matched(other)
        out = dict(a.terms)
        for k, c in b.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return LaurentPoly(a.nvars, a.scale, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.nvars, self.scale,
                           {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if _is_scalar(other):
            other = LaurentPoly.const(other, self.nvars, self.scale)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            if not other:
                return LaurentPoly.zero(self.nvars, self.scale)
            return LaurentPoly(self.nvars, self.scale,
                               {k: c * other for k, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._matched(other)
        if a.is_zero or b.is_zero:
            return LaurentPoly.zero(a.nvars, a.scale)
        if a.nvars == 1:
            return a._mul_dense1(b)
        out = {}
        for ka, ca in a.terms.items():
            for kb, cb in b.terms.items():
                k = (ka[0] + kb[0], ka[1] + kb[1])
                s = out.get(k, 0) + ca * cb
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return LaurentPoly(a.nvars, a.scale, out)

    __rmul__ = __mul__

    def _dense1(self):
        """Univariate terms as (offset, coefficient list); list[i] is the
        coefficient of unit^(offset+i)."""
        lo = min(k[0] for k in self.terms)
        hi = max(k[0] for k in self.terms)
        cs = [0] * (hi - lo + 1)
        for k, c in self.terms.items():
            cs[k[0] - lo] = c
        return lo, cs

    @classmethod
    def _from_dense1(cls, lo, cs, scale):
        return cls(1, scale, {(lo + i,): c for i, c in enumerate(cs) if c})

    def _mul_dense1(self, other):
        # dense convolution: much faster than dict accumulation for the
        # wide univariate polynomials produced by determinant elimination
        lo1, a = self._dense1()
        lo2, b = other._dense1()
        out = [0] * (len(a) + len(b) - 1)
        if len(a) < len(b):
            a, b = b, a
        for j, cb in enumerate(b):
            if cb:
                for i, ca in enumerate(a):
                    if ca:
                        out[i + j] += ca * cb
        return LaurentPoly._from_dense1(lo1 + lo2, out, self.scale)

    def __pow__(self, n):
        if n < 0:
            if self.is_monomial():
                (k, c), = self.terms.items()
                inv = LaurentPoly(self.nvars, self.scale,
                                  {tuple(-e for e in k): _inv_scalar(c)})
                return inv ** (-n)
            raise NonDivisible("negative power of a non-unit")
        result = LaurentPoly.one(self.nvars, self.scale)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if _is_scalar(other):
            other = LaurentPoly.const(other, self.nvars, self.scale)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        a, b = self._matched(other)
        return a.terms == b.terms

    def __hash__(self):
        raise TypeError("LaurentPoly is not hashable")

    # ---------- evaluation ----------

    def eval_units(self, *unit_values):
        """Evaluate with the grid unit of each variable set to the given value,
        i.e. variable i becomes unit_values[i]^(2*scale)."""
        if len(unit_values) != self.nvars:
            raise ValueError("need one value per variable")
        total = 0
        for k, c in self.terms.items():
            term = c
            for u, e in zip(unit_values, k):
                if e:
                    term = term * _int_pow(u, e)
            total = total + term
        return total

    def subs_all_one(self):
        """Sum of coefficients: the value with every variable set to 1."""
        total = 0
        for c in self.terms.values():
            total = total + c
        return total

    # ---------- division ----------

    def divide_exact(self, other):
        return divide_exact(self, other)

    def shift_unit(self, deltas):
        """Multiply by the unit monomial with the given exponent offsets."""
        deltas = tuple(deltas)
        return LaurentPoly(self.nvars, self.scale,
                           {tuple(e + d for e, d in zip(k, deltas)): c
                            for k, c in self.terms.items()})

    # ---------- display ----------

    def format(self, names=("t", "u")):
        if self.is_zero:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            mono = []
            for name, e in zip(names, k):
                if e == 0:
                    continue
                ex = Fraction(e, 2 * self.scale)
                if ex == 1:
                    mono.append(name)
                else:
                    mono.append(f"{name}^({ex})")
            body = "*".join(mono)
            if not body:
                parts.append(f"{c}")
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"LaurentPoly({self.format()})"


def _int_pow(base, e):
    if e >= 0:
        return base ** e
    if isinstance(base, int):
        return Fraction(1, base ** -e)
    return base ** e


def _grlex_key(exps):
    return (sum(exps), exps)


def divide_exact(num, den):
    """Exact Laurent quotient num/den, or raise NonDivisible.

    Both are first shifted by unit monomials so every variable has minimum
    exponent 0; since unit monomials are invertible, Laurent divisibility is
    exactly ordinary divisibility of the shifted polynomials, which is decided
    by single-divisor long division in graded-lex order.
    """
    if isinstance(num, (int, Fraction)):
        num = LaurentPoly.const(num, den.nvars, den.scale)
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero:
        return LaurentPoly.zero(den.nvars, den.scale)
    num, den = num._matched(den)
    if num.nvars == 1:
        return _divide_dense1(num, den)
    return _divide_sparse(num, den)


def _divide_dense1(num, den):
    nlo, a = num._dense1()
    dlo, b = den._dense1()
    dn = len(b) - 1
    if len(a) < len(b):
        raise NonDivisible("quotient support would be empty")
    q = [0] * (len(a) - dn)
    r = list(a)
    lead = b[dn]
    for i in range(len(a) - 1, dn - 1, -1):
        c = r[i]
        if not c:
            continue
        qc = _coeff_div(c, lead)
        q[i - dn] = qc
        for j in range(dn + 1):
            r[i - dn + j] = r[i - dn + j] - qc * b[j]
    if any(r):
        raise NonDivisible("nonzero remainder")
    return LaurentPoly._from_dense1(nlo - dlo, q, num.scale)


def _divide_sparse(num, den):
    nmin = num.min_exponents()
    dmin = den.min_exponents()
    rem = {tuple(e - m for e, m in zip(k, nmin)): c for k, c in num.terms.items()}
    dterms = {tuple(e - m for e, m in zip(k, dmin)): c for k, c in den.terms.items()}
    dlead = max(dterms, key=_grlex_key)
    dlc = dterms[dlead]
    quot = {}
    while rem:
        rlead = max(rem, key=_grlex_key)
        mono = tuple(r - d for r, d in zip(rlead, dlead))
        if any(m < 0 for m in mono):
            raise NonDivisible("leading term not divisible")
        qc = _coeff_div(rem[rlead], dlc)
        quot[mono] = qc
        for k, c in dterms.items():
            key = tuple(m + e for m, e in zip(mono, k))
            s = rem.get(key, 0) - qc * c
            if s:
                rem[key] = s
            else:
                rem.pop(key, None)
    shift = tuple(n - d for n, d in zip(nmin, dmin))
    return LaurentPoly(num.nvars, num.scale,
                       {tuple(e + s for e, s in zip(k, shift)): c
                        for k, c in quot.items()})


def _coeff_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        if b and a % b == 0:
            return a // b
        return Fraction(a, b)
    if isinstance(b, int):
        b = Fraction(b)
    return a / b


class RatFunc:
    """Quotient of Laurent polynomials, reduced by monomial content only.

    Equality is decided exactly by cross-multiplication, never by normal
    forms, so no polynomial gcd is ever required.  A denominator that reduces
    to a unit monomial is folded into the numerator so that polynomial values
    are recognizable (is_poly / poly()).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = LaurentPoly.one(num.nvars, num.scale)
        if _is_scalar(num):
            num = LaurentPoly.const(num, den.nvars, den.scale)
        if _is_scalar(den):
            den = LaurentPoly.const(den, num.nvars, num.scale)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        num, den = num._matched(den)
        if num.is_zero:
            den = LaurentPoly.one(num.nvars, num.scale)
        else:
            nmin = num.min_exponents()
            dmin = den.min_exponents()
            common = tuple(min(a, b) for a, b in zip(nmin, dmin))
            if any(common):
                neg = tuple(-c for c in common)
                num = num.shift_unit(neg)
                den = den.shift_unit(neg)
            if den.is_monomial():
                (k, c), = den.terms.items()
                num = num.shift_unit(tuple(-e for e in k)) * _inv_scalar(c)
                den = LaurentPoly.one(num.nvars, num.scale)
        self.num = num
        self.den = den

    @property
    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    @property
    def is_poly(self):
        return self.den == LaurentPoly.one(self.den.nvars, self.den.scale)

    def poly(self):
        if not self.is_poly:
            raise NonDivisible("value has a nontrivial denominator")
        return self.num

    def _coerced(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, LaurentPoly):
            return RatFunc(other)
        if _is_scalar(other):
            return RatFunc(LaurentPoly.const(other, self.num.nvars, self.num.scale))
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if n < 0:
            return (RatFunc(self.den, self.num)) ** (-n)
        return RatFunc(self.num ** n, self.den ** n)

    def reciprocal(self):
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of zero")
        return RatFunc(self.den, self.num)

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return (self.num * o.den) == (o.num * self.den)

    def __hash__(self):
        raise TypeError("RatFunc is not hashable")

    def eval_units(self, *unit_values):
        dv = self.den.eval_units(*unit_values)
        if not dv:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return _scalar_quot(self.num.eval_units(*unit_values), dv)

    def format(self, names=("t", "u")):
        if self.is_poly:
            return self.num.format(names)
        return f"({self.num.format(names)}) / ({self.den.format(names)})"

    def __repr__(self):
        return f"RatFunc({self.format()})"


def _inv_scalar(c):
    if isinstance(c, int):
        return Fraction(1, c) if c not in (1, -1) else c
    if isinstance(c, Fraction):
        return 1 / c
    return c ** -1


def _scalar_quot(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    if isinstance(b, int):
        b = Fraction(b)
    return a / b


def vanishing_order_at_one(p):
    """(order, deflated) for a univariate Laurent polynomial at unit = 1:
    p = (unit - 1)^order * deflated with deflated(1) != 0.  Exact synthetic
    division; the unit monomial content is immaterial and dropped."""
    if p.is_zero:
        raise ValueError("zero polynomial has no finite vanishing order")
    _, cs = p._dense1()
    order = 0
    while True:
        total = 0
        for c in cs:
            total = total + c
        if total:
            break
        # divide by (unit - 1): synthetic division from the top
        out = [0] * (len(cs) - 1)
        acc = 0
        for i in range(len(cs) - 1, 0, -1):
            acc = acc + cs[i]
            out[i - 1] = acc
        cs = out
        order += 1
    return order, LaurentPoly._from_dense1(0, cs, p.scale)


def limit_at_one(rf):
    """Exact limit of a univariate RatFunc as the variable goes to 1.

    Both numerator and denominator are deflated by their exact power of
    (unit - 1); equal orders give the ratio of the nonvanishing cofactors,
    a larger numerator order gives 0, and a larger denominator order is a
    pole (raised as NonDivisible).  No 0/0 evaluation ever happens.
    """
    if rf.num.nvars != 1:
        raise ValueError("limit only defined for univariate values")
    if rf.is_zero:
        return Fraction(0)
    on, pn = vanishing_order_at_one(rf.num)
    od, pd = vanishing_order_at_one(rf.den)
    if on > od:
        return Fraction(0)
    if on < od:
        raise NonDivisible("pole at 1: denominator vanishes to higher order")
    return _scalar_quot(pn.subs_all_one(), pd.subs_all_one())
