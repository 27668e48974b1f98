"""Exact cyclotomic field arithmetic: Q(zeta_m) as Q[x]/Phi_m(x).

Elements are coefficient vectors over Q in the power basis 1, z, ..., z^(d-1)
with d = deg Phi_m, reduced modulo the m-th cyclotomic polynomial.  Equality
is canonical-form equality of the vectors.  The package's root-of-unity work
all happens in Q(zeta_24) (degree 8, Phi_24 = x^8 - x^4 + 1), which contains
zeta_k for every k dividing 24 and in particular the square and fourth roots
of the unit-circle q values used by the enumeration chain.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m):
    """Ascending integer coefficients of Phi_m(x)."""
    if m < 1:
        raise ValueError("order must be positive")
    # x^m - 1 divided by the product of Phi_d over proper divisors d of m
    poly = [0] * (m + 1)
    poly[0] = -1
    poly[m] = 1
    for d in range(1, m):
        if m % d == 0:
            poly = _zpoly_divide(poly, list(cyclotomic_polynomial(d)))
    while poly and poly[-1] == 0:
        poly.pop()
    return tuple(poly)


def _zpoly_divide(a, b):
    """Exact division of integer polynomials (ascending coefficients)."""
    a = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - 1, len(b) - 2, -1):
        c = a[i]
        if c:
            q, r = divmod(c, b[-1])
            if r:
                raise ArithmeticError("inexact cyclotomic division")
            out[i - len(b) + 1] = q
            for j, bc in enumerate(b):
                a[i - len(b) + 1 + j] -= q * bc
    if any(a):
        raise ArithmeticError("inexact cyclotomic division")
    return out


@lru_cache(maxsize=None)
def _power_table(m):
    """Vectors of zeta_m^k in the power basis, for k = 0..m-1."""
    phi = cyclotomic_polynomial(m)
    d = len(phi) - 1
    # zeta^d = -(phi[0] + phi[1] z + ... + phi[d-1] z^(d-1)), phi monic
    top = tuple(-c for c in phi[:d])
    table = []
    cur = (1,) + (0,) * (d - 1)
    for _ in range(m):
        table.append(cur)
        nxt = [0] * d
        for i, c in enumerate(cur):
            if not c:
                continue
            if i + 1 < d:
                nxt[i + 1] += c
            else:
                for j, tc in enumerate(top):
                    nxt[j] += c * tc
        cur = tuple(nxt)
    return tuple(table)


class Cyclotomic:
    __slots__ = ("order", "coeffs")
    scalar_ring = True

    def __init__(self, order, coeffs):
        d = len(cyclotomic_polynomial(order)) - 1
        cs = list(coeffs) + [0] * (d - len(coeffs))
        if len(cs) != d:
            raise ValueError("coefficient vector too long")
        self.order = order
        self.coeffs = tuple(Fraction(c) for c in cs)

    # ---------- constructors ----------

    @classmethod
    def from_rational(cls, r, order=24):
        return cls(order, [Fraction(r)])

    @classmethod
    def root_power(cls, order, k):
        """zeta_order^k (k any integer)."""
        table = _power_table(order)
        return cls(order, table[k % order])

    @classmethod
    def zeta(cls, order):
        return cls.root_power(order, 1)

    # ---------- structure ----------

    @property
    def degree(self):
        return len(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def as_integer(self):
        r = self.as_rational()
        if r.denominator != 1:
            raise ValueError(f"{self!r} is not an integer")
        return r.numerator

    def promote(self, order):
        """Reembed into Q(zeta_order); the current order must divide it."""
        if order == self.order:
            return self
        if order % self.order:
            raise ValueError(f"cannot embed Q(zeta_{self.order}) in Q(zeta_{order})")
        step = order // self.order
        out = Cyclotomic(order, [0])
        for k, c in enumerate(self.coeffs):
            if c:
                out = out + Cyclotomic.root_power(order, k * step) * c
        return out

    def _pair(self, other):
        if isinstance(other, (int, Fraction)):
            return self, Cyclotomic.from_rational(other, self.order)
        if isinstance(other, Cyclotomic):
            if other.order == self.order:
                return self, other
            if other.order % self.order == 0:
                return self.promote(other.order), other
            if self.order % other.order == 0:
                return self, other.promote(self.order)
            raise ValueError("incompatible cyclotomic orders")
        return None, None

    # ---------- ring operations ----------

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return Cyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return Cyclotomic(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        d = a.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a.coeffs):
            if not x:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    conv[i + j] += x * y
        table = _power_table(a.order)
        out = list(conv[:d])
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                vec = table[k % a.order]
                for j, tc in enumerate(vec):
                    out[j] += c * tc
        return Cyclotomic(a.order, out)

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        g, s = _xgcd_poly(list(self.coeffs), phi)
        # g is a nonzero constant since Phi is irreducible over Q
        if len(g) != 1 or not g[0]:
            raise ArithmeticError("cyclotomic polynomial is not coprime "
                                  "to the element")
        inv = _poly_mod([c / g[0] for c in s], phi)
        return Cyclotomic(self.order, inv)

    def __truediv__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_rational(other, self.order) * self.inverse()
        return NotImplemented

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = Cyclotomic.from_rational(1, self.order)
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, Cyclotomic):
            a, b = self._pair(other)
            return a.coeffs == b.coeffs
        return NotImplemented

    def __bool__(self):
        return any(self.coeffs)

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    def __repr__(self):
        if self.is_rational():
            return f"Cyclotomic({self.order}, {self.coeffs[0]})"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{k}")
        return f"Cyclotomic({self.order}, {' + '.join(parts)})"


def _poly_mod(a, phi):
    a = list(a)
    d = len(phi) - 1
    for i in range(len(a) - 1, d - 1, -1):
        c = a[i]
        if c:
            q = c / phi[-1]
            for j, pc in enumerate(phi):
                a[i - d + j] -= q * pc
    return a[:d]


def _xgcd_poly(a, phi):
    """Extended gcd in Q[x]: returns (g, s) with s*a = g (mod phi)."""
    r0, r1 = list(phi), _trim(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while _deg(r1) >= 0:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    return _trim(r0), s0


def _deg(p):
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _trim(p):
    d = _deg(p)
    return [Fraction(c) for c in p[:d + 1]] if d >= 0 else []


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    for i, c in enumerate(b):
        a[i] -= c
    return _trim(a)


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _poly_divmod(a, b):
    a = _trim(a)
    b = _trim(b)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    lead = b[-1]
    while _deg(a) >= _deg(b):
        sh = _deg(a) - _deg(b)
        c = a[-1] / lead
        q[sh] += c
        for j, bc in enumerate(b):
            a[sh + j] -= c * bc
        a = _trim(a)
    return _trim(q), a


def cyclotomic_embed(k, m=24):
    """zeta_k as an element of Q(zeta_m); requires k | m."""
    if k < 1 or m % k:
        raise ValueError(f"zeta_{k} does not lie in Q(zeta_{m})")
    return Cyclotomic.root_power(m, m // k)
