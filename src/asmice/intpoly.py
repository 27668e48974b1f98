"""Dense univariate polynomials with arbitrary-precision coefficients.

Used for the weighted matrix counts: the generating polynomial in the
(-1)-count weight has nonnegative integer coefficients.  Coefficients are
stored ascending (index = degree).  Division is exact-or-error.
"""

from __future__ import annotations

from fractions import Fraction


class IntPoly:
    """Polynomial in one variable over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls([c])

    @classmethod
    def x(cls):
        return cls([0, 1])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -1

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        elif not isinstance(other, IntPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPoly.const(other)
        elif not isinstance(other, IntPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self and other else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = IntPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, value):
        """Evaluate at an int or Fraction by Horner's rule."""
        acc = Fraction(0) if isinstance(value, Fraction) else 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def divide_exact(self, other):
        """Quotient self/other over Z; raises ArithmeticError unless other
        divides self with integer coefficients."""
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        dq = len(rem) - len(div)
        if dq < 0:
            if rem:
                raise ArithmeticError("inexact polynomial division (degree)")
            return IntPoly([])
        q = [0] * (dq + 1)
        for k in range(dq, -1, -1):
            c = rem[k + len(div) - 1]
            if c:
                c, r = divmod(c, div[-1])
                if r:
                    raise ArithmeticError(
                        "inexact polynomial division (leading term)")
                q[k] = c
                for i, d in enumerate(div):
                    rem[k + i] -= c * d
        if any(rem):
            raise ArithmeticError("inexact polynomial division (remainder)")
        return IntPoly(q)

    def ascending(self):
        return list(self.coeffs)

    def __str__(self):
        """Human form, descending powers: '2x^2 + 16x + 24'."""
        if not self.coeffs:
            return "0"
        parts = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                xpow = "x" if d == 1 else f"x^{d}"
                body = xpow if mag == 1 else f"{mag}{xpow}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"
