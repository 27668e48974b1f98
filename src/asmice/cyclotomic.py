"""Exact arithmetic in the cyclotomic field Q(zeta_24) = Q[z]/(z^8 - z^4 + 1).

Elements are 8 rational coefficients (int or Fraction) in the power basis
1, z, ..., z^7, where z = zeta_24 and Phi_24 = z^8 - z^4 + 1.  Equality is
equality of the vectors.  Q(zeta_24) contains zeta_k for every k dividing 24,
in particular the fourth roots of the unit-circle q values that the
enumeration chain pins for x = 1, 2, 3 (orders 6, 8 and 12), so it is the
only cyclotomic field the package needs.

Products are reduced with the fold z^k = z^(k-4) - z^(k-8) (k >= 8), which
is Phi_24 = 0 rearranged.  Inverses come from the norm: the Galois
automorphisms sigma_k (z -> z^k, k a unit mod 24) only permute and fold the
coefficients, and 1/a = prod_{k != 1} sigma_k(a) / N(a) with N(a) rational.
Scaling by a rational, and so every quotient and inverse, stores an
integral coefficient as an int, so integral elements stay on int
arithmetic.

Internally the components may be polynomials: the laurent module holds a
polynomial with Q(zeta_24) coefficients as the element (built by _make)
whose eight components are LaurentPolys with rational coefficients, and
multiplies two such elements by __mul__'s convolution and _fold, which
only add, subtract and multiply components and test them for zero.
"""

from __future__ import annotations

from fractions import Fraction

#: degree of Phi_24, the length of every coefficient vector
DEGREE = 8
#: units k mod 24 other than 1: the nontrivial automorphisms z -> z^k
_GALOIS = (5, 7, 11, 13, 17, 19, 23)


def _fold(conv):
    """Coefficients of z^0..z^(len-1), reduced modulo z^8 - z^4 + 1."""
    for k in range(len(conv) - 1, DEGREE - 1, -1):
        c = conv[k]
        if c:
            conv[k - 4] += c
            conv[k - 8] -= c
    return conv[:DEGREE] + [0] * (DEGREE - len(conv))


def _integral(x):
    """x, as an int when it is an integral Fraction."""
    if type(x) is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _make(coeffs):
    """An element from a trusted length-8 sequence of int/Fraction, or of
    LaurentPolys and zeros for the laurent module's component products."""
    out = object.__new__(Cyclotomic)
    out.coeffs = tuple(coeffs)
    return out


class Cyclotomic:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = list(coeffs)
        if len(cs) > DEGREE:
            raise ValueError("coefficient vector too long")
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"coefficient {c!r} is not an int or Fraction")
        self.coeffs = tuple(cs + [0] * (DEGREE - len(cs)))

    # ---------- structure ----------

    def is_rational(self):
        return not any(self.coeffs[1:])

    def as_rational(self):
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def _scale(self, r):
        return _make([_integral(c * r) if c else 0 for c in self.coeffs])

    def _sigma(self, k):
        """The automorphism z -> z^k applied to self."""
        out = [0] * 24
        for i, c in enumerate(self.coeffs):
            out[i * k % 24] = c
        return _make(_fold(out))

    # ---------- ring operations ----------

    def __add__(self, other):
        if isinstance(other, Cyclotomic):
            return _make([x + y for x, y in zip(self.coeffs, other.coeffs)])
        if isinstance(other, (int, Fraction)):
            return _make((self.coeffs[0] + other,) + self.coeffs[1:])
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _make([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, Cyclotomic):
            return _make([x - y for x, y in zip(self.coeffs, other.coeffs)])
        if isinstance(other, (int, Fraction)):
            return _make((self.coeffs[0] - other,) + self.coeffs[1:])
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        conv = [0] * (2 * DEGREE - 1)
        ys = [(j, y) for j, y in enumerate(other.coeffs) if y]
        for i, x in enumerate(self.coeffs):
            if x:
                for j, y in ys:
                    conv[i + j] += x * y
        return _make(_fold(conv))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise ZeroDivisionError("inverse of zero")
        conj = self._sigma(_GALOIS[0])
        for k in _GALOIS[1:]:
            conj = conj * self._sigma(k)
        norm = self * conj
        if not norm.is_rational():
            raise ArithmeticError("norm of a cyclotomic number is not rational")
        return conj / norm.coeffs[0]

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(Fraction(1, other))
        if isinstance(other, Cyclotomic):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = _make((1,) + (0,) * (DEGREE - 1))
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
            return self.coeffs == other.coeffs
        return NotImplemented

    def __bool__(self):
        return any(self.coeffs)

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash(self.coeffs)

    def __repr__(self):
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*z^{k}")
        return f"Cyclotomic({' + '.join(parts)})"


def cyclotomic_embed(k):
    """zeta_k = z^(24/k) in Q(zeta_24); requires k | 24."""
    if k < 1 or 24 % k:
        raise ValueError(f"zeta_{k} does not lie in Q(zeta_24)")
    e = 24 // k
    return _make(_fold([0] * e + [1]))
