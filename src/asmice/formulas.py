"""Closed-form counting formulas and the B-polynomial factorization chain.

The plain count A(n), the 2-enumeration 2^(n(n-1)/2), the 3-enumeration
(odd closed form plus even recursion), and the factorization
A(n;x) = c_n B(n;x) B(n+1;x) with c_n = 1 for odd n and 2 for even n.
The B chain is anchored at B(1) = B(2) = B(3) = 1 and extended by exact
polynomial division against the transfer-matrix x-enumeration; an inexact
division anywhere would falsify the factorization and raises.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .intpoly import IntPoly
from .transfer import DEFAULT_BOUND, transfer_count


class FactorialRatio:
    """prefactor * prod num_args! / prod den_args!, evaluated exactly."""

    __slots__ = ("num_args", "den_args", "prefactor")

    def __init__(self, num_args, den_args, prefactor=1):
        self.num_args = tuple(int(a) for a in num_args)
        self.den_args = tuple(int(a) for a in den_args)
        if any(a < 0 for a in self.num_args + self.den_args):
            raise ValueError("factorial arguments must be nonnegative")
        self.prefactor = Fraction(prefactor)

    def value(self):
        v = self.prefactor
        for a in self.num_args:
            v *= factorial(a)
        for a in self.den_args:
            v /= factorial(a)
        return v

    def as_integer(self):
        v = self.value()
        if v.denominator != 1:
            raise ArithmeticError("factorial ratio is not an integer")
        return int(v)

    def __repr__(self):
        return (f"FactorialRatio({self.prefactor} * {list(self.num_args)}! "
                f"/ {list(self.den_args)}!)")


def a_formula(n):
    """A(n) = prod_{i=0}^{n-1} (3i+1)! / (n+i)!."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return FactorialRatio([3 * i + 1 for i in range(n)],
                          [n + i for i in range(n)]).as_integer()


def a2_formula(n):
    """A(n;2) = 2^(n(n-1)/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2 ** (n * (n - 1) // 2)


def a3_formula(n):
    """A(n;3): squared product for odd n, one recursion step for even n.

    A(2m+1;3) = (3^(m(m+1)/2) * prod_{j=1}^m (3j-1)! / (m+j)!)^2
    A(2m;3)   = 3^(m-1) * (3m-1)! * (m-1)! / (2m-1)!^2 * A(2m-1;3)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n % 2:
        m = (n - 1) // 2
        root = FactorialRatio([3 * j - 1 for j in range(1, m + 1)],
                              [m + j for j in range(1, m + 1)],
                              Fraction(3) ** (m * (m + 1) // 2)).value()
        val = root * root
    else:
        m = n // 2
        step = FactorialRatio([3 * m - 1, m - 1],
                              [2 * m - 1, 2 * m - 1],
                              Fraction(3) ** (m - 1)).value()
        val = step * a3_formula(n - 1)
    if val.denominator != 1:
        raise ArithmeticError("3-enumeration value is not an integer")
    return int(val)


class BChain:
    """B(1;x) .. B(maxN;x) with A(n;x) = c_n B(n;x) B(n+1;x)."""

    __slots__ = ("max_n", "polys")

    def __init__(self, max_n, polys):
        self.max_n = max_n
        self.polys = tuple(polys)
        if len(self.polys) != max_n:
            raise ValueError("chain length mismatch")

    def __getitem__(self, n):
        """B(n;x), 1-indexed."""
        if not 1 <= n <= self.max_n:
            raise IndexError(f"B({n}) outside the computed chain")
        return self.polys[n - 1]

    def __len__(self):
        return self.max_n

    def __iter__(self):
        return iter(self.polys)

    def __repr__(self):
        return f"BChain(max_n={self.max_n})"


def b_chain(max_n, a_polys=None):
    """Compute the B chain up to B(maxN;x) by exact division.

    a_polys may supply the x-enumerations A(1;x), A(2;x), ... (a sequence
    of integer polynomials); by default they come from the transfer-matrix
    count.  Raises on any inexact division, which would disprove the
    factorization.
    """
    if max_n < 1:
        raise ValueError("maxN must be >= 1")
    if a_polys is None:
        if max_n - 1 > DEFAULT_BOUND:
            raise ValueError(f"maxN {max_n} beyond the transfer bound")
        a_polys = [transfer_count(k) for k in range(1, max_n)]
    one = IntPoly.const(1)
    polys = [one]
    for n in range(1, max_n):
        a_n = a_polys[n - 1]
        c = 1 if n % 2 else 2
        divisor = polys[n - 1] * c
        polys.append(a_n.divide_exact(divisor))
    chain = BChain(max_n, polys)
    for n in (1, 2, 3):
        if n <= max_n and chain[n] != one:
            raise ArithmeticError(f"B({n}) != 1: anchoring violated")
    return chain
