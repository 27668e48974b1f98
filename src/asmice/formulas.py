"""Closed-form counting formulas and the B-polynomial factorization chain.

The plain count A(n), the 2-enumeration 2^(n(n-1)/2), the 3-enumeration
(odd closed form plus even recursion), and the factorization
A(n;x) = c_n B(n;x) B(n+1;x) with c_n = 1 for odd n and 2 for even n.
The B chain is anchored at B(1) = B(2) = B(3) = 1 and extended by exact
polynomial division against the transfer-matrix x-enumeration; an inexact
division anywhere would falsify the factorization and raises.
"""

from __future__ import annotations

from math import factorial, prod

from .intpoly import IntPoly
from .transfer import DEFAULT_BOUND, transfer_count


def _quotient(num, den, what):
    """num / den for ints that den must divide; ArithmeticError naming
    what when it does not."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{what} is not an integer")
    return q


def a_formula(n):
    """A(n) = prod_{i=0}^{n-1} (3i+1)! / (n+i)!, by the integer step
    A(k+1) = A(k) * k! (3k+1)! / ((2k)! (2k+1)!) from A(1) = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    a = 1
    for k in range(1, n):
        a = _quotient(a * factorial(k) * factorial(3 * k + 1),
                      factorial(2 * k) * factorial(2 * k + 1), "A(n)")
    return a


def a2_formula(n):
    """A(n;2) = 2^(n(n-1)/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2 ** (n * (n - 1) // 2)


def a3_formula(n):
    """A(n;3): squared product for odd n, one recursion step for even n.

    A(2m+1;3) = (3^(m(m+1)/2) * prod_{j=1}^m (3j-1)! / (m+j)!)^2
    A(2m;3)   = 3^(m-1) * (3m-1)! * (m-1)! / (2m-1)!^2 * A(2m-1;3)

    The root of the odd case is an integer, as a rational whose square is
    an integer must be.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    what = "3-enumeration value"
    if n % 2:
        m = (n - 1) // 2
        root = _quotient(
            3 ** (m * (m + 1) // 2)
            * prod(factorial(3 * j - 1) for j in range(1, m + 1)),
            prod(factorial(m + j) for j in range(1, m + 1)), what)
        return root * root
    m = n // 2
    return _quotient(3 ** (m - 1) * factorial(3 * m - 1) * factorial(m - 1)
                     * a3_formula(n - 1), factorial(2 * m - 1) ** 2, what)


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
    elif len(a_polys) < max_n - 1:
        raise ValueError(f"b_chain({max_n}) needs A(1;x)..A({max_n - 1};x), "
                         f"{max_n - 1} polynomials, got {len(a_polys)}")
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
