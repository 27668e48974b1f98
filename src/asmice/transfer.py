"""Row-sweep dynamic programming for the weighted matrix count.

The count A(n;x) = sum over matrices of x^(number of -1 entries) is computed
without enumerating matrices: a DP key holds the partial column sums (each 0
or 1, so an n-bit mask) plus the running row prefix (one bit) while a row is
swept left to right.  At column j with column bit ct and row prefix r, entry
0 is always allowed, entry +1 needs (ct, r) = (0, 0), and entry -1 needs
(ct, r) = (1, 1) and raises the degree by one.  A row must end with prefix 1
and the final mask must be all ones.

Each key's coefficient vector is packed into one Python int (Kronecker
packing): coefficient d sits in bits [d*B, (d+1)*B), so raising the degree
is ``v << B`` and adding two vectors is one integer addition.  Packing is
exact as long as no coefficient reaches 2^B.

Slot width B = n*n + 1.  A cell offers at most two entries: 0 and +1 when
(ct, r) = (0, 0), 0 and -1 when (ct, r) = (1, 1), and only 0 otherwise.  So
after c cells at most 2^c partial fillings exist, and every coefficient of
every key counts a subset of them: it is at most 2^c <= 2^(n*n) < 2^B,
so no slot carries into the next.  Every filling that reaches the final key
is a whole matrix, with at most floor((n-1)^2/4) entries -1, so a nonzero
bit above the top slot can only come from a broken bound, and unpacking
raises on it.  The bound does not use the product formula, which the sweep
is checked against.
"""

from __future__ import annotations

from .intpoly import IntPoly

DEFAULT_BOUND = 16


def coeff_count(n):
    """Length of the coefficient vector of the count polynomial.

    The maximal number of -1 entries is floor((n-1)^2/4).
    """
    return (n - 1) ** 2 // 4 + 1


def transfer_count(n):
    """The weighted count A(n;x) as an IntPoly, by the row-sweep DP."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > DEFAULT_BOUND:
        raise ValueError(f"n={n} exceeds the transfer bound {DEFAULT_BOUND}")
    width = n * n + 1
    # one frontier per row prefix r; entry 0 keeps a key where it is
    r1 = {0: 1}
    for _ in range(n):
        r0, r1 = r1, {}                  # a finished row ends with r = 1
        for j in range(n):
            bit = 1 << j
            plus = [(mask | bit, v) for mask, v in r0.items()
                    if not mask & bit]
            minus = [(mask ^ bit, v << width) for mask, v in r1.items()
                     if mask & bit]
            for mask, v in plus:
                r1[mask] = r1.get(mask, 0) + v
            for mask, v in minus:
                r0[mask] = r0.get(mask, 0) + v
    return IntPoly(_unpack(r1.get((1 << n) - 1, 0), coeff_count(n), width))


def _unpack(v, slots, width):
    """Split a packed vector into `slots` coefficients of `width` bits."""
    if v >> (slots * width):
        raise ArithmeticError("packed count overflows its top slot")
    low = (1 << width) - 1
    return [(v >> (d * width)) & low for d in range(slots)]
