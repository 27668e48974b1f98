"""Exact determinants over the rings used in this package.

Supported entry types: int, Fraction, Cyclotomic, LaurentPoly, RatFunc.
The default pipeline clears RatFunc denominators row by row, scales each
row whose coefficients are rational to a primitive integer row (dividing
out its content, a positive rational), runs fraction-free Bareiss
elimination over Z or Z[t] (every division in Bareiss is exact there), and
multiplies the contents and divides the cleared determinant back out.
The determinant sides of the state-sum identity call the clearing step,
cleared_reciprocals, directly on their polynomial denominators.
The cofactor (bitmask subset DP) expansion _det_cofactor works over any
commutative ring; det_exact never calls it, and the tests use it as the
oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul

from .laurent import LaurentPoly, RatFunc, _split, divide_exact


class RingMatrix:
    """Immutable rectangular matrix over an arbitrary commutative ring."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = width

    @classmethod
    def from_fn(cls, nrows, ncols, fn):
        return cls([[fn(i, j) for j in range(ncols)] for i in range(nrows)])

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    @property
    def is_square(self):
        return self.nrows == self.ncols

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"RingMatrix({self.nrows}x{self.ncols})"


def det_exact(matrix):
    """Exact determinant by fraction-free Bareiss elimination over Z."""
    if not matrix.is_square:
        raise ValueError("determinant of a non-square matrix")
    if any(isinstance(x, RatFunc) for row in matrix.rows for x in row):
        return _det_cleared(matrix)
    return _det_primitive(matrix.rows)


def cleared_reciprocals(e):
    """The matrix [prod_{k != j} e_ik] of a square array of polynomials.

    Row i is [1/e_ij] times R_i = prod_k e_ik, so its determinant is
    det[1/e_ij] * prod_{i,j} e_ij.  A row is built from prefix and suffix
    products in 3n - 4 multiplies.
    """
    rows = []
    for row in e:
        out = [LaurentPoly.one(row[0].nvars)]
        for x in row[:-1]:
            out.append(out[-1] * x)         # prod_{k < j} e_ik
        suffix = row[-1]
        for j in range(len(row) - 2, -1, -1):
            out[j] = out[j] * suffix        # times prod_{k > j} e_ik
            if j:
                suffix = suffix * row[j]
        rows.append(out)
    return RingMatrix(rows)


def _det_cleared(matrix):
    """Clear RatFunc denominators by rows, then Bareiss over polynomials.

    With C the cleared reciprocals of the denominators, B_ij = num_ij * C_ij
    equals M_ij * R_i for R_i = prod_j den_ij, so det(M) = det(B) / prod_i
    R_i, returned unreduced as a RatFunc.
    """
    entries = [[_as_ratfunc(x) for x in row] for row in matrix.rows]
    dens = [[x.den for x in row] for row in entries]
    cleared = cleared_reciprocals(dens).rows
    rows = [[x.num * c for x, c in zip(er, cr)]
            for er, cr in zip(entries, cleared)]
    den_total = reduce(mul, (dr[0] * cr[0] for dr, cr in zip(dens, cleared)))
    return RatFunc(_det_primitive(rows), den_total)


def _det_primitive(rows):
    """Bareiss on the primitive rows, times the product of the contents."""
    content = 1
    primitive = []
    for row in rows:
        c, row = _primitive_row(row)
        content *= c
        primitive.append(row)
    d = _det_bareiss(primitive)
    if content == 1:
        return d
    return d * (content.numerator if content.denominator == 1 else content)


def _primitive_row(row):
    """(c, row / c) with c the positive rational content of the row's
    coefficients; (1, row) for a zero row or one with a coefficient that
    is not rational."""
    coeffs = []
    for x in row:
        coeffs.extend(x.terms.values() if isinstance(x, LaurentPoly) else (x,))
    split = _split(coeffs) if any(coeffs) else None
    if split is None or split[0] == 1:
        return 1, row
    content, ints = split
    it = iter(ints)
    return content, [
        LaurentPoly._clean(x.nvars, x.scale, {k: next(it) for k in x.terms})
        if isinstance(x, LaurentPoly) else next(it) for x in row]


def _det_bareiss(rows):
    """Fraction-free Bareiss elimination with row pivoting."""
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((r for r in range(k + 1, n) if a[r][k]), None)
            if swap is None:
                return _ring_zero(a[k][k])
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = t if prev is None else _exact_div(t, prev)
            a[i][k] = _ring_zero(a[i][k])
        prev = a[k][k]
    d = a[n - 1][n - 1]
    return d if sign == 1 else -d


def _det_cofactor(matrix):
    """Subset DP over column masks; O(2^n * n) ring operations.

    dp[mask] is the determinant-like sum for the top r rows using the
    column set in mask (r = popcount).  Division-free, so it is valid
    over any commutative ring and independent of the Bareiss path.
    """
    n = matrix.nrows
    rows = matrix.rows
    dp = {(1 << j): rows[0][j] for j in range(n)}
    for r in range(1, n):
        ndp = {}
        for mask, val in dp.items():
            used_below = 0
            for j in range(n):
                bit = 1 << j
                if mask & bit:
                    used_below += 1
                    continue
                term = val * rows[r][j]
                if (r - used_below) % 2:
                    term = -term
                nmask = mask | bit
                ndp[nmask] = ndp[nmask] + term if nmask in ndp else term
        dp = ndp
    return dp[(1 << n) - 1]


def _exact_div(value, divisor):
    if isinstance(value, LaurentPoly):
        return divide_exact(value, divisor)
    if isinstance(value, int) and isinstance(divisor, int):
        q, r = divmod(value, divisor)
        if r:
            raise ArithmeticError("inexact integer division in Bareiss step")
        return q
    return value / divisor


def _ring_zero(sample):
    if isinstance(sample, LaurentPoly):
        return LaurentPoly.zero(sample.nvars)
    if isinstance(sample, RatFunc):
        return RatFunc(LaurentPoly.zero(sample.num.nvars))
    if isinstance(sample, Fraction):
        return Fraction(0)
    return 0


def _as_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, LaurentPoly):
        return RatFunc(x)
    raise TypeError(f"cannot clear denominators of {type(x).__name__}")
