"""Exact determinants over the rings used in this package.

Supported entry types: int, Fraction, Cyclotomic, LaurentPoly, RatFunc.
det_exact clears RatFunc denominators row by row, and scales each row whose
coefficients are rational multiples of one scalar to a primitive row with
int coefficients (dividing out its content: a positive rational, or a
Cyclotomic times one).  A matrix of at most _PACKED_MAX_N rows whose
entries are then univariate LaurentPolys with int coefficients takes one
determinant over Z (packed determinants, below).  Every other matrix
(plain numbers, leftover Cyclotomic or Fraction coefficients, two
variables, or more rows) runs fraction-free Bareiss elimination over Z or
Z[t], where every division is exact.  The contents are multiplied back and the cleared denominators divided out.  The
determinant sides of the state-sum identity call the clearing step,
cleared_reciprocals, directly on their polynomial denominators.

The cofactor (bitmask subset DP) expansion _det_cofactor divides nothing,
so it works over any commutative ring.  It takes the packed path's
determinant over Z; on the unpacked entries the tests use it, and
Bareiss, as the oracles.

Packed determinants.  _det_packed lays the entries of an n x n matrix A of
Laurent polynomials in t with int coefficients on one laurent._Layout and
takes the determinant of the packed ints by _det_cofactor; packing is a
ring map and a determinant is a polynomial in the entries, so that
determinant packs det A.  The matrix states three things:
- Shifts.  Let r_i be the least exponent in row i, and c_j the least over
  i of (the least exponent of a_ij) - r_i, with 0 for a zero row or
  column.  B = diag(t^(-r)) A diag(t^(-c)) has no negative exponent, and
  det A = t^(sum r + sum c) det B.
- Slot width.  A coefficient d_k of det B is the mean of det B(z) z^(-k)
  over the unit circle, so |d_k| <= max |det B(z)| over |z| = 1.  There
  |b_ij(z)| <= L1(b_ij) = L1(a_ij), so Hadamard's inequality, |det M| <=
  the product of the Euclidean lengths of M's rows, gives |d_k| <=
  sqrt(P), P = prod_i S_i with S_i = sum_j L1(a_ij)^2, and the bound is
  isqrt(P) + 1.  Every coefficient of an entry fits too: it is at most
  L1(a_ij) <= sqrt(S_i) <= sqrt(P), as long as no S_i is 0; a zero row
  counts 1 in P, which keeps this and still bounds det B = 0.
- Slot count.  Each term of det B takes one entry from every row and
  every column, so deg det B is at most the sum over the rows of B of the
  largest degree in each, and likewise over the columns: top is the
  smaller sum.

The cutoff _PACKED_MAX_N is measured.  The subset expansion makes
n * 2^(n-1) products, each of a minor by one entry, and no division;
Bareiss makes about n^3 products and exact divisions.  det_exact was timed
with the packed path forced on and forced off (one to three runs, Python
3.11 on one core of an Intel Xeon) on Cauchy matrices [1/[x_i - y_j]],
S(n; 1, 3), general_x_matrix at s = 7/5, and the cleared Izergin-Korepin
matrices of ik_z, whose entries run to hundreds of terms, on several
parameter draws per n.  Packed time over Bareiss time:
- n = 5: 0.25, 0.11, 0.59, and 0.30 to 0.61 on four Izergin-Korepin
  draws: packed wins everywhere;
- n = 6: 0.34, 0.18, 0.53, and 0.49 to 0.78 on five of six
  Izergin-Korepin draws, 1.24 to 1.32 on the sixth;
- n = 7: 0.40, 0.38, 0.69, but 1.15 to 1.39 on four of five
  Izergin-Korepin draws (0.92 on the fifth);
- n = 8: 0.78, 0.78, 0.94, and 1.23 on the one Izergin-Korepin draw timed;
- n = 9: 1.70 on Cauchy, 1.53 on S(n; 1, 3).
So the packed path takes n <= 6, the largest n at which it wins on most
draws of the Izergin-Korepin matrices the proof rests on.  Beyond that
the 2^(n-1) factor, and a width fixed in advance that packs sparse
entries densely, outweigh Bareiss's divisions.  No benchmark workload has
a matrix of 7 or more rows, so these timings are the only measurement of
that side.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import isqrt, lcm, prod
from operator import mul

from .cyclotomic import _integral
from .laurent import (LaurentPoly, RatFunc, _l1, _Layout, _split,
                      divide_exact)

#: the most rows the packed path takes, measured (see the module docstring)
_PACKED_MAX_N = 6


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
    """Exact determinant: packed over Z, or by fraction-free Bareiss (see
    the module docstring)."""
    if not matrix.is_square:
        raise ValueError("determinant of a non-square matrix")
    if any(isinstance(x, RatFunc) for row in matrix.rows for x in row):
        return _det_cleared(matrix)
    return _det_primitive(matrix.rows)


def cleared_reciprocals(e):
    """The matrix [prod_{k != j} e_ik] of a square array of polynomials.

    Row i is [1/e_ij] times R_i = prod_k e_ik, so its determinant is
    det[1/e_ij] * prod_{i,j} e_ij.  A row of n >= 2 entries is built from
    prefix and suffix products in 3n - 6 multiplies, none by 1.
    """
    rows = []
    for row in e:
        if len(row) == 1:
            rows.append([LaurentPoly.one(row[0].nvars)])
            continue
        out = [None, row[0]]
        for x in row[1:-1]:
            out.append(out[-1] * x)         # prod_{k < j} e_ik
        suffix = row[-1]
        for j in range(len(row) - 2, 0, -1):
            out[j] = out[j] * suffix        # times prod_{k > j} e_ik
            suffix = suffix * row[j]
        out[0] = suffix
        rows.append(out)
    return RingMatrix(rows)


def _det_cleared(matrix):
    """Clear RatFunc denominators by rows, then take the determinant.

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
    """The determinant of the primitive rows, packed or by Bareiss, times
    the product of the contents."""
    content = 1
    primitive = []
    for row in rows:
        c, row = _primitive_row(row)
        content *= c
        primitive.append(row)
    d = _det_packed(primitive)
    if d is None:
        d = _det_bareiss(primitive)
    if content == 1:
        return d
    return d * _integral(content)


def _primitive_row(row):
    """(c, row / c) with row / c having int coefficients and c the content
    of the row's coefficients (laurent._split): a positive rational, or a
    Cyclotomic times one when they are all rational multiples of one
    Cyclotomic; (1, row) for a zero row or one with no such content."""
    coeffs = []
    for x in row:
        coeffs.extend(x.terms.values() if isinstance(x, LaurentPoly) else (x,))
    split = _split(coeffs) if any(coeffs) else None
    if split is None:
        return 1, row
    content, ints = split
    it = iter(ints)
    return content, [
        LaurentPoly._clean(x.nvars, x.scale, {k: next(it) for k in x.terms})
        if isinstance(x, LaurentPoly) else next(it) for x in row]


def _det_packed(rows):
    """The subset expansion over Z of the packed rows, unpacked (see
    "Packed determinants" in the module docstring); None unless n <=
    _PACKED_MAX_N and every entry is a univariate LaurentPoly with int
    coefficients."""
    if len(rows) > _PACKED_MAX_N or not all(
            type(p) is LaurentPoly and p.nvars == 1
            and all(type(c) is int for c in p.terms.values())
            for row in rows for p in row):
        return None
    grid = lcm(*[p.scale for row in rows for p in row])
    rows = [[p.rescale(grid) for p in row] for row in rows]
    lows = [[min(p.terms)[0] if p else None for p in row] for row in rows]
    # entry (i, j) times t^(-r_i - c_j) has its exponents in [0, top_ij]
    r = [min([lo for lo in row if lo is not None], default=0)
         for row in lows]
    c = [min([row[j] - ri for row, ri in zip(lows, r) if row[j] is not None],
             default=0) for j in range(len(rows))]
    tops = [[max(p.terms)[0] - ri - cj if p else 0 for p, cj in zip(row, c)]
            for row, ri in zip(rows, r)]
    # a zero row counts 1, so that every entry fits a slot too
    hadamard = prod(max(sum(_l1(p) ** 2 for p in row), 1) for row in rows)
    layout = _Layout(grid, [k - ri - cj for row, ri in zip(rows, r)
                            for p, cj in zip(row, c) for k, in p.terms],
                     isqrt(hadamard) + 1, sum(r) + sum(c),
                     min(sum(map(max, tops)), sum(map(max, zip(*tops)))))
    ints = [[layout.pack(p, ri + cj) for p, cj in zip(row, c)]
            for row, ri in zip(rows, r)]
    return layout.unpack(_det_cofactor(RingMatrix(ints)))


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
    if isinstance(sample, Fraction):
        return Fraction(0)
    return 0


def _as_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, LaurentPoly):
        return RatFunc(x)
    raise TypeError(f"cannot clear denominators of {type(x).__name__}")
