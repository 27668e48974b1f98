"""Exact determinants over the rings used in this package.

Supported entry types: int, Fraction, Cyclotomic, LaurentPoly, RatFunc.
det_exact clears RatFunc denominators row by row, by cleared_det.  A
matrix of at most _PACKED_MAX_N rows whose entries are univariate
LaurentPolys with int coefficients, or products of such, takes one
determinant over Z (packed determinants, below).  Every other matrix
(plain numbers, Cyclotomic or Fraction coefficients, two variables, or
more rows) runs fraction-free Bareiss elimination over its entries' ring,
where every division is exact, and the cleared denominators are divided
out.  No content is split off a row: the callers build their polynomial
determinants over Z (the chain module clears the tau matrix of the
denominator of x, and RatFunc keeps int coefficients), so a polynomial
determinant that the packer refuses is refused for its size or its
second variable, which no scaling of the rows changes.  The determinant sides of the state-sum identity
call the clearing step, cleared_det, directly on their polynomial
denominators.

The cofactor (bitmask subset DP) expansion _det_cofactor divides nothing,
so it works over any commutative ring.  It takes the packed path's
determinant over Z; on the unpacked entries the tests use it, and
Bareiss, as the oracles.

Packed determinants.  _det_packed takes an n x n matrix A whose entry
a_ij is given as a tuple of factors, Laurent polynomials in t with int
coefficients whose product it is (the empty tuple is 1, and a zero factor
makes the entry 0), lays every entry
on one laurent._Layout and takes the determinant of the packed ints by
_det_cofactor.  Packing is evaluation at 2^W, a ring map, so an entry packs
to the product of its packed factors, and the determinant of the packed
entries packs det A.  So no entry is expanded as a polynomial: its first
factor is packed by laurent._pack and multiplied by each other one by
shift-and-add, sum_k c_k (v << k*W), as diff_product and the state sums
do.  Only the determinant's slots need to fit (and the first factors', see
below).  The matrix states three things:
- Shifts.  Z[t] is a domain, so the least and greatest exponent of a_ij
  are the sums of its factors' ones.  Let r_i be the least exponent in row
  i, and c_j the least over i of (the least exponent of a_ij) - r_i, with 0
  for a zero row or column.  B = diag(t^(-r)) A diag(t^(-c)) has no
  negative exponent, and det A = t^(sum r + sum c) det B.  Every exponent
  of b_ij is its base, the least one, plus one offset k - lo from each
  factor, so the lattice step g is the gcd of the bases and the factors'
  offsets.
- Slot width.  A coefficient d_k of det B is the mean of det B(z) z^(-k)
  over the unit circle, so |d_k| <= max |det B(z)| over |z| = 1.  There
  |b_ij(z)| <= L1(b_ij) <= l_ij, the product of the L1 norms of its
  factors, as L1(fg) <= L1(f) L1(g).  So Hadamard's inequality, |det M| <=
  the product of the Euclidean lengths of M's rows, gives |d_k| <=
  sqrt(P), P = prod_i S_i with S_i = sum_j l_ij^2, and the bound is
  isqrt(P) + 1.  Every coefficient of a first factor fits too: it is at
  most its L1 <= l_ij <= sqrt(S_i) <= sqrt(P), as long as no S_i is 0; a
  zero row counts 1 in P, which keeps this and still bounds det B = 0.
- Slot count.  Each term of det B takes one entry from every row and
  every column, so deg det B is at most the sum over the rows of B of the
  largest degree in each, and likewise over the columns: top is the
  smaller sum.

A plain matrix reaches the same packer with each entry a 1-tuple.  When
the packer refuses, the factors are multiplied out and the matrix goes to
Bareiss, so it sees the same matrices whatever the entries' factors.

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

from .laurent import LaurentPoly, RatFunc, _l1, _Layout, divide_exact

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
    d = _det_packed([[(x,) for x in row] for row in matrix.rows])
    return _det_bareiss(matrix.rows) if d is None else d


def cleared_det(dens, nums=None):
    """det[num_ij * prod_{k != j} den_ik] of a square array of polynomials
    dens and one of numerators nums (all 1 when None).

    Row i is [num_ij / den_ij] times R_i = prod_k den_ik, so this is
    det[num_ij / den_ij] * prod_{i,j} den_ij.  Each entry goes to the
    packer as its factors, the numerator first (see "Packed determinants"
    in the module docstring); when the packer refuses them, they are
    multiplied out and the determinant taken by Bareiss.
    """
    rows = [[(() if nums is None else (nums[i][j],)) + row[:j] + row[j + 1:]
             for j in range(len(row))]
            for i, row in enumerate(map(tuple, dens))]
    d = _det_packed(rows)
    if d is None:
        d = _det_bareiss([[_product(e) for e in row] for row in rows])
    return d


def _det_cleared(matrix):
    """Clear RatFunc denominators by rows, then take the determinant:
    det(M) = cleared_det(dens, nums) / prod_{i,j} den_ij, returned
    unreduced as a RatFunc."""
    entries = [[_as_ratfunc(x) for x in row] for row in matrix.rows]
    dens = [[x.den for x in row] for row in entries]
    nums = [[x.num for x in row] for row in entries]
    every = tuple(d for row in dens for d in row)
    return RatFunc(cleared_det(dens, nums), _product(every))


def _product(factors):
    """The product of a tuple of factors: by shift-and-add, as the packed
    determinant of one entry, or multiplied out when the packer refuses
    them."""
    p = _det_packed([[factors]])
    return reduce(mul, factors) if p is None else p


def _det_packed(rows):
    """The subset expansion over Z of the packed rows, unpacked (see
    "Packed determinants" in the module docstring); None unless n <=
    _PACKED_MAX_N and every factor of every entry is a univariate
    LaurentPoly with int coefficients."""
    factors = [p for row in rows for e in row for p in e]
    if len(rows) > _PACKED_MAX_N or not all(
            type(p) is LaurentPoly and p.nvars == 1
            and all(type(c) is int for c in p.terms.values())
            for p in factors):
        return None
    grid = lcm(*[p.scale for p in factors])
    # each nonzero factor once: on the grid, its least and greatest
    # exponent and its L1 norm
    spans = {}
    for p in factors:
        if p and id(p) not in spans:
            q = p.rescale(grid)
            spans[id(p)] = q, min(q.terms)[0], max(q.terms)[0], _l1(q)
    rows = [[[spans[id(p)] for p in e] if all(e) else None for e in row]
            for row in rows]
    lows = [[sum(f[1] for f in e) if e is not None else None for e in row]
            for row in rows]
    # entry (i, j) times t^(-r_i - c_j) has its exponents in [0, top_ij]
    r = [min([lo for lo in row if lo is not None], default=0)
         for row in lows]
    c = [min([row[j] - ri for row, ri in zip(lows, r) if row[j] is not None],
             default=0) for j in range(len(rows))]
    tops = [[sum(f[2] for f in e) - ri - cj if e is not None else 0
             for e, cj in zip(row, c)] for row, ri in zip(rows, r)]
    # a zero row counts 1, so that every first factor fits a slot too
    hadamard = prod(max(sum(prod(f[3] for f in e) ** 2
                            for e in row if e is not None), 1)
                    for row in rows)
    exps = [lo - ri - cj for row, ri in zip(lows, r)
            for lo, cj in zip(row, c) if lo is not None]
    exps += [k - lo for q, lo, _, _ in spans.values() for k, in q.terms]
    layout = _Layout(grid, exps, isqrt(hadamard) + 1, sum(r) + sum(c),
                     min(sum(map(max, tops)), sum(map(max, zip(*tops)))))
    ints = [[_packed_entry(layout, e, lo - ri - cj) if e is not None else 0
             for e, lo, cj in zip(row, lrow, c)]
            for row, lrow, ri in zip(rows, lows, r)]
    return layout.unpack(_det_cofactor(RingMatrix(ints)))


def _packed_entry(layout, e, base):
    """The product of the factors e, each (p, its least exponent, ...),
    with its least exponent moved to base, packed on the layout: the first
    factor by _pack, and each other one multiplied in by shift-and-add."""
    if not e:
        return 1 << base // layout.g * layout.width
    (p, lo, *_), *rest = e
    v = layout.pack(p, lo - base)
    for p, lo, *_ in rest:
        v = sum([c * (v << s) for s, c in layout.place(p, lo)])
    return v


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
