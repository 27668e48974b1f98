"""Exact determinants over the rings used in this package.

Supported entry types: int, Fraction, Cyclotomic, LaurentPoly, RatFunc.
Entries may be mixed: det_exact first lifts the matrix into one ring.
When any entry is a RatFunc, every entry becomes a RatFunc; otherwise,
when any entry is a LaurentPoly, every scalar becomes a constant
(laurent._lift), on the grid of the first polynomial entry (a RatFunc's
numerator).  A matrix with no polynomial entry, or with no
scalar one, is taken as it stands.  det_exact clears RatFunc
denominators row by row, by cleared_det.  A matrix of at most
_PACKED_MAX_N rows whose entries are LaurentPolys with int coefficients,
or products of such, takes one determinant over Z (packed determinants,
below).  Every other matrix (plain numbers, Cyclotomic or Fraction
coefficients, or more rows) runs fraction-free
Bareiss elimination over its entries' ring, where every division is
exact, and the cleared denominators are divided out.  No content is
split off a row: the callers build their polynomial determinants over Z
(the chain module clears the tau matrix of the denominator of x, and
RatFunc keeps int coefficients), so a polynomial determinant that the
packer refuses is refused for its size, which no scaling of the rows
changes.  The determinant sides of the state-sum
identity call the clearing step, cleared_det, directly on their
polynomial denominators.

The cofactor (bitmask subset DP) expansion _det_cofactor divides nothing,
so it works over any commutative ring.  It takes the packed path's
determinant over Z; on the unpacked entries the tests use it, and
Bareiss, as the oracles.

Packed determinants.  _det_packed takes an n x n matrix A whose entry
a_ij is given as a tuple of factors, Laurent polynomials in t with int
coefficients whose product it is (the empty tuple is 1, and a zero factor
makes the entry 0), and takes det A on one laurent._Layout by
_det_cofactor.  Packing is evaluation at 2^W, a ring map, so the
determinant of the packed entries packs det A, and the expansion may
multiply and add packed ints and read no slot until the end.  No entry
is packed or expanded as a polynomial: each distinct factor is laid on
the layout once, as the (bit offset, coefficient) pairs of its terms,
and an entry is a multiplier (laurent._Shifts) that shifts a minor to
the entry's least exponent and multiplies in one factor at a time,
sum_k c_k (v << k*W).  A factor of k terms costs k linear passes over
the minor, where one multiply by the whole packed entry would be a
Karatsuba product with an int as wide as the entry's span.  Row 0
enters the expansion as ints (1 times its multipliers), the later rows
as multipliers.  Only the determinant's slots need to fit.  The matrix
states three things:
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
  isqrt(P) + 1 (1 when a zero row makes P = 0 and det B = 0).
- Slot count.  Each term of det B takes one entry from every row and
  every column, so deg det B is at most the sum over the rows of B of the
  largest degree in each, and likewise over the columns: top is the
  smaller sum.

A plain matrix reaches the same packer with each entry a 1-tuple.  When
the packer refuses, the factors are multiplied out and the matrix goes to
Bareiss, so it sees the same matrices whatever the entries' factors.

The cutoff _PACKED_MAX_N is measured.  The subset expansion makes
n * 2^(n-1) products, each of a minor by one entry, and no division;
Bareiss makes about n^3 products and exact divisions.  The packed path
was timed with the cutoff forced to 99 against the Bareiss path with it
forced to 1 (so entries are still multiplied out on the packer), best
of three under 0.5 s and else one run, Python 3.11 on one core of an
Intel Xeon: det_exact on Cauchy matrices [1/[x_i - y_j]], S(n; 1, 3) and
general_x_matrix at s = 7/5 on the symmetric grid, and cleared_det on
the chain's tau matrix at x = 3 and on the cleared Izergin-Korepin
matrices of ik_z (verify._draw_ik_params of random.Random(101) and
(102)), whose entries have n - 1 factors of up to 4 terms.  Packed time over Bareiss time:
- n = 5: 0.12, 0.15, 0.33, 0.08, and 0.04 to 0.05;
- n = 6: 0.10, 0.10, 0.20, 0.11, and 0.04 to 0.06;
- n = 7: 0.17, 0.13, 0.20, 0.16, and 0.05 to 0.06;
- n = 8: 0.22, 0.20, 0.21, 0.31, and 0.07 on the one draw timed
  (3.5 s against 48 s);
- n = 9 and 10 (Izergin-Korepin not timed): 0.25, 0.33, 0.40, 0.39 and
  0.61, 0.46, 0.38, 0.70;
- n = 11 and 12 (Cauchy and tau only): 1.35, 1.06 and 2.03, 1.68.
The packed path wins most on the Izergin-Korepin entries, whose factors
have few terms, so that each product is a few linear passes, but its
2^(n-1) products overtake Bareiss's n^3 at n = 11.  The cutoff is the
largest n at which every kind takes at most half of Bareiss's time, a
margin for the machine's speed swings of about 25 % between runs.
"""

from __future__ import annotations

from functools import reduce
from math import isqrt, lcm, prod
from operator import mul

from .laurent import (LaurentPoly, RatFunc, _l1, _Layout, _lift, _Shifts,
                      divide_exact)

#: the most rows the packed path takes, measured (see the module docstring)
_PACKED_MAX_N = 9


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


def det_exact(matrix):
    """Exact determinant: packed over Z, or by fraction-free Bareiss (see
    the module docstring)."""
    if not matrix.is_square:
        raise ValueError("determinant of a non-square matrix")
    rows = matrix.rows
    polys = [x for row in rows for x in row
             if isinstance(x, (LaurentPoly, RatFunc))]
    if polys and len(polys) < len(rows) ** 2:
        like = polys[0].num if isinstance(polys[0], RatFunc) else polys[0]
        rows = [[_lift(x, like) for x in row] for row in rows]
    if any(isinstance(x, RatFunc) for x in polys):
        return _det_cleared(rows)
    d = _det_packed([[(x,) for x in row] for row in rows])
    return _det_bareiss(rows) if d is None else d


def cleared_det(dens, nums=None):
    """det[num_ij * prod_{k != j} den_ik] of a square array of polynomials
    dens and one of numerators nums (all 1 when None).

    Row i is [num_ij / den_ij] times R_i = prod_k den_ik, so this is
    det[num_ij / den_ij] * prod_{i,j} den_ij.  Each entry goes to the
    packer as its factors, the numerator first (see "Packed determinants"
    in the module docstring); when the packer refuses them, they are
    multiplied out and the determinant taken by Bareiss.  ValueError on
    an empty, ragged or non-square array, or nums of another shape.
    """
    n = len(dens)
    arrays = (dens,) if nums is None else (dens, nums)
    if not n or any(len(a) != n or any(len(row) != n for row in a)
                    for a in arrays):
        raise ValueError("cleared_det needs nonempty square arrays of one "
                         "size")
    rows = [[(() if nums is None else (nums[i][j],)) + row[:j] + row[j + 1:]
             for j in range(len(row))]
            for i, row in enumerate(map(tuple, dens))]
    d = _det_packed(rows)
    if d is None:
        d = _det_bareiss([[_product(e) for e in row] for row in rows])
    return d


def _det_cleared(rows):
    """Clear RatFunc denominators by rows, then take the determinant:
    det(M) = cleared_det(dens, nums) / prod_{i,j} den_ij, returned
    unreduced as a RatFunc."""
    entries = [[x if isinstance(x, RatFunc) else RatFunc(x) for x in row]
               for row in rows]
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
    _PACKED_MAX_N and every factor of every entry is a LaurentPoly with
    int coefficients."""
    if len(rows) > _PACKED_MAX_N:
        return None
    # each distinct factor once, checked before any of its attributes is
    # read
    factors = {id(p): p for row in rows for e in row for p in e}.values()
    if not all(type(p) is LaurentPoly
               and all(type(c) is int for c in p.terms.values())
               for p in factors):
        return None
    grid = lcm(*[p.scale for p in factors])
    # each nonzero factor: on the grid, its least and greatest exponent
    # and its L1 norm
    spans = {}
    for p in factors:
        if p:
            q = p.rescale(grid)
            spans[id(p)] = q, min(q.terms), max(q.terms), _l1(q.terms)
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
    hadamard = prod(sum(prod(f[3] for f in e) ** 2
                        for e in row if e is not None) for row in rows)
    exps = [lo - ri - cj for row, ri in zip(lows, r)
            for lo, cj in zip(row, c) if lo is not None]
    exps += [k - lo for q, lo, _, _ in spans.values() for k in q.terms]
    layout = _Layout(grid, exps, isqrt(hadamard) + 1, sum(r) + sum(c),
                     min(sum(map(max, tops)), sum(map(max, zip(*tops)))))
    # each factor laid on the layout once; an entry multiplies by its
    # factors, the first one shifted to the entry's base exponent
    placed = {id(f): layout.place(f[0], f[1]) for f in spans.values()}
    entries = [[_entry(layout, [placed[id(f)] for f in e], lo - ri - cj)
                if e is not None else 0
                for e, lo, cj in zip(row, lrow, c)]
               for row, lrow, ri in zip(rows, lows, r)]
    entries[0] = [1 * e for e in entries[0]]
    return layout.unpack(_det_cofactor(RingMatrix(entries)))


def _entry(layout, factors, base):
    """The multiplier by an entry t^base * prod(factors), each factor
    placed on the layout with its least exponent at 0 (1 for none)."""
    first, *rest = factors or [[(0, 1)]]
    shift = base // layout.g * layout.width
    return _Shifts([[(s + shift, c) for s, c in first], *rest])


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
                return a[k][k]
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
