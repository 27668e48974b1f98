"""Auxiliary determinant identities used by the counting chain.

Three families of matrices, all with exact closed or semi-closed
determinants:

* the reciprocal-difference matrix T_{i,j} = 1/[x_i - y_j], whose
  determinant is (prod_{j<i} [x_i-x_j])(prod_{i<j} [y_i-y_j]) /
  prod_{i,j} [x_i-y_j];

* the ratio matrix S(n)_{i,j} = d(a*(i+j+1)) / d(b*(i+j+1)) for
  d(k) = u^(k/2) - u^(-k/2), which is S(n;s,t) of the source identity under
  the substitution s = u^a, t = u^b.  Its determinant in closed form is

      prod_{j<i} d(b(i-j))^2 / prod_{i,j} d(b(i+j+1))
      * prod_{k=0}^{n-1} d(a-bk)^(n-k) * prod_{k=1}^{n-1} d(a+bk)^(n-k),

  derived from the divisibility/degree argument and pinned against the
  direct determinant (the leading constant is not trusted from any printed
  form).  A true bivariate (s,t) mode cross-checks small n;

* the shifted matrices M_{i,j} = (x^2-4x)/(s^g + 2 - x + s^(-g)) with
  g = f_i - f_j' over an epsilon-multiplier grid, including the symmetric
  grids (f reversed = -f) whose M commutes with the antidiagonal
  permutation and splits into two blocks.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .brackets import BracketProduct, qdiff, qdiff_product
from .laurent import LaurentPoly, RatFunc
from .matrices import RingMatrix, det_exact

FORMAL = None


# ---------- reciprocal-difference (Cauchy-type) determinant ----------

def cauchy_matrix(xs, ys):
    """T_{i,j} = 1/[x_i - y_j] over the formal q-variable."""
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    scale = lcm(*(v.denominator for v in xs + ys))
    n = len(xs)
    if len(ys) != n:
        raise ValueError("parameter count mismatch")
    _require_distinct(xs, "x")
    _require_distinct(ys, "y")

    def entry(i, j):
        d = qdiff(xs[i] - ys[j], scale)
        if d.is_zero:
            raise ValueError(f"x_{i} - y_{j} = 0: entry pole")
        return RatFunc(qdiff(1, scale), d)

    return RingMatrix.from_fn(n, n, entry)


def cauchy_det_closed(xs, ys):
    """Closed form (prod [x_i-x_j])(prod [y_i-y_j]) / prod [x_i-y_j],
    assembled as b^n * prod d(x_i-x_j) prod d(y_i-y_j) / prod d(x_i-y_j)."""
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    scale = lcm(*(v.denominator for v in xs + ys))
    n = len(xs)
    if len(ys) != n:
        raise ValueError("parameter count mismatch")
    num = (qdiff(1, scale) ** n * qdiff_product(xs, scale)
           * qdiff_product(ys[::-1], scale))
    den = LaurentPoly.one(1, scale)
    for x in xs:
        for y in ys:
            den = den * qdiff(x - y, scale)
    return RatFunc(num, den)


def _require_distinct(vals, name):
    if len(set(vals)) != len(vals):
        raise ValueError(f"{name} parameters must be pairwise distinct")


# ---------- the ratio matrix S and its closed determinant ----------

def s_matrix(n, a, b):
    """S_{i,j} = d(a*(i+j+1))/d(b*(i+j+1)) in one formal variable."""
    if b == 0:
        raise ValueError("b must be nonzero")

    def entry(i, j):
        m = i + j + 1
        return RatFunc(qdiff(a * m), qdiff(b * m))

    return RingMatrix.from_fn(n, n, entry)


def s_det_product(n, a, b):
    """det s_matrix(n,a,b) in factored BracketProduct form."""
    if b == 0:
        raise ValueError("b must be nonzero")
    out = BracketProduct.one()
    for i in range(n):
        for j in range(i):
            out = out * BracketProduct.diff(b * (i - j), 2)
    for i in range(n):
        for j in range(n):
            out = out * BracketProduct.diff(b * (i + j + 1), -1)
    for k in range(n):
        out = out * BracketProduct.diff(a - b * k, n - k)
    for k in range(1, n):
        out = out * BracketProduct.diff(a + b * k, n - k)
    return out


def s_det_closed(n, a, b):
    """det s_matrix(n,a,b) as an explicit RatFunc."""
    return s_det_product(n, a, b).expand_ratfunc()


def s_matrix_bivariate(n):
    """S(n;s,t) with both variables formal (small-n cross-check mode)."""
    def entry(i, j):
        m = i + j + 1
        return RatFunc(qdiff(m, 1, 2, 0), qdiff(m, 1, 2, 1))

    return RingMatrix.from_fn(n, n, entry)


def s_det_closed_bivariate(n):
    """Closed form of det S(n;s,t) in the two formal variables.

    Mixed factors s^(1/2) t^(-k/2) - s^(-1/2) t^(k/2) are the images of
    d(a - bk) under u^a -> s, u^b -> t; up to a unit monomial each equals
    s - t^k.
    """
    def mixed(k):
        return LaurentPoly(2, 1, {(1, -k): 1, (-1, k): -1})

    def dt(m):
        return qdiff(m, 1, 2, 1)

    num = LaurentPoly.one(2, 1)
    for i in range(n):
        for j in range(i):
            num = num * dt(i - j) ** 2
    for k in range(n):
        num = num * mixed(k) ** (n - k)
    for k in range(1, n):
        num = num * mixed(-k) ** (n - k)
    den = LaurentPoly.one(2, 1)
    for i in range(n):
        for j in range(n):
            den = den * dt(i + j + 1)
    return RatFunc(num, den)


# ---------- epsilon grids and the general-x matrix ----------

class EpsilonGrid:
    """Multipliers f (rows) and f' (columns): x_i = 1/2 + f_i*eps,
    y_j = f'_j*eps; the matrix exponent is g_{i,j} = f_i - f'_j."""

    __slots__ = ("row_f", "col_f")

    def __init__(self, row_f, col_f):
        self.row_f = tuple(Fraction(v) for v in row_f)
        self.col_f = tuple(Fraction(v) for v in col_f)
        if len(self.row_f) != len(self.col_f):
            raise ValueError("row and column grids must have equal length")
        _require_distinct(self.row_f, "row multiplier")
        _require_distinct(self.col_f, "column multiplier")

    @classmethod
    def standard(cls, n):
        """Rows 1..n, columns 0,-1,...,1-n, so g_{i,j} = i+j+1."""
        return cls(range(1, n + 1), range(0, -n, -1))

    @classmethod
    def symmetric(cls, f):
        """One multiplier list with f reversed = -f, rows = columns."""
        f = [Fraction(v) for v in f]
        n = len(f)
        if any(f[n - 1 - i] != -f[i] for i in range(n)):
            raise ValueError("multipliers must satisfy f[n-1-i] = -f[i]")
        return cls(f, f)

    @property
    def n(self):
        return len(self.row_f)

    def g(self, i, j):
        return self.row_f[i] - self.col_f[j]

    def __repr__(self):
        return f"EpsilonGrid(rows={list(self.row_f)}, cols={list(self.col_f)})"


def general_x_matrix(grid, x=FORMAL, s=FORMAL):
    """M_{i,j} = (x^2-4x) / (s^g + 2 - x + s^(-g)), g = grid.g(i,j).

    Either or both of x and s may be left formal.  With both formal the
    entries are bivariate (variable 0 is s, variable 1 is x); with one
    rational value substituted they are univariate in the other.
    """
    n = grid.n
    if x is FORMAL and s is FORMAL:
        xvar = LaurentPoly.var_power(1, 1, 1, 2)
        num = xvar * xvar - 4 * xvar

        def entry(i, j):
            g = grid.g(i, j)
            den = _spow_bivar(g) + _spow_bivar(-g) + 2 - xvar
            return RatFunc(num, den)
    elif x is FORMAL:
        s_val = Fraction(s)
        num = LaurentPoly(1, 1, {(4,): 1, (2,): -4})

        def entry(i, j):
            g = grid.g(i, j)
            c = _rat_pow(s_val, g) + _rat_pow(s_val, -g) + 2
            den = LaurentPoly(1, 1, {(0,): c, (2,): -1})
            return RatFunc(num, den)
    elif s is FORMAL:
        xv = Fraction(x)
        num = LaurentPoly.const(xv * xv - 4 * xv)

        def entry(i, j):
            g = grid.g(i, j)
            den = _spow(g) + _spow(-g) + (2 - xv)
            if den.is_zero:
                raise ValueError(f"zero denominator at entry ({i},{j})")
            return RatFunc(num, den)
    else:
        xv = Fraction(x)
        s_val = Fraction(s)

        def entry(i, j):
            g = grid.g(i, j)
            den = _rat_pow(s_val, g) + _rat_pow(s_val, -g) + 2 - xv
            if not den:
                raise ValueError(f"zero denominator at entry ({i},{j})")
            return (xv * xv - 4 * xv) / den

    return RingMatrix.from_fn(n, n, entry)


def _spow(g):
    g = Fraction(g)
    return LaurentPoly.var_power(g, (2 * g).denominator)


def _spow_bivar(g):
    g = Fraction(g)
    return LaurentPoly.var_power(g, (2 * g).denominator, 0, 2)


def _rat_pow(base, e):
    e = Fraction(e)
    if e.denominator != 1:
        raise ValueError("rational s requires integer grid exponents")
    e = int(e)
    if e >= 0:
        return Fraction(base) ** e
    return 1 / Fraction(base) ** (-e)


# ---------- antidiagonal block decomposition ----------

def antidiagonal_block_det(m):
    """Block determinants of a matrix commuting with the antidiagonal flip.

    Requires M[n-1-i][n-1-j] = M[i][j].  In the basis e_i + e_{n-1-i}
    (plus the fixed middle vector when n is odd) and e_i - e_{n-1-i}, M is
    block diagonal; returns (det of the symmetric block, det of the
    antisymmetric block), whose product is det M.
    """
    if not m.is_square:
        raise ValueError("matrix must be square")
    n = m.nrows
    for i in range(n):
        for j in range(n):
            if not (m[n - 1 - i, n - 1 - j] == m[i, j]):
                raise ValueError("matrix does not commute with the flip")
    h_plus = (n + 1) // 2
    h_minus = n // 2

    def plus_entry(i, j):
        if n % 2 and j == h_plus - 1:
            return m[i, j]
        return m[i, j] + m[i, n - 1 - j]

    def minus_entry(i, j):
        return m[i, j] - m[i, n - 1 - j]

    det_plus = det_exact(RingMatrix.from_fn(h_plus, h_plus, plus_entry)) \
        if h_plus else 1
    det_minus = det_exact(RingMatrix.from_fn(h_minus, h_minus, minus_entry)) \
        if h_minus else 1
    return det_plus, det_minus
