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

S depends on i + j only, and M on g only, so each distinct entry is built
once and shared by every (i, j) that holds it; the packed determinant
(matrices) then reads each distinct factor once.  The Cauchy matrix
shares its numerator d(1).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .brackets import BracketProduct, qdiff, qdiff_product
from .laurent import LaurentPoly, RatFunc, diff_product
from .matrices import RingMatrix, det_exact

FORMAL = None


# ---------- reciprocal-difference (Cauchy-type) determinant ----------

def cauchy_matrix(xs, ys):
    """T_{i,j} = 1/[x_i - y_j] over the formal q-variable."""
    xs, ys = _cauchy_params(xs, ys)
    n = len(xs)
    _require_distinct(xs, "x")
    _require_distinct(ys, "y")

    one = qdiff(1)

    def entry(i, j):
        d = qdiff(xs[i] - ys[j])
        if d.is_zero:
            raise ValueError(f"x_{i} - y_{j} = 0: entry pole")
        return RatFunc(one, d)

    return RingMatrix.from_fn(n, n, entry)


def cauchy_det_closed(xs, ys):
    """Closed form (prod [x_i-x_j])(prod [y_i-y_j]) / prod [x_i-y_j],
    assembled as b^n * prod d(x_i-x_j) prod d(y_i-y_j) / prod d(x_i-y_j)."""
    xs, ys = _cauchy_params(xs, ys)
    num = qdiff_product(xs, ys[::-1], beta_power=len(xs))
    den = diff_product(Counter(x - y for x in xs for y in ys))
    return RatFunc(num, den)


def _cauchy_params(xs, ys):
    """xs and ys as Fractions; ValueError unless both hold n >= 1 values."""
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    if len(ys) != len(xs):
        raise ValueError("parameter count mismatch")
    if not xs:
        raise ValueError("need at least one x and one y parameter")
    return xs, ys


def _require_distinct(vals, name):
    if len(set(vals)) != len(vals):
        raise ValueError(f"{name} parameters must be pairwise distinct")


# ---------- the ratio matrix S and its closed determinant ----------

def _require_size(n, b=1):
    if n < 1:
        raise ValueError("n must be positive")
    if b == 0:
        raise ValueError("b must be nonzero")


def s_matrix(n, a, b):
    """S_{i,j} = d(a*(i+j+1))/d(b*(i+j+1)) in one formal variable; each
    of the 2n - 1 distinct entries is built once and shared."""
    _require_size(n, b)
    ratios = [RatFunc(qdiff(a * m), qdiff(b * m)) for m in range(1, 2 * n)]
    return RingMatrix.from_fn(n, n, lambda i, j: ratios[i + j])


def s_det_product(n, a, b):
    """det s_matrix(n,a,b) in factored BracketProduct form."""
    _require_size(n, b)
    diffs = Counter()
    for i in range(n):
        for j in range(i):
            diffs[b * (i - j)] += 2
        for j in range(n):
            diffs[b * (i + j + 1)] -= 1
    for k in range(n):
        diffs[a - b * k] += n - k
    for k in range(1, n):
        diffs[a + b * k] += n - k
    return BracketProduct(1, 0, diffs)


def s_det_closed(n, a, b):
    """det s_matrix(n,a,b) as an explicit RatFunc."""
    return s_det_product(n, a, b).expand_ratfunc()


def s_matrix_bivariate(n):
    """S(n;s,t) with both variables formal (small-n cross-check mode),
    each distinct entry built once, as in s_matrix."""
    _require_size(n)
    ratios = [RatFunc(qdiff(m, 2, 0), qdiff(m, 2, 1)) for m in range(1, 2 * n)]
    return RingMatrix.from_fn(n, n, lambda i, j: ratios[i + j])


def s_det_closed_bivariate(n):
    """Closed form of det S(n;s,t) in the two formal variables.

    Mixed factors s^(1/2) t^(-k/2) - s^(-1/2) t^(k/2) are the images of
    d(a - bk) under u^a -> s, u^b -> t; up to a unit monomial each equals
    s - t^k.
    """
    _require_size(n)

    def mixed(k):
        return LaurentPoly(2, 1, {(1, -k): 1, (-1, k): -1})

    def dt(m):
        return qdiff(m, 2, 1)

    num = LaurentPoly.one(2)
    for i in range(n):
        for j in range(i):
            num = num * dt(i - j) ** 2
    for k in range(n):
        num = num * mixed(k) ** (n - k)
    for k in range(1, n):
        num = num * mixed(-k) ** (n - k)
    den = LaurentPoly.one(2)
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


def general_x_matrix(grid, x=FORMAL, s=FORMAL):
    """M_{i,j} = (x^2-4x) / (s^g + 2 - x + s^(-g)), g = grid.g(i,j).

    Either or both of x and s may be left formal.  With both formal the
    entries are bivariate (variable 0 is s, variable 1 is x); with one
    rational value substituted they are univariate in the other.  Each
    distinct g gives one entry, built once and shared by its (i, j).
    """
    nvars = 2 if x is FORMAL and s is FORMAL else 1
    if s is FORMAL:
        def spow(g):
            return LaurentPoly.var_power(g, 0, nvars)
    else:
        s = Fraction(s)

        def spow(g):
            if g.denominator != 1:
                raise ValueError("rational s requires integer grid exponents")
            return s ** g
    x = LaurentPoly.var_power(1, nvars - 1, nvars) if x is FORMAL \
        else Fraction(x)
    num = x * x - 4 * x
    entries = {}

    def entry(i, j):
        g = grid.g(i, j)
        if g not in entries:
            den = spow(g) + spow(-g) + 2 - x
            if not den:
                raise ValueError(f"zero denominator at entry ({i},{j})")
            entries[g] = (num / den if isinstance(den, Fraction)
                          else RatFunc(num, den))
        return entries[g]

    return RingMatrix.from_fn(grid.n, grid.n, entry)


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
