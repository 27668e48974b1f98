"""Determinant evaluation of the domain-wall state sum.

For parameters X, Y the state sum equals

    (-1)^n * (prod_i q^((y_i-x_i)/2)) * prod_{i,j} [x_i-y_j][x_i-y_j-1]
    -----------------------------------------------------------------  * det M
      (prod_{j<i} [x_i-x_j]) * (prod_{i<j} [y_i-y_j])

with M_{i,j} = 1 / ([x_i-y_j][x_i-y_j-1]).  Rather than build the rational
entries and cancel, ik_z clears denominators first: with
e_{i,j} = d(x_i-y_j) * d(x_i-y_j-1) for d(a) = q^(a/2)-q^(-a/2), the matrix
E'_{i,j} = prod_{k != j} e_{i,k} is polynomial, every bracket power of
b = q^(1/2)-q^(-1/2) collapses to b^(n^2-n) in the denominator, and

    Z = (-1)^n * q^(sum (y_i-x_i)/2) * det E'
        over b^(n^2-n) * prod_{j<i} d(x_i-x_j) * prod_{i<j} d(y_i-y_j).

det E' is matrices.cleared_det of the e_{i,j}: each entry multiplies the
expansion's minors by its n - 1 factors by shift-and-add, and is never
packed or expanded as a polynomial.
Every difference product here is expanded once on packed ints by
laurent.diff_product: each e_{i,j}, and the whole denominator, b^(n^2-n)
and both pair products (the second over the y's reversed), as one
brackets.qdiff_product call.  The quotient is divided out by the rule
that sixvertex.z_brute follows (sixvertex._z_quotient): only where the
weights make Z a Laurent polynomial, with every label integral or
n = 1, and the denominator is no monomial.  Elsewhere it is returned
unreduced, the same RatFunc, since == cross-multiplies.
"""

from __future__ import annotations

from .brackets import bracket_ratio, qdiff_product
from .laurent import LaurentPoly, diff_product
from .laurent import divide_exact  # noqa: F401  perfbench/selftest.py
from .matrices import RingMatrix, cleared_det
from .matrices import det_exact  # noqa: F401  perfbench/selftest.py
from .sixvertex import _z_quotient


class IkInstance:
    """Validated parameter set for the determinant formula."""

    __slots__ = ("params",)

    def __init__(self, params):
        n = params.n
        for i in range(n):
            for j in range(n):
                if params.label(i, j) in (0, 1):
                    raise ValueError(
                        f"singular entry: x_{i} - y_{j} = {params.label(i, j)}"
                        " makes a bracket in M vanish")
        for i in range(n):
            for j in range(i + 1, n):
                if params.xs[i] == params.xs[j]:
                    raise ValueError(f"x_{i} = x_{j}: prefactor denominator vanishes")
                if params.ys[i] == params.ys[j]:
                    raise ValueError(f"y_{i} = y_{j}: prefactor denominator vanishes")
        self.params = params

    @property
    def n(self):
        return self.params.n


def ik_matrix(inst):
    """The n x n matrix M with entries 1/([x_i-y_j][x_i-y_j-1])."""
    p = inst.params

    def entry(i, j):
        v = p.label(i, j)
        return (bracket_ratio(v) * bracket_ratio(v - 1)).reciprocal()

    return RingMatrix.from_fn(inst.n, inst.n, entry)


def ik_z(inst):
    """The determinant side of the state-sum identity, exact."""
    p = inst.params
    n = inst.n
    e = [[diff_product({p.label(i, j): 1, p.label(i, j) - 1: 1})
          for j in range(n)] for i in range(n)]
    det = cleared_det(e)
    shift = sum(y - x for x, y in zip(p.xs, p.ys))
    mono = LaurentPoly.var_power(shift / 2)
    num = mono * det
    if n % 2:
        num = -num
    den = qdiff_product(p.xs, p.ys[::-1], beta_power=n * n - n)
    return _z_quotient(p.grid, n, num, den)
