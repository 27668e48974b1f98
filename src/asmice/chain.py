"""Specialization chain from the determinant evaluation to ASM counts.

Pin the quantum unit q to a root of unity so that x = q^(1/2) + q^(-1/2) + 2
takes the value 1, 2 or 3, and place the spectral parameters on an epsilon
grid: x_i = 1/2 + f_i*eps (rows), y_j = f'_j*eps (columns).  Writing
s = q^eps for the formal deformation unit, every site label becomes
1/2 + g*eps with g = f_i - f'_j, and the determinant evaluation of the
partition function collapses to an expression in s with rational
coefficients times a fixed fourth-root prefactor:

    Z(eps-grid) = (-1)^n * q^(-n/4) * W(n, x; s),

    W = s^((sum f' - sum f)/2) * prod_{i,j} tau(g_ij) * det[1/tau(g_ij)]
        / ((x^2-4x)^((n^2-n)/2) * prod_{j<i} d(f_i-f_j)
                                * prod_{i<j} d(f'_i-f'_j)),

with tau(g) = s^g + s^(-g) - (x-2) and d(k) = s^(k/2) - s^(-k/2).  The
factor prod tau * det[1/tau] is computed as one polynomial determinant,
det[prod_{k != j} tau(g_ik)] (matrices.cleared_det, which multiplies
by each entry's tau factors without expanding it; each distinct tau is
built once), and both difference products are expanded together by one
brackets.qdiff_product call (one packed laurent.diff_product), as in
izergin.ik_z.  The key collapse is [v][v-1] = tau(g)/beta^2 at v = 1/2 + g*eps, which leaves
q only in the prefactor and in the rational constants x - 2 and
beta^2 = x^2 - 4x.

The determinant is over Z by construction.  For x = p/r in lowest terms
the tau matrix is cleared by r: tau_poly gives r*tau(g), with int
coefficients, and each entry of the cleared matrix is a product of n - 1
of them, so the determinant gains r^(n^2-n).  The beta^2 power loses as
much when it is taken as the int (r^2 beta^2)^((n^2-n)/2), r^2 beta^2 =
p^2 - 4pr.  So W's numerator and denominator have int coefficients for
every rational x.

As eps -> 0 (s -> 1) the grid merges into the single point 1/2 and

    A(n; x) = x^((n^2-n)/2) * lim_{s->1} W(n, x; s).

For x = 1 and x = 2 the matrix [1/tau] is a difference-ratio matrix with
a fully factored determinant, so W itself factors and the limit is read
off factor by factor.  For x = 3 no such factorization is used; the limit
is taken on the exact rational function.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .brackets import BracketProduct, qdiff_product
from .cyclotomic import Cyclotomic, cyclotomic_embed
from .dets import EpsilonGrid, s_det_product
from .laurent import LaurentPoly, RatFunc, limit_at_one
from .matrices import cleared_det
from .matrices import det_exact  # noqa: F401  perfbench/selftest.py
from .sixvertex import site_weights, state_sweep

#: difference-ratio exponents (a, b) with 1/tau(m) = d(a*m)/d(b*m)
RATIO_EXPONENTS = {1: (1, 3), 2: (2, 4)}


def q_fourth_root(x):
    """q^(1/4) in Q(zeta_24) for the root of unity solving
    q^(1/2) + q^(-1/2) = x - 2."""
    if x not in (1, 2, 3):
        raise ValueError(f"no pinned root of unity for x = {x}")
    return cyclotomic_embed({1: 6, 2: 8, 3: 12}[x])


def tau_poly(g, x):
    """r * tau(g) = r*s^g + r*s^(-g) + (2r - p) for x = p/r in lowest
    terms: tau(g) cleared of its denominator, with int coefficients."""
    x = Fraction(x)
    p, r = x.numerator, x.denominator
    t = LaurentPoly.var_power(g) + LaurentPoly.var_power(-g)
    # an integral x, as at every pinned root of unity, multiplies nothing
    return (t if r == 1 else r * t) + (2 * r - p)


def ik_eps_ratfunc(n, x, grid=None):
    """W(n, x; s) from the exact determinant, any grid, any rational x
    with x^2 - 4x != 0; num and den have int coefficients."""
    if grid is None:
        grid = EpsilonGrid.standard(n)
    if grid.n != n:
        raise ValueError("grid size mismatch")
    x = Fraction(x)
    p, r = x.numerator, x.denominator
    beta_sq = p * p - 4 * p * r         # r^2 (x^2 - 4x)
    if beta_sq == 0:
        raise ValueError("x in {0, 4} degenerates the weights")

    # one tau per distinct g (2n - 1 of them on the standard grid), so
    # the packer reads each factor once
    gs = [[grid.g(i, j) for j in range(n)] for i in range(n)]
    tau = {g: tau_poly(g, x) for g in set().union(*gs)}
    taus = [[tau[g] for g in row] for row in gs]
    for i in range(n):
        for j in range(n):
            if taus[i][j].is_zero:
                raise ValueError(f"tau vanishes at entry ({i},{j})")
    # the determinant and the beta_sq power carry the same r^(n^2-n)
    det = cleared_det(taus)
    num = LaurentPoly.var_power(
        Fraction(sum(grid.col_f) - sum(grid.row_f), 2)) * det
    den = (qdiff_product(grid.row_f, grid.col_f[::-1])
           * beta_sq ** ((n * n - n) // 2))
    return RatFunc(num, den)


def ik_eps_product(n, x):
    """W(n, x; s) in factored form on the standard grid; x in {1, 2}."""
    if x not in RATIO_EXPONENTS:
        raise ValueError("factored form only for x = 1 or x = 2")
    a, b = RATIO_EXPONENTS[x]
    s_det = s_det_product(n, a, b)
    diffs = Counter(s_det.diffs)
    for m in range(1, 2 * n):
        cnt = n - abs(m - n)
        diffs[b * m] += cnt
        diffs[a * m] -= cnt
    for k in range(1, n):
        diffs[k] -= 2 * (n - k)
    coeff = s_det.coeff / Fraction(x * x - 4 * x) ** ((n * n - n) // 2)
    return BracketProduct(coeff, -n * n, diffs)


def z_half_eps_product(n):
    """The factored evaluation of Z on the standard grid at x = 1,
    including the fourth-root prefactor: (-1)^n q^(-n/4) s^(-n^2/2) times
    a balanced product of brackets [k] = d(k)/d(1)."""
    diffs = Counter()
    for i in range(n):
        for k in range(1, i + 1):           # [3k]/(3[k]) for each j = i - k
            diffs[3 * k] += 1
            diffs[k] -= 1
        # row i: [1]...[3i+1] / [1]...[n+i]; its d(1)^(n-2i-1) balancing
        # factors multiply to d(1)^0 over the rows
        diffs.update(range(1, 3 * i + 2))
        diffs.subtract(range(1, n + i + 1))
    coeff = (Fraction(-1) ** n * Fraction(1, 3) ** ((n * n - n) // 2)
             * q_fourth_root(1).inverse() ** n)
    return BracketProduct(coeff, -n * n, diffs)


def z_half_eps_brute(n, x, grid=None):
    """State-sum oracle for Z on an epsilon grid, exact in s with
    coefficients in Q(zeta_24): sixvertex.site_weights at
    m = q^(1/4) * s^(g/2) and the pinned scalar h = q^(1/2)."""
    if grid is None:
        grid = EpsilonGrid.standard(n)
    if grid.n != n:
        raise ValueError("grid size mismatch")
    q4 = q_fourth_root(x)
    h = q4 * q4
    site = [[site_weights(LaurentPoly.var_power(grid.g(i, j) / 2) * q4, h)
             for j in range(n)] for i in range(n)]
    total = state_sweep({0: LaurentPoly.one()}, site)[(1 << n) - 1]
    return RatFunc(total * (h - h ** -1) ** -(n * n))


def half_spec_value(n, x):
    """Z at the merged point (all rows 1/2, all columns 0): the s -> 1
    limit of the grid evaluation, a number in Q(zeta_24)."""
    w = ik_eps_ratfunc(n, x)
    lim = limit_at_one(w)
    q4 = q_fourth_root(x)
    return (q4.inverse() ** n) * (Fraction(-1) ** n) * lim


def ean_normalize(n, zvalue, x):
    """Recover the weighted count from the merged-point value:
    A = x^((n^2-n)/2) * (-1)^n * q^(n/4) * Z(1/2,...,1/2; 0,...,0).

    Raises ArithmeticError when the result is not a rational integer,
    which signals an upstream convention error.
    """
    q4 = q_fourth_root(x)
    val = (q4 ** n) * (Fraction(-1) ** n) * zvalue
    val = val * (Fraction(x) ** ((n * n - n) // 2))
    if isinstance(val, Cyclotomic):
        if not val.is_rational():
            raise ArithmeticError("normalized count is not rational")
        val = val.as_rational()
    val = Fraction(val)
    if val.denominator != 1:
        raise ArithmeticError("normalized count is not an integer")
    return int(val)


def a_via_chain(n, x, route="auto"):
    """The weighted count A(n; x) through the full specialization chain.

    route "product" uses the factored form (x in {1, 2} only), "det" the
    exact rational-function limit (any x in {1, 2, 3}), "auto" picks the
    factored form when available.
    """
    if route == "auto":
        route = "product" if x in RATIO_EXPONENTS else "det"
    if route == "product":
        w = ik_eps_product(n, x)
        if w.net_diff_power != 0:
            raise ArithmeticError("grid limit degenerates")
        lim = w.limit_at_one()
    elif route == "det":
        lim = limit_at_one(ik_eps_ratfunc(n, x))
    else:
        raise ValueError(f"unknown route {route!r}")
    val = lim * Fraction(x) ** ((n * n - n) // 2)
    if val.denominator != 1:
        raise ArithmeticError("chain value is not an integer")
    return int(val)
