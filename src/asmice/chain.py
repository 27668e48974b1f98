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

with tau(g) = s^g + s^(-g) - (x-2) and d(k) = s^(k/2) - s^(-k/2).
z_prefactor is the one statement of the prefactor.  q^(1/4) is a 24th
root of unity, so (-1)^n q^(-n/4) is a power of zeta_24 with an
exponent taken mod 24, and nothing is inverted.  The
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
off factor by factor.  At every other x the limit is taken inside the
determinant, as Izergin, Coker and Korepin take the homogeneous limit
("Determinant formula for the six-vertex model", J. Phys. A 25 (1992)
4315).  Write s = e^h.  On the standard grid g_ij = a_i + b_j with
a_i = i + 1 and b_j = j, so the entries of [1/tau] are phi(h(a_i + b_j)),
phi(z) = 1/(2 cosh z - (x-2)), analytic at 0 for x != 4, and

    det[phi(h(a_i + b_j))] = h^(n^2-n) V(a) V(b) det[phi^(i+j)(0)/(i! j!)]
                             + O(h^(n^2-n+1)),

V the Vandermonde product.  As d(k) = 2 sinh(k h/2) ~ k h, the two
difference products are h^(n^2-n) V(a) V(b) to leading order and cancel
that factor.  Each of the n^2 taus tends to 4 - x, the power of s to 1,
and x^((n^2-n)/2) over (x^2-4x)^((n^2-n)/2) leaves (x-4)^(-(n^2-n)/2).
So

    A(n; x) = (4-x)^(n^2) (x-4)^(-(n^2-n)/2) det[C(i+j, i) a_(i+j)],

a_k = [z^k] phi(z), a determinant of plain rationals.  phi is even, so
a_k = 0 for odd k and the matrix is a checkerboard: its determinant is
the product of those of its even-index and odd-index blocks.  Both
sides are rational in x with no pole at 0, so the identity also holds
at x = 0, where W's beta^2 power vanishes, and gives A(n; 0) = n!.

z_half_eps_brute sums Z over the states instead, on the group ring
Z[u^(+-1)][s^(+-1)], u = q^(1/4): at h = u^2 and m = u s^(g/2) the
table's term c h^a m^b is c u^(2a+b) s^(b*g/2), one packed block per
u-exponent (sixvertex._packed_sweep).  Only the sum enters Q(zeta_24),
u^r folding to zeta_24^(e*r mod 24) for q^(1/4) = zeta_24^e.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, factorial, lcm, prod

from .brackets import BracketProduct, qdiff_product
from .cyclotomic import Cyclotomic, _fold, cyclotomic_embed
from .dets import EpsilonGrid, s_det_product
from .laurent import LaurentPoly, RatFunc, limit_at_one
from .matrices import RingMatrix, cleared_det, det_exact
from .sixvertex import _packed_sweep, _weight_terms

#: difference-ratio exponents (a, b) with 1/tau(m) = d(a*m)/d(b*m)
RATIO_EXPONENTS = {1: (1, 3), 2: (2, 4)}


def _q4_exponent(x):
    """e with q^(1/4) = zeta_24^e at the root of unity solving
    q^(1/2) + q^(-1/2) = x - 2."""
    if x not in (1, 2, 3):
        raise ValueError(f"no pinned root of unity for x = {x}")
    return {1: 4, 2: 3, 3: 2}[x]


def q_fourth_root(x):
    """q^(1/4) in Q(zeta_24) at the root of unity pinned for x."""
    return cyclotomic_embed(24 // _q4_exponent(x))


def z_prefactor(n, x):
    """(-1)^n q^(-n/4) at the root of unity pinned for x, for any int n:
    with q^(1/4) = zeta_24^e and -1 = zeta_24^12 it is the power
    zeta_24^((12 - e) n mod 24), built as z_half_eps_brute folds u^r."""
    return Cyclotomic(_fold([0] * ((12 - _q4_exponent(x)) * n % 24) + [1]))


def _grid(n, grid):
    """grid, the standard one when None, checked against a positive n."""
    if n < 1:
        raise ValueError("n must be positive")
    grid = EpsilonGrid.standard(n) if grid is None else grid
    if grid.n != n:
        raise ValueError("grid size mismatch")
    return grid


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
    grid = _grid(n, grid)
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
    # the determinant and the beta_sq power carry the same r^(n^2-n)
    det = cleared_det(taus)
    num = LaurentPoly.var_power(
        Fraction(sum(grid.col_f) - sum(grid.row_f), 2)) * det
    den = (qdiff_product(grid.row_f, grid.col_f[::-1])
           * beta_sq ** ((n * n - n) // 2))
    return RatFunc(num, den)


def ik_eps_product(n, x):
    """W(n, x; s) in factored form on the standard grid; x in {1, 2}."""
    if n < 1:
        raise ValueError("n must be positive")
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
    if n < 1:
        raise ValueError("n must be positive")
    diffs = Counter()
    for i in range(n):
        for k in range(1, i + 1):           # [3k]/(3[k]) for each j = i - k
            diffs[3 * k] += 1
            diffs[k] -= 1
        # row i: [1]...[3i+1] / [1]...[n+i]; its d(1)^(n-2i-1) balancing
        # factors multiply to d(1)^0 over the rows
        diffs.update(range(1, 3 * i + 2))
        diffs.subtract(range(1, n + i + 1))
    coeff = z_prefactor(n, 1) * Fraction(1, 3) ** ((n * n - n) // 2)
    return BracketProduct(coeff, -n * n, diffs)


def z_half_eps_brute(n, x, grid=None):
    """State-sum oracle for Z on an epsilon grid, exact in s with
    coefficients in Q(zeta_24), summed on the group ring."""
    grid = _grid(n, grid)
    e = _q4_exponent(x)
    gs = [grid.g(i, j) for i in range(n) for j in range(n)]
    d = lcm(*[g.denominator for g in gs])
    sites = [_weight_terms((0, 2), (g.numerator * d // g.denominator, 1))
             for g in gs]
    # 1/b^(n^2) = b^(n mod 2) / (x^2 - 4x)^ceil(n^2/2), as b^2 = x^2 - 4x;
    # b = u^2 - u^(-2) multiplies in the group ring
    factor = ((2, 1), (-2, -1)) if n % 2 else ((0, 1),)
    folded = {}
    ts, blocks = _packed_sweep(n, sites)
    for r, cs in blocks.items():
        for k, c in zip(ts, cs):
            if c:
                v = folded.setdefault(k, [0] * 24)
                for dr, sign in factor:
                    v[e * (r + dr) % 24] += sign * c
    total = LaurentPoly(d, {k: Cyclotomic(_fold(v))
                            for k, v in folded.items()})
    return RatFunc(total, (x * x - 4 * x) ** ((n * n + 1) // 2))


def half_spec_value(n, x):
    """Z at the merged point (all rows 1/2, all columns 0): the s -> 1
    limit of the grid evaluation, a number in Q(zeta_24)."""
    return z_prefactor(n, x) * limit_at_one(ik_eps_ratfunc(n, x))


def ean_normalize(n, zvalue, x):
    """Recover the weighted count from the merged-point value:
    A = x^((n^2-n)/2) * (-1)^n * q^(n/4) * Z(1/2,...,1/2; 0,...,0).

    Raises ArithmeticError when the result is not a rational integer,
    which signals an upstream convention error.
    """
    if n < 1:
        raise ValueError("n must be positive")
    val = z_prefactor(-n, x) * zvalue * Fraction(x) ** ((n * n - n) // 2)
    if not val.is_rational():
        raise ArithmeticError("normalized count is not rational")
    val = Fraction(val.as_rational())
    if val.denominator != 1:
        raise ArithmeticError("normalized count is not an integer")
    return int(val)


def _merged_count(n, x):
    """A(n; x) by the s -> 1 limit taken inside the determinant (see the
    module docstring), for any rational x != 4: an exact Fraction."""
    if n < 1:
        raise ValueError("n must be positive")
    x = Fraction(x)
    b0 = 4 - x
    if not b0:
        raise ValueError("x = 4 puts a pole of phi at the merged point")
    # a[m] = a_(2m): the reciprocal of b(z) = b0 + sum_m 2 z^(2m)/(2m)!
    a = []
    for m in range(n):
        tail = sum(Fraction(2, factorial(2 * k)) * a[m - k]
                   for k in range(1, m + 1))
        a.append(((m == 0) - tail) / b0)
    det = prod(det_exact(RingMatrix([[comb(i + j, i) * a[(i + j) // 2]
                                      for j in range(p, n, 2)]
                                     for i in range(p, n, 2)]))
               for p in range(min(n, 2)))
    # (4-x)^(n^2) (x-4)^(-(n^2-n)/2)
    return (-1) ** ((n * n - n) // 2) * b0 ** ((n * n + n) // 2) * det


def a_via_chain(n, x):
    """The weighted count A(n; x) through the full specialization chain:
    the factored form's limit at x in {1, 2}, and the limit taken inside
    the determinant (see the module docstring) at every other rational x
    but 4.  An integral x gives an int, and a non-integral one the exact
    Fraction A(n; x); n < 1 raises ValueError.
    """
    if x in RATIO_EXPONENTS:
        w = ik_eps_product(n, x)
        if w.net_diff_power != 0:
            raise ArithmeticError("grid limit degenerates")
        val = w.limit_at_one() * Fraction(x) ** ((n * n - n) // 2)
    else:
        val = _merged_count(n, x)
    if Fraction(x).denominator != 1:
        return val
    if val.denominator != 1:
        raise ArithmeticError("chain value is not an integer")
    return int(val)
