"""Exact Laurent polynomials with half-integral exponents, and their quotients.

Exponents live on the grid (1/(2*D))*Z for a per-polynomial positive integer
scale D, stored as integer multiples of the grid unit.  So at scale D=1 the
monomial t^(1/2) has exponent key 1 and t^(-3) has key -6.  One or two
variables are supported; keys are exponent tuples of length nvars.

The grid is this module's business.  A constructor that takes a rational
exponent (var_power) picks the coarsest grid that holds it, and every
binary operation promotes its operands to the least common grid
(_matched).  A caller that combines many polynomials on mixed grids puts
them on their least common grid once, by common_grid, so that no
operation promotes again.  Only the raw-key constructors
LaurentPoly(nvars, scale, terms) and _clean take a D from the caller; the
brackets module's qdiff builds t^(a/2) - t^(-a/2) with _clean directly,
on the grid that var_power picks for t^(a/2).

Coefficients are exact scalars: int, fractions.Fraction or Cyclotomic.
Zero coefficients are never stored.  A scalar joins a polynomial by one
rule, _lift: it becomes the constant on the polynomial's variables and
grid.  Sums, differences, equality, divide_exact (on either side) and
RatFunc all lift by it; a product with a scalar scales the coefficients
instead.

Division follows the Laurent convention that monomials are units: t divides 1,
with quotient t^(-1).  divide_exact raises NonDivisible when the quotient is
not itself a Laurent polynomial on the grid.

Packed-integer kernel.  A univariate multiply or exact divide whose operands
have more pairs of nonzero terms than a few per slot of their dense spans
runs as one bigint operation (Kronecker substitution), when each operand's
coefficient list splits as content * v with v a primitive integer vector.
The content is a positive rational when every coefficient is an int or a
Fraction, and a Cyclotomic u times a rational when every coefficient is a
rational multiple of one u (as the root-of-unity prefactor q^(-n/4) makes
them); other lists with Cyclotomic coefficients take the schoolbook.  The
contents are scalars, so they multiply or divide apart from the vectors,
and v is packed into the integer P_B(v) = sum v_i 2^(i*B).  P_B is
evaluation at 2^B, a ring map Z[t] -> Z, so P_B(v) * P_B(w) = P_B(v*w)
for every slot width B.

Slot width of a product.  Let every |v_i| < 2^b and every |w_j| < 2^c, and
let k be the smaller of the two nonzero-term counts.  Coefficient m of v*w
is a sum of at most k products v_i w_(m-i), each of absolute value below
2^(b+c), so it is below k * 2^(b+c) < 2^(b+c+L) with L the bit length of k.
With B = b + c + L + 1, rounded up to whole bytes, every coefficient of v,
w and v*w lies strictly inside (-2^(B-1), 2^(B-1)).  A list with entries in
[-2^(B-1), 2^(B-1)) is the only one that packs to its value: adding the bias
2^(B-1) to every slot makes each slot the plain B-bit digit c + 2^(B-1) of
its coefficient c (the borrows that negative slots took from the slots above
are paid back), and flipping each slot's top bit, an XOR with the bias,
turns that digit into c's B-bit two's complement.  So one to_bytes call
gives the whole slot array, and packing runs the same steps backwards.  A
value that needs bits above the top slot comes from no such list, and
unpacking raises ArithmeticError on it.  Slots of 8, 16, 32 and 64 bits
convert to and from the list in one struct call on little-endian signed
words of their size; slots of 24, 40, 48 and 56 bits through the next wider
word, whose pad bytes extend the sign of the slot's top byte (a pad byte
that does not is a coefficient out of range, and packing raises
OverflowError); wider slots convert one at a time.

Exact divide.  The contents divide apart, and the dividend and divisor
become integer vectors a and d, d primitive.  Long division of rational
vectors stays rational, so d divides a over Q(zeta_24) exactly when it does
over Q.  If d divides a over Q, the quotient is in Z[t] by Gauss's lemma, so
P_B(a) = P_B(d) * P_B(a/d) for every B, and a nonzero remainder of P_B(a) by
P_B(d) (nonzero, since its slots are in range) proves NonDivisible.  A zero
remainder is only evidence: the quotient is unpacked and multiplied back
with a width proved as above, and must give a.  B is tried once, from the
dividend's and divisor's bit lengths, not from any bound on the quotient's;
when the quotient overflows its slots or fails to multiply back, the
schoolbook long division decides.

Exponent lattice.  The dense lists hold only the lattice lo + g*Z that the
operands' exponents occupy: g is the gcd of the offsets k - lo over the
terms of both operands (each with its own least exponent lo), and 1 when
both are monomials.  A bracket q^(a/2) - q^(-a/2) has its two terms 2*a*D
grid units apart at scale D, so every product of brackets and monomials
has g >= 2, and the full grid would leave at least half of each packed
bigint as zero slots.  With s = t^g an operand is t^lo * A(s).  Multiply:
t -> t^g is a ring map, so (t^lo1 A(s)) (t^lo2 B(s)) = t^(lo1+lo2) (AB)(s)
and the kernel multiplies A and B.  Divide: the dividend is t^lo1 N(s)
and the divisor t^lo2 D(s), and monomials are units, so the question is
whether N(t^g) = D(t^g) R(t) for some Laurent polynomial R.  Write
R = sum_r t^r R_r(t^g) over the residues r = 0..g-1.  Every exponent of
D(t^g) t^r R_r(t^g) is r mod g, and every exponent of N(t^g) is 0 mod g,
so the residue classes do not mix: D R_r = 0, hence R_r = 0, for r != 0.
So N(t^g) / D(t^g) is a Laurent polynomial iff N(s)/D(s) is one, and the
quotient is t^(lo1-lo2) (N/D)(t^g): dividing the compacted lists decides
NonDivisible exactly as the full grid does.  Packing is judged on the
compacted lengths.

Two variables.  Each operand is shifted so that its least t- and
u-exponents are 0 (monomials are units), then mapped by the Kronecker map
K_B: t^e u^f -> s^(e + B*f), a ring map of Laurent polynomials that is
one-to-one on those with every t-exponent in [0, B).  Multiply:
B = deg_t a + deg_t b + 1 exceeds every t-exponent of the shifted product,
so K_B(a) K_B(b) decodes by s^k -> t^(k mod B) u^(k div B).  Divide:
B = deg_t num + 1.  If num = q den, then K_B(num) = K_B(q) K_B(den), so
NonDivisible from the images is exact; and as t-degrees add (the
coefficients form a domain), the image quotient K_B(q) decodes to
t-exponents in [0, deg_t num - deg_t den].  A decoded quotient outside that
range proves NonDivisible; for one inside it, q den has t-exponents in
[0, B), and K_B(q den) = K_B(num) gives q den = num by injectivity.

Packed layouts.  A _Layout is the one format that the packers outside the
kernel share: a univariate polynomial whose grid exponents are
offset + g*i, i = 0..slots-1, is the int P_W(v) of its coefficient list
v.  P_W is a ring map, so a caller may multiply, add and shift packed
values and read no slot until the end; t -> t^g is one too, so with g the
gcd of the exponents the caller can produce, less the offset, the lists
hold only the lattice offset + g*Z (as for the kernel's lattice).  The
caller states a bound on the absolute value of every coefficient: W, its
bit length plus a sign bit rounded up to whole bytes, puts each strictly
inside (-2^(W-1), 2^(W-1)), so it unpacks uniquely (see "Slot width of a
product").  It also states its greatest exponent above the offset, top:
unpacking reads exactly top/g + 1 slots, so a bit above the top slot
raises ArithmeticError instead of reading as a coefficient.  A caller
that multiplies packed values by known polynomials lays each polynomial
out once as the (bit offset, coefficient) pairs of its terms
(_Layout.place); a _Shifts multiplies by a product of such factors, one
factor at a time, as sum_k c_k (v << offset_k), so no factor and no
product of them is ever packed as a whole.  The state sums' site weights
(sixvertex) and the packed determinants' entries (matrices) multiply
this way.

Cross-multiplied equality.  RatFunc equality of univariate quotients
a/b and c/d with int coefficients asks whether a*d == c*b.  The least
and greatest exponents of each product are the sums of its factors'
(Z[t] is a domain), so unequal sums answer no at once.  Equal sums give
the two products one dense span on the lattice of all four, and one slot
width that holds each product ("Slot width of a product") packs each to
an int that no other in-range list packs to; so the products are equal
exactly when the products of the packed ints are, and nothing is
unpacked (_cross_equal).

Difference products.  diff_product expands prod d(a)^e over rational
arguments a and exponents e >= 0, d(a) = t^(a/2) - t^(-a/2).  Its factor
map {a: e} is normalised by _diff_factors, as the brackets module's
factored products are: d(-a) = -d(a) replaces a negative argument by -a
with the sign (-1)^e, and d(0) makes the sign 0.  For
a > 0, d(a) = t^(-a/2) (t^a - 1), so the product is that sign times
t^(-sum e*a/2) times P = prod (t^a - 1)^e.  On the grid D, the lcm of the
denominators of the a, t^a is m_a = 2aD grid units, an even integer, so
the monomial is a whole number of units.  Every exponent of P is a sum of
m_a's, between 0 and top = sum e*m_a, so the layout's g is the gcd of the
m_a, and a factor s^k - 1 (s = t^g) multiplies a packed value v as
(v << k*W) - v.  With E the number of factors (the sum of the e),
L1(s^k - 1) = 2 and L1(fg) <= L1(f) L1(g) bound every coefficient of P
by 2^E; d(1)^E has the central binomial coefficient C(E, E/2) at its
middle.

The schoolbook multiply (_mul_terms) and long division (_long_divide) also
serve sparse operands and the tests, as the oracle.  A schoolbook product
with a one-term operand c*t^e is a shift: every key of the other operand
moves by e, so no two keys meet, and its coefficients are multiplied by c,
which leaves them nonzero (Z, Q and Q(zeta_24) have no zero divisors).
"""

from __future__ import annotations

import struct
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, prod

from .cyclotomic import Cyclotomic, _integral, _make


class GridViolation(ValueError):
    """A requested exponent does not land on the 1/(2D) grid."""


class NonDivisible(ArithmeticError):
    """Laurent division with a nontrivial remainder."""


def _is_scalar(x):
    return isinstance(x, (int, Fraction, Cyclotomic))


def _lift(x, like):
    """The one rule by which a scalar joins a polynomial: a scalar x
    becomes the constant polynomial on like's variables and grid; anything
    else is returned unchanged."""
    return LaurentPoly.const(x, like.nvars, like.scale) if _is_scalar(x) else x


def _lifted(num, den, name):
    """num and den as LaurentPolys, a scalar on either side lifted onto
    the other's variables and grid (_lift).  Any other operand, or two
    scalars, raise TypeError naming both types, which are the ones passed
    in: a scalar is lifted only beside a LaurentPoly."""
    like = num if isinstance(num, LaurentPoly) else den
    if isinstance(like, LaurentPoly):
        num, den = _lift(num, like), _lift(den, like)
    if not (isinstance(num, LaurentPoly) and isinstance(den, LaurentPoly)):
        raise TypeError(f"{name} needs a LaurentPoly and a LaurentPoly or "
                        f"scalar, got {type(num).__name__} / "
                        f"{type(den).__name__}")
    return num, den


class LaurentPoly:
    __slots__ = ("nvars", "scale", "terms")

    def __init__(self, nvars, scale, terms):
        if nvars not in (1, 2):
            raise ValueError("only 1 or 2 variables supported")
        if type(scale) is not int or scale < 1:
            raise ValueError("scale must be a positive integer")
        clean = {}
        for exps, c in terms.items():
            if len(exps) != nvars:
                raise ValueError("exponent tuple length != nvars")
            key = tuple(int(e) for e in exps)
            if key != exps:
                raise GridViolation(f"exponent {exps} is not integral")
            if not _is_scalar(c):
                raise TypeError(f"coefficient {c!r} is not an int, "
                                "Fraction or Cyclotomic")
            if c:
                clean[key] = c
        self.nvars = nvars
        self.scale = scale
        self.terms = clean

    @classmethod
    def _clean(cls, nvars, scale, terms):
        """A polynomial from terms that need none of __init__'s checks:
        integral keys of length nvars and no zero coefficient."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.scale = scale
        p.terms = terms
        return p

    # ---------- constructors ----------

    @classmethod
    def zero(cls, nvars=1, scale=1):
        return cls(nvars, scale, {})

    @classmethod
    def one(cls, nvars=1, scale=1):
        return cls(nvars, scale, {(0,) * nvars: 1})

    @classmethod
    def const(cls, c, nvars=1, scale=1):
        return cls(nvars, scale, {(0,) * nvars: c})

    @classmethod
    def unit_power(cls, k, scale=1, var=0, nvars=1):
        """The monomial t_var^(k/(2*scale))."""
        exps = [0] * nvars
        exps[var] = k
        return cls(nvars, scale, {tuple(exps): 1})

    @classmethod
    def var_power(cls, a, var=0, nvars=1):
        """The monomial t_var^a for rational a, on the coarsest grid that
        holds it: scale (2a).denominator."""
        k = Fraction(a) * 2
        return cls.unit_power(k.numerator, k.denominator, var, nvars)

    # ---------- structure ----------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def min_exponents(self):
        if self.nvars == 1:
            return min(self.terms)
        return tuple(min(e[i] for e in self.terms) for i in range(self.nvars))

    def rescale(self, new_scale):
        if type(new_scale) is not int or new_scale < 1:
            raise ValueError("scale must be a positive integer")
        if new_scale == self.scale:
            return self
        if new_scale % self.scale:
            raise GridViolation("new scale must be a multiple of the old one")
        m = new_scale // self.scale
        if self.nvars == 1:
            terms = {(e * m,): c for (e,), c in self.terms.items()}
        else:
            terms = {(e * m, f * m): c for (e, f), c in self.terms.items()}
        return LaurentPoly._clean(self.nvars, new_scale, terms)

    def _matched(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        if self.scale == other.scale:
            return self, other
        s = self.scale * other.scale // gcd(self.scale, other.scale)
        return self.rescale(s), other.rescale(s)

    # ---------- ring operations ----------

    def __add__(self, other):
        other = _lift(other, self)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._matched(other)
        out = dict(a.terms)
        for k, c in b.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return LaurentPoly._clean(a.nvars, a.scale, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._clean(self.nvars, self.scale,
                                  {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = _lift(other, self)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if _is_scalar(other):
            if not other:
                return LaurentPoly.zero(self.nvars, self.scale)
            return LaurentPoly._clean(
                self.nvars, self.scale,
                {k: c * other for k, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        a, b = self._matched(other)
        if a.is_zero or b.is_zero:
            return LaurentPoly.zero(a.nvars, a.scale)
        if a.nvars == 2:
            return _mul_bivariate(a, b)
        return _mul1(a, b)

    __rmul__ = __mul__

    def _span1(self, g):
        """Length of the dense univariate coefficient list on lo + g*Z."""
        return (max(self.terms)[0] - min(self.terms)[0]) // g + 1

    def _dense1(self, g=1):
        """Univariate terms as (offset, coefficient list) on the lattice
        offset + g*Z; list[i] is the coefficient of unit^(offset+g*i)."""
        lo = min(self.terms)[0]
        cs = [0] * ((max(self.terms)[0] - lo) // g + 1)
        for k, c in self.terms.items():
            cs[(k[0] - lo) // g] = c
        return lo, cs

    @classmethod
    def _from_dense1(cls, lo, cs, scale, g=1):
        return cls._clean(1, scale,
                          {(lo + g * i,): c for i, c in enumerate(cs) if c})

    def __pow__(self, n):
        if n < 0:
            if self.is_monomial():
                (k, c), = self.terms.items()
                inv = LaurentPoly(self.nvars, self.scale,
                                  {tuple(-e for e in k): _inv_scalar(c)})
                return inv ** (-n)
            raise NonDivisible("negative power of a non-unit")
        result = LaurentPoly.one(self.nvars, self.scale)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        other = _lift(other, self)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        a, b = self._matched(other)
        return a.terms == b.terms

    # ---------- evaluation ----------

    def eval_units(self, *unit_values):
        """Evaluate with the grid unit of each variable set to the given value,
        i.e. variable i becomes unit_values[i]^(2*scale)."""
        if len(unit_values) != self.nvars:
            raise ValueError("need one value per variable")
        # an int unit becomes a Fraction, whose negative powers are exact
        units = [Fraction(u) if isinstance(u, int) else u for u in unit_values]
        return sum(c * prod(u ** e for u, e in zip(units, k))
                   for k, c in self.terms.items())

    def subs_all_one(self):
        """Sum of coefficients: the value with every variable set to 1."""
        return sum(self.terms.values())

    # ---------- division ----------

    def shift_unit(self, deltas):
        """Multiply by the unit monomial with the given exponent offsets."""
        deltas = tuple(deltas)
        if len(deltas) != self.nvars:
            raise ValueError("offset tuple length != nvars")
        steps = tuple(int(d) for d in deltas)
        if steps != deltas:
            raise GridViolation(f"offset {deltas} is not integral")
        if self.nvars == 1:
            (d,) = steps
            terms = {(e + d,): c for (e,), c in self.terms.items()}
        else:
            d, f = steps
            terms = {(e + d, g + f): c for (e, g), c in self.terms.items()}
        return LaurentPoly._clean(self.nvars, self.scale, terms)

    # ---------- display ----------

    def format(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            mono = []
            for name, e in zip("tu", k):
                if e == 0:
                    continue
                ex = Fraction(e, 2 * self.scale)
                if ex == 1:
                    mono.append(name)
                else:
                    mono.append(f"{name}^({ex})")
            body = "*".join(mono)
            if not body:
                parts.append(f"{c}")
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"LaurentPoly({self.format()})"


def divide_exact(num, den):
    """Exact Laurent quotient num/den, or raise NonDivisible.

    Either operand may be a scalar (int, Fraction or Cyclotomic) when the
    other is a LaurentPoly: the scalar is lifted to a constant on the
    polynomial's variables and grid (_lifted).  Any other operand, or two
    scalars, raise TypeError.  Unit monomials are invertible, so only the
    dense coefficient lists are divided; two variables are first mapped to
    one (see the module docstring).
    """
    num, den = _lifted(num, den, "divide_exact")
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero:
        return LaurentPoly.zero(den.nvars, den.scale)
    num, den = num._matched(den)
    if num.nvars == 1:
        return _divide_dense1(num, den)
    return _divide_bivariate(num, den)


def reduced(num, den):
    """num/den as a RatFunc: the exact quotient when den divides num, else
    the unreduced fraction.  Scalars and other operands are taken as
    divide_exact takes them."""
    try:
        return RatFunc(divide_exact(num, den))
    except NonDivisible:
        return RatFunc(num, den)


def _divide_dense1(num, den):
    g = _lattice_step(num, den)
    nlo, a = num._dense1(g)
    dlo, b = den._dense1(g)
    if len(a) < len(b):
        raise NonDivisible("quotient support would be empty")
    if _worth_packing((len(a) - len(b) + 1) * len(den.terms), len(a) + len(b)):
        sa, sb = _split(a), _split(b)
        q = sa and sb and _divide_ints(sa[1], sb[1])
        if q:
            return LaurentPoly._from_dense1(
                nlo - dlo, _scaled(sa[0] / sb[0], q), num.scale, g)
    return LaurentPoly._from_dense1(nlo - dlo, _long_divide(a, b), num.scale, g)


def _divide_bivariate(num, den):
    """Two-variable num / den by _divide_dense1 on the Kronecker images."""
    ln, ld = num.min_exponents(), den.min_exponents()
    base = max(num.terms)[0] - ln[0] + 1
    top = (base - 1) - (max(den.terms)[0] - ld[0])
    if top < 0:
        raise NonDivisible("divisor has the larger t-degree")
    q = _divide_dense1(_kronecker(num, ln, base), _kronecker(den, ld, base))
    if any(k % base > top for k, in q.terms):
        raise NonDivisible("quotient image decodes outside the t-range")
    return _decoded(q, (ln[0] - ld[0], ln[1] - ld[1]), base, num.scale)


def _mul_bivariate(a, b):
    """Two-variable a * b by _mul1 on the Kronecker images."""
    la, lb = a.min_exponents(), b.min_exponents()
    base = max(a.terms)[0] - la[0] + max(b.terms)[0] - lb[0] + 1
    out = _mul1(_kronecker(a, la, base), _kronecker(b, lb, base))
    return _decoded(out, (la[0] + lb[0], la[1] + lb[1]), base, a.scale)


def _kronecker(p, lo, base):
    """p shifted by t^(-lo[0]) u^(-lo[1]), then t^e u^f -> s^(e + base*f)."""
    return LaurentPoly._clean(1, p.scale, {
        (e - lo[0] + base * (f - lo[1]),): c for (e, f), c in p.terms.items()})


def _decoded(image, lo, base, scale):
    """Inverse of _kronecker on t-exponents in [0, base), shifted by lo."""
    return LaurentPoly._clean(2, scale, {
        (lo[0] + k % base, lo[1] + k // base): c
        for (k,), c in image.terms.items()})


def _long_divide(a, b):
    """Schoolbook quotient of coefficient lists a / b with b[0] and b[-1]
    nonzero; raise NonDivisible on a nonzero remainder."""
    dn = len(b) - 1
    over_lead = _divider(b[dn])
    nonzero = [(j, c) for j, c in enumerate(b) if c]
    q = [0] * (len(a) - dn)
    r = list(a)
    for i in range(len(a) - 1, dn - 1, -1):
        c = r[i]
        if not c:
            continue
        qc = over_lead(c)
        base = i - dn
        q[base] = qc
        for j, cb in nonzero:
            r[base + j] = r[base + j] - qc * cb
    if any(r):
        raise NonDivisible("nonzero remainder")
    return q


def _mul1(a, b):
    """Univariate a * b: the packed kernel on the lattice of their
    exponents, unless the schoolbook is cheaper or an operand's
    coefficients have no content split (_split)."""
    pairs = len(a.terms) * len(b.terms)
    # a dense list is never shorter than its term count, so operands this
    # sparse stay on the schoolbook whatever their lattice step
    if _worth_packing(pairs, len(a.terms) + len(b.terms)):
        g = _lattice_step(a, b)
        if _worth_packing(pairs, a._span1(g) + b._span1(g)):
            lo1, x = a._dense1(g)
            lo2, y = b._dense1(g)
            sx, sy = _split(x), _split(y)
            if sx and sy:
                out = _scaled(sx[0] * sy[0], _mul_ints(sx[1], sy[1]))
                return LaurentPoly._from_dense1(lo1 + lo2, out, a.scale, g)
    return LaurentPoly._clean(1, a.scale, _mul_terms(a.terms, b.terms))


def _mul_terms(a, b):
    """Schoolbook product of univariate term dicts, over nonzero pairs.
    A one-term operand shifts the other: no two keys meet, and a product
    of nonzero coefficients is nonzero."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        ((e,), cb), = b.items()
        return {(k + e,): c * cb for (k,), c in a.items()}
    out = {}
    get = out.get
    for (e,), cb in b.items():
        shifted = [((k + e,), c * cb) for (k,), c in a.items()]
        for k, c in shifted:
            s = get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


# ---------- packed-integer kernel ----------

#: the kernel packs when the schoolbook would do more than this many
#: term pairs per slot of the dense spans
_PACK_RATIO = 4


def _worth_packing(pairs, slots):
    """The packed kernel touches every slot of the dense spans once; the
    schoolbook touches every pair of nonzero terms."""
    return pairs > _PACK_RATIO * slots


def _lattice_step(*polys):
    """The largest g with every exponent of each univariate polynomial on
    its own lo + g*Z, lo its least exponent; 1 when all are monomials."""
    g = 0
    for p in polys:
        lo = min(p.terms)[0]
        g = gcd(g, *[k - lo for k, in p.terms])
    return g or 1


def _split(cs):
    """(content, ints) with cs[i] == content * ints[i] and ints primitive.
    The content is a positive Fraction when every coefficient is an int or
    a Fraction, and u times a Fraction when every coefficient is a rational
    multiple of one Cyclotomic u; None for Cyclotomic coefficients with no
    such u."""
    kinds = set(map(type, cs))
    unit = 1
    if Cyclotomic in kinds:
        parts = _rational_parts(cs)
        if parts is None:
            return None
        unit, cs = parts
        kinds = set(map(type, cs))
    den = 1
    if Fraction in kinds:
        den = lcm(*[c.denominator for c in cs])
        cs = [c.numerator * (den // c.denominator) for c in cs]
    g = gcd(*cs)
    if g != 1:
        cs = [c // g for c in cs]
    return unit * Fraction(g, den), cs


#: the z-components of a rational coefficient, after component 0
_RATIONAL_TAIL = Cyclotomic([0]).coeffs[1:]


def _rational_parts(cs):
    """(u, rs) with cs[i] == u * rs[i], rs rational and u a Cyclotomic
    whose first nonzero z-component is 1; None when there is no such u.
    Compared a z-component at a time: component j of cs must be u_j times
    the rs, which are component k, u's first nonzero one."""
    rows = [c.coeffs if type(c) is Cyclotomic else (c,) + _RATIONAL_TAIL
            for c in cs]
    columns = list(zip(*rows))
    pivot = next(filter(any, rows))
    k = next(j for j, c in enumerate(pivot) if c)
    u = [_integral(Fraction(c, pivot[k])) for c in pivot]
    rs = columns[k]
    for j, (column, uj) in enumerate(zip(columns, u)):
        if not uj:
            if any(column):
                return None
        elif j != k and list(column) != [r * uj for r in rs]:
            return None
    return Cyclotomic(u), list(rs)


def _scaled(content, ints):
    """content * ints: Cyclotomic coefficients for a Cyclotomic content
    (built straight from its components times the int when they are all
    ints), int ones for an integral Fraction content."""
    if type(content) is Cyclotomic:
        u = content.coeffs
        if all(type(x) is int for x in u):
            return [_make([x * c for x in u]) if c else 0 for c in ints]
        return [content * c if c else 0 for c in ints]
    n, d = content.numerator, content.denominator
    if d == 1:
        return ints if n == 1 else [n * c for c in ints]
    return [Fraction(n * c, d) for c in ints]


def _bits(ints):
    return max(max(ints), -min(ints)).bit_length()


def _width(bits):
    """bits rounded up to whole bytes: a slot width that holds every
    coefficient of absolute value below 2^(bits-1)."""
    return (bits + 7) & ~7


def _mul_width(a, b):
    """The slot width that holds a, b and a * b for integer coefficient
    lists (see "Slot width of a product" in the module docstring)."""
    pairs = min(len(a) - a.count(0), len(b) - b.count(0))
    return _width(_bits(a) + _bits(b) + pairs.bit_length() + 1)


def _mul_ints(a, b):
    """Product of integer coefficient lists by one bigint multiply."""
    width = _mul_width(a, b)
    return _unpack(_pack(a, width) * _pack(b, width),
                   len(a) + len(b) - 1, width)


def _divide_ints(a, d):
    """Quotient a / d of integer coefficient lists, d primitive, at one
    slot width; raise NonDivisible on a nonzero packed remainder, None when
    the quotient overflows its slots or does not multiply back to a."""
    width = _width(max(_bits(a), _bits(d)) + 1)
    q, r = divmod(_pack(a, width), _pack(d, width))
    if r:
        raise NonDivisible("nonzero remainder")
    try:
        q = _unpack(q, len(a) - len(d) + 1, width)
    except ArithmeticError:
        return None
    return q if _mul_ints(d, q) == a else None


def _cross_equal(a, d, c, b):
    """a * d == c * b for univariate LaurentPolys with int coefficients, d
    and b nonzero, on packed ints that nothing unpacks (see
    "Cross-multiplied equality" in the module docstring)."""
    if not a or not c:
        return not a and not c
    four = common_grid((a, d, c, b))
    lo = [min(p.terms)[0] for p in four]
    hi = [max(p.terms)[0] for p in four]
    if lo[0] + lo[1] != lo[2] + lo[3] or hi[0] + hi[1] != hi[2] + hi[3]:
        return False
    g = _lattice_step(*four)
    x, y, z, w = [p._dense1(g)[1] for p in four]
    width = max(_mul_width(x, y), _mul_width(z, w))
    return (_pack(x, width) * _pack(y, width)
            == _pack(z, width) * _pack(w, width))


def _pack(ints, width):
    """sum(ints[i] * 2^(i*width)), for every ints[i] in
    [-2^(width-1), 2^(width-1)); OverflowError on one outside."""
    size = width >> 3
    if size > 8:
        data = b"".join([c.to_bytes(size, "little", signed=True)
                         for c in ints])
    else:
        code, wide = _WORDS[size]
        try:
            data = struct.pack(f"<{len(ints)}{code}", *ints)
        except struct.error:
            raise OverflowError("coefficient does not fit its slot") from None
        if wide > size:
            data = bytearray(data)
            for k in range(wide, size, -1):
                # the top byte of each k-byte word must extend the sign
                if data[k - 1::k] != data[size - 1::k].translate(_SIGN):
                    raise OverflowError("coefficient does not fit its slot")
                del data[k - 1::k]
    bias = _bias(len(ints), size)
    return (int.from_bytes(data, "little") ^ bias) - bias


def _unpack(v, slots, width):
    """The list that _pack turned into v: the balanced base-2^width digits
    of v, each in [-2^(width-1), 2^(width-1))."""
    size = width >> 3
    bias = _bias(slots, size)
    try:
        data = ((v + bias) ^ bias).to_bytes(slots * size, "little")
    except OverflowError:
        raise ArithmeticError("packed value overflows its top slot") from None
    if size > 8:
        return [int.from_bytes(data[i:i + size], "little", signed=True)
                for i in range(0, len(data), size)]
    code, wide = _WORDS[size]
    if wide > size:
        data, slot = bytearray(slots * wide), data
        sign = slot[size - 1::size].translate(_SIGN)
        for k in range(wide):
            data[k::wide] = slot[k::size] if k < size else sign
    return list(struct.unpack(f"<{slots}{code}", data))


def _bias(slots, size):
    """2^(width-1) in each of `slots` slots of `size` bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")


# _WORDS[size]: the struct code and byte count of the least standard
# little-endian word that holds a slot of `size` bytes.  _SIGN maps a
# slot's top byte to the byte that extends its sign.
_WORDS = (None, ("b", 1), ("h", 2), ("i", 4), ("i", 4),
          ("q", 8), ("q", 8), ("q", 8), ("q", 8))
_SIGN = bytes(128) + b"\xff" * 128


# ---------- packed layouts ----------

class _Layout:
    """One packed format (see "Packed layouts" in the module docstring):
    the coefficient of t^(offset + g*i) on the grid in slot i of `width`
    bits, for i < `slots`.  g is the gcd of exps (1 when all are 0), bound
    is at least every coefficient's absolute value, and top, a multiple of
    g, is the greatest exponent above the offset."""

    __slots__ = ("grid", "offset", "g", "width", "slots")

    def __init__(self, grid, exps, bound, offset, top):
        self.grid = grid
        self.offset = offset
        self.g = gcd(*exps) or 1
        self.width = _width(bound.bit_length() + 1)
        self.slots = top // self.g + 1

    def place(self, p, shift):
        """The (bit offset, coefficient) pairs of p * t^(-shift), in the
        order of p.terms; only the first exponent of each key is read, on
        the layout's grid."""
        step, g, width = self.grid // p.scale, self.g, self.width
        return [((k[0] * step - shift) // g * width, c)
                for k, c in p.terms.items()]

    def coefficients(self, v):
        """The coefficient in each of the layout's slots of v."""
        return _unpack(v, self.slots, self.width)

    def terms(self, v):
        """{(exponent,): coefficient} over the nonzero slots of v."""
        offset, g = self.offset, self.g
        return {(offset + g * i,): c
                for i, c in enumerate(self.coefficients(v)) if c}

    def unpack(self, v):
        return LaurentPoly._clean(1, self.grid, self.terms(v))


class _Shifts:
    """A product of factors laid on a layout, each as the (bit offset,
    coefficient) pairs of its terms (_Layout.place): v * w multiplies v by
    one factor at a time, as the sum of c * (v << s) over its pairs, so a
    factor of k terms costs k passes over v; a factor with no pairs is 0.
    A coefficient of 1 or -1, as most are, adds or subtracts the shifted
    v without a multiply."""

    __slots__ = ("factors",)

    def __init__(self, factors):
        self.factors = factors

    def __rmul__(self, v):
        for pairs in self.factors:
            acc = 0
            for s, c in pairs:
                if c == 1:
                    acc += v << s
                elif c == -1:
                    acc -= v << s
                else:
                    acc += c * (v << s)
            v = acc
        return v


def _l1(terms):
    """The sum of |c| over the coefficients of a terms dict, which must be
    ints."""
    cs = terms.values()
    if {*map(type, cs)} - {int}:
        raise TypeError("packed weights need int coefficients")
    return sum(map(abs, cs))


def diff_product(diffs):
    """prod d(a)^e over {a: e}, d(a) = t^(a/2) - t^(-a/2) for rational a
    and e >= 0, as a univariate LaurentPoly with int coefficients expanded
    on one packed int (see "Difference products" in the module
    docstring)."""
    for a, e in diffs.items():
        if e < 0:
            raise ValueError(f"d({a}) has the negative exponent {e}")
    sign, factors = _diff_factors(diffs)
    grid = lcm(*[a.denominator for a in factors])
    # d(a) = t^(-a/2) (t^a - 1), and t^a is m = 2*a*grid grid units
    steps = {int(2 * a * grid): e for a, e in factors.items()}
    top = sum(m * e for m, e in steps.items())
    layout = _Layout(grid, steps, 1 << sum(steps.values()), -top // 2, top)
    v = sign
    for m, e in steps.items():
        shift = m // layout.g * layout.width
        for _ in range(e):
            v = (v << shift) - v
    return layout.unpack(v)


def _diff_factors(diffs):
    """(sign, {a > 0: e != 0}) whose sign * prod d(a)^e equals
    prod d(a)^e over diffs, keys kept as given: d(-a) = -d(a), and d(0)
    makes the sign 0 (e > 0) or raises ZeroDivisionError (e < 0)."""
    sign, factors = 1, {}
    for a, e in diffs.items():
        if not e:
            continue
        if not a:
            if e < 0:
                raise ZeroDivisionError("d(0) with a negative exponent")
            return 0, {}
        if a < 0:
            a = -a
            sign = -sign if e % 2 else sign
        factors[a] = factors.get(a, 0) + e
    return sign, {a: e for a, e in factors.items() if e}


def common_grid(items):
    """The LaurentPolys among items rescaled to their least common grid,
    other items (scalars) unchanged, as a list in the same order."""
    grid = lcm(*[p.scale for p in items if isinstance(p, LaurentPoly)])
    return [p.rescale(grid) if isinstance(p, LaurentPoly) else p
            for p in items]


def _divider(b):
    """The map a -> a / b for a fixed nonzero coefficient b, which inverts
    b once; an int quotient of ints that b divides stays an int."""
    inv = _inv_scalar(b)
    if isinstance(b, int):
        return lambda a: (a // b if isinstance(a, int) and not a % b
                          else a * inv)
    return lambda a: a * inv


class RatFunc:
    """Quotient of Laurent polynomials, reduced by monomial content only.

    Equality is decided exactly, on the numerators when the denominators
    are equal and by cross-multiplication otherwise, never by normal forms,
    so no polynomial gcd is ever required.  Univariate quotients with int
    coefficients cross-multiply on packed ints and build neither product
    (_cross_equal).  A denominator that reduces to a unit monomial is
    folded into the numerator so that polynomial values are recognizable
    (is_poly / poly()); such a value keeps its Fraction coefficients.  Any other quotient with a coefficient that is not an
    int is divided by the content of all its coefficients (_split), when
    they have one, so that num and den have int coefficients and their
    products run on the integer kernel: every quotient of ints and
    Fractions, and every one whose coefficients are rational multiples of
    one Cyclotomic.  Other Cyclotomic coefficients are left as they are.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        if not (isinstance(num, LaurentPoly) and isinstance(den, LaurentPoly)):
            if _is_scalar(num) and _is_scalar(den):
                num = LaurentPoly.const(num)
            num, den = _lifted(num, den, "RatFunc")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        num, den = num._matched(den)
        if num.is_zero:
            den = LaurentPoly.one(num.nvars, num.scale)
        else:
            nmin = num.min_exponents()
            dmin = den.min_exponents()
            common = tuple(min(a, b) for a, b in zip(nmin, dmin))
            if any(common):
                neg = tuple(-c for c in common)
                num = num.shift_unit(neg)
                den = den.shift_unit(neg)
            if den.is_monomial():
                (k, c), = den.terms.items()
                num = num.shift_unit(tuple(-e for e in k)) * _inv_scalar(c)
                den = LaurentPoly.one(num.nvars, num.scale)
            else:
                cs = [*num.terms.values(), *den.terms.values()]
                split = None if {*map(type, cs)} == {int} else _split(cs)
                if split is not None:
                    ints = iter(split[1])
                    num, den = [LaurentPoly._clean(p.nvars, p.scale, {
                        k: next(ints) for k in p.terms}) for p in (num, den)]
        self.num = num
        self.den = den

    @property
    def is_zero(self):
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    @property
    def is_poly(self):
        return self.den == LaurentPoly.one(self.den.nvars, self.den.scale)

    def poly(self):
        if not self.is_poly:
            raise NonDivisible("value has a nontrivial denominator")
        return self.num

    def _coerced(self, other):
        if isinstance(other, RatFunc):
            return other
        other = _lift(other, self.num)
        return RatFunc(other) if isinstance(other, LaurentPoly) else None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if n < 0:
            return (RatFunc(self.den, self.num)) ** (-n)
        return RatFunc(self.num ** n, self.den ** n)

    def reciprocal(self):
        if self.is_zero:
            raise ZeroDivisionError("reciprocal of zero")
        return RatFunc(self.den, self.num)

    def __eq__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:           # a denominator is never zero
            return self.num == o.num
        four = (self.num, o.den, o.num, self.den)
        if all(p.nvars == 1 and all(type(c) is int for c in p.terms.values())
               for p in four):
            return _cross_equal(*four)
        return (self.num * o.den) == (o.num * self.den)

    def eval_units(self, *unit_values):
        dv = self.den.eval_units(*unit_values)
        if not dv:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return _scalar_quot(self.num.eval_units(*unit_values), dv)

    def format(self):
        if self.is_poly:
            return self.num.format()
        return f"({self.num.format()}) / ({self.den.format()})"

    def __repr__(self):
        return f"RatFunc({self.format()})"


def _inv_scalar(c):
    if isinstance(c, int):
        return Fraction(1, c) if c not in (1, -1) else c
    if isinstance(c, Fraction):
        return 1 / c
    return c ** -1


def _scalar_quot(a, b):
    return (a if isinstance(a, Cyclotomic) else Fraction(a)) / b


def vanishing_order_at_one(p):
    """(order, deflated) for a univariate Laurent polynomial at unit = 1:
    p = (unit - 1)^order * deflated with deflated(1) != 0.  Exact synthetic
    division; the unit monomial content is immaterial and dropped.  A
    scalar is a constant polynomial."""
    if _is_scalar(p):
        p = LaurentPoly.const(p)
    if not isinstance(p, LaurentPoly):
        raise TypeError("vanishing order needs a LaurentPoly or a scalar, "
                        f"got {type(p).__name__}")
    if p.nvars != 1:
        raise ValueError("vanishing order only defined for univariate values")
    if p.is_zero:
        raise ValueError("zero polynomial has no finite vanishing order")
    _, cs = p._dense1()
    order = 0
    while not sum(cs):
        # divide by (unit - 1): synthetic division from the top, whose
        # coefficients are the sums of cs's tails
        cs = list(accumulate(reversed(cs[1:])))[::-1]
        order += 1
    return order, LaurentPoly._from_dense1(0, cs, p.scale)


def limit_at_one(rf):
    """Exact limit of a univariate RatFunc as the variable goes to 1; a
    LaurentPoly or a scalar is taken as RatFunc(rf), so a polynomial's
    limit is its coefficient sum.

    Both numerator and denominator are deflated by their exact power of
    (unit - 1); equal orders give the ratio of the nonvanishing cofactors,
    a larger numerator order gives 0, and a larger denominator order is a
    pole (raised as NonDivisible).  No 0/0 evaluation ever happens.
    """
    if not isinstance(rf, RatFunc):
        rf = RatFunc(rf)
    od, pd = vanishing_order_at_one(rf.den)
    if rf.is_zero:
        return Fraction(0)
    on, pn = vanishing_order_at_one(rf.num)
    if on > od:
        return Fraction(0)
    if on < od:
        raise NonDivisible("pole at 1: denominator vanishes to higher order")
    return _scalar_quot(pn.subs_all_one(), pd.subs_all_one())
