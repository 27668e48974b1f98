"""Exact Laurent polynomials with half-integral exponents, and their quotients.

Exponents live on the grid (1/(2*D))*Z for a per-polynomial positive integer
scale D, stored as integer multiples of the grid unit.  So at scale D=1 the
monomial t^(1/2) has exponent key 1 and t^(-3) has key -6.  One or two
variables are supported; keys are exponent tuples of length nvars.

Coefficients are exact scalars: int, fractions.Fraction, or any ring element
that sets the class attribute ``scalar_ring = True`` (the cyclotomic numbers
in this package do).  Zero coefficients are never stored.

Division follows the Laurent convention that monomials are units: t divides 1,
with quotient t^(-1).  divide_exact raises NonDivisible when the quotient is
not itself a Laurent polynomial on the grid.

Packed-integer kernel.  A univariate multiply or exact divide whose operands
have only int and Fraction coefficients, and more pairs of nonzero terms than
a few per slot of their dense spans, runs as one bigint operation (Kronecker
substitution).  Each coefficient list is split as content * v, the content a
positive rational and v a primitive integer vector, and v is packed into the
integer P_B(v) = sum v_i 2^(i*B).  P_B is evaluation at 2^B, a ring map
Z[t] -> Z, so P_B(v) * P_B(w) = P_B(v*w) for every slot width B.

Slot width of a product.  Let every |v_i| < 2^b and every |w_j| < 2^c, and
let k be the smaller of the two nonzero-term counts.  Coefficient m of v*w
is a sum of at most k products v_i w_(m-i), each of absolute value below
2^(b+c), so it is below k * 2^(b+c) < 2^(b+c+L) with L the bit length of k.
With B = b + c + L + 1, rounded up to whole bytes, every coefficient of v,
w and v*w lies strictly inside (-2^(B-1), 2^(B-1)).  A list with entries in
that range is the only one that packs to its value: adding 2^(B-1) to every
slot makes each slot a plain B-bit digit (the borrows that negative slots
took from the slots above are paid back), so unpacking reads bytes.  A value
that needs bits above the top slot comes from no such list, and unpacking
raises ArithmeticError on it.

Exact divide.  The divisor d is made primitive.  If d divides a over Q, the
quotient is in Z[t] by Gauss's lemma, so P_B(a) = P_B(d) * P_B(a/d) for
every B, and a nonzero remainder of P_B(a) by P_B(d) (nonzero, since its
slots are in range) proves NonDivisible.  A zero remainder is only evidence:
the quotient is unpacked and multiplied back with a width proved as above,
and must give a.  B starts at the dividend's and divisor's bit lengths, not
at any bound from the quotient's length; when the multiply-back fails, B is
doubled at most _WIDENINGS times, and then the schoolbook long division
decides.

Cyclotomic coefficients.  A multiply with Cyclotomic coefficients (mixed
freely with int and Fraction ones) writes each operand as
sum_k z^k P_k(t), k = 0..7, with rational P_k; a rational coefficient lies
in component 0.  Every pair of nonzero components P_k, Q_l is multiplied
by the rational kernel above, and P_k Q_l is added into slot k + l.  Each
of those is an ordinary product in Z[t] after its content split, so the
slot-width proof applies to it unchanged; the slots add the products as
integers over one common denominator, exactly.  The slots 0..14 are the coefficients of the product in
Q[z][t]; reduction modulo Phi_24 = z^8 - z^4 + 1 is a ring map from Q[z]
onto Q(zeta_24), applied coefficient by coefficient, so folding each output
coefficient's 15-vector with the cyclotomic module's fold gives the
product in Q(zeta_24)[t] exactly.  Coefficients that fold to zero are not
stored.  An operand that is one scalar times rationals has only the
scalar's nonzero components, so its product costs one bigint multiply per
such component.  Exact divide with Cyclotomic coefficients stays on the
schoolbook.

The schoolbook multiply (_mul_terms) and long division (_long_divide) also
serve sparse operands and the tests, as the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add

from .cyclotomic import DEGREE, Cyclotomic, _fold, _make


class GridViolation(ValueError):
    """A requested exponent does not land on the 1/(2D) grid."""


class NonDivisible(ArithmeticError):
    """Laurent division with a nontrivial remainder."""


def _is_scalar(x):
    return isinstance(x, (int, Fraction)) or getattr(x, "scalar_ring", False)


class LaurentPoly:
    __slots__ = ("nvars", "scale", "terms")

    def __init__(self, nvars, scale, terms):
        if nvars not in (1, 2):
            raise ValueError("only 1 or 2 variables supported")
        if scale < 1:
            raise ValueError("scale must be a positive integer")
        clean = {}
        for exps, c in terms.items():
            if len(exps) != nvars:
                raise ValueError("exponent tuple length != nvars")
            key = tuple(int(e) for e in exps)
            if key != exps:
                raise GridViolation(f"exponent {exps} is not integral")
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
    def monomial(cls, coeff, exps, scale=1):
        exps = tuple(exps)
        return cls(len(exps), scale, {exps: coeff})

    @classmethod
    def unit_power(cls, k, scale=1, var=0, nvars=1):
        """The monomial t_var^(k/(2*scale))."""
        exps = [0] * nvars
        exps[var] = k
        return cls(nvars, scale, {tuple(exps): 1})

    @classmethod
    def var_power(cls, a, scale=1, var=0, nvars=1):
        """The monomial t_var^a for rational a; a*2*scale must be integral."""
        k = Fraction(a) * 2 * scale
        if k.denominator != 1:
            raise GridViolation(f"exponent {a} not on the 1/{2*scale} grid")
        return cls.unit_power(int(k), scale, var, nvars)

    # ---------- structure ----------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def min_exponents(self):
        return tuple(min(e[i] for e in self.terms) for i in range(self.nvars))

    def rescale(self, new_scale):
        if new_scale == self.scale:
            return self
        if new_scale % self.scale:
            raise GridViolation("new scale must be a multiple of the old one")
        m = new_scale // self.scale
        return LaurentPoly(self.nvars, new_scale,
                           {tuple(e * m for e in k): c for k, c in self.terms.items()})

    def _matched(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        if self.scale == other.scale:
            return self, other
        s = self.scale * other.scale // gcd(self.scale, other.scale)
        return self.rescale(s), other.rescale(s)

    # ---------- ring operations ----------

    def __add__(self, other):
        if _is_scalar(other):
            other = LaurentPoly.const(other, self.nvars, self.scale)
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
        if _is_scalar(other):
            other = LaurentPoly.const(other, self.nvars, self.scale)
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
        if a.nvars == 1 and _worth_packing(len(a.terms) * len(b.terms),
                                           a._span1() + b._span1()):
            lo1, x = a._dense1()
            lo2, y = b._dense1()
            out = _mul_rational(x, y)
            if out is None:
                out = _mul_cyclotomic(x, y)
            if out is not None:
                return LaurentPoly._from_dense1(lo1 + lo2, out, a.scale)
        return LaurentPoly._clean(a.nvars, a.scale,
                                  _mul_terms(a.terms, b.terms, a.nvars))

    __rmul__ = __mul__

    def _span1(self):
        """Length of the dense univariate coefficient list."""
        return max(self.terms)[0] - min(self.terms)[0] + 1

    def _dense1(self):
        """Univariate terms as (offset, coefficient list); list[i] is the
        coefficient of unit^(offset+i)."""
        lo = min(self.terms)[0]
        cs = [0] * (max(self.terms)[0] - lo + 1)
        for k, c in self.terms.items():
            cs[k[0] - lo] = c
        return lo, cs

    @classmethod
    def _from_dense1(cls, lo, cs, scale):
        return cls._clean(1, scale,
                          {(lo + i,): c for i, c in enumerate(cs) if c})

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
        if _is_scalar(other):
            other = LaurentPoly.const(other, self.nvars, self.scale)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.nvars != other.nvars:
            return False
        a, b = self._matched(other)
        return a.terms == b.terms

    def __hash__(self):
        raise TypeError("LaurentPoly is not hashable")

    # ---------- evaluation ----------

    def eval_units(self, *unit_values):
        """Evaluate with the grid unit of each variable set to the given value,
        i.e. variable i becomes unit_values[i]^(2*scale)."""
        if len(unit_values) != self.nvars:
            raise ValueError("need one value per variable")
        total = 0
        for k, c in self.terms.items():
            term = c
            for u, e in zip(unit_values, k):
                if e:
                    term = term * _int_pow(u, e)
            total = total + term
        return total

    def subs_all_one(self):
        """Sum of coefficients: the value with every variable set to 1."""
        total = 0
        for c in self.terms.values():
            total = total + c
        return total

    # ---------- division ----------

    def divide_exact(self, other):
        return divide_exact(self, other)

    def shift_unit(self, deltas):
        """Multiply by the unit monomial with the given exponent offsets."""
        deltas = tuple(deltas)
        return LaurentPoly(self.nvars, self.scale,
                           {tuple(e + d for e, d in zip(k, deltas)): c
                            for k, c in self.terms.items()})

    # ---------- display ----------

    def format(self, names=("t", "u")):
        if self.is_zero:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            mono = []
            for name, e in zip(names, k):
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


def _int_pow(base, e):
    if e >= 0:
        return base ** e
    if isinstance(base, int):
        return Fraction(1, base ** -e)
    return base ** e


def divide_exact(num, den):
    """Exact Laurent quotient num/den, or raise NonDivisible.

    Both are first shifted by unit monomials so every variable has minimum
    exponent 0; since unit monomials are invertible, Laurent divisibility is
    exactly ordinary divisibility of the shifted polynomials, which is decided
    by single-divisor long division in graded-lex order.
    """
    if _is_scalar(num):
        num = LaurentPoly.const(num, den.nvars, den.scale)
    if den.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero:
        return LaurentPoly.zero(den.nvars, den.scale)
    num, den = num._matched(den)
    if num.nvars == 1:
        return _divide_dense1(num, den)
    return _divide_sparse(num, den)


def reduced(num, den):
    """num/den as a RatFunc: the exact quotient when den divides num, else
    the unreduced fraction."""
    try:
        return RatFunc(divide_exact(num, den))
    except NonDivisible:
        return RatFunc(num, den)


def _divide_dense1(num, den):
    nlo, a = num._dense1()
    dlo, b = den._dense1()
    if len(a) < len(b):
        raise NonDivisible("quotient support would be empty")
    q = None
    if _worth_packing((len(a) - len(b) + 1) * len(den.terms), len(a) + len(b)):
        q = _divide_rational(a, b)
    if q is None:
        q = _long_divide(a, b)
    return LaurentPoly._from_dense1(nlo - dlo, q, num.scale)


def _divide_sparse(num, den):
    """Two-variable long division; the remainder's terms wait in a heap
    ordered by descending graded-lex key, and a popped key that is no longer
    in the remainder is skipped."""
    nmin = num.min_exponents()
    dmin = den.min_exponents()
    rem = {(k[0] - nmin[0], k[1] - nmin[1]): c
           for k, c in num.terms.items()}
    dterms = {(k[0] - dmin[0], k[1] - dmin[1]): c
              for k, c in den.terms.items()}
    dlead = min(dterms, key=_grlex_desc)
    dlc = dterms[dlead]
    heap = [(*_grlex_desc(k), k) for k in rem]
    heapify(heap)
    quot = {}
    while heap:
        rlead = heappop(heap)[-1]
        c = rem.get(rlead)
        if c is None:
            continue
        mono = (rlead[0] - dlead[0], rlead[1] - dlead[1])
        if mono[0] < 0 or mono[1] < 0:
            raise NonDivisible("leading term not divisible")
        qc = _coeff_div(c, dlc)
        quot[mono] = qc
        for k, dc in dterms.items():
            key = (mono[0] + k[0], mono[1] + k[1])
            s = rem.get(key, 0) - qc * dc
            if s:
                if key not in rem:
                    heappush(heap, (*_grlex_desc(key), key))
                rem[key] = s
            else:
                rem.pop(key, None)
    shift = (nmin[0] - dmin[0], nmin[1] - dmin[1])
    return LaurentPoly._clean(num.nvars, num.scale,
                              {(k[0] + shift[0], k[1] + shift[1]): c
                               for k, c in quot.items()})


def _grlex_desc(k):
    """Heap key of a two-variable exponent: smallest for the graded-lex
    largest."""
    return -k[0] - k[1], -k[0]


def _long_divide(a, b):
    """Schoolbook quotient of coefficient lists a / b with b[0] and b[-1]
    nonzero; raise NonDivisible on a nonzero remainder."""
    dn = len(b) - 1
    lead = b[dn]
    nonzero = [(j, c) for j, c in enumerate(b) if c]
    q = [0] * (len(a) - dn)
    r = list(a)
    for i in range(len(a) - 1, dn - 1, -1):
        c = r[i]
        if not c:
            continue
        qc = _coeff_div(c, lead)
        base = i - dn
        q[base] = qc
        for j, cb in nonzero:
            r[base + j] = r[base + j] - qc * cb
    if any(r):
        raise NonDivisible("nonzero remainder")
    return q


def _mul_terms(a, b, nvars):
    """Schoolbook product of two term dicts, over pairs of nonzero terms."""
    if len(a) < len(b):
        a, b = b, a
    out = {}
    get = out.get
    for kb, cb in b.items():
        if nvars == 1:
            e, = kb
            shifted = [((k[0] + e,), c * cb) for k, c in a.items()]
        else:
            e, f = kb
            shifted = [((k[0] + e, k[1] + f), c * cb) for k, c in a.items()]
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

#: slot doublings an exact divide tries before the schoolbook decides
_WIDENINGS = 2


def _worth_packing(pairs, slots):
    """The packed kernel touches every slot of the dense spans once; the
    schoolbook touches every pair of nonzero terms."""
    return pairs > _PACK_RATIO * slots


def _split(cs):
    """(content, ints) with cs[i] == content * ints[i], the content a
    positive Fraction and ints primitive; None unless every coefficient is
    an int or a Fraction."""
    kinds = set(map(type, cs))
    if not kinds <= {int, Fraction}:
        return None
    den = 1
    if Fraction in kinds:
        den = lcm(*[c.denominator for c in cs])
        cs = [c.numerator * (den // c.denominator) for c in cs]
    g = gcd(*cs)
    if g != 1:
        cs = [c // g for c in cs]
    return Fraction(g, den), cs


def _scaled(content, ints):
    """content * ints, with int coefficients when the content is integral."""
    n, d = content.numerator, content.denominator
    if d == 1:
        return ints if n == 1 else [n * c for c in ints]
    return [Fraction(n * c, d) for c in ints]


def _mul_rational(a, b):
    """a * b by one bigint multiply; None unless both are rational."""
    sa, sb = _split(a), _split(b)
    if sa is None or sb is None:
        return None
    return _scaled(sa[0] * sb[0], _mul_ints(sa[1], sb[1]))


#: the z-components of a rational coefficient, after component 0
_RATIONAL_TAIL = (0,) * (DEGREE - 1)


def _components(cs):
    """{k: split P_k} over the nonzero P_k with cs[i] == sum_k z^k P_k[i];
    None unless every coefficient is an int, a Fraction or a Cyclotomic."""
    rows = []
    for c in cs:
        kind = type(c)
        if kind is Cyclotomic:
            rows.append(c.coeffs)
        elif kind is int or kind is Fraction:
            rows.append((c,) + _RATIONAL_TAIL)
        else:
            return None
    out = {}
    for k, column in enumerate(zip(*rows)):
        if any(column):
            split = _split(column)
            if split is None:
                return None
            out[k] = split
    return out


def _mul_cyclotomic(a, b):
    """a * b over Q(zeta_24) by one bigint multiply per pair of nonzero
    z-components; None unless both are cyclotomic or rational."""
    ca, cb = _components(a), _components(b)
    if ca is None or cb is None:
        return None
    products = [(k + l, ck * cl, _mul_ints(vk, vl))
                for k, (ck, vk) in ca.items() for l, (cl, vl) in cb.items()]
    # slots[s]: den times the coefficient list of z^s, as ints
    den = lcm(*[c.denominator for _, c, _ in products])
    zero = [0] * (len(a) + len(b) - 1)
    slots = [zero] * (max(s for s, _, _ in products) + 1)
    for s, c, ints in products:
        m = c.numerator * (den // c.denominator)
        if m != 1:
            ints = [m * v for v in ints]
        slots[s] = ints if slots[s] is zero else list(map(add, slots[s], ints))
    out = []
    for column in zip(*slots):
        folded = _fold(list(column))
        if not any(folded):
            out.append(0)
        elif den == 1:
            out.append(_make(folded))
        else:
            out.append(_make([Fraction(v, den) if v else 0 for v in folded]))
    return out


def _divide_rational(a, b):
    """a / b by one bigint divmod, or raise NonDivisible; None unless both
    are rational, or when the widened slots still leave it undecided."""
    sa, sb = _split(a), _split(b)
    if sa is None or sb is None:
        return None
    q = _divide_ints(sa[1], sb[1])
    if q is None:
        return None
    return _scaled(sa[0] / sb[0], q)


def _bits(ints):
    return max(max(ints), -min(ints)).bit_length()


def _width(bits):
    """bits rounded up to whole bytes: a slot width that holds every
    coefficient of absolute value below 2^(bits-1)."""
    return (bits + 7) & ~7


def _mul_ints(a, b):
    """Product of integer coefficient lists by one bigint multiply."""
    pairs = min(len(a) - a.count(0), len(b) - b.count(0))
    width = _width(_bits(a) + _bits(b) + pairs.bit_length() + 1)
    return _unpack(_pack(a, width) * _pack(b, width),
                   len(a) + len(b) - 1, width)


def _divide_ints(a, d):
    """Quotient a / d of integer coefficient lists, d primitive; raise
    NonDivisible on a nonzero packed remainder, None when no width tried
    gives a quotient that multiplies back to a."""
    slots = len(a) - len(d) + 1
    width = _width(max(_bits(a), _bits(d)) + 1)
    for _ in range(_WIDENINGS + 1):
        q, r = divmod(_pack(a, width), _pack(d, width))
        if r:
            raise NonDivisible("nonzero remainder")
        try:
            q = _unpack(q, slots, width)
        except ArithmeticError:
            pass
        else:
            if _mul_ints(d, q) == a:
                return q
        width *= 2
    return None


def _pack(ints, width):
    """sum(ints[i] * 2^(i*width)), for |ints[i]| < 2^(width-1)."""
    size = width >> 3
    half = 1 << (width - 1)
    data = b"".join([(c + half).to_bytes(size, "little") for c in ints])
    return int.from_bytes(data, "little") - _bias(len(ints), size)


def _unpack(v, slots, width):
    """The list that _pack turned into v: the balanced base-2^width digits
    of v, each in [-2^(width-1), 2^(width-1))."""
    size = width >> 3
    try:
        data = (v + _bias(slots, size)).to_bytes(slots * size, "little")
    except OverflowError:
        raise ArithmeticError("packed value overflows its top slot") from None
    half = 1 << (width - 1)
    return [int.from_bytes(data[i:i + size], "little") - half
            for i in range(0, len(data), size)]


def _bias(slots, size):
    """2^(width-1) in each of `slots` slots of `size` bytes."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * slots, "little")


def _coeff_div(a, b):
    if isinstance(a, int) and isinstance(b, int):
        if b and a % b == 0:
            return a // b
        return Fraction(a, b)
    if isinstance(b, int):
        b = Fraction(b)
    return a / b


class RatFunc:
    """Quotient of Laurent polynomials, reduced by monomial content only.

    Equality is decided exactly by cross-multiplication, never by normal
    forms, so no polynomial gcd is ever required.  A denominator that reduces
    to a unit monomial is folded into the numerator so that polynomial values
    are recognizable (is_poly / poly()).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if _is_scalar(num):
            like = den if isinstance(den, LaurentPoly) else LaurentPoly.one()
            num = LaurentPoly.const(num, like.nvars, like.scale)
        if den is None:
            den = LaurentPoly.one(num.nvars, num.scale)
        if _is_scalar(den):
            den = LaurentPoly.const(den, num.nvars, num.scale)
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
        if isinstance(other, LaurentPoly):
            return RatFunc(other)
        if _is_scalar(other):
            return RatFunc(LaurentPoly.const(other, self.num.nvars, self.num.scale))
        return None

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

    def __rsub__(self, other):
        return (-self) + other

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
        return (self.num * o.den) == (o.num * self.den)

    def __hash__(self):
        raise TypeError("RatFunc is not hashable")

    def eval_units(self, *unit_values):
        dv = self.den.eval_units(*unit_values)
        if not dv:
            raise ZeroDivisionError("denominator vanishes at the given point")
        return _scalar_quot(self.num.eval_units(*unit_values), dv)

    def format(self, names=("t", "u")):
        if self.is_poly:
            return self.num.format(names)
        return f"({self.num.format(names)}) / ({self.den.format(names)})"

    def __repr__(self):
        return f"RatFunc({self.format()})"


def _inv_scalar(c):
    if isinstance(c, int):
        return Fraction(1, c) if c not in (1, -1) else c
    if isinstance(c, Fraction):
        return 1 / c
    return c ** -1


def _scalar_quot(a, b):
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    if isinstance(b, int):
        b = Fraction(b)
    return a / b


def vanishing_order_at_one(p):
    """(order, deflated) for a univariate Laurent polynomial at unit = 1:
    p = (unit - 1)^order * deflated with deflated(1) != 0.  Exact synthetic
    division; the unit monomial content is immaterial and dropped."""
    if p.is_zero:
        raise ValueError("zero polynomial has no finite vanishing order")
    _, cs = p._dense1()
    order = 0
    while True:
        total = 0
        for c in cs:
            total = total + c
        if total:
            break
        # divide by (unit - 1): synthetic division from the top
        out = [0] * (len(cs) - 1)
        acc = 0
        for i in range(len(cs) - 1, 0, -1):
            acc = acc + cs[i]
            out[i - 1] = acc
        cs = out
        order += 1
    return order, LaurentPoly._from_dense1(0, cs, p.scale)


def limit_at_one(rf):
    """Exact limit of a univariate RatFunc as the variable goes to 1.

    Both numerator and denominator are deflated by their exact power of
    (unit - 1); equal orders give the ratio of the nonvanishing cofactors,
    a larger numerator order gives 0, and a larger denominator order is a
    pole (raised as NonDivisible).  No 0/0 evaluation ever happens.
    """
    if rf.num.nvars != 1:
        raise ValueError("limit only defined for univariate values")
    if rf.is_zero:
        return Fraction(0)
    on, pn = vanishing_order_at_one(rf.num)
    od, pd = vanishing_order_at_one(rf.den)
    if on > od:
        return Fraction(0)
    if on < od:
        raise NonDivisible("pole at 1: denominator vanishes to higher order")
    return _scalar_quot(pn.subs_all_one(), pd.subs_all_one())
