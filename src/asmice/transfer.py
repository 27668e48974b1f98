"""Row-sweep dynamic programming for the weighted matrix count.

The count A(n;x) = sum over matrices of x^(number of -1 entries) is computed
without enumerating matrices: a DP key holds the partial column sums (each 0
or 1, so an n-bit mask) plus the running row prefix (one bit) while a row is
swept left to right.  At column j with column bit ct and row prefix r, entry
0 is always allowed, entry +1 needs (ct, r) = (0, 0), and entry -1 needs
(ct, r) = (1, 1) and raises the degree by one.  A row must end with prefix 1
and the final mask must be all ones.

Each key's coefficient vector is packed into one Python int (Kronecker
packing): coefficient d sits in bits [d*B, (d+1)*B), so raising the degree
is ``v << B`` and adding two vectors is one integer addition.  Packing is
evaluation at x = 2^B, a ring map from Z[x] to Z, and Python ints do not
wrap: every sum, shift and product of packed values is exactly the packed
sum, shift and product, whatever size its coefficients reach.  So no value
inside the sweep needs to fit its slots.  Only the coefficients of A(n;x)
are read back, as base-2^B digits, and that is exact when each is below
2^B; they are nonnegative and sum to A(n), so A(n) < 2^B suffices.

Slot width.  The top k rows of a member are fixed by the column masks
m_1, ..., m_k they leave, since row i has +1 where m_i gains a bit on
m_(i-1) and -1 where it loses one, and |m_i| = i because every row sums
to 1.  So at most prod_{i<=k} C(n, i) blocks of k rows exist, and
A(n) <= U = prod_{i=1}^{n-1} C(n, i).  The sweep proposes B one bit above
both V = prod_{i<=ceil(n/2)} C(n, i) and the product formula's A(n), 75
bits at n = 14, and checks it with its own count.  Since 2^B = 1 mod
2^B - 1, a packed frontier value taken mod 2^B - 1 is its count at x = 1,
a number of blocks of at most ceil(n/2) rows, so at most V < 2^(B-1): the
residue is that count exactly.  Pairing these counts as the packed values
are paired (below) gives A(n) exactly.  If A(n) >= 2^B, the count is swept
again at the bit length of U, which needs no check.  The formula only
proposes a width; no returned polynomial depends on it being right, and
the bound does not use it.  A nonzero bit above the top slot can only come
from a broken bound, and unpacking raises on it.

Meet in the middle.  Turned upside down, a matrix is again a member: the
rows keep their alternating signs, and every column still has partial
sums 0 or 1 read from the bottom, because its suffix sums are one minus
its prefix sums.  So if the top k rows of a member leave the column mask
m, its bottom n-k rows, turned over, are the top n-k rows of a member
with column mask ~m, the complement of m in the n columns; conversely
any top block with mask m stacks onto any turned-over block with mask ~m
to give a member.  With T_k the frontier after k rows,
A(n;x) = sum over m of T_k(m) * T_(n-k)(~m), degrees adding.
transfer_count takes k = floor(n/2); one sweep of ceil(n/2) rows gives
both frontiers, and each product is one integer multiply of two packed
vectors.

Mirror fold.  Read right to left, a member is again a member with the
same entries -1: each row is the same sequence reversed, which still
alternates +1, -1, ..., +1, and each column is another column unchanged.
So the top k rows leave mask m exactly when their mirror image leaves
rev m, the mask read right to left, and T_k(m) = T_k(rev m).  A folded
frontier keeps T_k only at the canonical masks c = min(m, rev m).  One
more row is swept in two batches.  The sources c != rev c each stand for
the two masks c and rev c with equal values, and a row from rev c to m
is the mirror image of a row from c to rev m; so the batch's sum S gives
S(m) + S(rev m) at the canonical target m, which is 2 S(m) at a
palindrome.  The palindromic sources stand only for themselves, and
their sum P has P(m) = P(rev m), so its canonical targets carry all of
it.  The odd extra row, from T_floor(n/2) to T_ceil(n/2), therefore
sweeps about half its sources, like every other row.

Orbit pairing.  Complement commutes with reversal, ~rev m = rev ~m, so
the terms T_k(m) T_(n-k)(~m) of m and of rev m are equal: the pairing
runs over canonical c only, weighting c by 2 when c != rev c, with the
partner d = canon(~c).  At even n the two frontiers are one, and c -> d
is an involution on canonical masks that keeps the weight, so the terms
of c and of d are equal too; each pair {c, d} is visited once and
doubled, unless d = c, which happens exactly when ~c = rev c.

The row loop.  Along a row, a column's -1 moves are listed from the r = 1
frontier first, and its +1 moves are then added from the r = 0 frontier
straight into it.  Column 0 builds the r = 1 frontier in one comprehension,
since it starts each row empty, and the last column skips its -1 moves,
which would only feed the r = 0 frontier that a finished row drops.
_folded_sweep splits its sources into the two batches in one pass, and
_sweep adds into each batch in place instead of copying it.
"""

from __future__ import annotations

from math import comb, prod

from .intpoly import IntPoly

DEFAULT_BOUND = 16


def coeff_count(n):
    """Length of the coefficient vector of the count polynomial.

    The maximal number of -1 entries is floor((n-1)^2/4).
    """
    return (n - 1) ** 2 // 4 + 1


def transfer_count(n):
    """The weighted count A(n;x) as an IntPoly, by meeting in the middle.

    Sweeps ceil(n/2) rows, keyed by mirror-canonical masks, and pairs the
    frontier after k = floor(n/2) rows with the one after n - k rows on
    complementary masks, once per mirror orbit.  The slots are as narrow
    as _sweep_width proposes, unless the sweep's own count A(n) does not
    fit them; then the count is swept again at _slot_width(n).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > DEFAULT_BOUND:
        raise ValueError(f"n={n} exceeds the transfer bound {DEFAULT_BOUND}")
    rev = _reversals(n)
    full = _slot_width(n)
    width = min(_sweep_width(n), full)
    top, bottom = _halves(n, width, rev)
    if width < full and _block_count(n, top, bottom, rev, width) >> width:
        width = full
        top, bottom = _halves(n, width, rev)
    return IntPoly(_unpack(_pair(n, top, bottom, rev), coeff_count(n), width))


def _slot_width(n):
    """Bits per packed slot: the bit length of prod_{i=1}^{n-1} C(n, i)."""
    return prod(comb(n, i) for i in range(1, n)).bit_length()


def _sweep_width(n):
    """The proposed slot width: one bit above both the block bound
    prod_{i<=ceil(n/2)} C(n, i) and the product formula's A(n)."""
    from .formulas import a_formula     # formulas imports this module
    blocks = prod(comb(n, i) for i in range(1, (n + 1) // 2 + 1))
    return max(blocks.bit_length(), a_formula(n).bit_length()) + 1


def _halves(n, width, rev):
    """The folded frontiers after floor(n/2) and ceil(n/2) rows."""
    top = _folded_sweep(n, width, n // 2, {0: 1}, rev)
    return top, _folded_sweep(n, width, n % 2, top, rev)


def _block_count(n, top, bottom, rev, width):
    """A(n), exactly, from frontiers packed at `width` bits: each value
    taken mod 2^width - 1 is its count at x = 1, which is below
    2^(width - 1); the counts are paired as _pair pairs packed values."""
    ones = (1 << width) - 1
    top = {c: v % ones for c, v in top.items()}
    bottom = {c: v % ones for c, v in bottom.items()} if n % 2 else top
    return _pair(n, top, bottom, rev)


def _reversals(n):
    """rev[m] is the n-bit mask m read right to left."""
    rev = [0]
    for j in range(n):
        bit = 1 << (n - 1 - j)
        rev += [r | bit for r in rev]
    return rev


def _folded_sweep(n, width, rows, frontier, rev):
    """_sweep on frontiers that hold only the canonical masks m <= rev[m].

    A row's sources go through _sweep in two batches, split in one pass.
    A source c that is not a palindrome stands for c and rev c too, so
    each target m of that batch is added at min(m, rev m), doubled when m
    is a palindrome.  The palindromic sources stand only for themselves,
    and since their targets come in mirror pairs, only the canonical ones
    are kept.  `frontier` itself is left unchanged.
    """
    for _ in range(rows):
        pairs, singles = {}, {}
        for c, v in frontier.items():
            if c == rev[c]:
                singles[c] = v
            else:
                pairs[c] = v
        frontier = {}
        get = frontier.get
        for m, v in _sweep(n, width, 1, pairs).items():
            r = rev[m]
            if m < r:
                frontier[m] = get(m, 0) + v
            elif r < m:
                frontier[r] = get(r, 0) + v
            else:
                frontier[m] = get(m, 0) + (v << 1)
        for m, v in _sweep(n, width, 1, singles).items():
            if m <= rev[m]:
                frontier[m] = get(m, 0) + v
    return frontier


def _pair(n, top, bottom, rev):
    """The packed sum over all masks m of T_k(m) * T_(n-k)(~m), read from
    the folded frontiers after k = floor(n/2) and n - k rows.

    Each canonical c stands for its mirror orbit {c, rev c}, which ~ maps
    onto the orbit of d = canon(~c).  At even n the two frontiers are one,
    and c -> d pairs the orbits, so each pair {c, d} is visited once.
    """
    full = (1 << n) - 1
    even = not n % 2
    get = bottom.get
    once = twice = four = 0          # the terms by their weight
    for c, v in top.items():
        d = full ^ c
        r = rev[d]
        if r < d:
            d = r
        if even and d < c:
            continue
        term = v * get(d, 0)
        if c != rev[c]:                  # the orbit {c, rev c}
            if even and d != c:
                four += term
            else:
                twice += term
        elif even and d != c:
            twice += term
        else:
            once += term
    return once + (twice << 1) + (four << 2)


def _sweep(n, width, rows, frontier):
    """The frontier `rows` whole rows below `frontier`.

    A frontier maps a column mask to the packed count of its partial
    fillings.  The first row adds into `frontier` in place, so pass a
    dict that is not needed afterwards.
    """
    r1 = frontier
    # one frontier per row prefix r; entry 0 keeps a key where it is
    for _ in range(rows):
        r0 = r1                          # a finished row ends with r = 1
        # r1 starts each row empty, so column 0 only takes +1 moves
        r1 = {mask | 1: v for mask, v in r0.items() if not mask & 1}
        get0, get1 = r0.get, r1.get
        for j in range(1, n):
            bit = 1 << j
            # the -1 moves leave r1 before this column's +1 moves reach
            # it; at the last column they would only feed r0, which the
            # row drops
            minus = [(mask ^ bit, v << width) for mask, v in r1.items()
                     if mask & bit] if j < n - 1 else ()
            for mask, v in r0.items():
                if not mask & bit:
                    mask |= bit
                    r1[mask] = get1(mask, 0) + v
            for mask, v in minus:
                r0[mask] = get0(mask, 0) + v
    return r1


def _unpack(v, slots, width):
    """Split a packed vector into `slots` coefficients of `width` bits."""
    if v >> (slots * width):
        raise ArithmeticError("packed count overflows its top slot")
    low = (1 << width) - 1
    return [(v >> (d * width)) & low for d in range(slots)]
