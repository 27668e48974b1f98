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
exact as long as no coefficient reaches 2^B.

Slot width B is the bit length of U = prod_{i=1}^{n-1} C(n, i), so
U < 2^B.  The top k rows of a member are fixed by the column masks
m_1, ..., m_k they leave, since row i has +1 where m_i gains a bit on
m_(i-1) and -1 where it loses one, and |m_i| = i because every row sums
to 1.  So at most prod_{i<=k} C(n, i) <= U top blocks exist.  Inside a
row, a partial filling in the state (mask, r) is fixed by its block of
whole rows and the state mask, which differs from the block's mask
exactly where the swept cells hold +1 or -1.  So the fillings of one
state inject into the blocks, and every coefficient of every key, an
in-place partial sum included, counts at most U of them: it is below
2^B, so no slot carries into the next.  Every filling that reaches the
final key is a whole matrix, with at most floor((n-1)^2/4) entries -1,
so a nonzero bit above the top slot can only come from a broken bound,
and unpacking raises on it.  The bound does not use the product formula,
which the sweep is checked against.

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

The products need no wider slots.  Every summand is nonnegative, so slot
d of each product, and of every partial sum over m, is at most the
coefficient of x^d in A(n;x), which counts whole matrices, blocks of n
rows, and so is at most A(n) <= U < 2^B; no slot carries, and the
top-slot check still holds.

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

The fold needs no wider slots either.  Each folded value, doubled at a
palindrome or not, is T_k at a canonical mask, a true frontier value,
and the batch sums S and P inside a row are parts of it; each doubled
product in the pairing is the sum of the two or four equal terms it
stands for.  All are partial sums, with nonnegative summands,
of a true frontier value or of a coefficient of A(n;x), so each slot
stays at most U < 2^B and a bit above the top slot still means a broken
bound.
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
    complementary masks, once per mirror orbit.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > DEFAULT_BOUND:
        raise ValueError(f"n={n} exceeds the transfer bound {DEFAULT_BOUND}")
    width = _slot_width(n)
    rev = _reversals(n)
    top = _folded_sweep(n, width, n // 2, {0: 1}, rev)
    bottom = _folded_sweep(n, width, n % 2, top, rev)
    return IntPoly(_unpack(_pair(n, top, bottom, rev), coeff_count(n), width))


def _slot_width(n):
    """Bits per packed slot: the bit length of prod_{i=1}^{n-1} C(n, i)."""
    return prod(comb(n, i) for i in range(1, n)).bit_length()


def _reversals(n):
    """rev[m] is the n-bit mask m read right to left."""
    rev = [0]
    for j in range(n):
        bit = 1 << (n - 1 - j)
        rev += [r | bit for r in rev]
    return rev


def _folded_sweep(n, width, rows, frontier, rev):
    """_sweep on frontiers that hold only the canonical masks m <= rev[m].

    A row's sources go through _sweep in two batches.  A source c that is
    not a palindrome stands for c and rev c too, so each target m of that
    batch is added at min(m, rev m), doubled when m is a palindrome.  The
    palindromic sources stand only for themselves, and since their targets
    come in mirror pairs, only the canonical ones are kept.
    """
    for _ in range(rows):
        pairs = {c: v for c, v in frontier.items() if c != rev[c]}
        singles = {c: v for c, v in frontier.items() if c == rev[c]}
        frontier = {}
        for m, v in _sweep(n, width, 1, pairs).items():
            r = rev[m]
            if m < r:
                frontier[m] = frontier.get(m, 0) + v
            elif r < m:
                frontier[r] = frontier.get(r, 0) + v
            else:
                frontier[m] = frontier.get(m, 0) + (v << 1)
        for m, v in _sweep(n, width, 1, singles).items():
            if m <= rev[m]:
                frontier[m] = frontier.get(m, 0) + v
    return frontier


def _pair(n, top, bottom, rev):
    """The packed sum over all masks m of T_k(m) * T_(n-k)(~m), read from
    the folded frontiers after k = floor(n/2) and n - k rows.

    Each canonical c stands for its mirror orbit {c, rev c}, which ~ maps
    onto the orbit of d = canon(~c).  At even n the two frontiers are one,
    and c -> d pairs the orbits, so each pair {c, d} is visited once.
    """
    full = (1 << n) - 1
    by_weight = {1: 0, 2: 0, 4: 0}
    for c, v in top.items():
        d = full ^ c
        d = min(d, rev[d])
        weight = 1 if c == rev[c] else 2
        if not n % 2:
            if d < c:
                continue
            if d != c:
                weight *= 2
        by_weight[weight] += v * bottom.get(d, 0)
    return by_weight[1] + (by_weight[2] << 1) + (by_weight[4] << 2)


def _sweep(n, width, rows, frontier):
    """The frontier `rows` whole rows below `frontier`, which is unchanged.

    A frontier maps a column mask to the packed count of its partial
    fillings.  The loop adds into the previous frontier in place, so the
    sweep starts from a copy.
    """
    r1 = dict(frontier)
    # one frontier per row prefix r; entry 0 keeps a key where it is
    for _ in range(rows):
        r0, r1 = r1, {}                  # a finished row ends with r = 1
        for j in range(n):
            bit = 1 << j
            plus = [(mask | bit, v) for mask, v in r0.items()
                    if not mask & bit]
            minus = [(mask ^ bit, v << width) for mask, v in r1.items()
                     if mask & bit]
            for mask, v in plus:
                r1[mask] = r1.get(mask, 0) + v
            for mask, v in minus:
                r0[mask] = r0.get(mask, 0) + v
    return r1


def _unpack(v, slots, width):
    """Split a packed vector into `slots` coefficients of `width` bits."""
    if v >> (slots * width):
        raise ArithmeticError("packed count overflows its top slot")
    low = (1 << width) - 1
    return [(v >> (d * width)) & low for d in range(slots)]
