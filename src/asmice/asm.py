"""Alternating sign matrices: validation, enumeration, weighted counting.

An n x n matrix over {-1, 0, 1} qualifies when every row and column sums
to 1 and every row and column prefix sum is 0 or 1 (equivalently, the
nonzero entries of each line alternate in sign, starting and ending
with 1).  Permutation matrices are exactly the members with no -1.
"""

from __future__ import annotations

from itertools import combinations

from .intpoly import IntPoly

#: largest n the command line offers brute enumeration for
ENUM_BOUND = 7


class AsmInvalid(ValueError):
    """Raised by validate() with the first violated constraint."""


class Asm:
    """Immutable alternating sign matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        validate(rows)
        self.rows = rows

    @property
    def n(self):
        return len(self.rows)

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, Asm):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def neg_count(self):
        return sum(1 for row in self.rows for x in row if x == -1)


def validate(rows):
    """Check the defining constraints, reporting the first violation.

    Scans rows top to bottom (entry domain, prefix sums, total), then
    columns left to right (prefix sums, total).  Positions are 0-based.
    """
    n = len(rows)
    if n == 0:
        raise AsmInvalid("matrix is empty")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise AsmInvalid(f"row {i} has length {len(row)}, expected {n}")
        acc = 0
        for j, x in enumerate(row):
            if x not in (-1, 0, 1):
                raise AsmInvalid(f"entry ({i},{j}) is {x}, not in {{-1,0,1}}")
            acc += x
            if acc not in (0, 1):
                raise AsmInvalid(f"row {i} prefix sum at column {j} is {acc}")
        if acc != 1:
            raise AsmInvalid(f"row {i} sums to {acc}, expected 1")
    for j in range(n):
        acc = 0
        for i in range(n):
            acc += rows[i][j]
            if acc not in (0, 1):
                raise AsmInvalid(f"column {j} prefix sum at row {i} is {acc}")
        if acc != 1:
            raise AsmInvalid(f"column {j} sums to {acc}, expected 1")


def enumerate_asms(n):
    """Yield all n x n alternating sign matrices in row-major lexicographic
    order with entries ordered -1 < 0 < 1.

    Recurses over whole rows, n deep, keeping the columns whose partial
    sum is 1 as a mask c, and tries the rows that fit c (see _FittingRows)
    in lexicographic order, so the matrices come out in that order.  After
    n rows the mask holds n ones, since every row sums to 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    fits = _FittingRows(n)
    picked = []

    def extend(c):
        if len(picked) == n:
            yield Asm(picked)
            return
        for row, flip, _ in fits[c]:
            picked.append(row)
            yield from extend(c ^ flip)
            picked.pop()

    yield from extend(0)


class _FittingRows(dict):
    """Map a column mask c to the alternating rows that fit it, as
    (row, plus ^ minus, number of -1 entries) in lexicographic order.

    A row with +1 entries in the columns of the mask P and -1 entries in
    those of M fits c when P & c == 0 and M lies inside c, and leaves the
    mask c ^ P ^ M.  Each list is built on the first lookup of its mask.
    """

    def __init__(self, n):
        super().__init__()
        self.rows = _alternating_rows(n)

    def __missing__(self, c):
        fit = self[c] = [(row, plus ^ minus, minus.bit_count())
                         for row, plus, minus in self.rows
                         if not plus & c and minus & c == minus]
        return fit


def _alternating_rows(n):
    """The 2^(n-1) rows of length n whose nonzero entries read +1, -1, ...,
    +1, in lexicographic order, each with the bit masks of its +1 and of
    its -1 columns."""
    rows = []
    for size in range(1, n + 1, 2):
        for cols in combinations(range(n), size):
            row = [0] * n
            plus = minus = 0
            for i, j in enumerate(cols):
                if i % 2:
                    row[j] = -1
                    minus |= 1 << j
                else:
                    row[j] = 1
                    plus |= 1 << j
            rows.append((tuple(row), plus, minus))
    rows.sort()
    return rows


def count_asms_brute(n):
    """Number of n x n alternating sign matrices by direct enumeration."""
    return sum(_neg_counts(n).values())


def x_enumerate_brute(n):
    """Generating polynomial sum over matrices of x^(number of -1 entries),
    by direct enumeration."""
    counts = _neg_counts(n)
    return IntPoly([counts.get(d, 0) for d in range(max(counts) + 1)])


def _neg_counts(n):
    """Map k to the number of n x n members with k entries -1.

    The row recursion of enumerate_asms, counting only: each fitting row
    carries the number of its -1 entries, and every matrix is still
    reached as its own leaf, so this stays an independent brute force.
    No rows are kept and no Asm is built.
    """
    if n < 1:
        raise ValueError("n must be positive")
    fits = _FittingRows(n)
    counts = {}

    def extend(c, depth, negs):
        if depth == n:
            counts[negs] = counts.get(negs, 0) + 1
            return
        for _, flip, k in fits[c]:
            extend(c ^ flip, depth + 1, negs + k)

    extend(0, 0, 0)
    return counts


def format_asm(asm):
    """One matrix as lines of space-separated entries."""
    return "\n".join(" ".join(str(x) for x in row) for row in asm.rows)


def parse_asm(text):
    """Inverse of format_asm; validates the result."""
    rows = [line.split() for line in text.strip().splitlines() if line.strip()]
    try:
        return Asm([[int(x) for x in row] for row in rows])
    except ValueError as exc:
        if isinstance(exc, AsmInvalid):
            raise
        raise AsmInvalid(f"unparseable matrix entry: {exc}") from exc
