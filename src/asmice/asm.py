"""Alternating sign matrices: validation, enumeration, weighted counting.

An n x n matrix over {-1, 0, 1} qualifies when every row and column sums
to 1 and every row and column prefix sum is 0 or 1 (equivalently, the
nonzero entries of each line alternate in sign, starting and ending
with 1).  Permutation matrices are exactly the members with no -1.
"""

from __future__ import annotations

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

    def __repr__(self):
        return f"Asm({[list(r) for r in self.rows]})"


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
    order with entries ordered -1 < 0 < 1."""
    if n < 1:
        raise ValueError("n must be positive")
    col = [0] * n
    rows = []

    def fill_row(j, acc, row):
        if j == n:
            if acc == 1:
                rows.append(tuple(row))
                yield from next_row()
                rows.pop()
            return
        for e in (-1, 0, 1):
            if acc + e not in (0, 1) or col[j] + e not in (0, 1):
                continue
            col[j] += e
            row.append(e)
            yield from fill_row(j + 1, acc + e, row)
            row.pop()
            col[j] -= e

    def next_row():
        if len(rows) == n:
            if all(c == 1 for c in col):
                yield Asm(list(rows))
            return
        yield from fill_row(0, 0, [])

    yield from next_row()


def count_asms_brute(n):
    """Number of n x n alternating sign matrices by direct enumeration."""
    return sum(1 for _ in enumerate_asms(n))


def x_enumerate_brute(n):
    """Generating polynomial sum over matrices of x^(number of -1 entries),
    by direct enumeration."""
    counts = {}
    for a in enumerate_asms(n):
        k = a.neg_count()
        counts[k] = counts.get(k, 0) + 1
    size = max(counts) + 1 if counts else 0
    return IntPoly([counts.get(d, 0) for d in range(size)])


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
