"""The domain-wall ice states found without the matrix bijection: an
independent oracle for the ice and six-vertex tests."""

from asmice.ice import IN_FLAGS, IceState


def search_dwbc_states(n):
    """Yield every valid configuration by direct depth-first search.

    Fills sites in row-major order.  The left/up in-flags of each site are
    forced by the boundary or by the neighbor already placed, which leaves
    at most two state choices per site; right/bottom boundary flags prune.
    Independent of the matrix enumeration, so the two can cross-check.
    """
    if n < 1:
        raise ValueError("n must be positive")
    by_lu = {}
    for s, (left, right, up, down) in IN_FLAGS.items():
        by_lu.setdefault((left, up), []).append(s)
    grid = [[0] * n for _ in range(n)]

    def place(i, j):
        if i == n:
            yield IceState([row[:] for row in grid])
            return
        ni, nj = (i, j + 1) if j + 1 < n else (i + 1, 0)
        left_in = 1 if j == 0 else 1 - IN_FLAGS[grid[i][j - 1]][1]
        up_in = 0 if i == 0 else 1 - IN_FLAGS[grid[i - 1][j]][3]
        for s in by_lu[(left_in, up_in)]:
            _, right, _, down = IN_FLAGS[s]
            if j == n - 1 and right != 1:
                continue
            if i == n - 1 and down != 0:
                continue
            grid[i][j] = s
            yield from place(ni, nj)
        grid[i][j] = 0

    yield from place(0, 0)
