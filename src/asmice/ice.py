"""Square-ice configurations with domain-wall boundaries.

Each lattice site carries one of six arrow states, encoded by which of its
four incident edges point INTO the site, as (left, right, up, down) flags:

    state 1: (1,1,0,0)   horizontal edges in, vertical out
    state 2: (0,0,1,1)   vertical edges in, horizontal out
    state 3: (1,0,0,1)   flow enters left and bottom
    state 4: (0,1,1,0)   flow enters right and top
    state 5: (0,1,0,1)   flow enters right and bottom
    state 6: (1,0,1,0)   flow enters left and top

Every interior edge points into exactly one of its two endpoints.  The
domain-wall condition fixes the boundary: all horizontal boundary edges
point into the grid, all vertical boundary edges point out of it.

The bijection with alternating sign matrices sends entry +1 to state 1,
entry -1 to state 2, and a 0 entry to state 3, 4, 5 or 6 according to the
pair (column sum above, row sum to the left): (0,0) -> 3, (1,1) -> 4,
(0,1) -> 5, (1,0) -> 6.

Relabeling caveat: the states 3/4 share one weight and 5/6 share another
in every weight assignment used here, so conventions differing from this
one by the swaps 3<->4 and/or 5<->6 produce identical partition functions.
This particular labeling is pinned by the bijection rule above.
"""

from __future__ import annotations

from .asm import Asm

IN_FLAGS = {
    1: (1, 1, 0, 0),
    2: (0, 0, 1, 1),
    3: (1, 0, 0, 1),
    4: (0, 1, 1, 0),
    5: (0, 1, 0, 1),
    6: (1, 0, 1, 0),
}

STATE_OF_FLAGS = {flags: s for s, flags in IN_FLAGS.items()}

ASM_ENTRY_OF_STATE = {1: 1, 2: -1, 3: 0, 4: 0, 5: 0, 6: 0}

ZERO_STATE = {(0, 0): 3, (1, 1): 4, (0, 1): 5, (1, 0): 6}


class IceInvalid(ValueError):
    """Raised when a grid of states breaks edge or boundary rules."""


class IceState:
    """Immutable n x n grid of vertex states satisfying the ice rules."""

    __slots__ = ("grid",)

    def __init__(self, grid):
        grid = tuple(tuple(int(s) for s in row) for row in grid)
        _check(grid)
        self.grid = grid

    @property
    def n(self):
        return len(self.grid)

    def __getitem__(self, key):
        i, j = key
        return self.grid[i][j]

    def __eq__(self, other):
        if not isinstance(other, IceState):
            return NotImplemented
        return self.grid == other.grid

    def __hash__(self):
        return hash(self.grid)

    def __repr__(self):
        return f"IceState({[list(r) for r in self.grid]})"


def _check(grid):
    n = len(grid)
    if n == 0:
        raise IceInvalid("grid is empty")
    for i, row in enumerate(grid):
        if len(row) != n:
            raise IceInvalid(f"row {i} has length {len(row)}, expected {n}")
        for j, s in enumerate(row):
            if s not in IN_FLAGS:
                raise IceInvalid(f"site ({i},{j}) has state {s}, not 1..6")
    for i in range(n):
        for j in range(n):
            left, right, up, down = IN_FLAGS[grid[i][j]]
            if j == 0 and left != 1:
                raise IceInvalid(f"left boundary edge at ({i},0) points out")
            if j == n - 1 and right != 1:
                raise IceInvalid(f"right boundary edge at ({i},{j}) points out")
            if i == 0 and up != 0:
                raise IceInvalid(f"top boundary edge at (0,{j}) points in")
            if i == n - 1 and down != 0:
                raise IceInvalid(f"bottom boundary edge at ({i},{j}) points in")
            if j + 1 < n and right + IN_FLAGS[grid[i][j + 1]][0] != 1:
                raise IceInvalid(
                    f"horizontal edge between ({i},{j}) and ({i},{j + 1}) "
                    "points into both or neither site")
            if i + 1 < n and down + IN_FLAGS[grid[i + 1][j]][2] != 1:
                raise IceInvalid(
                    f"vertical edge between ({i},{j}) and ({i + 1},{j}) "
                    "points into both or neither site")


def to_ice(asm):
    """The ice configuration of an alternating sign matrix."""
    n = asm.n
    col_above = [0] * n
    grid = []
    for i in range(n):
        row_sum = 0
        row = []
        for j in range(n):
            e = asm[i, j]
            if e == 1:
                row.append(1)
            elif e == -1:
                row.append(2)
            else:
                row.append(ZERO_STATE[(col_above[j], row_sum)])
            row_sum += e
            col_above[j] += e
        grid.append(row)
    return IceState(grid)


def from_ice(ice):
    """The alternating sign matrix of an ice configuration."""
    return Asm([[ASM_ENTRY_OF_STATE[s] for s in row] for row in ice.grid])
