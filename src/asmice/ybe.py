"""Star-triangle identity for the six-vertex weights, checked case by case.

Three lines pairwise cross in two possible patterns (the middle line passes
left or right of the triple point).  With crossing labels y, z and x = y + z,
the sums over internal edge orientations agree for every assignment of the
six boundary orientations.  Each of the 64 boundary cases is checked as an
exact Laurent-polynomial identity.  A crossing keeps the number of upward
arrows, so the 44 cases that change it are 0 = 0; the check passes when
all 64 agree, the rotation pairing below holds and those 44 are 0 (a
label may silence more, as label 1 does).

Read from bottom to top, the identity is the braid relation

    R23(z) R12(x) R23(y) = R12(y) R23(x) R12(z)

on three strands 0, 1, 2, where Rij(v) is the crossing of label v acting on
the orientations of strands i and j, with the rightmost factor applied
first: the left side crosses strands 1-2 at y, then 0-1 at x, then 1-2 at z;
the right side crosses 0-1 at z, then 1-2 at x, then 0-1 at y.  An edge's
boolean orientation means "arrow points upward".  The crossing R(v) takes
the bottom pair (bl, br) to the top pair (tl, tr) with the weight of the
vertex state whose in-flags (L, R, U, D) are (bl, not tr, not tl, br), and
with weight 0 where no state has those flags.  Summing over the internal
edges is the product of the three crossings.  A boundary case is the bottom
orientations (b0, b1, b2) and the top ones (t0, t1, t2); rotating the
picture by 180 degrees maps it to (not t2, not t1, not t0, not b2, not b1,
not b0) and preserves each side's value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .ice import STATE_OF_FLAGS
from .laurent import LaurentPoly, common_grid
from .sixvertex import _label_weights

_CASES = tuple(product((False, True), repeat=6))
#: the cases whose bottom and top differ in their number of upward arrows
_NONCONSERVING = tuple(b for b in _CASES if sum(b[:3]) != sum(b[3:]))


class YbeReport:
    """Outcome of the 64-case check for one (y, z) pair."""

    __slots__ = ("y", "z", "cases", "trivial_count", "equal_count",
                 "failures", "rotation_pairing_ok", "nonconserving_trivial")

    def __init__(self, y, z, trivial_count, equal_count, failures,
                 rotation_pairing_ok, nonconserving_trivial):
        self.y = y
        self.z = z
        self.cases = 64
        self.trivial_count = trivial_count
        self.equal_count = equal_count
        self.failures = failures
        self.rotation_pairing_ok = rotation_pairing_ok
        self.nonconserving_trivial = nonconserving_trivial

    @property
    def passed(self):
        return (self.equal_count == self.cases and self.rotation_pairing_ok
                and self.nonconserving_trivial)

    def __repr__(self):
        return (f"YbeReport(y={self.y}, z={self.z}, equal={self.equal_count}"
                f"/{self.cases}, trivial={self.trivial_count}, "
                f"rotation_ok={self.rotation_pairing_ok})")


def _crossing(weights):
    """R(v) as {(bl, br): [((tl, tr), weight), ...]}, its nonzero entries
    by column, from the label's six weights indexed by state - 1."""
    r = {}
    for (left, right, up, down), state in STATE_OF_FLAGS.items():
        r.setdefault((bool(left), bool(down)), []).append(
            ((not up, not right), weights[state - 1]))
    return r


def _sides(y, z):
    """Both sides of the braid relation at labels (y, z, x = y + z), as two
    dicts from each boundary case to its value."""
    weights = common_grid([w for v in (y + z, y, z)
                           for w in _label_weights(v)])
    x, ry, rz = (_crossing(weights[i:i + 6]) for i in (0, 6, 12))
    one = LaurentPoly.one(weights[0].scale)
    sides = []
    for steps in (((ry, 1), (x, 0), (rz, 1)), ((rz, 0), (x, 1), (ry, 0))):
        # key: the bottom orientations, then the current ones
        column = {b + b: one for b in product((False, True), repeat=3)}
        for r, i in steps:
            out = {}
            for key, v in column.items():
                for pair, w in r[key[3 + i:5 + i]]:
                    k = key[:3 + i] + pair + key[5 + i:]
                    out[k] = out[k] + v * w if k in out else v * w
            column = out
        zero = LaurentPoly.zero(one.scale)
        sides.append({b: column.get(b, zero) for b in _CASES})
    return sides


def ybe_check(y, z):
    """Run all 64 boundary cases at crossing labels (y, z, x = y + z)."""
    y = Fraction(y)
    z = Fraction(z)
    lhs, rhs = _sides(y, z)
    failures = [b for b in _CASES if lhs[b] != rhs[b]]
    trivial = sum(1 for b in _CASES if lhs[b].is_zero and rhs[b].is_zero)
    pairing_ok = all(lhs[b] == lhs[_rotate(b)] for b in _CASES)
    silent = all(lhs[b].is_zero and rhs[b].is_zero for b in _NONCONSERVING)
    return YbeReport(y, z, trivial, 64 - len(failures), failures, pairing_ok,
                     silent)


def _rotate(bits):
    b0, b1, b2, t0, t1, t2 = bits
    return (not t2, not t1, not t0, not b2, not b1, not b0)
