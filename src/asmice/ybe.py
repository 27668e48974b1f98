"""Star-triangle identity for the six-vertex weights, checked case by case.

Three lines pairwise cross in two possible patterns (the middle line passes
left or right of the triple point).  With crossing labels y, z and x = y + z
assigned as below, the sums over internal edge orientations agree for every
assignment of the six boundary orientations.  Each of the 64 boundary cases
is checked as an exact Laurent-polynomial identity; 44 of them are 0 = 0
because a nonzero crossing needs two arrows in and two out, forcing three of
the six boundary arrows in and three out.

Geometry, frozen by verification: a crossing is read through the slots
(bottom-left, bottom-right, top-left, top-right) of its strands, and an
edge's boolean orientation means "arrow points upward".  The in-flags of
the vertex state are then (bl, not tr, not tl, br) for (L, R, U, D).  Each
side of the identity is a triangle of three crossings sharing three internal
edges; the boundary edges B0, B1, B2 enter from below and T0, T1, T2 leave
above.  Rotating the picture by 180 degrees maps an orientation assignment
b to (not t2, not t1, not t0, not b2, not b1, not b0) and preserves each
side's sum.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

from .ice import STATE_OF_FLAGS
from .laurent import LaurentPoly
from .sixvertex import _label_weights

LHS_CROSSINGS = (("y", "B1", "B2", "I1", "I2"),
                 ("x", "B0", "I1", "T0", "I3"),
                 ("z", "I3", "I2", "T1", "T2"))
RHS_CROSSINGS = (("z", "B0", "B1", "J1", "J2"),
                 ("x", "J2", "B2", "J3", "T2"),
                 ("y", "J1", "J3", "T0", "T1"))
BOUNDARY = ("B0", "B1", "B2", "T0", "T1", "T2")


class YbeReport:
    """Outcome of the 64-case check for one (y, z) pair."""

    __slots__ = ("y", "z", "cases", "trivial_count", "equal_count",
                 "failures", "rotation_pairing_ok")

    def __init__(self, y, z, trivial_count, equal_count, failures,
                 rotation_pairing_ok):
        self.y = y
        self.z = z
        self.cases = 64
        self.trivial_count = trivial_count
        self.equal_count = equal_count
        self.failures = failures
        self.rotation_pairing_ok = rotation_pairing_ok

    @property
    def passed(self):
        return (self.equal_count == self.cases and self.trivial_count == 44
                and self.rotation_pairing_ok)

    def __repr__(self):
        return (f"YbeReport(y={self.y}, z={self.z}, equal={self.equal_count}"
                f"/{self.cases}, trivial={self.trivial_count}, "
                f"rotation_ok={self.rotation_pairing_ok})")


def _crossing_weight(weights, bl, br, tl, tr):
    """Scaled weight of one crossing given arrow-up booleans, or None when
    the orientation pattern is not one of the six allowed states."""
    flags = (int(bl), int(not tr), int(not tl), int(br))
    state = STATE_OF_FLAGS.get(flags)
    if state is None:
        return None
    return weights[state - 1]


def _side_sum(crossings, weight_of, boundary_bits, scale):
    internal = sorted({e for c in crossings for e in c[1:] if e[0] in "IJ"})
    orient = dict(zip(BOUNDARY, boundary_bits))
    total = LaurentPoly.zero(1, scale)
    for bits in product((False, True), repeat=len(internal)):
        orient.update(zip(internal, bits))
        term = None
        for label, bl, br, tl, tr in crossings:
            w = _crossing_weight(weight_of[label], orient[bl], orient[br],
                                 orient[tl], orient[tr])
            if w is None:
                term = None
                break
            term = w if term is None else term * w
        if term is not None:
            total = total + term
    return total


def ybe_check(y, z):
    """Run all 64 boundary cases at crossing labels (y, z, x = y + z)."""
    y = Fraction(y)
    z = Fraction(z)
    x = y + z
    scale = lcm(y.denominator, z.denominator)
    weight_of = {"x": _label_weights(x, scale),
                 "y": _label_weights(y, scale),
                 "z": _label_weights(z, scale)}
    trivial = 0
    equal = 0
    failures = []
    lhs_by_bits = {}
    for bits in product((False, True), repeat=6):
        lhs = _side_sum(LHS_CROSSINGS, weight_of, bits, scale)
        rhs = _side_sum(RHS_CROSSINGS, weight_of, bits, scale)
        lhs_by_bits[bits] = lhs
        if lhs == rhs:
            equal += 1
            if lhs.is_zero:
                trivial += 1
        else:
            failures.append(bits)
    pairing_ok = all(
        lhs_by_bits[bits] == lhs_by_bits[_rotate(bits)] for bits in lhs_by_bits)
    return YbeReport(y, z, trivial, equal, failures, pairing_ok)


def _rotate(bits):
    b0, b1, b2, t0, t1, t2 = bits
    return (not t2, not t1, not t0, not b2, not b1, not b0)
