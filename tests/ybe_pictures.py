"""Both sides of the star-triangle identity as pictures of hand-named
edges, summed over the internal orientations one assignment at a time: an
independent oracle for asmice.ybe, which multiplies crossing matrices.

Each side is a triangle of three crossings (label, bottom-left,
bottom-right, top-left, top-right) sharing three internal edges; the
boundary edges B0, B1, B2 enter from below and T0, T1, T2 leave above.
"""

from itertools import product

from asmice.ice import STATE_OF_FLAGS
from asmice.laurent import LaurentPoly, common_grid
from asmice.sixvertex import _label_weights

LHS_CROSSINGS = (("y", "B1", "B2", "I1", "I2"),
                 ("x", "B0", "I1", "T0", "I3"),
                 ("z", "I3", "I2", "T1", "T2"))
RHS_CROSSINGS = (("z", "B0", "B1", "J1", "J2"),
                 ("x", "J2", "B2", "J3", "T2"),
                 ("y", "J1", "J3", "T0", "T1"))
BOUNDARY = ("B0", "B1", "B2", "T0", "T1", "T2")


def _crossing_weight(weights, bl, br, tl, tr):
    """Scaled weight of one crossing given arrow-up booleans, or None when
    the orientation pattern is not one of the six allowed states."""
    flags = (int(bl), int(not tr), int(not tl), int(br))
    state = STATE_OF_FLAGS.get(flags)
    if state is None:
        return None
    return weights[state - 1]


def _side_sum(crossings, weight_of, boundary_bits):
    internal = sorted({e for c in crossings for e in c[1:] if e[0] in "IJ"})
    orient = dict(zip(BOUNDARY, boundary_bits))
    total = None
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
            total = term if total is None else total + term
    return LaurentPoly.zero() if total is None else total


def picture_sides(y, z, label_weights=_label_weights):
    """Both sides at labels (y, z, x = y + z), as two dicts from each of
    the 64 boundary assignments (b0, b1, b2, t0, t1, t2) to its sum."""
    weights = common_grid([w for v in (y + z, y, z)
                           for w in label_weights(v)])
    weight_of = {"x": weights[:6], "y": weights[6:12], "z": weights[12:]}
    cases = list(product((False, True), repeat=6))
    return tuple({bits: _side_sum(crossings, weight_of, bits)
                  for bits in cases}
                 for crossings in (LHS_CROSSINGS, RHS_CROSSINGS))
