"""Exact enumeration of alternating sign matrices and the six-vertex
state-sum identities behind their counting formulas.

Everything is exact: rationals, cyclotomic numbers, Laurent polynomials
on a half-integral exponent grid, and limits taken by structural
cancellation rather than numerics.
"""

from .asm import (Asm, AsmInvalid, count_asms_brute, enumerate_asms,
                  format_asm, parse_asm, x_enumerate_brute)
from .brackets import BracketProduct, bracket, bracket_ratio, qdiff
from .chain import (a_via_chain, ean_normalize, half_spec_value,
                    ik_eps_product, ik_eps_ratfunc, z_half_eps_brute,
                    z_half_eps_product)
from .cyclotomic import Cyclotomic, cyclotomic_embed
from .dets import (EpsilonGrid, antidiagonal_block_det, cauchy_det_closed,
                   cauchy_matrix, general_x_matrix, s_det_closed,
                   s_det_product, s_matrix)
from .formulas import BChain, a2_formula, a3_formula, a_formula, b_chain
from .ice import IceInvalid, IceState, from_ice, to_ice
from .intpoly import IntPoly
from .izergin import IkInstance, ik_matrix, ik_z
from .laurent import (GridViolation, LaurentPoly, NonDivisible, RatFunc,
                      divide_exact, limit_at_one)
from .matrices import RingMatrix, det_exact
from .sixvertex import SpectralParams, vertex_weights, z_brute
from .transfer import transfer_count
from .verify import CheckResult, run_suite
from .ybe import ybe_check

__version__ = "0.1.0"

__all__ = [
    "Asm", "AsmInvalid", "BChain", "BracketProduct", "CheckResult",
    "Cyclotomic", "EpsilonGrid", "GridViolation", "IceInvalid", "IceState",
    "IkInstance", "IntPoly", "LaurentPoly", "NonDivisible",
    "RatFunc", "RingMatrix", "SpectralParams",
    "a2_formula", "a3_formula", "a_formula", "a_via_chain",
    "antidiagonal_block_det", "b_chain", "bracket",
    "bracket_ratio", "cauchy_det_closed", "cauchy_matrix",
    "count_asms_brute", "cyclotomic_embed", "det_exact", "divide_exact",
    "ean_normalize", "enumerate_asms", "format_asm",
    "from_ice", "general_x_matrix", "half_spec_value", "ik_eps_product",
    "ik_eps_ratfunc", "ik_matrix", "ik_z", "limit_at_one", "parse_asm",
    "qdiff", "run_suite", "s_det_closed", "s_det_product", "s_matrix",
    "to_ice", "transfer_count",
    "vertex_weights", "x_enumerate_brute", "z_brute", "z_half_eps_brute",
    "z_half_eps_product", "ybe_check",
]
