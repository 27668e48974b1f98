"""Exact enumeration of alternating sign matrices and the six-vertex
state-sum identities behind their counting formulas.

Everything is exact: rationals, cyclotomic numbers, Laurent polynomials
on a half-integral exponent grid, and limits taken by structural
cancellation rather than numerics.
"""

from importlib import import_module

__version__ = "0.1.0"

#: public names by defining module; ``import asmice`` loads no module, and
#: each access reads the name from its module's current binding (PEP 562)
_EXPORTS = {
    "asm": ("Asm", "AsmInvalid", "count_asms_brute", "enumerate_asms",
            "format_asm", "parse_asm", "x_enumerate_brute"),
    "brackets": ("BracketProduct", "bracket", "bracket_ratio", "qdiff"),
    "chain": ("a_via_chain", "ean_normalize", "half_spec_value",
              "ik_eps_product", "ik_eps_ratfunc", "z_half_eps_brute",
              "z_half_eps_product"),
    "cyclotomic": ("Cyclotomic", "cyclotomic_embed"),
    "dets": ("EpsilonGrid", "antidiagonal_block_det", "cauchy_det_closed",
             "cauchy_matrix", "general_x_matrix", "s_det_closed",
             "s_det_product", "s_matrix"),
    "formulas": ("BChain", "a2_formula", "a3_formula", "a_formula",
                 "b_chain"),
    "ice": ("IceInvalid", "IceState", "from_ice", "to_ice"),
    "intpoly": ("IntPoly",),
    "izergin": ("IkInstance", "ik_matrix", "ik_z"),
    "laurent": ("GridViolation", "LaurentPoly", "NonDivisible", "RatFunc",
                "divide_exact", "limit_at_one"),
    "matrices": ("RingMatrix", "det_exact"),
    "sixvertex": ("SpectralParams", "vertex_weights", "z_brute"),
    "transfer": ("transfer_count",), "verify": ("CheckResult", "run_suite"),
    "ybe": ("ybe_check",),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
