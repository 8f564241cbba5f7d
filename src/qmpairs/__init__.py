"""Exact engine for pairs of q-commuting triangular quantum matrices.

Everything is computed over Laurent polynomials in s and r with integer
coefficients, where q = s^2; no floating point, no truncation.  The
package provides the triangular relation families, upper triangular
matrices with their closed power forms, pair verification suites, the
modular word action, a PBW engine for the 2 x 2 background quantum
matrix algebra, and a CLI wrapping all of it.

Importing the package loads no engine module: an exported name, or an
engine module, is imported on first access (PEP 562) and kept here.  So
InputError, the base of the errors the CLI maps to exit 2, lives here.
"""

import importlib

__version__ = "0.1.0"

# engine module -> the names the package exports from it, in __all__ order
_EXPORTS = {
    "scalars": ("LaurentScalar", "q_pow", "r_pow", "quantum_integer"),
    "algebra": ("RelationFamily", "TYPE_I", "TYPE_II", "TYPE_III", "Element",
                "generator", "oracle_reduce", "invert_element", "BetaExponent",
                "BetaDegreeExceeded", "NonReducible"),
    "matrices": ("UTMatrix", "generator_matrix", "closed_power",
                 "closed_product_entries", "extract_power_form",
                 "NonInvertibleEntry"),
    "pairs": ("QPair", "RelationReport", "generator_pair",
              "check_q_commutation", "check_internal", "check_mutual",
              "make_product_pair", "rescale_pair", "verify_pair",
              "verify_prop1", "verify_prop2", "verify_prop3",
              "verify_theorem1", "verify_theorem2", "NonUnitScalar",
              "UnsupportedTransform"),
    "modular": ("parse_word", "free_reduce", "apply_word", "word_to_matrix",
                "exponent_rows", "verify_presentation", "verify_theorem3",
                "check_correspondence", "SL2ZMatrix", "UnsupportedFamily",
                "CorrespondenceBroken", "WordSyntaxError"),
    "mq2": ("QGElement", "FullMatrix", "generator_full_matrix",
            "qg_inverse_matrix", "fm_mul", "fm_pow", "quantum_determinant",
            "quantum_determinant_element", "check_R", "verify_results",
            "verify_pbw_smoke", "reduce_word"),
    "grammar": ("parse_triangular", "parse_background", "ParseError"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


class InputError(ValueError):
    """Malformed input or a request outside the contract: CLI exit 2."""


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(__getattr__(_HOME[name]), name))


def __dir__():
    return sorted({*globals(), *__all__})
