"""Sums of k-th powers of upper-triangular matrices over finite fields,
with exhaustive verification oracles at desk scale.

Importing the package loads none of its submodules, so a one-shot CLI
call loads only what its command runs. Each exported name is imported
from its submodule on first use (PEP 562) and then bound here, so later
reads are plain attribute reads."""

import importlib

_SUBMODULE_EXPORTS = {
    "errors": (),
    "fields": ("FieldSpec", "field_text", "kth_roots", "make_field",
               "minus_one_is_kth_power", "parse_field"),
    "power_sums": ("SolutionClassification", "classification_report",
                   "classified", "in_power_sums", "select_system_pairs",
                   "shift_to_two_variable"),
    "tri_matrix": ("UTMatrix", "backsub_root", "diag", "elementary",
                   "from_rows", "from_text", "identity", "jordan_block",
                   "junction_matrix", "mat_inv", "mat_mul", "mat_pow",
                   "to_text", "zero"),
    "canonical": ("Presentation", "bipartition", "is_indecomposable",
                  "parse_presentation", "render_presentation"),
    "decomposer": ("DecompositionResult", "Obstruction", "StructuredPlan",
                   "decompose_structured", "decompose_three",
                   "decompose_two", "verify_decomposition"),
    "oracle": ("WaringReport", "all_kth_powers", "bn_conjugate",
               "min_waring_number", "waring_report"),
    "claims": ("count_zero_sum_classes", "embed_power", "lang_weil_check",
               "negative_checks", "power_diff_quotient",
               "quotient_zero_report"),
}
# each exported name -> the submodule that defines it; a submodule's own
# name maps to itself
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items()
            for name in (module, *names)}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # the next read does not come back here
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
