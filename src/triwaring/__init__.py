"""Sums of k-th powers of upper-triangular matrices over finite fields,
with exhaustive verification oracles at desk scale."""

from . import errors
from .fields import (
    FieldSpec,
    field_text,
    kth_power_image,
    kth_roots,
    make_field,
    minus_one_is_kth_power,
    parse_field,
)
from .power_sums import (
    SolutionClassification,
    classification_report,
    classified,
    count_zero_sum_classes,
    in_power_sums,
    lang_weil_check,
    power_diff_quotient,
    quotient_zero_report,
    select_system_pairs,
    shift_to_two_variable,
)
from .tri_matrix import (
    UTMatrix,
    backsub_root,
    diag,
    elementary,
    embed_power,
    from_rows,
    from_text,
    identity,
    jordan_block,
    junction_matrix,
    mat_inv,
    mat_mul,
    mat_pow,
    to_text,
    zero,
)
from .canonical import (
    ConjugationWitness,
    Presentation,
    annihilate_entry,
    bipartition,
    diagonalize_distinct,
    is_indecomposable,
    parse_presentation,
    presentation_matrix,
    render_presentation,
)
from .decomposer import (
    DecompositionResult,
    Obstruction,
    StructuredPlan,
    decompose_structured,
    decompose_three,
    decompose_two,
    verify_decomposition,
)
from .oracle import (
    WaringReport,
    all_kth_powers,
    bn_conjugate,
    min_waring_number,
    negative_checks,
    waring_report,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
