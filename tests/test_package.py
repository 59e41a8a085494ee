import importlib
import os
import subprocess
import sys
from pathlib import Path

import triwaring

SRC = Path(triwaring.__file__).resolve().parent.parent

# the names `from triwaring import *` binds
EXPORTS = [
    "ConjugationWitness", "DecompositionResult", "FieldSpec", "Obstruction",
    "Presentation", "SolutionClassification", "StructuredPlan", "UTMatrix",
    "WaringReport", "all_kth_powers", "annihilate_entry", "backsub_root",
    "bipartition", "bn_conjugate", "canonical", "classification_report",
    "classified", "count_zero_sum_classes", "decompose_structured",
    "decompose_three", "decompose_two", "decomposer", "diag",
    "diagonalize_distinct", "elementary", "embed_power", "errors",
    "field_text", "fields", "from_rows", "from_text", "identity",
    "in_power_sums", "is_indecomposable", "jordan_block", "junction_matrix",
    "kth_roots", "lang_weil_check", "make_field", "mat_inv", "mat_mul",
    "mat_pow", "min_waring_number", "minus_one_is_kth_power",
    "negative_checks", "oracle", "parse_field", "parse_presentation",
    "power_diff_quotient", "power_sums", "quotient_zero_report",
    "render_presentation", "select_system_pairs", "shift_to_two_variable",
    "to_text", "tri_matrix", "verify_decomposition", "waring_report", "zero",
]


def test_all_is_pinned():
    assert sorted(triwaring.__all__) == EXPORTS


def test_each_export_is_its_submodules_attribute():
    listed = dir(triwaring)
    for name in EXPORTS:
        home = triwaring._EXPORTS[name]
        module = importlib.import_module(f"triwaring.{home}")
        expected = module if name == home else getattr(module, name)
        assert getattr(triwaring, name) is expected, name
        assert name in listed, name


def test_star_import_in_a_fresh_interpreter_binds_every_name():
    code = ("from triwaring import *\n"
            "import triwaring\n"
            "missing = [n for n in triwaring.__all__ if n not in globals()]\n"
            "print(len(triwaring.__all__), missing)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, f"{len(EXPORTS)} []\n", "")


def test_a_second_read_is_a_plain_attribute(monkeypatch):
    name = "min_waring_number"
    monkeypatch.delitem(vars(triwaring), name, raising=False)
    calls = []
    real = triwaring.__getattr__

    def counted(attr):
        calls.append(attr)
        return real(attr)
    monkeypatch.setattr(triwaring, "__getattr__", counted)
    first = triwaring.min_waring_number
    second = triwaring.min_waring_number
    assert first is second
    assert calls == [name]
