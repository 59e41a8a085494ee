import copy
import hashlib
import importlib
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import triwaring
from triwaring.canonical import ConjugationWitness, Presentation
from triwaring.decomposer import (DecompositionResult, Obstruction,
                                  StructuredPlan)
from triwaring.errors import FieldMismatchError
from triwaring.fields import FieldSpec, Record, make_field
from triwaring.oracle import CheckResult, WaringReport
from triwaring.power_sums import (AssignmentEntry, LangWeilReport,
                                  QuotientZeroReport, SolutionClassification,
                                  diagonal_options, lex_min_solution)
from triwaring.tri_matrix import UTMatrix, from_text

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


def record_samples():
    """Instances of the package's 13 record types, built by keyword and by
    position, nested where a record holds records."""
    F = make_field(3, 2)
    A = from_text(F, "1,2;3")
    B = from_text(F, "0,1;0")
    plan = StructuredPlan(coloring=(0, 1), owned_a=((1, 2),), owned_b=())
    two = AssignmentEntry(lam=1, x=0, y=1)
    three = AssignmentEntry(1, 0, 1, z=2)
    return [
        F, make_field(7), FieldSpec(5, 1, (0, 1)),
        A, UTMatrix(field=F, n=1, entries=(8,)),
        SolutionClassification(lam=1, k=2, signatures=((0, 1),),
                               fibers=(((0,), (1, 2)),), u_signatures=(),
                               u_fibers=()),
        QuotientZeroReport(q=9, k=2, zero_pairs=((1, 8),), violations=(),
                           checked=80),
        two, three,
        LangWeilReport(q=7, k=2, m=2, N=6, expected=7, bound=16 * 7 ** 0.5),
        plan,
        DecompositionResult(parts=(A, B), k=2, target=A, assignment=(two,),
                            verified=True),
        DecompositionResult((A,), 2, A, (three,), False, plan=plan),
        Obstruction(target=B, k=2, explored=4, refuted_colorings=((0, 0),)),
        ConjugationWitness(S=A, before=B, after=B),
        Presentation(n=3, blocks=((1, 2), (3,)), extra_arcs=((1, 3),)),
        WaringReport(field=F, n=2, k=2, cap=3, per_matrix_min={A: 1, B: None},
                     witnesses={1: (A, (A,))}),
        CheckResult(name="x", applicable=False, ok=None, detail="why"),
    ]


# sha256 of the samples' reprs, one a line, as the decorated classes
# printed them before the records became plain classes
RECORD_REPR_DIGEST = (
    "b9405c14a223ee3149a80256142e861a81d7a93bcdf07275bc09f83c6e0c29a6")


def test_records_keep_their_value_semantics():
    samples = record_samples()
    assert len({type(r) for r in samples}) == 13
    text = "\n".join(map(repr, samples))
    assert hashlib.sha256(text.encode()).hexdigest() == RECORD_REPR_DIGEST

    for r in samples:
        cls = type(r)
        # the same values under another record class, and as a tuple
        twin = type("Twin", (Record,), {"__slots__": cls.__slots__})
        other = object.__new__(twin)
        for name in cls.__slots__:
            object.__setattr__(other, name, getattr(r, name))
        assert r != other and other != r
        assert r != tuple(getattr(r, name) for name in cls.__slots__)
        for name in cls.__slots__:
            with pytest.raises(AttributeError):
                setattr(r, name, None)
            with pytest.raises(AttributeError):
                delattr(r, name)
        with pytest.raises(AttributeError):
            r.extra = 1
        if cls.__name__ != "WaringReport":  # its dicts are unhashable
            for back in (copy.copy(r), pickle.loads(pickle.dumps(r))):
                assert back == r and hash(back) == hash(r)
    with pytest.raises(TypeError, match="unhashable"):
        hash(samples[-2])

    # FieldSpec compares (p, m, modulus), never its tables
    F = samples[0]
    G = FieldSpec(F.p, F.m, F.modulus)
    object.__setattr__(G, "_exp", ())
    assert G == F and hash(G) == hash(F) and G is not F
    # DecompositionResult compares all but the plan, which repr shows
    res, planned = samples[11], samples[12]
    moved = DecompositionResult(res.parts, res.k, res.target, res.assignment,
                                res.verified, plan=planned.plan)
    assert moved == res and hash(moved) == hash(res)
    assert "plan=None" in repr(res) and "plan=None" not in repr(moved)
    # defaults and keywords: z and plan default to None
    entry = AssignmentEntry(lam=1, x=0, y=1, z=None)
    assert entry == samples[7] and entry.as_row() == [0, 1]
    assert samples[8].as_row() == [0, 1, 2]
    assert res.plan is None and planned.plan == samples[10]


def test_every_record_stores_each_argument_under_its_own_name():
    # Record.__init__ fills __slots__ in order, so a constructor whose
    # parameters drift from its slots would swap fields silently
    records = []
    for path in sorted(Path(triwaring.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"triwaring.{path.stem}")
        records += [cls for cls in vars(module).values()
                    if isinstance(cls, type) and issubclass(cls, Record)
                    and cls is not Record
                    and cls.__module__ == module.__name__]
    assert len(records) == 13
    F = make_field(5)
    real = {FieldSpec: (5, 1, (0, 1)), UTMatrix: (F, 2, (1, 2, 3))}
    for cls in records:
        assert "__init__" in vars(cls), cls
        params = list(inspect.signature(cls).parameters)
        assert params == list(cls.__slots__[:len(params)]), cls
        values = real.get(cls) or tuple(object() for _ in params)
        for r in (cls(**dict(zip(params, values))), cls(*values)):
            for name, value in zip(params, values):
                assert getattr(r, name) is value, (cls, name)


# exported name -> a call of it with v in one element slot, one per slot
ELEMENT_CALLS = [
    ("classification_report", lambda f, F, v: f(F, v, 2)),
    ("classified", lambda f, F, v: f(F, v, 2)),
    ("embed_power", lambda f, F, v: f(triwaring.zero(F, 1),
                                      triwaring.zero(F, 1), 1, v, 2)),
    ("in_power_sums", lambda f, F, v: f(F, 2, 2)(v)),
    ("jordan_block", lambda f, F, v: f(F, v, 2)),
    ("kth_roots", lambda f, F, v: f(F, v, 2)),
    ("lang_weil_check", lambda f, F, v: f(F, 2, 2, (1, v))),
    ("power_diff_quotient", lambda f, F, v: f(F, v, 1, 2)),
    ("power_diff_quotient", lambda f, F, v: f(F, 1, v, 2)),
    ("select_system_pairs", lambda f, F, v: f(F, [1, v], 2)),
    ("shift_to_two_variable", lambda f, F, v: f(F, v, 2)),
]


def test_every_export_refuses_a_value_outside_the_field():
    # every exported function with a parameter typed Element is called
    typed = {name for name in EXPORTS
             if inspect.isfunction(f := getattr(triwaring, name))
             and "Element" in "".join(
                 str(p.annotation)
                 for p in inspect.signature(f).parameters.values())}
    assert typed <= {name for name, _ in ELEMENT_CALLS}
    for F in (make_field(7), make_field(3, 2)):
        for bad in (F.q, -1, F.q + 2):
            for name, call in ELEMENT_CALLS:
                with pytest.raises(FieldMismatchError, match="outside"):
                    call(getattr(triwaring, name), F, bad)
            with pytest.raises(FieldMismatchError, match="outside"):
                diagonal_options(F, [1, bad], 2, 2)
            with pytest.raises(FieldMismatchError, match="outside"):
                lex_min_solution(F, bad, 2)
