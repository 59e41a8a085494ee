import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("name, argv, reason", [
    ("reproduce_tables.py", ["--q", "4"], "field 4: 4 is not prime"),
    ("reproduce_tables.py", ["--q", "2^2/1,1"],
     "field 2^2/1,1: modulus has degree 1, expected 2"),
    ("reproduce_tables.py", ["--q", "3^2/0,0,1"],
     "field 3^2/0,0,1: modulus [0, 0, 1] is reducible over F_3"),
    ("waring_survey.py", ["--q", "3", "x", "--n", "2", "--k", "3"],
     "field x: cannot parse field spec 'x'"),
    ("waring_survey.py", ["--q", "3", "9", "--n", "2", "--k", "3"],
     "field 9: 9 is not prime"),
])
def test_bad_field_is_one_line_and_exit_two(name, argv, reason):
    # every field is checked before any output, so nothing is printed first
    code, out, err = run_script(name, *argv)
    assert (code, out) == (2, "")
    assert err == f"{name}: {reason}\n"


def test_typed_failures_are_counted_not_raised():
    # over F_3, x^2 + y^2 = 0 has no solution classes, so every row fails
    code, out, err = run_script("reproduce_tables.py", "--q", "3", "--k", "2")
    assert (code, err) == (1, "")
    assert "k=2: InsufficientClassesError: " in out
    assert out.endswith("\n25 rows, 25 failures\n")


def test_survey_output_is_pinned():
    # recorded while every matrix ran both decomposers; the survey now
    # runs each once per diagonal
    code, out, err = run_script("waring_survey.py", "--q", "3", "--n", "3",
                                "--k", "2", "3")
    assert (code, err) == (0, "")
    assert out == (
        "q=3   n=3 k=2: histogram {'1': 138, '2': 495, '3': 96}  "
        "two-power algorithm 0/729 (misses 633 the oracle puts at <= 2), "
        "three-power 729/729 (misses 0 the oracle puts at <= 3), "
        "oracle disagreements 0\n"
        "q=3   n=3 k=3: histogram {'1': 327, '2': 402}  "
        "two-power algorithm 243/729 (misses 486 the oracle puts at <= 2), "
        "three-power 729/729 (misses 0 the oracle puts at <= 3), "
        "oracle disagreements 0\n")


def test_structured_tables_over_an_extension_field_are_pinned():
    # recorded while each structured side was rooted by its own call on a
    # masked copy of C; the digest covers every part of all 50 plans
    code, out, err = run_script("reproduce_tables.py", "--q", "3^4",
                                "--k", "2", "3")
    assert (code, err) == (0, "")
    assert out.startswith(
        "123                n=3  connected=True\n"
        "    k=2: coloring 121  A=1,44,0;42,0;1  B=42,0,0;1,44;42  "
        "verified=True\n"
        "    k=3: coloring 121  A=1,1,0;2,0;1  B=2,0,0;1,1;2  "
        "verified=True\n")
    assert out.endswith("\n25 rows, 0 failures\n")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cdb1466275a0526fc8b9f47577baea0b0aee991052841d2d2053f85c6331aeb7")


def test_even_characteristic_survey_runs():
    code, out, err = run_script("waring_survey.py", "--q", "2", "--n", "2",
                                "--k", "3")
    assert (code, err) == (0, "")
    assert "oracle disagreements 0" in out


def test_even_characteristic_tables_count_typed_failures():
    # in characteristic 2, x^k + y^k = 0 forces x^k = y^k: no class with
    # distinct powers, so every constant-zero-diagonal row fails typed
    code, out, err = run_script("reproduce_tables.py", "--q", "2^4")
    assert (code, err) == (1, "")
    assert "k=3: InsufficientClassesError: " in out
    assert out.endswith("\n25 rows, 50 failures\n")
