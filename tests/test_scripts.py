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
    ("reproduce_tables.py", ["--q", "2^4"],
     "field 2^4: decompositions require odd characteristic"),
    ("reproduce_tables.py", ["--q", "3^2/0,0,1"],
     "field 3^2/0,0,1: modulus [0, 0, 1] is reducible over F_3"),
    ("waring_survey.py", ["--q", "2", "--n", "2", "--k", "3"],
     "field 2: decompositions require odd characteristic"),
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
