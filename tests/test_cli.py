import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import triwaring
from triwaring.cli import main
from triwaring.fields import make_field
from triwaring.tri_matrix import from_text, mat_pow, to_text


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


def test_field_subcommand(capsys):
    code, payload = run_json(capsys, "field", "--q", "3^2", "--json")
    assert code == 0
    assert payload == {"p": 3, "m": 2, "q": 9, "modulus": [1, 0, 1]}


def test_field_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["field"])
    assert exc.value.code == 2


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--q", "7"])
    assert exc.value.code == 2


def test_solve_golden(capsys):
    code, payload = run_json(capsys, "solve", "--q", "13", "--k", "3",
                             "--lambda", "0", "--json")
    assert code == 0
    assert payload == {
        "q": 13, "k": 3, "lambda": 0,
        "classes": [
            {"sig": [1, 12], "size": 9, "rep": [1, 4]},
            {"sig": [5, 8], "size": 9, "rep": [7, 2]},
            {"sig": [8, 5], "size": 9, "rep": [2, 7]},
            {"sig": [12, 1], "size": 9, "rep": [4, 1]},
        ],
        "U_size": 1,
    }
    # 4 asymmetric classes + (0,0) = the closed-form count of 5
    assert len(payload["classes"]) + 1 == 5


def test_solve_text_mentions_class_count(capsys):
    code, out, _ = run(capsys, "solve", "--q", "13", "--k", "3",
                       "--lambda", "0")
    assert code == 0
    assert "distinct-power classes (incl. U): 5" in out


def test_classify_lists_solutions(capsys):
    code, payload = run_json(capsys, "classify", "--q", "7", "--k", "2",
                             "--lambda", "1", "--json")
    assert code == 0
    assert payload["U"] == [[2, 2], [2, 5], [5, 2], [5, 5]]
    assert [c["sig"] for c in payload["classes"]] == [[0, 1], [1, 0]]


def test_decompose_two_verified(capsys):
    code, payload = run_json(capsys, "decompose", "--q", "13", "--k", "2",
                             "--matrix", "0,1;0", "--parts", "2", "--json")
    assert code == 0
    assert payload["verified"] is True
    assert payload["target"] == "0,1;0"
    F = make_field(13)
    total = None
    for text in payload["parts"]:
        P = mat_pow(from_text(F, text), 2)
        total = P if total is None else total + P
    assert to_text(total) == "0,1;0"


def test_decompose_failure_exit_code(capsys):
    code, payload = run_json(capsys, "decompose", "--q", "7", "--k", "2",
                             "--matrix", "0,1;0", "--parts", "2", "--json")
    assert code == 1
    assert payload["verified"] is False
    assert payload["failure"]["type"] == "InsufficientClassesError"
    assert payload["parts"] == []


def test_decompose_failure_text_goes_to_stderr(capsys):
    code, out, err = run(capsys, "decompose", "--q", "7", "--k", "2",
                         "--matrix", "0,1;0", "--parts", "2")
    assert code == 1
    assert out == ""
    assert "InsufficientClassesError" in err


def test_decompose_three(capsys):
    code, payload = run_json(capsys, "decompose", "--q", "7", "--k", "2",
                             "--matrix", "0,1;0", "--parts", "3", "--json")
    assert code == 0
    assert payload["verified"] is True
    assert len(payload["parts"]) == 3
    assert all(len(row) == 3 for row in payload["assignment"])


def test_root_subcommand(capsys):
    code, payload = run_json(capsys, "root", "--q", "7", "--k", "2",
                             "--matrix", "1,1;4", "--json")
    assert code == 0
    assert payload == {"matrix": "1,1;4", "k": 2, "root": "1,5;2",
                       "verified": True}


def test_root_failure(capsys):
    code, payload = run_json(capsys, "root", "--q", "7", "--k", "2",
                             "--matrix", "3,0;5", "--json")
    assert code == 1
    assert payload["failure"]["type"] == "DiagNotKthPowerError"


def test_table_subcommand(capsys):
    code, payload = run_json(capsys, "table", "--row", "12|34:13",
                             "--q", "13", "--k", "2", "--json")
    assert code == 0
    assert payload["matrix"] == "0,1,1,0;0,0,0;0,1;0"
    assert payload["connected"] is True
    dec = payload["decomposition"]
    assert dec["verified"] is True
    F = make_field(13)
    total = None
    for text in dec["parts"]:
        P = mat_pow(from_text(F, text), 2)
        total = P if total is None else total + P
    assert to_text(total) == payload["matrix"]


def test_oracle_subcommand_matrix(capsys):
    code, payload = run_json(capsys, "oracle", "--q", "3", "--k", "2",
                             "--matrix", "0,1;0", "--cap", "4", "--json")
    assert code == 0
    assert payload["min_powers"] == 3
    # an --n equal to the matrix size is accepted
    code, payload = run_json(capsys, "oracle", "--q", "3", "--k", "2",
                             "--n", "2", "--matrix", "0,1;0", "--json")
    assert code == 0
    assert payload["n"] == 2 and payload["min_powers"] == 3


def test_oracle_subcommand_report(capsys):
    code, payload = run_json(capsys, "oracle", "--q", "3", "--k", "2",
                             "--n", "2", "--cap", "4", "--json")
    assert code == 0
    assert payload["histogram"] == {"1": 10, "2": 15, "3": 2}
    assert payload["max"] == 3


def test_bound_subcommand(capsys):
    code, payload = run_json(capsys, "bound", "--q", "7", "--k", "2",
                             "--m", "2", "--json")
    assert code == 0
    assert payload["N"] == 8 and payload["expected"] == 7
    assert payload["ok"] is True


def test_conjugate_subcommand(capsys):
    code, payload = run_json(capsys, "conjugate", "--q", "7",
                             "--matrix", "1,1;2", "--matrix", "1,0;2",
                             "--json")
    assert code == 0
    assert payload["conjugate"] is True
    F = make_field(7)
    W = from_text(F, payload["witness"])
    from triwaring.tri_matrix import mat_mul
    assert mat_mul(from_text(F, "1,1;2"), W) == mat_mul(W, from_text(F, "1,0;2"))


def test_conjugate_negative(capsys):
    code, payload = run_json(capsys, "conjugate", "--q", "3",
                             "--matrix", "0,0,1,0;0,0,1;0,0;0",
                             "--matrix", "0,1,0,0;0,0,0;0,1;0", "--json")
    assert code == 0
    assert payload["conjugate"] is False
    assert "witness" not in payload


def test_matrix_round_trip_through_cli(capsys):
    # matrices printed by the CLI re-parse to the same value
    code, payload = run_json(capsys, "decompose", "--q", "13", "--k", "3",
                             "--matrix", "1,2,3;4,5;6", "--parts", "3",
                             "--json")
    assert code == 0
    F = make_field(13)
    for text in [payload["target"]] + payload["parts"]:
        assert to_text(from_text(F, text)) == text


def test_bad_field_spec(capsys):
    code, out, err = run(capsys, "field", "--q", "4")
    assert code == 1
    assert "NotPrimeError" in err


def test_field_too_large_is_typed(capsys):
    code, payload = run_json(capsys, "field", "--q", "47^4", "--json")
    assert code == 1
    assert payload["failure"]["type"] == "EnumerationTooLargeError"
    assert "4879681" in payload["failure"]["message"]


def test_table_comma_grammar_requires_n(capsys):
    # comma-separated labels cannot infer n; --n must be passed
    with pytest.raises(SystemExit) as exc:
        main(["table", "--row", "1,2|3,4,5,6,7,8,9,10:1,3", "--q", "13",
              "--k", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["table", "--row", "1,2|3,4,5,6,7,8,9,10:1,3", "--q", "13", "--k", "2"],
     "needs --n"),
    (["oracle", "--q", "3", "--k", "2"], "needs --n or --matrix"),
    (["conjugate", "--q", "3", "--matrix", "0,1;0"], "exactly two --matrix"),
    (["root", "--q", "7", "--k", "2", "--matrix", "1", "--matrix", "2"],
     "exactly one --matrix"),
    (["oracle", "--q", "3", "--k", "2", "--matrix", "0,0;0", "--cap", "0"],
     "--cap must be at least 1"),
    (["oracle", "--q", "3", "--k", "2", "--n", "2", "--cap", "0"],
     "--cap must be at least 1"),
    (["solve", "--q", "7", "--k", "0", "--lambda", "1"],
     "--k must be at least 1"),
    (["classify", "--q", "7", "--k", "0", "--lambda", "1"],
     "--k must be at least 1"),
    (["oracle", "--q", "3", "--k", "0", "--n", "2"],
     "--k must be at least 1"),
    (["bound", "--q", "7", "--k", "0", "--m", "2"],
     "--k must be at least 1"),
    (["root", "--q", "7", "--k", "0", "--matrix", "1"],
     "--k must be at least 1"),
    (["solve", "--q", "7", "--k", "-1", "--lambda", "1"],
     "--k must be at least 1"),
    (["decompose", "--q", "7", "--k", "-1", "--parts", "2",
      "--matrix", "1"], "--k must be at least 1"),
    (["bound", "--q", "7", "--k", "2", "--m", "0"],
     "--m must be at least 1"),
    (["oracle", "--q", "3", "--k", "2", "--n", "0"], "--n must be at least 1"),
    (["oracle", "--q", "3", "--k", "2", "--n", "-1"],
     "--n must be at least 1"),
    (["table", "--row", "12|34:13", "--q", "13", "--k", "2", "--n", "0"],
     "--n must be at least 1"),
    (["oracle", "--q", "3", "--k", "2", "--n", "5", "--matrix", "0,1;0"],
     "--n 5 does not match the size 2 of --matrix"),
])
def test_usage_errors_say_why(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


def run_alone(*argv):
    """The same call in a fresh interpreter: (exit code, stdout, stderr)."""
    src = Path(triwaring.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "triwaring.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_calls_in_one_process_match_calls_alone(capsys):
    # the parser is built once per process: no state may leak from one
    # call into the next, and the --matrix append lists must not pile up
    calls = [
        ["oracle", "--q", "3", "--k", "2", "--n", "0"],
        ["decompose", "--q", "13", "--k", "2", "--matrix", "0,1;0",
         "--parts", "2", "--json"],
        ["decompose", "--q", "13", "--k", "2", "--matrix", "1,2,3;4,5;6",
         "--parts", "2", "--json"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        assert (code, out.out, out.err) == run_alone(*argv), argv


def test_conjugate_size_mismatch_is_typed(capsys):
    code, payload = run_json(capsys, "conjugate", "--q", "3",
                             "--matrix", "0,1;0", "--matrix", "0,0,0;0,0;0",
                             "--json")
    assert code == 1
    assert payload["verified"] is False
    assert payload["failure"]["type"] == "SizeMismatchError"


def test_conjugate_malformed_entry_is_parse_error(capsys):
    code, payload = run_json(capsys, "conjugate", "--q", "3",
                             "--matrix", "x,1;0", "--matrix", "0,1;0",
                             "--json")
    assert code == 1
    assert payload["failure"]["type"] == "ParseError"


def test_conjugate_bad_guard_override_is_typed(capsys, monkeypatch):
    monkeypatch.setenv("WARING_MAX_ENUM", "1e6")
    code, payload = run_json(capsys, "conjugate", "--q", "3",
                             "--matrix", "0,1;0", "--matrix", "0,1;0",
                             "--json")
    assert code == 1
    assert payload["failure"]["type"] == "EnumerationTooLargeError"
    assert "WARING_MAX_ENUM" in payload["failure"]["message"]


@pytest.mark.parametrize("argv", [
    ["solve", "--q", "3^2", "--k", "2", "--lambda", "10", "--json"],
    ["classify", "--q", "7", "--k", "2", "--lambda", "-1", "--json"],
])
def test_lambda_outside_the_field_is_typed(capsys, argv):
    # an encoding outside [0, q) names no element: refused, not reduced
    code, payload = run_json(capsys, *argv)
    assert code == 1
    assert payload["verified"] is False
    assert payload["failure"]["type"] == "FieldMismatchError"


def readme_cli_lines():
    """The commands of the README's `## CLI` block, split into words."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line]


def test_readme_cli_examples_exit_zero(capsys):
    lines = readme_cli_lines()
    assert lines
    for argv in lines:
        assert argv[0] == "triwaring", argv
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()
