import contextlib
import hashlib
import io
import json
import math
import os
import runpy
import shlex
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import triwaring
from triwaring.cli import (
    _COMMANDS,
    _build_parser,
    _decimal_digits,
    _parse_exact,
    main,
)
from triwaring.fields import make_field
from triwaring.tri_matrix import from_text, mat_pow, to_text, zero


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


def test_decompose_failed_verification_exits_1(capsys, monkeypatch):
    # the post-construction check raises, so python -O cannot strip it
    monkeypatch.setattr("triwaring.decomposer.verify_decomposition",
                        lambda *a: False)
    code, payload = run_json(capsys, "decompose", "--q", "13", "--k", "2",
                             "--matrix", "0,1;0", "--parts", "2", "--json")
    assert code == 1
    assert payload["verified"] is False
    assert payload["failure"]["type"] == "RootMismatchError"


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


def test_root_over_equal_diagonal(capsys):
    # (1,4;1)^2 = (1,1;1) over F_7: the divisor pdq(1, 1) = 2 is nonzero
    code, payload = run_json(capsys, "root", "--q", "7", "--k", "2",
                             "--matrix", "1,1;1", "--json")
    assert code == 0
    assert payload == {"matrix": "1,1;1", "k": 2, "root": "1,4;1",
                       "verified": True}


def test_root_failure(capsys):
    code, payload = run_json(capsys, "root", "--q", "7", "--k", "2",
                             "--matrix", "3,0;5", "--json")
    assert code == 1
    assert payload["failure"]["type"] == "DiagNotKthPowerError"


def test_root_failed_verification_exits_1(capsys, monkeypatch):
    # a root whose square is not C is a typed failure, not "verified":
    # false with exit 0
    monkeypatch.setattr("triwaring.tri_matrix._root_parts",
                        lambda C, k, diagonals, owners=None:
                        [from_text(C.field, "1,0;2")])
    code, payload = run_json(capsys, "root", "--q", "7", "--k", "2",
                             "--matrix", "1,1;4", "--json")
    assert code == 1
    assert payload["verified"] is False
    assert payload["failure"]["type"] == "RootMismatchError"
    code, out, err = run(capsys, "root", "--q", "7", "--k", "2",
                         "--matrix", "1,1;4")
    assert code == 1
    assert out == ""
    assert err.startswith("RootMismatchError: root 1,0;2 failed")


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


def test_bound_past_float_range(capsys):
    # k^(2m) = 10^400 has no float: the verdict is exact, the bound infinite
    argv = ("bound", "--q", "3", "--k", "10", "--m", "200")
    code, out, err = run(capsys, *argv, "--json")
    payload = json.loads(out, parse_constant=pytest.fail)  # strict JSON
    assert (code, err) == (0, "")
    assert payload["expected"] == 3 ** 199 and payload["bound"] is None
    assert payload["ok"] is True
    assert (payload["N"] - 3 ** 199) ** 2 <= 10 ** 800 * 3 ** 199
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.endswith(", bound = inf, ok = True\n")


def test_bound_past_the_int_print_limit_fails_typed():
    # q^(m-1) = 7^5999 has 5,070 digits, past the interpreter's default
    # limit of 4,300 for printing an int (3.11 on), and is refused before
    # the fold; PYTHONINTMAXSTRDIGITS=0 lifts the limit, and the counts print
    argv = ("bound", "--q", "7", "--k", "2", "--m", "6000")
    limited = hasattr(sys, "get_int_max_str_digits")
    message = ("q^(m-1) = 7^5999 has 5070 digits, past this interpreter's "
               "limit of 4300 for printing an int "
               "(sys.get_int_max_str_digits()); PYTHONINTMAXSTRDIGITS=0 "
               "lifts it")
    for digits, refused in (("4300", limited), ("0", False)):
        code, out, err = run_alone(*argv, "--json",
                                   PYTHONINTMAXSTRDIGITS=digits)
        if refused:
            assert (code, err) == (1, "")
            assert json.loads(out)["failure"] == {
                "type": "EnumerationTooLargeError", "message": message}
        else:
            assert (code, err) == (0, "")
            assert out.startswith('{"q": 7, "k": 2, "m": 6000, "N": ')
            assert out.endswith(', "ok": true}\n') and len(out) == 10216
        code, out, err = run_alone(*argv, PYTHONINTMAXSTRDIGITS=digits)
        if refused:
            assert (code, out) == (1, "")
            assert err == f"EnumerationTooLargeError: {message}\n"
        else:
            assert (code, err) == (0, "")
            assert out.startswith("N = ") and out.endswith(", ok = True\n")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int print limit before Python 3.11")
def test_bound_refuses_before_the_fold(capsys):
    # folding m = 40000 variables takes seconds, growing as m^2; the digits
    # of q^(m-1) alone refuse the call first
    start = time.perf_counter()
    code, payload = run_json(capsys, "bound", "--q", "7", "--k", "2",
                             "--m", "40000", "--json")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert payload["failure"]["type"] == "EnumerationTooLargeError"
    assert payload["failure"]["message"].startswith(
        "q^(m-1) = 7^39999 has 33804 digits, past this interpreter's limit")


def test_bound_print_limit_is_exact_at_the_limit(capsys, monkeypatch,
                                                 digit_limit_640):
    # q^(m-1) is refused before the fold only past rounding; within one
    # digit of the limit the exact counts decide after it, so the call
    # exits 1 exactly when max(N, q^(m-1)) has more digits than the limit
    from triwaring import claims
    folds, check = [], claims.lang_weil_check

    def fold(*args):
        folds.append(check(*args))
        return folds[-1]
    monkeypatch.setattr(claims, "lang_weil_check", fold)
    for q, k in ((7, 2), (13, 3), (3, 2), (31, 1)):
        m0 = int(digit_limit_640 / math.log10(q))
        for m in range(m0 - 2, m0 + 4):
            folds.clear()
            code, payload = run_json(capsys, "bound", "--q", str(q), "--k",
                                     str(k), "--m", str(m), "--json")
            # no fold ran only where q^(m-1) alone is past the limit
            N = folds[0].N if folds else 0
            past = _decimal_digits(max(N, q ** (m - 1))) > digit_limit_640
            assert code == (1 if past else 0), (q, k, m)
            if past:
                assert payload["failure"]["type"] == \
                    "EnumerationTooLargeError"
            else:
                assert (payload["N"], payload["ok"]) == (N, True)


def test_classify_past_the_budget_fails_typed(capsys, monkeypatch):
    # 1009^2 - 2 solution pairs of x^1008 + y^1008 = 2 would be listed;
    # the listing is counted against the budget before it is made
    monkeypatch.setenv("WARING_MAX_ENUM", "1000000")
    code, payload = run_json(capsys, "classify", "--q", "1009", "--k",
                             "1008", "--lambda", "2", "--json")
    assert code == 1
    assert payload["failure"] == {
        "type": "EnumerationTooLargeError",
        "message": "enumeration of size 1016064 exceeds guard 1000000"}
    code, payload = run_json(capsys, "classify", "--q", "13", "--k", "12",
                             "--lambda", "2", "--json")
    assert code == 0 and len(payload["U"]) == 144


def test_classify_far_past_the_budget_fails_at_once(capsys):
    # U alone holds 10006^2 pairs: listing them would exhaust memory
    start = time.perf_counter()
    code, payload = run_json(capsys, "classify", "--q", "10007", "--k",
                             "10006", "--lambda", "2", "--json")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert payload["failure"] == {
        "type": "EnumerationTooLargeError",
        "message": "enumeration of size 100120036 exceeds guard 100000000"}


@pytest.mark.parametrize("argv, size", [
    (["--n", "100"], "13^5050"),
    (["--n", "100000"], "13^5000050000"),
    (["--matrix", to_text(zero(make_field(13), 88))], "13^3916"),
], ids=["n100", "n100000", "matrix88"])
def test_oracle_far_past_the_budget_fails_typed_at_once(capsys, argv, size):
    start = time.perf_counter()
    code, payload = run_json(capsys, "oracle", "--q", "13", "--k", "2",
                             *argv, "--json")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert payload["failure"] == {
        "type": "EnumerationTooLargeError",
        "message": f"enumeration of size {size} exceeds guard 100000000"}


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
    (["oracle", "--q", "3", "--k", "2", "--n", "2", "--cap=0"],
     "--cap must be at least 1"),
    (["root", "--q", "7", "--k", "2", "--matrix=1", "--matrix", "2"],
     "exactly one --matrix"),
    # bounds come before the field: q = 4 would fail as NotPrimeError
    (["oracle", "--q", "4", "--k", "2", "--n", "2", "--cap", "0"],
     "--cap must be at least 1"),
])
def test_usage_errors_say_why(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert message in out.err


def run_alone(*argv, **env):
    """The same call in a fresh interpreter, with `env` added to its
    environment: (exit code, stdout, stderr)."""
    src = Path(triwaring.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src), **env)
    proc = subprocess.run([sys.executable, "-m", "triwaring.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_closed_pipe_exits_without_a_traceback():
    # the reader is gone before the first write, as after `| head -c 1`:
    # exit 1, nothing on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = Path(triwaring.__file__).resolve().parent.parent
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "triwaring.cli", "decompose", "--q", "13",
             "--k", "3", "--matrix", "1,2,3;4,5;6", "--parts", "2", "--json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


COMMANDS = ("field", "solve", "classify", "decompose", "root", "table",
            "oracle", "bound", "conjugate")
SOLVE = ["solve", "--q", "7", "--k", "2", "--lambda", "1"]


def run_caught(capsys, argv):
    """main(argv) in this process, a SystemExit read as its exit code:
    (exit code, stdout, stderr), as `run_alone` returns them."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv, code, stream, wanted", [
    ([], 2, "err", ["the following arguments are required: command"]),
    (["--help"], 0, "out", COMMANDS),
    (["frobnicate", "--q", "7"], 2, "err", ["invalid choice: 'frobnicate'"]),
    (["solve", "-h"], 0, "out", ["usage: triwaring solve"]),
    ([*SOLVE, "--bogus"], 2, "err", ["usage: triwaring solve",
                                     "unrecognized arguments: --bogus"]),
    (["--q", "7", "solve"], 2, "err", ["usage: triwaring [-h]"]),
    (["solve", "--q", "7", "--k", "0", "--lambda", "1"], 2, "err",
     ["usage: triwaring solve",
      "triwaring solve: error: --k must be at least 1"]),
    (["table", "--q", "13", "--k", "2", "--row", "1267|345:13|46"], 1, "out",
     ["obstruction after 128 colorings"]),
])
def test_dispatch_in_process_and_alone(capsys, monkeypatch, argv, code,
                                       stream, wanted):
    # an argv led by a command is read off its option table, or else by
    # that command's subparser; anything else goes to the top-level
    # parser. A usage error, during parsing or after it, prints the usage
    # of the command it names
    monkeypatch.setenv("COLUMNS", "80")
    got = run_caught(capsys, argv)
    assert got == run_alone(*argv)
    _, out, err = got
    shown, silent = (out, err) if stream == "out" else (err, out)
    assert got[0] == code
    assert silent == ""
    for text in wanted:
        assert text in shown, text


def test_double_dash_goes_to_the_top_level_parser(capsys, monkeypatch):
    # argparse's own rule decides: 3.10.13, 3.11.7, 3.12.1 and 3.13.0 read
    # "--" as an unknown command, 3.13.13 drops it and runs the command
    # after it
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--", *SOLVE, "--json"]
    try:
        _build_parser()[0].parse_args(argv)
    except SystemExit as exc:
        expected = exc.code, "", capsys.readouterr().err
    else:
        expected = run_caught(capsys, argv[1:])
    got = run_caught(capsys, argv)
    assert got == expected
    assert got == run_alone(*argv)


# `triwaring -h`, each command's -h, and each command with no arguments
# (a usage error: its required arguments are missing)
HELP_AND_USAGE_CALLS = [["-h"], *([c, "-h"] for c in COMMANDS),
                        *([c] for c in COMMANDS)]
# recorded when every argv went through the top-level parser, and equal
# since; argparse lays out help differently from one Python version to the
# next
HELP_AND_USAGE_DIGESTS = {
    **dict.fromkeys([(3, 10), (3, 11), (3, 12)],
                    "32570305b359f0eacd83aabc204c4894d9ce12bb177a62dbf47fe923347b1924"),
    (3, 13): "4217b438ef2dc8de845d4a0ae95e3857b3e030e758ffd4066c353079e9ac799d",
}


def test_help_and_usage_text_is_pinned(monkeypatch):
    digest = HELP_AND_USAGE_DIGESTS.get(sys.version_info[:2])
    if digest is None:
        pytest.skip(f"no digest recorded for Python {sys.version_info[:2]}")
    monkeypatch.setenv("COLUMNS", "80")
    transcript = "".join(
        "{}\t{}\t{}\t{}\n".format(" ".join(argv), *run_alone(*argv))
        for argv in HELP_AND_USAGE_CALLS)
    assert hashlib.sha256(transcript.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, loaded", [
    (SOLVE, ["power_sums"]),
    (["root", "--q", "7", "--k", "2", "--matrix", "1,1;4"], ["tri_matrix"]),
    (["decompose", "--q", "13", "--k", "2", "--matrix", "0,1;0",
      "--parts", "2"],
     ["decomposer", "power_sums", "tri_matrix"]),
    (["table", "--q", "13", "--k", "2", "--row", "12|34:13"],
     ["canonical", "decomposer", "power_sums", "tri_matrix"]),
    (["oracle", "--q", "3", "--k", "2", "--n", "2"],
     ["oracle", "power_sums", "tri_matrix"]),
    (["bound", "--q", "7", "--k", "2", "--m", "2"], ["claims"]),
])
def test_a_command_imports_only_what_it_runs(argv, loaded):
    # a cold call loads the cli, errors, fields and the modules its
    # command calls, nothing more: not dataclasses nor inspect, and not
    # argparse, since its option table reads every documented spelling
    code = ("import sys\n"
            "from triwaring.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, sorted(m for m in sys.modules\n"
            "                   if m.startswith('triwaring.')),\n"
            "      [m for m in ('dataclasses', 'inspect', 'argparse')\n"
            "       if m in sys.modules])")
    src = Path(triwaring.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=60)
    modules = sorted(f"triwaring.{m}" for m in ["cli", "errors", "fields",
                                                *loaded])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == f"0 {modules} []"


def run_as_module(*argv):
    """The same call through the `python -m triwaring.cli` entry point, in
    this process: its exit code."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "argv", ["triwaring", *argv])
        # runpy warns when the module it runs is already imported
        mp.delitem(sys.modules, "triwaring.cli")
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("triwaring.cli", run_name="__main__")
    return exc.value.code


def test_calls_in_one_process_match_calls_alone(capsys):
    # the parser is built once per process: no state may leak from one
    # call into the next, and the --matrix append lists must not pile up;
    # the module entry point run here exits as the fresh interpreter does
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
        alone = run_alone(*argv)
        assert (code, out.out, out.err) == alone, argv
        assert (run_as_module(*argv), *capsys.readouterr()) == alone, argv


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


def test_table_row_with_a_non_decimal_digit_is_parse_error(capsys):
    # '²' is a digit to str.isdigit but no decimal, so n is inferred from
    # the 1 alone and the presentation refuses the label
    argv = ["table", "--q", "13", "--k", "2", "--row", "1²"]
    code, payload = run_json(capsys, *argv, "--json")
    assert code == 1
    assert payload["verified"] is False
    assert payload["failure"]["type"] == "ParseError"
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("ParseError: ")


def test_solve_past_the_budget_is_refused_before_the_root_map(capsys):
    # the k-th root map of F_q walks q elements; q = 10^9 + 7 is past the
    # budget, so the command fails typed instead of building it
    code, payload = run_json(capsys, "solve", "--q", "1000000007", "--k",
                             "2", "--lambda", "1", "--json")
    assert code == 1
    assert payload["failure"] == {
        "type": "EnumerationTooLargeError",
        "message": "enumeration of size 1000000007 exceeds guard 100000000"}


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


def readme_block(heading: str, lang: str) -> str:
    """The first `lang` code block under the README's `## heading`."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def readme_cli_lines():
    """The commands of the README's `## CLI` block, split into words."""
    block = readme_block("CLI", "sh")
    return [shlex.split(line) for line in block.splitlines() if line]


def test_readme_cli_examples_exit_zero(capsys):
    lines = readme_cli_lines()
    assert lines
    for argv in lines:
        assert argv[0] == "triwaring", argv
        assert main(argv[1:]) == 0, argv
        capsys.readouterr()


# recorded before text lines were built on demand; the other goldens pin
# --json output only
README_CLI_DIGEST = "55e6e1826889d2fe35338693d850fe5f1e043c3c9118de7dc2ae0774b0f86423"


def readme_cli_transcript(capsys) -> str:
    """Exit code, stdout and stderr of every README CLI example, run once
    without --json and once with it."""
    lines = []
    for argv in readme_cli_lines():
        plain = [a for a in argv[1:] if a != "--json"]
        for call in (plain, [*plain, "--json"]):
            code = main(call)
            out = capsys.readouterr()
            lines.append(f"{' '.join(call)}\t{code}\t{out.out}\t{out.err}\n")
    return "".join(lines)


def test_readme_cli_text_and_json_output_is_pinned(capsys):
    transcript = readme_cli_transcript(capsys)
    got = hashlib.sha256(transcript.encode()).hexdigest()
    assert got == README_CLI_DIGEST


def test_json_formats_no_text(capsys, monkeypatch):
    # each runner's text is counted on the first README argv of its
    # command: --json prints the same bytes and never calls it, and the
    # text output calls it once
    first = {}
    for argv in readme_cli_lines():
        first.setdefault(argv[1], [a for a in argv[1:] if a != "--json"])
    assert sorted(first) == sorted(COMMANDS) == sorted(_COMMANDS)
    for name, plain in first.items():
        runner, help_text, options = _COMMANDS[name]
        for argv, wanted in ((plain, 1), ([*plain, "--json"], 0)):
            expected = run(capsys, *argv)
            calls = []

            def counted(F, args, runner=runner):
                payload, text, code = runner(F, args)

                def counted_text():
                    calls.append(name)
                    return text()
                return payload, counted_text, code
            monkeypatch.setitem(_COMMANDS, name, (counted, help_text, options))
            assert run(capsys, *argv) == expected, argv
            monkeypatch.undo()
            assert len(calls) == wanted, argv


def test_readme_library_example_runs(capsys):
    # the block asserts its own decomposition, then prints the parts
    block = readme_block("Library example", "python")
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.count(" + ") == 1


def argparse_vars(argv):
    """vars of the namespace argparse gives for an argv led by a command,
    or None where it exits (help, or a usage error)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            args = _build_parser()[1][argv[0]].parse_args(
                argv[1:], types.SimpleNamespace(command=argv[0]))
    except SystemExit:
        return None
    return vars(args)


def test_the_option_table_reads_every_golden_and_readme_argv():
    from tests.test_golden import DIGESTS, corpus
    calls = [[*argv, "--json"] for command in DIGESTS
             for argv in corpus(command)]
    for argv in readme_cli_lines():
        plain = [a for a in argv[1:] if a != "--json"]
        calls += [plain, [*plain, "--json"]]
    assert len(calls) > 1800
    for argv in calls:
        args = _parse_exact(argv[0], argv[1:])
        assert args is not None, argv
        assert vars(args) == argparse_vars(argv), argv


# what a caller might type besides the table's own spellings: abbreviations,
# `=` forms, help, "--", unknown options, values that start with "-", and
# ints that argparse reads but the table does not (signed, padded,
# non-ASCII, underscored)
ODD_TOKENS = ["--lam", "--ma", "--js", "--p", "--c", "--k=2", "--q=7",
              "--parts=2", "-h", "--help", "--", "--bogus", "solve"]
VALUES = ["0", "2", "3", "4", "7", "07", "3^2", "x", "0,1;0", "12|34:13",
          "-", "-x", "-1", "+7", " 7", "\u0663", "1_0", ""]


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_the_option_table_agrees_with_argparse(data):
    # most required options with a value, then options, values and odd
    # tokens in any order: the table returns argparse's namespace or None,
    # and None wherever argparse prints help or an error
    name = data.draw(st.sampled_from(sorted(_COMMANDS)))
    options = [entry[0] for entry in _COMMANDS[name][2]]
    value = st.sampled_from(VALUES)
    chunks = [data.draw(st.tuples(st.just(entry[0]), value))
              for entry in _COMMANDS[name][2]
              if entry[4] and data.draw(st.integers(0, 3))]
    chunks += data.draw(st.lists(st.one_of(
        st.tuples(st.sampled_from(options), value),
        st.tuples(st.sampled_from(options + ODD_TOKENS + VALUES))),
        max_size=6))
    chunks = data.draw(st.permutations(chunks))
    argv = [name, *(token for chunk in chunks for token in chunk)]
    args = _parse_exact(name, argv[1:])
    if args is not None:
        assert vars(args) == argparse_vars(argv), argv


@pytest.mark.parametrize("tokens", [
    ["--lam", "1"], ["--lambda=1"], ["--lambda", "-1"], ["--lambda", "+1"],
    ["--lambda", " 1"], ["--lambda", "\u0661"], ["--lambda", "1_0"],
    ["--lambda", "1", "--"], ["--lambda", "1", "-h"], ["--lambda", "1",
    "--bogus"], ["--lambda"], [], ["--lambda", "1", "--k"],
])
def test_the_option_table_leaves_other_spellings_to_argparse(tokens):
    # argparse reads some of these (an abbreviation, `=`, a signed or
    # non-ASCII int), and refuses the rest; the table reads none
    assert _parse_exact("solve", ["--q", "7", "--k", "2", *tokens]) is None


@pytest.mark.parametrize("argv, option", [
    (SOLVE, "--lambda"), (SOLVE, "--k"),
    (["bound", "--q", "7", "--k", "2", "--m", "2"], "--m"),
    (["oracle", "--q", "3", "--k", "2", "--n", "2"], "--n"),
    (["oracle", "--q", "3", "--k", "2", "--n", "2"], "--cap"),
    (["decompose", "--q", "7", "--k", "2", "--matrix", "0,1;0", "--parts",
      "2"], "--parts"),
])
def test_an_int_past_the_digit_limit_is_a_usage_error(
        capsys, monkeypatch, digit_limit_640, argv, option):
    # `int` refuses more digits than sys.get_int_max_str_digits(): the
    # exact spelling leaves the value to argparse, so it exits 2 with the
    # same usage error as the `=` spelling, which argparse always reads
    monkeypatch.setenv("COLUMNS", "80")
    value = "9" * (digit_limit_640 + 1)
    exact = run_caught(capsys, [*argv, option, value, "--json"])
    joined = run_caught(capsys, [*argv, f"{option}={value}", "--json"])
    assert exact == joined
    assert exact[:2] == (2, "") and "invalid int value" in exact[2]
