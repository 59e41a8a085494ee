"""Command-line surface.

Every subcommand validates input and dispatches to the library; `_run`
prints either aligned text or (with --json) a stable machine-readable
object. Exit codes: 0 success, 1 typed domain failure (legitimate at
small q) or a reader that closed the pipe, 2 usage error.

A one-shot call pays for what its command runs and little more: this
module imports only `errors` and `fields`, and each subcommand imports
the library modules it calls. One table, `_COMMANDS`, holds each
command's runner, help and options. A runner prints nothing: it returns
its payload, a function giving its text lines, and its exit code, and
`_run` is the one place that prints a result or a typed failure. An argv
led by a command and spelled as the package documents and sends it
(exact option strings, `--json` bare, one value after every other
option, ints in ASCII digits) is read straight off that table. Any
other spelling, such as an abbreviation, `--k=2`, `-1` or `-h`, goes to
that command's entry in the subparsers of the one argparse tree, built
from the same table; every argv not led by a command goes to the top of
that tree. argparse alone prints help, usage and errors, so their text
is unchanged. The tree is built and argparse imported only then, or for
a usage error found after parsing.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import types

from .errors import EnumerationTooLargeError, TriwaringError
from .fields import enum_guard, field_text, parse_field


class _UsageError(Exception):
    """Arguments the parser accepts but the subcommand cannot use."""


# One entry per option: (option string, dest, type, argparse action,
# required, default, choices, help). The type is int or str, None for the
# flag. Each command's options in `_COMMANDS` are such entries: argparse
# builds the command's parser from them, in their order, and
# `_parse_exact` reads the same entries.
_Q = ("--q", "q", str, "store", True, None, None,
      "field spec: P, P^M, or P^M/c0,c1,...,cm")
_JSON = ("--json", "json", None, "store_true", False, False, None, None)
_K = ("--k", "k", int, "store", True, None, None, None)
_N = ("--n", "n", int, "store", False, None, None, None)
_LAMBDA = ("--lambda", "lam", int, "store", True, None, None, None)
_MATRIX = ("--matrix", "matrix", str, "append", True, None, None, None)


def _parse_exact(name: str, tokens: list[str]):
    """The namespace argparse would give for command `name` and `tokens`,
    read off the option table, or None for any spelling outside these:
    every token an exact option string of the command, `--json` bare,
    every other option followed by one value that does not start with
    "-", an int value in ASCII digits, within the int digit limit
    (`sys.get_int_max_str_digits()`) and its choices, and every required
    option given. A repeated option keeps its last value;
    `--matrix` appends to a fresh list. On None the caller parses with
    argparse."""
    by_option, values, missing = {}, {"command": name}, set()
    for entry in _COMMANDS[name][2]:
        option, dest, _, _, required, default, _, _ = entry
        by_option[option] = entry
        values[dest] = default
        if required:
            missing.add(dest)
    tokens = iter(tokens)
    for token in tokens:
        entry = by_option.get(token)
        if entry is None:
            return None
        _, dest, kind, action, _, _, choices, _ = entry
        if action == "store_true":
            values[dest] = True
            continue
        value = next(tokens, "-")  # a missing value reads as an option
        if value.startswith("-"):
            return None
        if kind is int:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # past sys.get_int_max_str_digits()
                return None
        if choices is not None and value not in choices:
            return None
        if action == "append":
            values[dest] = [*(values[dest] or ()), value]
        else:
            values[dest] = value
        missing.discard(dest)
    return None if missing else types.SimpleNamespace(**values)


@functools.cache  # parse_args leaves a parser unchanged
def _build_parser():
    """The top-level argparse parser, and each command's parser by name."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="triwaring",
        description="sums of k-th powers of upper-triangular matrices "
                    "over finite fields")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option, dest, kind, action, required, default, choices, \
                option_help in options:
            if action == "store_true":
                p.add_argument(option, dest=dest, action=action,
                               help=option_help)
            else:
                p.add_argument(option, dest=dest, action=action, type=kind,
                               required=required, default=default,
                               choices=choices, help=option_help)
    return parser, sub.choices


def _cmd_field(F, args):
    payload = {"p": F.p, "m": F.m, "q": F.q, "modulus": list(F.modulus)}
    return payload, lambda: [
        f"field {field_text(F)}",
        f"p = {F.p}  m = {F.m}  q = {F.q}",
        f"modulus coefficients (low first): {list(F.modulus)}",
    ], 0


def _cmd_solve(F, args):
    from . import power_sums
    payload = power_sums.classification_report(F, args.lam, args.k)

    def text():
        yield f"x^{args.k} + y^{args.k} = {args.lam} over F_{F.q}:"
        yield f"  U size {payload['U_size']}"
        for c in payload["classes"]:
            yield (f"  class sig={tuple(c['sig'])} size={c['size']} "
                   f"rep={tuple(c['rep'])}")
        total = len(payload["classes"]) + (1 if payload["U_size"] else 0)
        yield f"  distinct-power classes (incl. U): {total}"
    return payload, text, 0


def _cmd_classify(F, args):
    from . import power_sums
    cl = power_sums.classified(F, args.lam, args.k)
    # every solution pair is listed: count them before listing any
    enum_guard(sum(len(xs) * len(ys)
                   for xs, ys in (*cl.fibers, *cl.u_fibers)))
    U = sorted((x, y) for xs, ys in cl.u_fibers for x in xs for y in ys)
    classes = [[(x, y) for x in xs for y in ys] for xs, ys in cl.fibers]
    payload = {  # json writes the (x, y) tuples as arrays
        "q": F.q, "k": args.k, "lambda": args.lam, "U": U,
        "classes": [{"sig": sig, "solutions": cls}
                    for sig, cls in zip(cl.signatures, classes)],
    }

    def text():
        yield f"x^{args.k} + y^{args.k} = {args.lam} over F_{F.q}:"
        yield f"  U = {U}"
        for sig, cls in zip(cl.signatures, classes):
            yield f"  V{sig} = {cls}"
    return payload, text, 0


def _single_matrix(F, args):
    from .tri_matrix import from_text
    if len(args.matrix) != 1:
        raise _UsageError(f"{args.command} takes exactly one --matrix")
    return from_text(F, args.matrix[0])


def _cmd_decompose(F, args):
    from . import decomposer
    C = _single_matrix(F, args)
    if args.parts == 2:
        res = decomposer.decompose_two(C, args.k)
    else:
        res = decomposer.decompose_three(C, args.k)
    payload = res.to_json()
    return payload, lambda: [
        f"target {payload['target']} = " +
        " + ".join(f"({p})^{args.k}" for p in payload["parts"]),
        f"verified: {res.verified}"], 0


def _cmd_root(F, args):
    from .tri_matrix import backsub_root, to_text
    C = _single_matrix(F, args)
    A = backsub_root(C, args.k)
    payload = {"matrix": to_text(C), "k": args.k, "root": to_text(A),
               "verified": True}
    return payload, lambda: [f"root: {payload['root']}", "verified: True"], 0


def _cmd_table(F, args):
    from . import canonical, decomposer
    from .tri_matrix import to_text
    n = args.n
    if n is None:
        if "," in args.row:
            # comma grammar (n >= 10) cannot infer n from single digits
            raise _UsageError("a comma-separated --row needs --n")
        labels = [int(ch) for ch in args.row if ch.isdecimal()]
        n = max(labels) if labels else 0
    pres = canonical.parse_presentation(args.row, n)
    C = pres.matrix(F)
    connected = canonical.is_indecomposable(C)
    res = decomposer.decompose_structured(C, args.k)
    payload = {"row": args.row, "n": n, "matrix": to_text(C),
               "connected": connected, "decomposition": res.to_json()}
    obstructed = isinstance(res, decomposer.Obstruction)

    def text():
        yield f"matrix {payload['matrix']}"
        yield f"connected: {connected}"
        if obstructed:
            yield f"obstruction after {res.explored} colorings"
        else:
            parts = payload["decomposition"]["parts"]
            yield "parts: " + " + ".join(f"({p})^{args.k}" for p in parts)
            yield f"verified: {res.verified}"
    return payload, text, 1 if obstructed else 0


def _cmd_oracle(F, args):
    from . import oracle
    from .tri_matrix import to_text
    if args.matrix:
        C = _single_matrix(F, args)
        if args.n is not None and args.n != C.n:
            raise _UsageError(
                f"--n {args.n} does not match the size {C.n} of --matrix")
        m = oracle.min_waring_number(F, C, args.k, args.cap)
        shown = m if m is not None else f">{args.cap}"
        payload = {"q": F.q, "n": C.n, "k": args.k, "cap": args.cap,
                   "matrix": to_text(C), "min_powers": shown}
        return payload, lambda: [f"min summand count: {shown}"], 0
    if args.n is None:
        raise _UsageError("oracle needs --n or --matrix")
    rep = oracle.waring_report(F, args.n, args.k, args.cap)

    def text():
        yield f"T_{args.n}(F_{F.q}), k = {args.k}, cap = {args.cap}:"
        for key, count in rep.histogram().items():
            yield f"  min {key}: {count} matrices"
        yield f"  max over field: {rep.max_over_field}"
    return rep.to_json(), text, 0


def _decimal_digits(n: int) -> int:
    """The decimal digits of n >= 1, counted without printing n."""
    digits = int(math.log10(n)) + 1  # off by at most one, either way
    return digits + (n >= 10 ** digits) - (n < 10 ** (digits - 1))


def _cmd_bound(F, args):
    from . import claims
    # the most digits an int prints with: 0, no limit, also on releases
    # that predate the limit
    limit = getattr(sys, "get_int_max_str_digits", int)()

    def refuse_past_limit(what: str, digits: int) -> None:
        if limit and digits > limit:
            raise EnumerationTooLargeError(
                f"{what} {digits} digits, past this interpreter's limit of "
                f"{limit} for printing an int (sys.get_int_max_str_digits()); "
                f"PYTHONINTMAXSTRDIGITS=0 lifts it")
    # q^(m-1) has floor(x) + 1 digits, x = (m-1) log10 q: refused before
    # the fold past rounding, and exactly after it within one of the limit
    x = (args.m - 1) * math.log10(F.q)
    if x > limit + 1:
        refuse_past_limit(f"q^(m-1) = {F.q}^{args.m - 1} has", int(x) + 1)
    rep = claims.lang_weil_check(F, args.k, args.m, [1] * args.m)
    refuse_past_limit("the exact counts have up to",
                      _decimal_digits(max(rep.N, rep.expected)))
    # strict JSON has no infinity: a bound past float range is null
    bound = rep.bound if math.isfinite(rep.bound) else None
    payload = {"q": rep.q, "k": rep.k, "m": rep.m, "N": rep.N,
               "expected": rep.expected, "bound": bound, "ok": rep.ok}
    return payload, lambda: [
        f"N = {rep.N}, q^(m-1) = {rep.expected}, "
        f"bound = {rep.bound:.3f}, ok = {rep.ok}"], 0 if rep.ok else 1


def _cmd_conjugate(F, args):
    from . import oracle
    from .tri_matrix import from_text, to_text
    if len(args.matrix) != 2:
        raise _UsageError("conjugate takes exactly two --matrix")
    A = from_text(F, args.matrix[0])
    B = from_text(F, args.matrix[1])
    w = oracle.bn_conjugate(F, A, B)
    payload = {"q": F.q, "a": to_text(A), "b": to_text(B),
               "conjugate": w is not None}
    if w is None:
        return payload, lambda: ["not conjugate"], 0
    payload["witness"] = to_text(w)
    return payload, lambda: [f"conjugate via {payload['witness']}"], 0


# name -> (runner, help in the top-level listing, options); runner(F, args)
# returns (payload, text, code) and prints nothing
_COMMANDS = {
    "field": (_cmd_field, "describe a field", (_Q, _JSON)),
    "solve": (_cmd_solve, "classify solutions of x^k + y^k = lambda",
              (_Q, _JSON, _K, _LAMBDA)),
    "classify": (_cmd_classify,
                 "full solution partition of x^k + y^k = lambda",
                 (_Q, _JSON, _K, _LAMBDA)),
    "decompose": (_cmd_decompose,
                  "write a matrix as a sum of 2 or 3 k-th powers",
                  (_Q, _JSON, _K,
                   ("--matrix", "matrix", str, "append", True, None, None,
                    'rows "r0;r1;..." with comma-separated encodings'),
                   ("--parts", "parts", int, "store", True, None, (2, 3),
                    None))),
    "root": (_cmd_root, "extract a k-th root of a triangular matrix",
             (_Q, _JSON, _K, _MATRIX)),
    "table": (_cmd_table, "parse a presentation row and decompose it",
              (_Q, _JSON, _K,
               ("--row", "row", str, "store", True, None, None, None), _N)),
    "oracle": (_cmd_oracle, "brute-force minimum summand counts",
               (_Q, _JSON, _K, _N,
                ("--matrix", "matrix", str, "append", False, None, None,
                 None),
                ("--cap", "cap", int, "store", False, 4, None, None))),
    "bound": (_cmd_bound,
              "empirical point-count bound for diagonal equations",
              (_Q, _JSON, _K,
               ("--m", "m", int, "store", True, None, None, None))),
    "conjugate": (_cmd_conjugate, "test conjugacy under invertible "
                                  "triangular matrices (pass --matrix twice)",
                  (_Q, _JSON, _MATRIX)),
}


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader left (`| head`): as the Python docs advise, stdout
        # goes to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        args = _parse_exact(argv[0], argv[1:])
        if args is None:
            # what the subparsers action would do after a top-level pass
            args = _build_parser()[1][argv[0]].parse_args(
                argv[1:], types.SimpleNamespace(command=argv[0]))
    else:  # no command, -h, an unknown command or an option before one
        args = _build_parser()[0].parse_args(argv)
    out = sys.stdout
    try:
        for name in ("k", "m", "n", "cap"):
            value = getattr(args, name, None)
            if value is not None and value < 1:
                raise _UsageError(f"--{name} must be at least 1")
        F = parse_field(args.q)
        payload, text, code = _COMMANDS[args.command][0](F, args)
    except _UsageError as err:  # the named command's usage, and exit 2
        _build_parser()[1][args.command].error(str(err))
    except TriwaringError as err:
        failure = err.to_json()
        payload = {"verified": False, "failure": failure}
        if args.command == "decompose":
            payload = {"target": args.matrix[0], "k": args.k,
                       "parts": [], "assignment": [], **payload}

        def text():
            yield f"{failure['type']}: {failure['message']}"
        code, out = 1, sys.stderr
    if args.json:  # text() is called only here, so --json formats no text
        print(json.dumps(payload))
    else:
        for line in text():
            print(line, file=out)
    return code


if __name__ == "__main__":
    sys.exit(main())
