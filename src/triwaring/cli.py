"""Command-line surface.

Every subcommand validates input, dispatches to the library and prints
either aligned text or (with --json) a stable machine-readable object.
Exit codes: 0 success, 1 typed domain failure (legitimate at small q),
2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import canonical, decomposer, oracle, power_sums, tri_matrix
from .errors import TriwaringError
from .fields import field_text, parse_field
from .tri_matrix import from_text, to_text


class _UsageError(Exception):
    """Arguments the parser accepts but the subcommand cannot use."""


@functools.cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triwaring",
        description="sums of k-th powers of upper-triangular matrices "
                    "over finite fields")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--q", required=True,
                       help="field spec: P, P^M, or P^M/c0,c1,...,cm")
        p.add_argument("--json", action="store_true")
        return p

    p = add("field", "describe a field")

    p = add("solve", "classify solutions of x^k + y^k = lambda")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)

    p = add("classify", "full solution partition of x^k + y^k = lambda")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)

    p = add("decompose", "write a matrix as a sum of 2 or 3 k-th powers")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--matrix", action="append", required=True,
                   help='rows "r0;r1;..." with comma-separated encodings')
    p.add_argument("--parts", type=int, choices=(2, 3), required=True)

    p = add("root", "extract a k-th root of a triangular matrix")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--matrix", action="append", required=True)

    p = add("table", "parse a presentation row and decompose it")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--row", required=True)
    p.add_argument("--n", type=int)

    p = add("oracle", "brute-force minimum summand counts")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--matrix", action="append")
    p.add_argument("--cap", type=int, default=4)

    p = add("bound", "empirical point-count bound for diagonal equations")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = add("conjugate", "test conjugacy under invertible triangular "
                         "matrices (pass --matrix twice)")
    p.add_argument("--matrix", action="append", required=True)
    return parser


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)


def _cmd_field(F, args):
    payload = {"p": F.p, "m": F.m, "q": F.q, "modulus": list(F.modulus)}
    _emit(payload, args.json, [
        f"field {field_text(F)}",
        f"p = {F.p}  m = {F.m}  q = {F.q}",
        f"modulus coefficients (low first): {list(F.modulus)}",
    ])
    return 0


def _cmd_solve(F, args):
    payload = power_sums.classification_report(F, args.lam, args.k)
    lines = [f"x^{args.k} + y^{args.k} = {args.lam} over F_{F.q}:",
             f"  U size {payload['U_size']}"]
    for c in payload["classes"]:
        lines.append(f"  class sig={tuple(c['sig'])} size={c['size']} "
                     f"rep={tuple(c['rep'])}")
    total = len(payload["classes"]) + (1 if payload["U_size"] else 0)
    lines.append(f"  distinct-power classes (incl. U): {total}")
    _emit(payload, args.json, lines)
    return 0


def _cmd_classify(F, args):
    cl = power_sums.classified(F, args.lam, args.k)
    U = sorted((x, y) for xs, ys in cl.u_fibers for x in xs for y in ys)
    classes = [[(x, y) for x in xs for y in ys] for xs, ys in cl.fibers]
    payload = {  # json writes the (x, y) tuples as arrays
        "q": F.q, "k": args.k, "lambda": args.lam, "U": U,
        "classes": [{"sig": sig, "solutions": cls}
                    for sig, cls in zip(cl.signatures, classes)],
    }
    lines = [f"x^{args.k} + y^{args.k} = {args.lam} over F_{F.q}:",
             f"  U = {U}"]
    for sig, cls in zip(cl.signatures, classes):
        lines.append(f"  V{sig} = {cls}")
    _emit(payload, args.json, lines)
    return 0


def _single_matrix(F, args):
    if len(args.matrix) != 1:
        raise _UsageError(f"{args.command} takes exactly one --matrix")
    return from_text(F, args.matrix[0])


def _cmd_decompose(F, args):
    C = _single_matrix(F, args)
    if args.parts == 2:
        res = decomposer.decompose_two(C, args.k)
    else:
        res = decomposer.decompose_three(C, args.k)
    payload = res.to_json()
    lines = [f"target {to_text(C)} = " +
             " + ".join(f"({to_text(p)})^{args.k}" for p in res.parts),
             f"verified: {res.verified}"]
    _emit(payload, args.json, lines)
    return 0


def _cmd_root(F, args):
    C = _single_matrix(F, args)
    d = C.diagonal()
    if len(set(d)) == len(d):
        A = tri_matrix.kth_root_distinct_diag(C, args.k)
    else:
        A = tri_matrix.kth_root_sparse(C, args.k)
    verified = tri_matrix.mat_pow(A, args.k) == C
    payload = {"matrix": to_text(C), "k": args.k, "root": to_text(A),
               "verified": verified}
    _emit(payload, args.json,
          [f"root: {to_text(A)}", f"verified: {verified}"])
    return 0


def _cmd_table(F, args):
    n = args.n
    if n is None:
        if "," in args.row:
            # comma grammar (n >= 10) cannot infer n from single digits
            raise _UsageError("a comma-separated --row needs --n")
        labels = [int(ch) for ch in args.row if ch.isdigit()]
        n = max(labels) if labels else 0
    pres = canonical.parse_presentation(args.row, n)
    C = pres.matrix(F)
    connected = canonical.is_indecomposable(C)
    res = decomposer.decompose_structured(C, args.k)
    if isinstance(res, decomposer.Obstruction):
        payload = {"row": args.row, "n": n, "matrix": to_text(C),
                   "connected": connected, "decomposition": res.to_json()}
        _emit(payload, args.json,
              [f"matrix {to_text(C)}", f"connected: {connected}",
               f"obstruction after {res.explored} colorings"])
        return 1
    payload = {"row": args.row, "n": n, "matrix": to_text(C),
               "connected": connected, "decomposition": res.to_json()}
    lines = [f"matrix {to_text(C)}",
             f"connected: {connected}",
             f"parts: " + " + ".join(f"({to_text(p)})^{args.k}"
                                     for p in res.parts),
             f"verified: {res.verified}"]
    _emit(payload, args.json, lines)
    return 0


def _cmd_oracle(F, args):
    if args.cap < 1:
        raise _UsageError("--cap must be at least 1")
    if args.matrix:
        C = _single_matrix(F, args)
        if args.n is not None and args.n != C.n:
            raise _UsageError(
                f"--n {args.n} does not match the size {C.n} of --matrix")
        m = oracle.min_waring_number(F, C, args.k, args.cap)
        shown = m if m is not None else f">{args.cap}"
        payload = {"q": F.q, "n": C.n, "k": args.k, "cap": args.cap,
                   "matrix": to_text(C),
                   "min_powers": m if m is not None else f">{args.cap}"}
        _emit(payload, args.json, [f"min summand count: {shown}"])
        return 0
    if args.n is None:
        raise _UsageError("oracle needs --n or --matrix")
    rep = oracle.waring_report(F, args.n, args.k, args.cap)
    payload = rep.to_json()
    lines = [f"T_{args.n}(F_{F.q}), k = {args.k}, cap = {args.cap}:"]
    for key, count in rep.histogram().items():
        lines.append(f"  min {key}: {count} matrices")
    lines.append(f"  max over field: {rep.max_over_field}")
    _emit(payload, args.json, lines)
    return 0


def _cmd_bound(F, args):
    rep = power_sums.lang_weil_check(F, args.k, args.m, [1] * args.m)
    payload = {"q": rep.q, "k": rep.k, "m": rep.m, "N": rep.N,
               "expected": rep.expected, "bound": rep.bound, "ok": rep.ok}
    _emit(payload, args.json, [
        f"N = {rep.N}, q^(m-1) = {rep.expected}, "
        f"bound = {rep.bound:.3f}, ok = {rep.ok}"])
    return 0 if rep.ok else 1


def _cmd_conjugate(F, args):
    if len(args.matrix) != 2:
        raise _UsageError("conjugate takes exactly two --matrix")
    A = from_text(F, args.matrix[0])
    B = from_text(F, args.matrix[1])
    w = oracle.bn_conjugate(F, A, B)
    payload = {"q": F.q, "a": to_text(A), "b": to_text(B),
               "conjugate": w is not None}
    if w is not None:
        payload["witness"] = to_text(w)
        _emit(payload, args.json, [f"conjugate via {to_text(w)}"])
    else:
        _emit(payload, args.json, ["not conjugate"])
    return 0


_COMMANDS = {
    "field": _cmd_field,
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "decompose": _cmd_decompose,
    "root": _cmd_root,
    "table": _cmd_table,
    "oracle": _cmd_oracle,
    "bound": _cmd_bound,
    "conjugate": _cmd_conjugate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    for name in ("k", "m", "n"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            parser.error(f"--{name} must be at least 1")
    try:
        F = parse_field(args.q)
        return _COMMANDS[args.command](F, args)
    except _UsageError as err:
        parser.error(str(err))  # prints usage and the message, exits 2
    except TriwaringError as err:
        failure = err.to_json()
        if getattr(args, "json", False):
            payload = {"verified": False, "failure": failure}
            if args.command == "decompose" and getattr(args, "matrix", None):
                payload = {"target": args.matrix[0], "k": args.k,
                           "parts": [], "assignment": [],
                           "verified": False, "failure": failure}
            print(json.dumps(payload))
        else:
            print(f"{failure['type']}: {failure['message']}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
