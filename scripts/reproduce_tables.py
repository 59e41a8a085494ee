#!/usr/bin/env python3
"""Reproduce the indecomposable-presentation decompositions (sizes 3..6).

For every presentation row in the catalogue, parse it, confirm graph
connectivity, run the structured two-power search and print the verified
summands together with the diagonal pattern. A typed failure (too few
solution classes at small q) is printed and counted, and any failure makes
the exit status 1; a field that cannot be built, or of characteristic 2, is
refused with one line and exit status 2.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from triwaring.canonical import is_indecomposable, parse_presentation
from triwaring.decomposer import Obstruction, decompose_structured, require_odd
from triwaring.errors import TriwaringError
from triwaring.fields import parse_field
from triwaring.tri_matrix import to_text

ROWS = [
    ("123", 3), ("1234", 4), ("12|34:13", 4),
    ("12345", 5), ("12|345:13", 5), ("123|45:24", 5), ("145|23:24", 5),
    ("125|34:13", 5),
    ("123456", 6), ("12|3456:13", 6), ("123|456:14", 6), ("1456|23:24", 6),
    ("123|456:24", 6), ("124|356:13", 6), ("14|23|56:15|25", 6),
    ("1256|34:13", 6), ("12|34|56:13|35", 6), ("134|256:35", 6),
    ("156|234:35", 6), ("1234|56:35", 6), ("12|36|45:13|14", 6),
    ("145|236:24", 6), ("1236|45:34", 6), ("126|345:13", 6),
    ("1256|34:13|35", 6),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", default="13", help="field spec (default 13)")
    ap.add_argument("--k", type=int, nargs="+", default=[2, 3])
    args = ap.parse_args()
    try:
        F = parse_field(args.q)
        require_odd(F)
    except TriwaringError as err:  # one line, exit 2, as the CLI's usage errors
        ap.exit(2, f"{ap.prog}: field {args.q}: {err}\n")

    failures = 0
    for row, n in ROWS:
        C = parse_presentation(row, n).matrix(F)
        connected = is_indecomposable(C)
        print(f"{row:<18} n={n}  connected={connected}")
        for k in args.k:
            try:
                res = decompose_structured(C, k)
            except TriwaringError as err:  # e.g. too few classes at small q
                print(f"    k={k}: {type(err).__name__}: {err}")
                failures += 1
                continue
            if isinstance(res, Obstruction):
                print(f"    k={k}: OBSTRUCTION after {res.explored} colorings")
                failures += 1
                continue
            coloring = "".join(str(c) for c in res.plan.coloring)
            a, b = res.parts
            print(f"    k={k}: coloring {coloring}  "
                  f"A={to_text(a)}  B={to_text(b)}  verified={res.verified}")
            if not res.verified:
                failures += 1
    print(f"\n{len(ROWS)} rows, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
