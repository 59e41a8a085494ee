#!/usr/bin/env python3
"""Survey minimum summand counts over whole small algebras and compare the
constructive decomposers against the brute-force ground truth.

For each (q, n, k) the oracle computes the exact minimum number of k-th
powers per matrix; the survey then reports the histogram and how often the
two- and three-power algorithms succeed. It fails (exit 1) if either
succeeds where the oracle proves the minimum exceeds two or three, and it
reports how many matrices the oracle puts at two (three) or fewer powers
that the two-power (three-power) algorithm misses. A field that cannot be
built, or of characteristic 2, is refused with one line and exit status 2
before any survey runs."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from triwaring.decomposer import decompose_three, decompose_two, require_odd
from triwaring.errors import InsufficientClassesError, TriwaringError
from triwaring.fields import parse_field
from triwaring.oracle import iter_matrices, waring_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", nargs="+", default=["3", "5", "7", "13"],
                    help="field specs: P, P^M, or P^M/c0,c1,...,cm")
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--k", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--cap", type=int, default=4)
    args = ap.parse_args()

    fields = []
    for spec in args.q:
        try:
            F = parse_field(spec)
            require_odd(F)
        except TriwaringError as err:  # one line, exit 2, as the CLI's usage errors
            ap.exit(2, f"{ap.prog}: field {spec}: {err}\n")
        fields.append(F)

    for F in fields:
        for k in args.k:
            rep = waring_report(F, args.n, k, args.cap)

            def above(C, r):
                m = rep.per_matrix_min[C]
                return m > r if m is not None else rep.cap >= r

            two_ok = three_ok = two_missed = three_missed = 0
            disagreements = 0
            for C in iter_matrices(F, args.n):
                try:
                    decompose_two(C, k)
                    two_ok += 1
                    disagreements += above(C, 2)
                except InsufficientClassesError:
                    two_missed += not above(C, 2)
                try:
                    decompose_three(C, k)
                    three_ok += 1
                    disagreements += above(C, 3)
                except InsufficientClassesError:
                    three_missed += not above(C, 3)
            total = F.q ** (args.n * (args.n + 1) // 2)
            print(f"q={F.q:<3} n={args.n} k={k}: histogram {rep.histogram()}  "
                  f"two-power algorithm {two_ok}/{total} "
                  f"(misses {two_missed} the oracle puts at <= 2), "
                  f"three-power {three_ok}/{total} "
                  f"(misses {three_missed} the oracle puts at <= 3), "
                  f"oracle disagreements {disagreements}")
            if disagreements:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
