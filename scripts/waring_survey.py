#!/usr/bin/env python3
"""Survey minimum summand counts over whole small algebras and compare the
constructive decomposers against the brute-force ground truth.

For each (q, n, k) the oracle computes the exact minimum number of k-th
powers per matrix; the survey then reports the histogram and how often the
two- and three-power algorithms succeed. It fails (exit 1) if either
succeeds where the oracle proves the minimum exceeds two or three, and it
reports how many matrices the oracle puts at two (three) or fewer powers
that the two-power (three-power) algorithm misses. A field that cannot be
built, an --n or --k below 1, or a --cap below 3 is refused with one line
and exit status 2 before any survey runs.

Each decomposer runs once per diagonal, not once per matrix: selection
reads only the diagonal, and the chosen roots keep every back-substitution
divisor nonzero, so the strict part cannot turn a success into a failure
or back (tests/test_decomposer.py,
test_decomposers_decide_by_the_diagonal_alone)."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from triwaring.decomposer import decompose_three, decompose_two
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
    # the survey asks the oracle about two and three powers, and a cap
    # below 3 leaves some of those answers undecided
    for option, values, least in (("--n", [args.n], 1), ("--k", args.k, 1),
                                  ("--cap", [args.cap], 3)):
        for value in values:
            if value < least:
                ap.exit(2, f"{ap.prog}: {option} {value}: "
                           f"must be at least {least}\n")

    fields = []
    for spec in args.q:
        try:
            fields.append(parse_field(spec))
        except TriwaringError as err:  # one line, exit 2, as the CLI's usage errors
            ap.exit(2, f"{ap.prog}: field {spec}: {err}\n")

    for F in fields:
        for k in args.k:
            rep = waring_report(F, args.n, k, args.cap)

            def above(C, r):
                m = rep.per_matrix_min[C]
                return m is None or m > r

            succeeded = {}  # (decomposer, diagonal) -> success

            def succeeds(decompose, C):
                key = (decompose, C.diagonal())
                if key not in succeeded:
                    try:
                        decompose(C, k)
                        succeeded[key] = True
                    except InsufficientClassesError:
                        succeeded[key] = False
                return succeeded[key]

            two_ok = three_ok = two_missed = three_missed = 0
            disagreements = 0
            for C in iter_matrices(F, args.n):
                if succeeds(decompose_two, C):
                    two_ok += 1
                    disagreements += above(C, 2)
                else:
                    two_missed += not above(C, 2)
                if succeeds(decompose_three, C):
                    three_ok += 1
                    disagreements += above(C, 3)
                else:
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
