#!/usr/bin/env python3
"""Sweep the empirical point-count bound for diagonal equations
x_1^k + ... + x_m^k = 1 over odd prime powers and print the margin per
instance. The bound k^(2m) sqrt(q^(m-1)) is far from tight at desk scale;
the sweep shows the actual deviation |N - q^(m-1)|. Any violation makes
the exit status 1; a --kmax or an arity below 1 is refused with one line and
exit status 2."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from triwaring.fields import make_field
from triwaring.claims import lang_weil_check

ODD_PRIME_POWERS = [
    (3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1), (19, 1),
    (23, 1), (5, 2), (3, 3), (29, 1), (31, 1),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=5)
    ap.add_argument("--arities", type=int, nargs="+", default=[2, 3])
    args = ap.parse_args()
    for option, values in (("--kmax", [args.kmax]), ("--arities", args.arities)):
        for value in values:
            if value < 1:
                ap.exit(2, f"{ap.prog}: {option} {value}: must be at least 1\n")

    print(f"{'q':>5} {'k':>3} {'m':>3} {'N':>8} {'q^(m-1)':>9} "
          f"{'|dev|':>7} {'bound':>10} ok")
    violations = 0
    for p, m_ext in ODD_PRIME_POWERS:
        F = make_field(p, m_ext)
        for k in range(1, args.kmax + 1):
            for m in args.arities:
                rep = lang_weil_check(F, k, m, [1] * m)
                dev = abs(rep.N - rep.expected)
                print(f"{rep.q:>5} {rep.k:>3} {rep.m:>3} {rep.N:>8} "
                      f"{rep.expected:>9} {dev:>7} {rep.bound:>10.1f} {rep.ok}")
                if not rep.ok:
                    violations += 1
    print(f"\nviolations: {violations}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
