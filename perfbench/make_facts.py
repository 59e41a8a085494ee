"""Regenerate perfbench/facts.json: whole-space minimum summand counts.

For every small algebra T_n(F_q) and exponent k the oracle workload
queries, the minimum number of k-th powers summing to each matrix is
computed three ways and must agree everywhere:

  1. the benchmark's own reference arithmetic (refarith), by layered
     sumsets over the exhaustively enumerated power image;
  2. triwaring.oracle.waring_report;
  3. triwaring.oracle.min_waring_number, queried matrix by matrix.

The table is written only when all three agree. Run from the repository
root (takes several minutes):

    python3 perfbench/make_facts.py
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import refarith as ra  # noqa: E402

CAP = 4
# (p, m, n, k): the algebras the oracle-exhaustive workload queries
ALGEBRAS = [(p, m, n, k)
            for (p, m, n) in [(5, 1, 2), (7, 1, 2), (3, 2, 2), (11, 1, 2),
                              (13, 1, 2), (3, 1, 3)]
            for k in (2, 3)]


def reference_mins(F: ra.RefField, n: int, k: int, cap: int) -> list[int]:
    """Minimum summand count per matrix in product order (first packed
    entry most significant); 0 stands for "more than cap"."""
    width = n * (n + 1) // 2
    space = list(itertools.product(range(F.q), repeat=width))
    powers = {ra.pack(ra.mat_pow(F, ra.unpack(n, M), k)) for M in space}
    best = {P: 1 for P in powers}
    layer = set(powers)
    for r in range(2, cap + 1):
        nxt = {tuple(F.add(a, b) for a, b in zip(S, P))
               for S in layer for P in powers}
        for M in nxt:
            best.setdefault(M, r)
        if nxt == layer:
            break
        layer = nxt
    return [best.get(M, 0) for M in space]


def main() -> int:
    from triwaring import UTMatrix, make_field
    from triwaring.oracle import min_waring_number, waring_report

    facts = {}
    for p, m, n, k in ALGEBRAS:
        t0 = time.perf_counter()
        modulus = ra.irreducible_moduli(p, m)[0] if m > 1 else (0, 1)
        F = ra.RefField(p, m, modulus)
        ref = reference_mins(F, n, k, CAP)
        G = make_field(p, m, modulus)
        width = n * (n + 1) // 2
        space = [UTMatrix(G, n, e)
                 for e in itertools.product(range(G.q), repeat=width)]
        report = waring_report(G, n, k, CAP)
        for M, want in zip(space, ref):
            got_report = report.per_matrix_min[M] or 0
            got_query = min_waring_number(G, M, k, CAP) or 0
            if not want == got_report == got_query:
                print(f"disagreement on T_{n}(F_{F.q}) k={k} at {M}: "
                      f"reference {want}, waring_report {got_report}, "
                      f"min_waring_number {got_query}", file=sys.stderr)
                return 1
        facts[f"{F.q}/{n}/{k}"] = {
            "p": p, "m": m, "n": n, "k": k, "cap": CAP,
            "modulus": list(modulus),
            "mins": "".join(map(str, ref)),
        }
        print(f"T_{n}(F_{F.q}) k={k}: {len(ref)} matrices agree "
              f"({time.perf_counter() - t0:.1f} s)", flush=True)
    with open(os.path.join(HERE, "facts.json"), "w") as fh:
        json.dump({"order": "itertools.product over packed entries, first "
                            "entry most significant; 0 means more than cap",
                   "tables": facts}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
