"""Golden CLI corpus: one SHA-256 per subcommand over the exact --json
output (and exit status) of a seeded corpus of invocations.

The digests were recorded from the code before the solution records were
merged into one (the oracle's, before its sumset layers were deleted;
decompose-deep's, before selection took the diagonal as a target list;
conjugate's, before B_n conjugacy found its kernel in one elimination;
root's, before back-substitution walked the square-and-multiply chain);
any later change that alters a byte of CLI output, a part, an assignment
row or a typed error's fields changes a digest. To see what changed,
print `golden_transcript(command)` on both trees and diff them.
"""

import contextlib
import hashlib
import io
import random

from triwaring.cli import main
from triwaring.fields import parse_field
from triwaring.tri_matrix import from_text, mat_inv, mat_mul, mat_pow, to_text

from scripts.reproduce_tables import ROWS

DIGESTS = {
    "decompose":
        "5bf29ef0bf38ec9720aafd75c03f15b6d3e768563aa8ea225b2a5f2002e0248c",
    "solve":
        "811052334aa571f9492068013fa196c7add99e14d8e42ecdb6b1b00b7f97cc84",
    "classify":
        "8a3db81ac17d31cd1198d86772294d8568a848cb0662c1632683cb0cb8455fc7",
    "table":
        "a88177ecad53e372c5465aaaec4b45d33d3465328eba888c1e8f2f650c5e2368",
    "oracle":
        "00a1e3e62ba698bb3fef9def652bafd5839b9ea7521ab60dd1cb6ae853b62714",
    "decompose-deep":
        "b57bdae0e9896506516b010195526cb81ee40c0a5b3b0c0a48ce8b4eb46343e5",
    "conjugate":
        "2597d095775bdd6c3cc33e0b0853fde17aba782712b5e73d824a229e8f5fc71a",
    "root":
        "d0259144164e7f92f5fdc2456ba3ad9c498d15b3f9c414cdc4b1407ac02d6e79",
}

DECOMPOSE_FIELDS = ("3^2", "13", "5^2", "3^3")
MATRICES_PER_FIELD = 40
# beyond the catalogue: an entry-free presentation (one solution serves
# every position) and the 7x7 obstruction
EXTRA_TABLE_ROWS = [("1|2|3", 3), ("1267|345:13|46", 7)]
# whole-algebra reports: T_1 and T_2 over each field, and T_3(F_3)
ORACLE_ALGEBRAS = [(spec, n) for spec in ("2", "3", "2^2", "5", "7", "3^2")
                   for n in (1, 2)] + [("3", 3)]
# single-matrix queries: (q, largest n) per field; T_3(F_9) would
# enumerate 9^6 matrices
ORACLE_QUERY_SIZES = {"5": (5, 3), "3^2": (9, 2)}
ORACLE_QUERIES = 20
# the sub-threshold cells of the decompose-warm benchmark, where selection
# backtracks deep and the shift route retries or falls back:
# (q, sizes, k, parts)
DEEP_CELLS = [(13, (6, 7, 8), 2, (2, 3)), (31, (9, 10, 11, 12), 3, (2, 3)),
              (31, (13, 14), 2, (3,))]
DEEP_PER_CELL = 8
# conjugacy queries: T_1 to T_3 over each field, and T_4(F_3)
CONJUGATE_ALGEBRAS = [(spec, n) for spec in ("2", "3", "2^2", "5", "3^2")
                      for n in (1, 2, 3)] + [("3", 4)]
CONJUGATE_PER_ALGEBRA = 8
# root extraction: T_1 to T_6 over each field, k in {1, 2, 3, p, q-1, q+1}
ROOT_FIELDS = ("2", "3", "2^2", "5", "3^2", "13")


def random_matrix_text(rng: random.Random, q: int, n: int) -> str:
    return ";".join(",".join(str(rng.randrange(q)) for _ in range(i, n))
                    for i in range(n))


def corpus(command: str) -> list[list[str]]:
    """The argument lists of one subcommand, in a fixed order."""
    if command == "decompose":
        rng = random.Random(12)
        out = []
        for spec in DECOMPOSE_FIELDS:
            p, _, m = spec.partition("^")
            q = int(p) ** int(m or 1)
            for _ in range(MATRICES_PER_FIELD):
                text = random_matrix_text(rng, q, rng.randint(1, 5))
                for k in (2, 3):
                    for parts in (2, 3):
                        out.append(["decompose", "--q", spec, "--k", str(k),
                                    "--matrix", text, "--parts", str(parts)])
        return out
    if command == "decompose-deep":
        rng = random.Random(16)
        return [["decompose", "--q", str(q), "--k", str(k),
                 "--matrix", random_matrix_text(rng, q, n),
                 "--parts", str(parts)]
                for q, sizes, k, parts_list in DEEP_CELLS for n in sizes
                for parts in parts_list for _ in range(DEEP_PER_CELL)]
    if command in ("solve", "classify"):
        return [[command, "--q", spec, "--k", str(k), "--lambda", str(lam)]
                for spec, q in (("13", 13), ("5^2", 25))
                for k in (2, 3) for lam in range(q)]
    if command == "table":
        return [["table", "--q", "13", "--k", str(k), "--row", row,
                 "--n", str(n)]
                for row, n in [*ROWS, *EXTRA_TABLE_ROWS] for k in (2, 3, 12)]
    if command == "oracle":
        out = [["oracle", "--q", spec, "--k", str(k), "--n", str(n),
                "--cap", str(cap)]
               for spec, n in ORACLE_ALGEBRAS for k in (1, 2, 3, 4)
               for cap in (2, 4)]
        rng = random.Random(14)
        for _ in range(ORACLE_QUERIES):
            spec = rng.choice(sorted(ORACLE_QUERY_SIZES))
            q, largest = ORACLE_QUERY_SIZES[spec]
            text = random_matrix_text(rng, q, rng.randint(1, largest))
            out.append(["oracle", "--q", spec, "--k", str(rng.randint(1, 4)),
                        "--matrix", text, "--cap", str(rng.choice((2, 4)))])
        return out
    if command == "conjugate":
        rng = random.Random(19)
        return [["conjugate", "--q", spec, "--matrix", a, "--matrix", b]
                for spec, n in CONJUGATE_ALGEBRAS
                for t in range(CONJUGATE_PER_ALGEBRA)
                for a, b in [conjugate_pair(rng, spec, n, t % 4)]]
    if command == "root":
        rng = random.Random(20)
        return [["root", "--q", spec, "--k", str(k), "--matrix", text]
                for spec in ROOT_FIELDS for n in range(1, 7)
                for k in root_exponents(spec)
                for text in root_targets(rng, spec, n, k)]
    raise ValueError(command)


def root_exponents(spec: str) -> list[int]:
    F = parse_field(spec)
    return sorted({1, 2, 3, F.p, F.q - 1, F.q + 1})


def root_targets(rng: random.Random, spec: str, n: int, k: int):
    """Matrix texts for `root`: the k-th power of a random matrix, a random
    matrix (most diagonals are no k-th powers), the k-th power of a random
    matrix with a constant diagonal (a vanishing divisor where k is 0 in
    F_q) and, for n >= 3, E_1n (a square, but not of the least roots)."""
    F = parse_field(spec)
    A = from_text(F, random_matrix_text(rng, F.q, n))
    lam = rng.randrange(F.q)
    B = A.with_entries({(i, i): lam for i in range(1, n + 1)})
    out = [to_text(mat_pow(A, k)), random_matrix_text(rng, F.q, n),
           to_text(mat_pow(B, k))]
    if n >= 3:
        out.append(";".join(",".join("1" if (i, j) == (0, n - 1) else "0"
                                     for j in range(i, n))
                            for i in range(n)))
    return out


def conjugate_pair(rng: random.Random, spec: str, n: int, kind: int):
    """A conjugate pair (B = P^-1 A P, P invertible), an identical pair, a
    same-diagonal pair or two independent matrices, for kind 0, 1, 2, 3,
    as matrix texts. The shared diagonal repeats two values, so some
    same-diagonal pairs are not conjugate."""
    F = parse_field(spec)
    A = random_matrix_text(rng, F.q, n)
    if kind == 1:
        return A, A
    if kind == 3:
        return A, random_matrix_text(rng, F.q, n)
    if kind == 0:
        P = from_text(F, random_matrix_text(rng, F.q, n)).with_entries(
            {(i, i): rng.randrange(1, F.q) for i in range(1, n + 1)})
        M = from_text(F, A)
        return A, to_text(mat_mul(mat_mul(mat_inv(P), M), P))
    two = rng.sample(range(F.q), 2)
    d = {(i, i): rng.choice(two) for i in range(1, n + 1)}
    A, B = (from_text(F, random_matrix_text(rng, F.q, n)).with_entries(d)
            for _ in range(2))
    return to_text(A), to_text(B)


def golden_transcript(command: str) -> str:
    """One line per invocation: the arguments, the exit status and the
    JSON printed."""
    lines = []
    for argv in corpus(command):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([*argv, "--json"])
        lines.append(f"{' '.join(argv)}\t{code}\t{buf.getvalue()}")
    return "".join(lines)


def test_golden_cli_corpus():
    statuses = {}
    for command, digest in DIGESTS.items():
        transcript = golden_transcript(command)
        statuses[command] = {line.split("\t")[1]
                             for line in transcript.splitlines()}
        got = hashlib.sha256(transcript.encode()).hexdigest()
        assert got == digest, command
    # typed failures (exit 1) are part of the corpus, not just successes
    assert statuses["decompose"] == {"0", "1"}
    assert statuses["table"] == {"0", "1"}
    assert statuses["decompose-deep"] == {"0", "1"}
    assert statuses["root"] == {"0", "1"}
