"""Golden CLI corpus: one SHA-256 per subcommand over the exact --json
output (and exit status) of a seeded corpus of invocations.

The digests were recorded from the code before the solution records were
merged into one; any later change that alters a byte of CLI output, a part,
an assignment row or a typed error's fields changes a digest. To see what
changed, print `golden_transcript(command)` on both trees and diff them.
"""

import contextlib
import hashlib
import io
import random

from triwaring.cli import main

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
}

DECOMPOSE_FIELDS = ("3^2", "13", "5^2", "3^3")
MATRICES_PER_FIELD = 40
# beyond the catalogue: an entry-free presentation (one solution serves
# every position) and the 7x7 obstruction
EXTRA_TABLE_ROWS = [("1|2|3", 3), ("1267|345:13|46", 7)]


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
    if command in ("solve", "classify"):
        return [[command, "--q", spec, "--k", str(k), "--lambda", str(lam)]
                for spec, q in (("13", 13), ("5^2", 25))
                for k in (2, 3) for lam in range(q)]
    if command == "table":
        return [["table", "--q", "13", "--k", str(k), "--row", row,
                 "--n", str(n)]
                for row, n in [*ROWS, *EXTRA_TABLE_ROWS] for k in (2, 3, 12)]
    raise ValueError(command)


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
