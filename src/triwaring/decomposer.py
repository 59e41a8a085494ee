"""Writing C in T_n(F_q) as a sum of two or three k-th powers.

Two powers (-1 a k-th power in the sufficiency regime; in characteristic
2, -1 = 1 always is): select one solution of x^k + y^k = c_ii per diagonal
position, with all x-powers and all y-powers pairwise distinct, put the
strict upper part of C on the x-side and extract its root by
back-substitution from the x's (distinct powers keep every divisor
nonzero); the y-side is diagonal.

Three powers, two routes, each run once. First the paper's shift: each
eigenvalue moves once by a k-th power z^k so the two-power machinery runs
on nonzero, pairwise distinct targets, and one selection runs on them.
Small fields can run out of shifts or solution classes (the theorem only
promises q > 4 n^2 k^16); then the value route picks the lex-least root
elements a_i with c_ii - a_i^k a sum of two k-th powers and all
pdq(a_i, a_j) nonzero (`power_sums.diagonal_roots` on the
`diagonal_options` lists, which the oracle's diagonal verdict reads).

Structured (constant diagonal): the diagonal coloring and the entry split
are the first proper 2-colorings of the entry graph and the chain graph.

Failure is typed, never silent, and never a proof that no decomposition
exists.
"""

from __future__ import annotations

import itertools

from .errors import (
    InsufficientClassesError,
    NoAdmissibleShiftError,
    PreconditionViolatedError,
    RootMismatchError,
)
from .fields import Element, Record
from .power_sums import (
    AssignmentEntry,
    class_walk,
    diagonal_options,
    diagonal_roots,
    lex_min_solution,
    select_system_pairs,
    shift_to_two_variable,
)
from .tri_matrix import (
    UTMatrix,
    _root_parts,
    check_compatible,
    mat_pow,
    to_text,
)

STRUCTURED_MAX_N = 8


class StructuredPlan(Record):
    """A two-coloring of the diagonal plus an ownership split of the
    off-diagonal entries between the two summands."""

    __slots__ = ("coloring", "owned_a", "owned_b")

    def __init__(self, coloring: tuple[int, ...],
                 owned_a: tuple[tuple[int, int], ...],
                 owned_b: tuple[tuple[int, int], ...]):
        Record.__init__(self, coloring, owned_a, owned_b)


class DecompositionResult(Record, compare=("parts", "k", "target",
                                           "assignment", "verified")):
    """The parts of C and the diagonal solutions they were built from;
    the plan, when the structured route ran, is not compared."""

    __slots__ = ("parts", "k", "target", "assignment", "verified", "plan")

    def __init__(self, parts: tuple[UTMatrix, ...], k: int, target: UTMatrix,
                 assignment: tuple[AssignmentEntry, ...], verified: bool,
                 plan: StructuredPlan | None = None):
        Record.__init__(self, parts, k, target, assignment, verified, plan)

    def to_json(self) -> dict:
        return {
            "target": to_text(self.target),
            "k": self.k,
            "parts": [to_text(p) for p in self.parts],
            "assignment": [e.as_row() for e in self.assignment],
            "verified": self.verified,
        }


class Obstruction(Record):
    """Exhaustion certificate: no structured plan works for this target.

    refuted_colorings lists every diagonal pattern ruled out (improper
    colorings and proper ones with no legal entry split)."""

    __slots__ = ("target", "k", "explored", "refuted_colorings")

    def __init__(self, target: UTMatrix, k: int, explored: int,
                 refuted_colorings: tuple[tuple[int, ...], ...]):
        Record.__init__(self, target, k, explored, refuted_colorings)

    def to_json(self) -> dict:
        return {
            "target": to_text(self.target),
            "k": self.k,
            "obstruction": True,
            "explored": self.explored,
            "refuted_colorings": [list(c) for c in self.refuted_colorings],
        }


def verify_decomposition(C: UTMatrix, parts, k: int) -> bool:
    """Does the sum of the k-th powers of the parts equal C exactly? The
    powers are summed entrywise on packed tuples; a part of another size
    or over another field raises, as adding it to C would; so does k < 1,
    where every part's power is I. A part whose strict entries are all 0
    is raised entrywise (each 0 stays 0), any other by `mat_pow`."""
    if k < 1:
        raise ValueError("k must be >= 1")
    F = C.field
    total = (0,) * len(C.entries)
    for part in parts:
        check_compatible(C, part)
        power = (tuple(F.pow(e, k) for e in part.entries)
                 if part.is_diagonal() else mat_pow(part, k).entries)
        total = tuple(map(F.add, total, power))
    return total == C.entries


def _assemble(C: UTMatrix, k: int, entries, parts: int, plan=None
              ) -> DecompositionResult:
    """The construction every route shares, from the assignment rows
    `entries`: one diagonal per column (x, y, then z when parts = 3), the
    strict upper part of C rooted by one `_root_parts` walk under the
    owner map of `plan`, A's entries to part 0 and B's to part 1 (A owns
    every position without a plan, and the other parts stay diagonal),
    then the sum of the parts' k-th powers checked against C."""
    rows = [e.as_row() for e in entries]
    owners = None if plan is None else (dict.fromkeys(plan.owned_a, 0)
                                        | dict.fromkeys(plan.owned_b, 1))
    found = tuple(_root_parts(C, k, [[row[c] for row in rows]
                                     for c in range(parts)], owners))
    if not verify_decomposition(C, found, k):
        raise RootMismatchError(f"{parts}-power sum failed verification")
    return DecompositionResult(found, k, C, tuple(entries), True, plan=plan)


def decompose_two(C: UTMatrix, k: int) -> DecompositionResult:
    """C = A^k + B^k with A's diagonal k-th powers pairwise distinct and B
    diagonal. Selection reads the diagonal as given, so one code path
    covers the single-eigenvalue, all-distinct and mixed cases."""
    return _assemble(C, k, select_system_pairs(C.field, C.diagonal(), k), 2)


def _three_by_position_search(C: UTMatrix, k: int) -> DecompositionResult:
    """Fallback: A's diagonal options (a_i, a_i^k) by `diagonal_roots` at
    s = 3 (`diagonal_options`), so the back-substitution root exists; the
    diagonal parts take the lex-min (y, z) of y^k + z^k = c_ii - a_i^k."""
    F, d = C.field, C.diagonal()
    chosen = diagonal_roots(F, diagonal_options(F, d, k, 3), k)
    if chosen is None:
        raise InsufficientClassesError(
            f"no three-power assignment found over F_{F.q} (k={k}); "
            f"sufficient only for q > 4 n^2 k^16")
    return _assemble(C, k, [AssignmentEntry(c, a, *lex_min_solution(
        F, F.sub(c, v), k)) for c, (a, v) in zip(d, chosen)], 3)


def decompose_three(C: UTMatrix, k: int) -> DecompositionResult:
    """C = A^k + B^k + D^k with B, D diagonal. The paper's shift runs once:
    per eigenvalue the least z with lam' = lam - z^k nonzero and the lam'
    pairwise distinct, then one selection on the shifted diagonal (D
    carries the z's). When no shift or no selection exists, the value
    route `_three_by_position_search` runs instead."""
    F, d = C.field, C.diagonal()
    # nonzero eigenvalues first so their preferred z = 0 shift is never
    # stolen by the zero eigenvalue's forced nonzero shift
    eig_order = sorted(set(d) - {0})
    if 0 in d:
        eig_order.append(0)
    shifts: dict[Element, tuple[Element, Element]] = {}
    taken: set[Element] = set()
    try:
        for lam in eig_order:
            shifts[lam] = shift_to_two_variable(F, lam, k, taken)
            taken.add(shifts[lam][1])
        pairs = select_system_pairs(F, [shifts[c][1] for c in d], k)
    except (InsufficientClassesError, NoAdmissibleShiftError):
        return _three_by_position_search(C, k)
    return _assemble(C, k, [AssignmentEntry(c, e.x, e.y, shifts[c][0])
                            for c, e in zip(d, pairs)], 3)


def decompose_structured(C: UTMatrix, k: int) -> DecompositionResult | Obstruction:
    """Two-power decomposition of a constant-diagonal matrix from a
    diagonal two-coloring and an entry ownership split: one back-substitution
    walk roots both sides from the least roots of each color's solution,
    each owned entry solved in its own side and every other entry left 0.

    A successful plan needs the entry graph properly 2-colored (every
    nonzero entry joins the two color classes, on both sides, so no
    divisor under an entry vanishes) and each side's owned entries
    chain-free (a chain r < s < t ends at two positions of one color,
    where the divisor vanishes under a nonzero correction). The plan takes
    the lexicographically first of each (bipartition and _split_entries).
    When either does not exist no coloring works, and an Obstruction
    carrying all 2^n diagonal patterns is returned (n <= STRUCTURED_MAX_N).
    `canonical` is imported here, so the other routes never load it.
    """
    from .canonical import bipartition
    F, n = C.field, C.n
    d = C.diagonal()
    if len(set(d)) != 1:
        raise PreconditionViolatedError(
            f"structured search needs a constant diagonal, got {d}")
    entries = C.nonzero_strict_positions()
    lam = d[0]

    if not entries:
        # no constraints: one solution covers every position, and the plan
        # owns none, so no part is walked
        s = lex_min_solution(F, lam, k)
        if s is None:
            raise InsufficientClassesError(
                f"x^{k} + y^{k} = {lam} has no solutions over F_{F.q}",
                lam=lam, found=0, needed=1)
        return _assemble(C, k, [AssignmentEntry(lam, *s)] * n, 2,
                         StructuredPlan((1,) * n, (), ()))

    walk = class_walk(F, lam, k)
    walk.reach(2)
    r = len(walk.signatures)
    if r < 2:
        raise InsufficientClassesError(
            f"x^{k} + y^{k} = {lam} has {r} classes over F_{F.q}, "
            f"need 2 for the structured split", lam=lam, found=r, needed=2)
    sols = {1: walk.candidates[0][0], 2: walk.candidates[1][0]}

    coloring = bipartition(C)
    split = _split_entries(entries)
    if coloring is None or split is None:
        if n > STRUCTURED_MAX_N:  # an Obstruction lists all 2^n colorings
            raise PreconditionViolatedError(
                f"no plan, and obstructions stop at n <= {STRUCTURED_MAX_N}")
        refuted = tuple(itertools.product((1, 2), repeat=n))
        return Obstruction(C, k, len(refuted), refuted)
    owned_a, owned_b = split
    return _assemble(C, k, [AssignmentEntry(lam, *sols[c]) for c in coloring],
                     2, StructuredPlan(coloring, owned_a, owned_b))


def _split_entries(entries):
    """First (in per-entry A-then-B order) split of the entries into two
    chain-free sides, or None. Entries (i, j) and (j, t) chain, so a split
    is a proper 2-coloring of the chain graph, and the first one puts the
    first entry of each component on side A."""
    from .canonical import label_graph
    _, parity, bipartite = label_graph(len(entries), (
        (a, b) for a, (_, j) in enumerate(entries)
        for b, (i, _) in enumerate(entries) if i == j))
    if not bipartite:
        return None
    return tuple(tuple(e for e, side in zip(entries, parity) if side == s)
                 for s in (0, 1))
