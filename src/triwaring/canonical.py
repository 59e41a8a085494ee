"""Similarity utilities under conjugation by invertible upper-triangular
matrices: single-entry annihilation, distinct-diagonal diagonalization, the
compact presentation notation for 0/1 nilpotent matrices, and one
breadth-first graph labelling (components, parities, bipartiteness) behind
the indecomposability test and the 2-colorings.

Reduction order on entries: (i, j) comes before (i', j') iff i > i', or
i = i' and j < j' (bottom row first, left to right within a row). Each
annihilation step provably leaves every earlier entry untouched.
"""

from __future__ import annotations

from .errors import (
    DiagNotDistinctError,
    DuplicateVertexError,
    EqualDiagonalError,
    IndexOutOfRangeError,
    LabelOutOfRangeError,
    NotNilpotentError,
    ParseError,
    RootMismatchError,
)
from .fields import FieldSpec, Record
from .tri_matrix import UTMatrix, identity, mat_mul, to_text, zero


class ConjugationWitness(Record):
    """after = S^-1 * before * S, with S invertible upper-triangular.

    Verified by multiplication (before * S == S * after), which avoids
    inverting S.
    """

    __slots__ = ("S", "before", "after")

    def __init__(self, S: UTMatrix, before: UTMatrix, after: UTMatrix):
        Record.__init__(self, S, before, after)

    def verify(self) -> bool:
        if any(d == 0 for d in self.S.diagonal()):
            return False
        return mat_mul(self.before, self.S) == mat_mul(self.S, self.after)

    def to_json(self) -> dict:
        return {"S": to_text(self.S), "before": to_text(self.before),
                "after": to_text(self.after)}


def annihilate_entry(A: UTMatrix, l: int, r: int
                     ) -> tuple[UTMatrix, ConjugationWitness]:
    """Zero the (l, r) entry by conjugating with the single transvection
    S = I + s E_lr, s = -a_lr / (a_ll - a_rr). Requires a_ll != a_rr.

    Conjugation only touches column r above row l and row l from column r
    rightward, both strictly later in the reduction order.
    """
    F = A.field
    if not (1 <= l < r <= A.n):
        raise IndexOutOfRangeError(f"need 1 <= l < r <= n, got ({l},{r})")
    all_, arr = A.get(l, l), A.get(r, r)
    if all_ == arr:
        raise EqualDiagonalError(
            f"a_{l}{l} = a_{r}{r} = {all_}; entry ({l},{r}) not removable")
    s = F.neg(F.mul(A.get(l, r), F.inv(F.sub(all_, arr))))
    S = identity(F, A.n).with_entry(l, r, s)
    Sinv = identity(F, A.n).with_entry(l, r, F.neg(s))
    after = mat_mul(Sinv, mat_mul(A, S))
    return after, ConjugationWitness(S, A, after)


def diagonalize_distinct(A: UTMatrix) -> tuple[UTMatrix, ConjugationWitness]:
    """Sweep the reduction order and annihilate every off-diagonal entry;
    legal whenever the diagonal entries are pairwise distinct. Returns the
    diagonal matrix and one composed witness."""
    F, n = A.field, A.n
    d = A.diagonal()
    if len(set(d)) != n:
        raise DiagNotDistinctError(f"diagonal {d} has repeats")
    current = A
    S_total = identity(F, n)
    for l in range(n - 1, 0, -1):
        for r in range(l + 1, n + 1):
            current, w = annihilate_entry(current, l, r)
            S_total = mat_mul(S_total, w.S)
    witness = ConjugationWitness(S_total, A, current)
    if not witness.verify():
        raise RootMismatchError("diagonalization failed verification")
    return current, witness


class Presentation(Record):
    """Blocks-and-arcs encoding of a 0/1 nilpotent matrix.

    blocks partition {1..n}; consecutive elements of a block are arcs, and
    extra_arcs add arcs not implied by any block. Canonical form: elements
    ascending within blocks, block minima ascending, no duplicate arcs.
    """

    __slots__ = ("n", "blocks", "extra_arcs")

    def __init__(self, n: int, blocks: tuple[tuple[int, ...], ...],
                 extra_arcs: tuple[tuple[int, int], ...]):
        Record.__init__(self, n, blocks, extra_arcs)

    def arcs(self) -> tuple[tuple[int, int], ...]:
        out = []
        for block in self.blocks:
            out.extend(zip(block, block[1:]))
        out.extend(self.extra_arcs)
        return tuple(out)

    def matrix(self, F: FieldSpec) -> UTMatrix:
        return zero(F, self.n).with_entries({arc: 1 for arc in self.arcs()})


def _parse_labels(token: str, n: int) -> list[int]:
    token = token.strip()
    if not token:
        raise ParseError("empty block or arc")
    if n >= 10:
        parts = token.split(",")
    else:
        parts = list(token)
    try:
        labels = [int(s) for s in parts]
    except ValueError:
        raise ParseError(f"bad label in {token!r}") from None
    for v in labels:
        if not (1 <= v <= n):
            raise LabelOutOfRangeError(f"label {v} outside 1..{n}")
    return labels


def parse_presentation(text: str, n: int) -> Presentation:
    """Grammar: blocks(':'arcs)?, blocks = labels('|'labels)*,
    arcs = pair('|'pair)*. Labels are single digits for n <= 9 and
    comma-separated for n >= 10."""
    text = text.strip()
    if not text:
        raise ParseError("empty presentation")
    block_part, sep, arc_part = text.partition(":")
    blocks = []
    seen: set[int] = set()
    for token in block_part.split("|"):
        labels = _parse_labels(token, n)
        if labels != sorted(labels):
            raise ParseError(f"block {token!r} not ascending")
        for v in labels:
            if v in seen:
                raise DuplicateVertexError(f"vertex {v} in two blocks")
            seen.add(v)
        blocks.append(tuple(labels))
    if seen != set(range(1, n + 1)):
        missing = sorted(set(range(1, n + 1)) - seen)
        raise ParseError(f"blocks do not cover 1..{n}; missing {missing}")
    minima = [b[0] for b in blocks]
    if minima != sorted(minima):
        raise ParseError("block minima not ascending")

    block_arcs = set()
    for b in blocks:
        block_arcs.update(zip(b, b[1:]))
    arcs = []
    if sep:
        for token in arc_part.split("|"):
            pair = _parse_labels(token, n)
            if len(pair) != 2:
                raise ParseError(f"arc {token!r} is not a pair")
            i, j = pair
            if i >= j:
                raise ParseError(f"arc ({i},{j}) not strictly upper")
            if (i, j) in block_arcs or (i, j) in arcs:
                raise ParseError(f"arc ({i},{j}) duplicated")
            arcs.append((i, j))
    return Presentation(n, tuple(blocks), tuple(arcs))


def render_presentation(pres: Presentation) -> str:
    if pres.n >= 10:
        block_part = "|".join(",".join(map(str, b)) for b in pres.blocks)
        arc_part = "|".join(f"{i},{j}" for i, j in pres.extra_arcs)
    else:
        block_part = "|".join("".join(map(str, b)) for b in pres.blocks)
        arc_part = "|".join(f"{i}{j}" for i, j in pres.extra_arcs)
    return block_part + (":" + arc_part if pres.extra_arcs else "")


def label_graph(m: int, edges) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """Breadth-first labelling of the undirected graph on 0..m-1: per
    vertex the least vertex of its component and its distance parity from
    it, and whether the graph is bipartite (no edge joins equal parities).
    When it is, the parities are the proper 2-coloring that gives every
    component's least vertex parity 0."""
    adj: list[list[int]] = [[] for _ in range(m)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    component = [-1] * m
    parity = [0] * m
    bipartite = True
    for start in range(m):
        if component[start] >= 0:
            continue
        component[start] = start
        queue = [start]
        for v in queue:
            for w in adj[v]:
                if component[w] < 0:
                    component[w] = start
                    parity[w] = 1 - parity[v]
                    queue.append(w)
                elif parity[w] == parity[v]:
                    bipartite = False
    return tuple(component), tuple(parity), bipartite


def _entry_graph(A: UTMatrix) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """label_graph of {1..n} (as 0..n-1) with an edge per nonzero strict
    entry."""
    return label_graph(A.n, ((i - 1, j - 1)
                             for i, j in A.nonzero_strict_positions()))


def is_indecomposable(A: UTMatrix) -> bool:
    """A strictly upper-triangular matrix is indecomposable iff the
    undirected graph on {1..n} with an edge per nonzero entry is
    connected."""
    if not A.is_strictly_upper():
        raise NotNilpotentError("matrix has a nonzero diagonal entry")
    component, _, _ = _entry_graph(A)
    return all(c == 0 for c in component)


def bipartition(A: UTMatrix) -> tuple[int, ...] | None:
    """Proper 2-coloring (values 1/2, the least vertex of each component
    colored 1) of the entry graph, or None if an odd cycle makes it
    impossible. This is the lexicographically first proper coloring; for a
    connected graph it is unique up to swapping the colors."""
    _, parity, bipartite = _entry_graph(A)
    return tuple(1 + c for c in parity) if bipartite else None
