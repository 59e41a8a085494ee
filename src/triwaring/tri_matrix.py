"""Upper-triangular matrix algebra over F_q.

Entries are stored packed row-major for positions (i, j) with
1 <= i <= j <= n; everything below the diagonal is implicitly zero. Public
indices are 1-based throughout, matching how positions, presentations and
elementary matrices are written in this domain.

Matrix text format (bit-exact): rows separated by ';', row i listing the
entries (i,i),(i,i+1),...,(i,n) comma-separated as element encodings, e.g.
"0,1;0" is the 2x2 nilpotent Jordan block.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    BadPartitionError,
    DiagNotKthPowerError,
    FieldMismatchError,
    IndexOutOfRangeError,
    ParseError,
    PreconditionViolatedError,
    RootMismatchError,
    SizeMismatchError,
)
from .fields import Element, FieldSpec, kth_root_map
from .power_sums import power_diff_quotient


@dataclass(frozen=True, slots=True)
class UTMatrix:
    field: FieldSpec
    n: int
    entries: tuple[Element, ...]

    def __post_init__(self):
        expect = self.n * (self.n + 1) // 2
        if len(self.entries) != expect:
            raise SizeMismatchError(
                f"size {self.n} needs {expect} packed entries, "
                f"got {len(self.entries)}")

    def _offset(self, i: int, j: int) -> int:
        # row i (1-based) starts after rows 1..i-1, which hold
        # n + (n-1) + ... + (n-i+2) entries
        return (i - 1) * self.n - (i - 1) * (i - 2) // 2 + (j - i)

    def get(self, i: int, j: int) -> Element:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexOutOfRangeError(f"position ({i},{j}) outside size {self.n}")
        if i > j:
            return 0
        return self.entries[self._offset(i, j)]

    def __getitem__(self, ij: tuple[int, int]) -> Element:
        return self.get(*ij)

    def with_entry(self, i: int, j: int, value: Element) -> UTMatrix:
        return self.with_entries({(i, j): value})

    def with_entries(self, values) -> UTMatrix:
        """A copy with the entries at the upper-triangle positions (i, j)
        of the mapping `values` replaced by their values mod q."""
        e = list(self.entries)
        q = self.field.q
        for (i, j), value in values.items():
            if not (1 <= i <= j <= self.n):
                raise IndexOutOfRangeError(
                    f"({i},{j}) not in the upper triangle")
            e[self._offset(i, j)] = value % q
        return UTMatrix(self.field, self.n, tuple(e))

    def diagonal(self) -> tuple[Element, ...]:
        return tuple(self.get(i, i) for i in range(1, self.n + 1))

    def is_strictly_upper(self) -> bool:
        return all(d == 0 for d in self.diagonal())

    def positions(self):
        """Upper-triangle positions (i, j), i <= j, row-major."""
        for i in range(1, self.n + 1):
            for j in range(i, self.n + 1):
                yield i, j

    def nonzero_strict_positions(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, j in self.positions()
                     if i < j and self.get(i, j) != 0)

    def __add__(self, other: UTMatrix) -> UTMatrix:
        _check_compatible(self, other)
        F = self.field
        return UTMatrix(F, self.n, tuple(
            F.add(a, b) for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: UTMatrix) -> UTMatrix:
        _check_compatible(self, other)
        F = self.field
        return UTMatrix(F, self.n, tuple(
            F.sub(a, b) for a, b in zip(self.entries, other.entries)))

    def __matmul__(self, other: UTMatrix) -> UTMatrix:
        return mat_mul(self, other)

    def __repr__(self) -> str:
        return f"UTMatrix(F_{self.field.q}, {to_text(self)!r})"


def _check_compatible(A: UTMatrix, B: UTMatrix) -> None:
    if A.n != B.n:
        raise SizeMismatchError(f"sizes {A.n} and {B.n} differ")
    if A.field != B.field:
        raise FieldMismatchError("matrices live over different fields")


def check_in_field(C: UTMatrix) -> None:
    """FieldMismatchError unless every entry of C encodes an element of
    C.field, i.e. lies in [0, q). The constructor does not check this: it
    runs on every product."""
    q = C.field.q
    if not all(0 <= e < q for e in C.entries):
        raise FieldMismatchError(f"matrix has an entry outside [0, {q})")


def zero(F: FieldSpec, n: int) -> UTMatrix:
    return UTMatrix(F, n, (0,) * (n * (n + 1) // 2))


def identity(F: FieldSpec, n: int) -> UTMatrix:
    return diag(F, [1] * n)


def diag(F: FieldSpec, values) -> UTMatrix:
    values = list(values)
    return zero(F, len(values)).with_entries(
        {(i, i): v for i, v in enumerate(values, start=1)})


def from_rows(F: FieldSpec, rows) -> UTMatrix:
    """Build from full square rows (lower part must be zero)."""
    n = len(rows)
    entries = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise SizeMismatchError("ragged rows")
        if any(v % F.q != 0 for v in row[:i]):
            raise SizeMismatchError("nonzero entry below the diagonal")
        entries.extend(v % F.q for v in row[i:])
    return UTMatrix(F, n, tuple(entries))


def elementary(F: FieldSpec, n: int, r: int, s: int) -> UTMatrix:
    """E_rs with a single 1; requires r <= s (diagonal units allowed)."""
    if not (1 <= r <= s <= n):
        raise IndexOutOfRangeError(
            f"E_{r}{s} is not in the upper triangle of size {n}")
    return zero(F, n).with_entry(r, s, 1)


def jordan_block(F: FieldSpec, lam: Element, n: int) -> UTMatrix:
    return diag(F, [lam] * n).with_entries({(i, i + 1): 1 for i in range(1, n)})


def junction_matrix(F: FieldSpec, partition) -> UTMatrix:
    """Sum of E_{N_i, N_i + 1} over proper prefix sums N_i of the
    partition: the bridges between consecutive parts."""
    parts = list(partition)
    if not parts or any(p < 1 for p in parts):
        raise BadPartitionError(f"invalid partition {parts}")
    return zero(F, sum(parts)).with_entries(
        {(N, N + 1): 1 for N in itertools.accumulate(parts[:-1])})


def mat_mul(A: UTMatrix, B: UTMatrix) -> UTMatrix:
    _check_compatible(A, B)
    F, n = A.field, A.n
    add, mul = F.add, F.mul
    ae, be = A.entries, B.entries
    # precomputed row start offsets into the packed layout
    starts = [r * n - r * (r - 1) // 2 for r in range(n)]
    out = []
    for i0 in range(n):
        arow = starts[i0] - i0
        for j0 in range(i0, n):
            acc = 0
            for l0 in range(i0, j0 + 1):
                a = ae[arow + l0]
                if a:
                    acc = add(acc, mul(a, be[starts[l0] + j0 - l0]))
            out.append(acc)
    return UTMatrix(F, n, tuple(out))


def mat_pow(A: UTMatrix, k: int) -> UTMatrix:
    if k < 0:
        raise ValueError("negative powers not supported; use mat_inv")
    if k == 0:
        return identity(A.field, A.n)
    result = None
    while True:
        if k & 1:
            result = A if result is None else mat_mul(result, A)
        k >>= 1
        if not k:
            return result
        A = mat_mul(A, A)


def mat_inv(A: UTMatrix) -> UTMatrix:
    """Inverse of an invertible upper-triangular matrix (back substitution)."""
    F, n = A.field, A.n
    if any(d == 0 for d in A.diagonal()):
        raise ZeroDivisionError("matrix is singular")
    x = {(i, i): F.inv(A.get(i, i)) for i in range(1, n + 1)}
    for d in range(1, n):
        for i in range(1, n - d + 1):
            j = i + d
            acc = 0
            for l in range(i + 1, j + 1):
                acc = F.add(acc, F.mul(A.get(i, l), x[l, j]))
            x[i, j] = F.neg(F.mul(x[i, i], acc))
    return zero(F, n).with_entries(x)


def backsub_root(C: UTMatrix, k: int, roots=None) -> UTMatrix:
    """A with A^k = C above the diagonal, by superdiagonal
    back-substitution: per superdiagonal,
        a_rs = (c_rs - correction_rs) / pdq(a_rr, a_ss)
    where correction_rs is the (r,s) entry of the k-th power of the
    partially built A (current superdiagonal still zero; entries at one
    distance never feed each other's corrections). Where the divisor
    vanishes the residue must already be zero, else the chosen diagonal
    cannot work and PreconditionViolatedError is raised.

    Without `roots` each a_ii is the least k-th root of c_ii
    (DiagNotKthPowerError if there is none), and A^k = C. Given roots fix
    A's diagonal as they are, one per position (SizeMismatchError
    otherwise), and only C's strict upper part is matched: A^k agrees
    with C on the diagonal only if every a_ii^k = c_ii.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    F, n = C.field, C.n
    if roots is None:
        root_map = kth_root_map(F, k)
        roots = []
        for i, c in enumerate(C.diagonal(), start=1):
            if c not in root_map:
                raise DiagNotKthPowerError(
                    f"diagonal entry {c} at position {i} is not a {k}-th "
                    f"power in F_{F.q}")
            roots.append(root_map[c][0])
    A = diag(F, roots)
    if A.n != n:
        raise SizeMismatchError(f"{A.n} diagonal roots for size {n}")
    for dist in range(1, n):
        P = mat_pow(A, k)
        found = {}
        for r in range(1, n - dist + 1):
            s = r + dist
            delta = F.sub(C.get(r, s), P.get(r, s))
            f = power_diff_quotient(F, A.get(r, r), A.get(s, s), k)
            if f == 0:
                if delta != 0:
                    raise PreconditionViolatedError(
                        f"divisor vanishes at ({r},{s}) with residue {delta}")
                continue
            found[r, s] = F.mul(delta, F.inv(f))
        A = A.with_entries(found)
    return A


def embed_power(C: UTMatrix, rootC: UTMatrix, l: int, x: Element, k: int
                ) -> tuple[UTMatrix, UTMatrix]:
    """Insert a fresh row/column l (1-based, 1..n+1) with x^k on the
    diagonal and zeros elsewhere into C; the same insertion with x keeps
    the root property. Returns (B, rootB) with rootB^k = B verified."""
    F, n = C.field, C.n
    if not (1 <= l <= n + 1):
        raise IndexOutOfRangeError(f"insertion index {l} not in 1..{n + 1}")
    if x == 0:
        raise ValueError("inserted diagonal root must be nonzero")
    if mat_pow(rootC, k) != C:
        raise RootMismatchError("rootC^k != C")

    def build(src: UTMatrix, diag_value: Element) -> UTMatrix:
        values = {(i + (i >= l), j + (j >= l)): src.get(i, j)
                  for i, j in src.positions()}
        values[l, l] = diag_value
        return zero(F, n + 1).with_entries(values)

    B = build(C, F.pow(x, k))
    rootB = build(rootC, x)
    if mat_pow(rootB, k) != B:
        raise RootMismatchError("embedding failed verification")  # unreachable
    return B, rootB


def to_text(A: UTMatrix) -> str:
    rows = []
    for i in range(1, A.n + 1):
        rows.append(",".join(str(A.get(i, j)) for j in range(i, A.n + 1)))
    return ";".join(rows)


def from_text(F: FieldSpec, text: str) -> UTMatrix:
    rows = text.split(";")
    n = len(rows)
    entries: list[Element] = []
    for i, row in enumerate(rows):
        parts = [s.strip() for s in row.split(",")] if row.strip() else []
        if len(parts) != n - i:
            raise SizeMismatchError(
                f"row {i + 1} has {len(parts)} entries, expected {n - i}")
        try:
            values = [int(s) for s in parts]
        except ValueError:
            raise ParseError(f"non-integer entry in row {i + 1}") from None
        if any(not (0 <= v < F.q) for v in values):
            raise ParseError(f"entry out of range [0, {F.q}) in row {i + 1}")
        entries.extend(values)
    return UTMatrix(F, n, tuple(entries))
