"""Upper-triangular matrix algebra over F_q.

Entries are stored packed row-major for positions (i, j) with
1 <= i <= j <= n; everything below the diagonal is implicitly zero. Public
indices are 1-based throughout, matching how positions, presentations and
elementary matrices are written in this domain.

A UTMatrix holds elements of F_q by construction: its constructor raises
FieldMismatchError for an entry outside [0, q). `with_entries`, `from_rows`
and `diag` reduce the values they are given mod q, `from_text` refuses bad
text with ParseError, and `backsub_root` checks the root it returns.

Matrix text format (bit-exact): rows separated by ';', row i listing the
entries (i,i),(i,i+1),...,(i,n) comma-separated as element encodings, e.g.
"0,1;0" is the 2x2 nilpotent Jordan block.
"""

from __future__ import annotations

import functools
import itertools

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
from .fields import Element, FieldSpec, Record, check_elements, kth_root_map


@functools.lru_cache
def _diagonal_at(n: int) -> tuple[int, ...]:
    """Packed index of each (i, i): row i follows n - j entries per row j."""
    return tuple(i * n - i * (i - 1) // 2 for i in range(n))


class UTMatrix(Record):
    __slots__ = ("field", "n", "entries")

    # the fields are set here, not through Record.__init__: a matrix is
    # built for each element of an enumeration (15,625 in one
    # waring_report(F_5, 3, 2)), and the shared setter's call and loop cost
    # about 0.4 us more per construction (1.02 -> 1.38 us, least of
    # 15 x 50,000 calls; CPython 3.11, 2-vCPU x86-64)
    def __init__(self, field: FieldSpec, n: int, entries: tuple[Element, ...]):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)
        if n < 0:
            raise SizeMismatchError(f"size {n} is negative")
        expect = n * (n + 1) // 2
        if len(entries) != expect:
            raise SizeMismatchError(
                f"size {n} needs {expect} packed entries, got {len(entries)}")
        q = field.q
        if entries and (min(entries) < 0 or max(entries) >= q):
            raise FieldMismatchError(f"matrix has an entry outside [0, {q})")

    # written out for the hot paths (products checked against targets,
    # dict keys over whole algebras): on CPython 3.11 the attrgetter call
    # of Record's versions costs more than the comparison itself
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.field, self.n, self.entries)
                    == (other.field, other.n, other.entries))
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.n, self.entries))

    def get(self, i: int, j: int) -> Element:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexOutOfRangeError(f"position ({i},{j}) outside size {self.n}")
        if i > j:
            return 0
        return self.entries[_diagonal_at(self.n)[i - 1] + j - i]

    def __getitem__(self, ij: tuple[int, int]) -> Element:
        return self.get(*ij)

    def with_entry(self, i: int, j: int, value: Element) -> UTMatrix:
        return self.with_entries({(i, j): value})

    def with_entries(self, values) -> UTMatrix:
        """A copy with the entries at the upper-triangle positions (i, j)
        of the mapping `values` replaced by their values mod q."""
        e = list(self.entries)
        q, at = self.field.q, _diagonal_at(self.n)
        for (i, j), value in values.items():
            if not (1 <= i <= j <= self.n):
                raise IndexOutOfRangeError(
                    f"({i},{j}) not in the upper triangle")
            e[at[i - 1] + j - i] = value % q
        return UTMatrix(self.field, self.n, tuple(e))

    def diagonal(self) -> tuple[Element, ...]:
        return tuple([self.entries[o] for o in _diagonal_at(self.n)])

    def is_strictly_upper(self) -> bool:
        return all(d == 0 for d in self.diagonal())

    def is_diagonal(self) -> bool:
        """Are all strict entries 0? Every entry is, or is on the diagonal."""
        nonzero = len(self.entries) - self.entries.count(0)
        return nonzero == self.n - self.diagonal().count(0)

    def positions(self):
        """Upper-triangle positions (i, j), i <= j, row-major."""
        for i in range(1, self.n + 1):
            for j in range(i, self.n + 1):
                yield i, j

    def nonzero_strict_positions(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i, j in self.positions()
                     if i < j and self.get(i, j) != 0)

    def __add__(self, other: UTMatrix) -> UTMatrix:
        return self._entrywise(other, self.field.add)

    def __sub__(self, other: UTMatrix) -> UTMatrix:
        return self._entrywise(other, self.field.sub)

    def _entrywise(self, other: UTMatrix, op) -> UTMatrix:
        check_compatible(self, other)
        return UTMatrix(self.field, self.n, tuple(
            op(a, b) for a, b in zip(self.entries, other.entries)))

    def __matmul__(self, other: UTMatrix) -> UTMatrix:
        return mat_mul(self, other)

    def __repr__(self) -> str:
        return f"UTMatrix(F_{self.field.q}, {to_text(self)!r})"


def check_compatible(A: UTMatrix, B: UTMatrix) -> None:
    """SizeMismatchError or FieldMismatchError unless A and B have one
    size and one field, as every sum and product of two needs."""
    if A.n != B.n:
        raise SizeMismatchError(f"sizes {A.n} and {B.n} differ")
    # make_field hands out one object per field; equality is the fallback
    if A.field is not B.field and A.field != B.field:
        raise FieldMismatchError("matrices live over different fields")


def zero(F: FieldSpec, n: int) -> UTMatrix:
    return UTMatrix(F, n, (0,) * (n * (n + 1) // 2))


def identity(F: FieldSpec, n: int) -> UTMatrix:
    # zero names a negative size, which (1,) * n would read as 0
    return diag(F, (1,) * n) if n >= 0 else zero(F, n)


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
    """lam I + the sum of E_(i, i+1); lam outside [0, q) raises
    FieldMismatchError, where `diag` would reduce it mod q."""
    check_elements(F, (lam,), "lambda")
    entries = {(i, i): lam for i in range(1, n + 1)}
    entries.update({(i, i + 1): 1 for i in range(1, n)})
    return zero(F, n).with_entries(entries)


def junction_matrix(F: FieldSpec, partition) -> UTMatrix:
    """Sum of E_{N_i, N_i + 1} over proper prefix sums N_i of the
    partition: the bridges between consecutive parts."""
    parts = list(partition)
    if not parts or any(p < 1 for p in parts):
        raise BadPartitionError(f"invalid partition {parts}")
    return zero(F, sum(parts)).with_entries(
        {(N, N + 1): 1 for N in itertools.accumulate(parts[:-1])})


@functools.lru_cache
def _product_terms(m: int, rows: int) -> tuple:
    """Per packed entry (i, j) of x y, x with `rows` rows of T_m's packed
    layout and y in T_m: the index pairs of its terms x_il y_lj, l = i..j.
    `rows` = 1 reads x as the first row, i.e. a vector x_0l = x[l]."""
    at = _diagonal_at(m)
    return tuple(tuple((at[i] + l - i, at[l] + j - l) for l in range(i, j + 1))
                 for i in range(rows) for j in range(i, m))


def _packed_mul(F: FieldSpec, n: int, ae, be) -> tuple[Element, ...]:
    """The packed entries of AB from the packed entries of A and B."""
    add, mul = F.add, F.mul
    out = []
    for pairs in _product_terms(n, n):
        acc = 0
        for u, v in pairs:
            a, b = ae[u], be[v]
            if a and b:
                acc = add(acc, mul(a, b))
        out.append(acc)
    return tuple(out)


def mat_mul(A: UTMatrix, B: UTMatrix) -> UTMatrix:
    check_compatible(A, B)
    return UTMatrix(A.field, A.n,
                    _packed_mul(A.field, A.n, A.entries, B.entries))


def _chain(k: int) -> list[bool]:
    """The square-and-multiply chain from A to A^k, k >= 1: per bit of k
    after the leading one, a square (True), then a product with A (False)
    where the bit is 1."""
    return [step for bit in bin(k)[3:]
            for step in ((True, False) if bit == "1" else (True,))]


def mat_pow(A: UTMatrix, k: int) -> UTMatrix:
    """A^k by walking `_chain(k)` on packed entries; one UTMatrix is
    built, at the end."""
    if k < 0:
        raise ValueError("negative powers not supported; use mat_inv")
    if k == 0:
        return identity(A.field, A.n)
    F, n, M = A.field, A.n, A.entries
    for square in _chain(k):
        M = _packed_mul(F, n, M, M if square else A.entries)
    return UTMatrix(F, n, M)


def mat_inv(A: UTMatrix) -> UTMatrix:
    """Inverse of an invertible upper-triangular matrix: A^(E - 1), with
    E = (q - 1) p^e and p^e the least power of p with p^e >= n. A^(q - 1)
    is unipotent, I + N with N^n = 0, and (I + N)^(p^e) = I + N^(p^e) = I
    in characteristic p, so A^E = I."""
    F = A.field
    if 0 in A.diagonal():
        raise ZeroDivisionError("matrix is singular")
    power = 1
    while power < A.n:
        power *= F.p
    return mat_pow(A, (F.q - 1) * power - 1)


def _root_parts(C: UTMatrix, k: int, diagonals, owners=None
                ) -> list[UTMatrix]:
    """Parts A_1, ..., A_s, one per list of diagonal values in
    `diagonals`, whose k-th powers sum to C above the diagonal, by one
    walk of the square-and-multiply chain M_0 = A_p, ..., M_T = A_p^k
    (`_chain`) per part, in which each M_t is M_(t-1) squared or
    M_(t-1) A_p.

    Each strict position (r,s) belongs to the part `owners[(r, s)]`; part
    0 owns every position when `owners` is None, and a position missing
    from the map belongs to no part. A part that owns no position is not
    walked and comes back diagonal.

    Superdiagonal by superdiagonal, each walked chain matrix's (r,s) entry
    is carried as base_t + coef_t a_rs, since every other entry it depends
    on lies nearer the diagonal and is known. For a product XY,
        base = sum_(r<l<s) X_rl Y_ls + X_rr base_Y + base_X Y_ss,
        coef = X_rr coef_Y + coef_X Y_ss.
    The slope coef_T of (A^k)_rs in a_rs is pdq(a_rr, a_ss): the words
    a_rr^j a_rs a_ss^(k-1-j), j < k, are the only ones of (A^k)_rs that
    use a_rs. So the owner takes
        a_rs = (c_rs - sum_p base_T,p) / pdq(a_rr, a_ss),
    every other part takes 0, and the entries are then filled into every
    M_t. Entries at one distance never feed each other, so their order
    does not matter. Where the owner's divisor vanishes, or no part owns
    the position, the residue must already be zero, else the chosen
    diagonals cannot work and PreconditionViolatedError is raised. The
    walk costs O(n^3 log k) field operations per walked part.
    """
    F, n = C.field, C.n
    add, mul = F.add, F.mul
    starts = _diagonal_at(n)
    owner_at = None if owners is None else {
        starts[r - 1] + s - r: p for (r, s), p in owners.items()}
    steps = _chain(k)  # True squares M_(t-1), False multiplies it by A_p
    parts = []
    for values in diagonals:
        A = [0] * len(C.entries)
        for o, v in zip(starts, values):
            A[o] = v
        parts.append(A)
    walked = []  # (part, A_p, M_0 .. M_(T-1)); A_p^k itself is never read
    for p in [0] if owner_at is None else sorted(set(owner_at.values())):
        A = parts[p]
        chain = [A]
        for square in steps[:-1]:
            X, M = chain[-1], [0] * len(A)
            for o in starts:
                M[o] = mul(X[o], X[o] if square else A[o])
            chain.append(M)
        walked.append((p, A, chain))
    terms = _product_terms(n, n)
    for d in range(1, n):
        for i in range(n - d):
            j, o = i + d, starts[i] + d
            inner = terms[o][1:-1]  # the terms X_rl Y_ls, r < l < s
            owner = 0 if owner_at is None else owner_at.get(o)
            delta, divisor, carried = C.entries[o], 0, []
            for p, A, chain in walked:
                base, coef, filled = 0, 1, []
                for X, square in zip(chain, steps):
                    Y = X if square else A
                    acc = 0
                    for u, v in inner:
                        x, w = X[u], Y[v]
                        if x and w:
                            acc = add(acc, mul(x, w))
                    # XX scales base_X and coef_X by X_rr + X_ss; XA has
                    # base_A = 0 and coef_A = 1
                    if square:
                        s = add(X[starts[i]], X[starts[j]])
                        base, coef = add(acc, mul(base, s)), mul(coef, s)
                    else:
                        y = A[starts[j]]
                        base = add(acc, mul(base, y))
                        coef = add(X[starts[i]], mul(coef, y))
                    filled.append((base, coef))
                delta = F.sub(delta, base)
                if p == owner:
                    divisor = coef
                carried.append((p == owner, chain, filled))
            if not divisor and delta:
                raise PreconditionViolatedError(
                    f"divisor vanishes at ({i + 1},{j + 1}) with residue "
                    f"{delta}")
            a = mul(delta, F.inv(divisor)) if divisor else 0
            if a:
                parts[owner][o] = a
            for mine, chain, filled in carried:
                x = a if mine else 0
                for M, (b, c) in zip(chain[1:], filled):
                    M[o] = add(b, mul(c, x)) if x else b
    return [UTMatrix(F, n, tuple(A)) for A in parts]


def backsub_root(C: UTMatrix, k: int, roots=None) -> UTMatrix:
    """A with A^k = C above the diagonal, by back-substitution: the one
    part of `_root_parts`, owning every strict position.

    Without `roots` each a_ii is the least k-th root of c_ii
    (DiagNotKthPowerError if there is none), and A^k = C. Given roots fix
    A's diagonal as they are, mod q, one per position (SizeMismatchError
    otherwise), and only C's strict upper part is matched: A^k agrees
    with C on the diagonal only if every a_ii^k = c_ii. Where a divisor
    pdq(a_rr, a_ss) vanishes under a nonzero residue,
    PreconditionViolatedError is raised. One mat_pow checks A before it
    is returned: RootMismatchError if A^k misses C where it must match.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    F, n = C.field, C.n
    given = roots is not None
    if not given:
        root_map = kth_root_map(F, k)
        roots = []
        for i, c in enumerate(C.diagonal(), start=1):
            if c not in root_map:
                raise DiagNotKthPowerError(
                    f"diagonal entry {c} at position {i} is not a {k}-th "
                    f"power in F_{F.q}")
            roots.append(root_map[c][0])
    roots = [v % F.q for v in roots]
    if len(roots) != n:
        raise SizeMismatchError(f"{len(roots)} diagonal roots for size {n}")
    A = _root_parts(C, k, [roots])[0]
    power = mat_pow(A, k)
    if given:  # only C's strict upper part must match
        power = power.with_entries(
            {(i, i): c for i, c in enumerate(C.diagonal(), start=1)})
    if power != C:
        raise RootMismatchError(f"root {to_text(A)} failed verification")
    return A


def to_text(A: UTMatrix) -> str:
    bounds = _diagonal_at(A.n) + (len(A.entries),)  # row i: bounds[i:i+2]
    return ";".join(",".join(map(str, A.entries[bounds[i]:bounds[i + 1]]))
                    for i in range(A.n))


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
