"""Reference arithmetic for checking answers, independent of triwaring.

Elements of F_{p^m} are integers in [0, q) whose base-p digits (low degree
first) are polynomial coefficients, the encoding the package publishes.
Products are schoolbook polynomial products reduced by the monic modulus,
memoised per field; nothing here uses the package's log/exp tables, its
matrix kernels or its verify_decomposition.

Matrices are dense lists of rows.
"""

from __future__ import annotations

import itertools


def digits(value: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        value, r = divmod(value, p)
        out.append(r)
    return out


def undigits(coeffs, p: int) -> int:
    value = 0
    for c in reversed(coeffs):
        value = value * p + c % p
    return value


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b over F_p; b has a nonzero leading coefficient."""
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        f = a[-1] * inv_lead % p
        if f:
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Monic modulus of degree m <= 4: no monic divisor of degree 1..m//2,
    tried exhaustively."""
    m = len(modulus) - 1
    for d in range(1, m // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            if not _poly_rem(list(modulus), list(low) + [1], p):
                return False
    return True


def irreducible_moduli(p: int, m: int) -> list[tuple[int, ...]]:
    """Every monic irreducible of degree m over F_p, low coefficient first,
    in increasing order of encoding."""
    out = []
    for t in range(p ** m):
        cand = tuple(digits(t, p, m)) + (1,)
        if is_irreducible(cand, p):
            out.append(cand)
    return out


class RefField:
    """F_{p^m} from a published monic modulus."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus {modulus} is not monic of degree {m}")
        self.p, self.m, self.q = p, m, p ** m
        self.modulus = tuple(modulus)
        self._mul: dict[tuple[int, int], int] = {}
        self._digits = [digits(a, p, m) for a in range(self.q)]

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        p = self.p
        return undigits([x + y for x, y in zip(self._digits[a], self._digits[b])], p)

    def neg(self, a: int) -> int:
        return undigits([-x for x in self._digits[a]], self.p)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        key = (a, b) if a <= b else (b, a)
        hit = self._mul.get(key)
        if hit is not None:
            return hit
        p, m = self.p, self.m
        da, db = self._digits[a], self._digits[b]
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        prod = [c % p for c in prod]
        value = undigits(_poly_rem(prod, list(self.modulus), p), p)
        self._mul[key] = value
        return value

    def pow(self, a: int, e: int) -> int:
        out = 1
        for _ in range(e):
            out = self.mul(out, a)
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self.pow(a, self.q - 2)

    def spec(self) -> str:
        """The package's field text with this modulus pinned."""
        return f"{self.p}^{self.m}/" + ",".join(map(str, self.modulus))


# -- dense matrices -----------------------------------------------------


def unpack(n: int, packed) -> list[list[int]]:
    """Packed upper-triangular row-major entries to dense rows."""
    rows = [[0] * n for _ in range(n)]
    it = iter(packed)
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = next(it)
    return rows


def pack(rows) -> tuple[int, ...]:
    n = len(rows)
    for i in range(n):
        if any(rows[i][:i]):
            raise ValueError("matrix is not upper-triangular")
    return tuple(rows[i][j] for i in range(n) for j in range(i, n))


def parse_text(text: str) -> list[list[int]]:
    """The package's matrix text form ("0,1;0") to dense rows."""
    rows = text.split(";")
    return unpack(len(rows), [int(v) for r in rows for v in r.split(",")])


def mat_mul(F: RefField, A, B):
    n = len(A)
    out = [[0] * n for _ in range(n)]
    add, mul = F.add, F.mul
    for i in range(n):
        Ai = A[i]
        for j in range(n):
            acc = 0
            for l in range(n):
                if Ai[l] and B[l][j]:
                    acc = add(acc, mul(Ai[l], B[l][j]))
            out[i][j] = acc
    return out


def mat_add(F: RefField, A, B):
    return [[F.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_pow(F: RefField, A, k: int):
    out = A
    for _ in range(k - 1):
        out = mat_mul(F, out, A)
    return out


def power_sum(F: RefField, parts, k: int):
    """Sum of the k-th powers of the dense parts."""
    total = None
    for P in parts:
        term = mat_pow(F, P, k)
        total = term if total is None else mat_add(F, total, term)
    return total


def identity(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def ut_inverse(F: RefField, A):
    """Inverse of an invertible upper-triangular matrix."""
    n = len(A)
    X = [[0] * n for _ in range(n)]
    for i in range(n):
        X[i][i] = F.inv(A[i][i])
    for d in range(1, n):
        for i in range(n - d):
            j = i + d
            acc = 0
            for l in range(i + 1, j + 1):
                acc = F.add(acc, F.mul(A[i][l], X[l][j]))
            X[i][j] = F.neg(F.mul(X[i][i], acc))
    return X


def rank(F: RefField, A) -> int:
    """Rank by Gaussian elimination over F."""
    M = [list(r) for r in A]
    n_rows, n_cols = len(M), len(M[0])
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, n_rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = F.inv(M[r][c])
        M[r] = [F.mul(inv, v) for v in M[r]]
        for i in range(n_rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [F.sub(v, F.mul(f, w)) for v, w in zip(M[i], M[r])]
        r += 1
    return r


def similarity_profile(F: RefField, A) -> tuple:
    """Ordered diagonal plus rank of (A - c I)^j for every diagonal value c
    and j = 1..n. Conjugation by an invertible upper-triangular matrix
    keeps every entry of it, so differing profiles prove non-conjugacy."""
    n = len(A)
    diag = tuple(A[i][i] for i in range(n))
    ranks = []
    for c in sorted(set(diag)):
        shifted = [[F.sub(A[i][j], c) if i == j else A[i][j] for j in range(n)]
                   for i in range(n)]
        P = shifted
        for _ in range(n):
            ranks.append(rank(F, P))
            P = mat_mul(F, P, shifted)
    return diag, tuple(ranks)


# -- presentations ------------------------------------------------------


def presentation_rows(row: str, n: int):
    """Dense 0/1 nilpotent matrix of a presentation row such as
    "12|34:13" (blocks are chains, extra arcs after the colon; single-digit
    labels, so n <= 9)."""
    blocks, _, arcs = row.partition(":")
    edges = []
    for block in blocks.split("|"):
        labels = [int(ch) for ch in block]
        edges.extend(zip(labels, labels[1:]))
    if arcs:
        edges.extend((int(a[0]), int(a[1])) for a in arcs.split("|"))
    M = [[0] * n for _ in range(n)]
    for i, j in edges:
        M[i - 1][j - 1] = 1
    return M


def connected(M) -> bool:
    """Is the graph with an edge per nonzero strict-upper entry connected?"""
    n = len(M)
    adj = {v: set() for v in range(n)}
    for i in range(n):
        for j in range(i + 1, n):
            if M[i][j]:
                adj[i].add(j)
                adj[j].add(i)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == n
