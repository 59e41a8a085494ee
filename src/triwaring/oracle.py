"""Brute-force ground truth at tiny scale.

Everything here is exhaustive and guarded: the k-th power image of a whole
matrix algebra, minimum summand counts, and machine checks of the negative
claims (non-squares, non-conjugacy, the p | k obstruction).
`min_waring_number`, `waring_report` and `negative_checks` share one
memoised engine per (F, n, k), and at most LAYER_CACHE_SIZE engines are
kept. The engine enumerates the power image P^1 once per process, with a
first root per power, is its one owner, and answers every count by one
query, which builds no sumset P^2, P^3, ...: `power_sums.diagonal_options`
lists per c_ii the least roots a with c_ii - a^k in W_(s-1), W_s being
the sums of s k-th powers in F_q. An empty list puts c_ii outside W_s, which holds the
diagonal of every sum of s powers, and roots from the lists with every
divisor pdq(a_i, a_j) nonzero (`power_sums.diagonal_roots`) make C a sum
of s powers whatever its strict part. Where neither settles a query, a
memoised search of C - P over the powers P the lists allow does. The
image is one packed dict, built by a walk over the first-row split
A = [[a, b], [0, A']]; `all_kth_powers` is a fresh UTMatrix view of it.
Conjugacy under the invertible-triangular group B_n is decided exactly by
a search of the kernel of P -> AP - PB, which returns the same witness as
a scan of B_n with the diagonal first, then the strict upper entries
row-major, each in encoding order. One elimination of the n(n+1)/2
equations, over the columns from last to first, gives the kernel basis in
reduced row echelon form (a pivot row is 0 after its pivot, so the kernel
vector of each free column is 0 before it); at most q^n leaves follow,
and the witness is checked before it is returned. The walk, the engine,
the elimination and the search read F's q x q tables, built once per
field (`_field_tables`) and only for n >= 2. Guards are hard errors,
checked on every call, cached or not; an oracle must never truncate
silently.
"""

from __future__ import annotations

import functools
import itertools

from .errors import (EnumerationTooLargeError, FieldMismatchError,
                     RootMismatchError)
from .fields import (Element, FieldSpec, Record, enum_guard, kth_power_map,
                     kth_root_map, minus_one_is_kth_power)
from .power_sums import diagonal_options, diagonal_roots
from .tri_matrix import (
    UTMatrix,
    _chain,
    _diagonal_at,
    _product_terms,
    check_compatible,
    diag,
    elementary,
    jordan_block,
    junction_matrix,
    to_text,
)

# entries kept per cache, least recently used out: (F, n, k) engines, field
# tables, B_n systems
LAYER_CACHE_SIZE = 32


@functools.lru_cache(maxsize=LAYER_CACHE_SIZE)
def _field_tables(F: FieldSpec) -> tuple[tuple, tuple, tuple]:
    """F's q x q add, sub and mul tables, each indexed [x][y], built only
    for n >= 2: T_1 is F itself, and q^2 entries would dwarf it."""
    elems = F.elements()
    return tuple(tuple(tuple(op(x, y) for y in elems) for x in elems)
                 for op in (F.add, F.sub, F.mul))


def matrix_encoding(A: UTMatrix) -> int:
    """The packed entries read as base-q digits, the first entry least
    significant: one integer per matrix (exact set membership). This is
    not `iter_matrices` order, whose first entry changes slowest."""
    code = 0
    for e in reversed(A.entries):
        code = code * A.field.q + e
    return code


def iter_matrices(F: FieldSpec, n: int):
    """All of T_n(F_q) in lexicographic order of the packed entries, as
    `itertools.product` gives it: the last entry changes fastest. That is
    base-q order with the first entry most significant, the reverse of
    `matrix_encoding`'s digits: over T_2(F_3) the encodings come out 0, 9,
    18, 3, 12, 21, ..."""
    width = n * (n + 1) // 2
    for entries in itertools.product(F.elements(), repeat=width):
        yield UTMatrix(F, n, entries)


def all_kth_powers(F: FieldSpec, n: int, k: int) -> dict[UTMatrix, UTMatrix]:
    """{A^k : A in T_n(F_q)} as a dict power -> first root in enumeration
    order, a fresh view of the engine's image. ValueError for k < 1."""
    return {UTMatrix(F, n, P): UTMatrix(F, n, A)
            for P, A in _power_layers(F, n, k).roots.items()}


def _check_image(F: FieldSpec, n: int, k: int) -> None:
    """ValueError for k < 1, then the enumeration guard of T_n(F_q)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    enum_guard(F.q ** (n * (n + 1) // 2))


def _power_image(F: FieldSpec, n: int, k: int
                 ) -> dict[tuple[Element, ...], tuple[Element, ...]]:
    """The engine's image as packed entries, unchecked (`_check_image`).

    Built by a walk over the first-row split A = [[a, b], [0, A']], with a
    in F, b in F^(n-1) and A' in T_(n-1):
        A^k = [[a^k, b M], [0, A'^k]],  M = sum_(j<k) a^(k-1-j) A'^j,
    by induction on k: the (1,2) block of A^(k+1) = A^k A is
    a^k b + (b M) A' = b (a^k I + M A'), and a^k I + M A' is the M of
    k + 1. Each (a, A') pair costs one M, O(n^3 log k), and A'^k comes
    from the same walk one size down (`_power_walk`); each matrix then
    costs one product b M and one dict check. The walk runs over a
    slowest, then b, then A' fastest, each by increasing packed entries:
    the lexicographic `iter_matrices` order (not `matrix_encoding`
    order), so the first root of every power is the one a plain
    enumeration finds."""
    first: dict[tuple[Element, ...], tuple[Element, ...]] = {}
    for A, P in _power_walk(F, n, k):
        first.setdefault(P, A)
    return first


def _combine(x, y, terms, add, mul) -> tuple[Element, ...]:
    """The sums of x_u y_v over each entry's (u, v) in `terms`
    (`_product_terms`)."""
    out = []
    for pairs in terms:
        acc = 0
        for u, v in pairs:
            acc = add[acc][mul[x[u]][y[v]]]
        out.append(acc)
    return tuple(out)


def _power_walk(F: FieldSpec, n: int, k: int):
    """(A, A^k) as packed entries for every A in T_n(F_q), in
    `iter_matrices` order, by the split of `_power_image`.

    The pairs (A', A'^k) come from the same walk one size down, kept as a
    list, and T_1 (or T_0) ends it. a^k comes from the root map, sums and
    products from F's tables (n >= 2). M = S(k), where
    S(m) = sum_(j<m) a^(m-1-j) A'^j, by binary splitting along `_chain(k)`
    from S(1) = I: S(2m) = (a^m I + A'^m) S(m) and S(m+1) = a S(m) + A'^m."""
    powers = kth_power_map(F, k) if n else ()
    if n <= 1:
        for A in itertools.product(F.elements(), repeat=n):
            yield A, tuple([powers[a] for a in A])
        return
    add, _, mul = _field_tables(F)
    m = n - 1
    sub = list(_power_walk(F, m, k))
    terms, row_terms = _product_terms(m, m), _product_terms(m, 1)
    on_diag = set(_diagonal_at(m))
    eye = tuple(int(t in on_diag) for t in range(len(terms)))
    steps = _chain(k)
    for a in F.elements():
        ak, scale = powers[a], mul[a]
        blocks = []
        for Ap, Apk in sub:
            S, P, am = eye, Ap, a  # S(m), A'^m, a^m for m = 1
            for square in steps:
                if square:
                    shifted = tuple([add[x][am] if t in on_diag else x
                                     for t, x in enumerate(P)])
                    S = _combine(shifted, S, terms, add, mul)
                    P, am = _combine(P, P, terms, add, mul), mul[am][am]
                else:
                    S = tuple([add[scale[s]][x] for s, x in zip(S, P)])
                    P, am = _combine(P, Ap, terms, add, mul), mul[am][a]
            blocks.append((Ap, S, Apk))
        for b in itertools.product(F.elements(), repeat=m):
            head = (a,) + b
            for Ap, M, Apk in blocks:
                yield (head + Ap,
                       (ak,) + _combine(b, M, row_terms, add, mul) + Apk)


def min_waring_number(F: FieldSpec, C: UTMatrix, k: int, cap: int
                      ) -> int | None:
    """Smallest r <= cap with C a sum of r k-th powers, else None (>cap).

    Tries r = 1, 2, ... against the sumsets P^1 subset P^2 subset ... of
    (F, C.n, k) (0 = 0^k is a power, so they nest), through the memoised
    engine (`_SumsetLayers.min_count`). P^1 answers by lookup; no P^r,
    r >= 2, is built: the diagonal of C decides "C in P^r?" where it can,
    and otherwise a search for a power P with C - P in P^(r-1) does.
    ValueError for cap < 1 or k < 1."""
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    if C.field != F:
        raise FieldMismatchError("C lives over another field")
    return _power_layers(F, C.n, k).min_count(C.entries, cap)


def _power_layers(F: FieldSpec, n: int, k: int) -> _SumsetLayers:
    """The engine of (F, n, k), behind the enumeration guard, which runs on
    every call so a lowered WARING_MAX_ENUM applies to warm entries too.
    ValueError for k < 1."""
    _check_image(F, n, k)
    return _cached_layers(F, n, k)


class _SumsetLayers:
    """P^1 = {A^k : A in T_n(F_q)} and membership in its sumset layers
    P^s = P^(s-1) + P^1.

    `roots` maps each power of P^1, as packed entries, to its first root
    in `_power_image` order. No P^s, s >= 2, is built: `min_count`
    decides "is C in P^s?" from the diagonal of C, by two exact facts, and
    by a search of C - P over the powers P only where both are silent;
    `witness` descends from P^s to P^1. Differences read the sub table the
    walk built (n >= 2), else F itself."""

    def __init__(self, F: FieldSpec, n: int, k: int):
        self.field, self.k = F, k
        self.roots = _power_image(F, n, k)
        self._table = _field_tables(F)[1] if n >= 2 else None  # x - y
        self._diag_at = _diagonal_at(n)
        # memos keyed by diagonal or matrix, and summand count
        self._diagonals: dict[tuple[tuple[Element, ...], int], tuple] = {}
        self._searched: dict[tuple[tuple[Element, ...], int], bool] = {}

    @functools.cached_property
    def _by_diag(self) -> dict[tuple[Element, ...], list]:
        """The powers by diagonal, for `_search`. Every D in K^n is a key:
        diag(a)^k has the diagonal (a_i^k)."""
        groups: dict[tuple[Element, ...], list] = {}
        for P in self.roots:
            groups.setdefault(tuple([P[i] for i in self._diag_at]),
                              []).append(P)
        return groups

    def _shifts(self, a):
        """Per entry x of a, the map y -> x - y."""
        if self._table is None:
            return [functools.partial(self.field.sub, x) for x in a]
        return [self._table[x].__getitem__ for x in a]

    def _diagonal(self, d: tuple[Element, ...], s: int) -> tuple:
        """`_verdict` and `diagonal_options` of the diagonal d at s."""
        key = (d, s)
        if key not in self._diagonals:
            options = diagonal_options(self.field, d, self.k, s)
            self._diagonals[key] = (self._verdict(options), options)
        return self._diagonals[key]

    def _verdict(self, options) -> bool | None:
        """What the options of a diagonal d at s say of "C in P^s?".
        False when a list is empty: d_i is outside W_s, and the diagonal
        map is a homomorphism. True when `diagonal_roots` finds roots a:
        no divisor pdq(a_i, a_j) vanishes, so back-substitution from a
        roots C minus diagonal (s-1)-sums. None otherwise."""
        if not all(options):
            return False
        return diagonal_roots(self.field, options, self.k) is not None or None

    def _search(self, c: tuple[Element, ...], s: int) -> bool:
        """Is c in P^s (s >= 2)? Some power P leaves c - P in P^(s-1): a
        power when s = 2, else searched in turn. Answers are memoised, so a
        sum reached in several orders is searched once, and a deeper query
        reuses the shallower ones."""
        key = (c, s)
        if key in self._searched:
            return self._searched[key]
        found = False
        _, options = self._diagonal(tuple([c[i] for i in self._diag_at]), s)
        shifts = self._shifts(c)
        # the powers whose diagonal D has every d_i - D_i in W_(s-1)
        groups = (self._by_diag[D] for D in itertools.product(
            *[[v for _, v in opts] for opts in options]))
        for P in itertools.chain.from_iterable(groups):
            rest = tuple([f(y) for f, y in zip(shifts, P)])
            if rest in self.roots if s == 2 else self._search(rest, s - 1):
                found = True
                break
        self._searched[key] = found
        return found

    def min_count(self, c: tuple[Element, ...], cap: int) -> int | None:
        """`min_waring_number` for the packed entries c.

        P^1 answers by lookup. For r >= 2 the verdict of the diagonal d
        comes first (`_diagonal`), and only where it is None does
        `_search` run; it never needs the verdict again, since roots that
        serve a residual's diagonal at r - 1 serve d at r."""
        if c in self.roots:
            return 1
        d = tuple([c[i] for i in self._diag_at])
        for r in range(2, cap + 1):
            verdict, _ = self._diagonal(d, r)
            if verdict or verdict is None and self._search(c, r):
                return r
        return None

    def witness(self, c: tuple[Element, ...], count: int) -> tuple:
        """Roots of `count` powers summing to c, c in P^count, descending
        from P^count to P^1: each the first root, in image order, whose
        power leaves the rest in P^(s-1) for s = count, ..., 2."""
        parts = []
        for s in range(count - 1, 0, -1):
            shifts = self._shifts(c)
            for P, A in self.roots.items():
                rest = tuple([f(y) for f, y in zip(shifts, P)])
                if self.min_count(rest, s) is not None:
                    break
            parts.append(A)
            c = rest
        parts.append(self.roots[c])
        return tuple(parts)


_cached_layers = functools.lru_cache(maxsize=LAYER_CACHE_SIZE)(_SumsetLayers)


class WaringReport(Record):
    """Minimum summand counts over all of T_n(F_q), capped."""

    __slots__ = ("field", "n", "k", "cap", "per_matrix_min", "witnesses")

    def __init__(self, field: FieldSpec, n: int, k: int, cap: int,
                 per_matrix_min: dict[UTMatrix, int | None],
                 witnesses: dict[int, tuple[UTMatrix, tuple[UTMatrix, ...]]]):
        Record.__init__(self, field, n, k, cap, per_matrix_min, witnesses)

    @property
    def max_over_field(self) -> int | None:
        """Largest min count, or None if some matrix exceeded the cap."""
        vals = self.per_matrix_min.values()
        if any(v is None for v in vals):
            return None
        return max(vals)

    def histogram(self) -> dict[str, int]:
        hist: dict[str, int] = {}
        for v in self.per_matrix_min.values():
            key = str(v) if v is not None else f">{self.cap}"
            hist[key] = hist.get(key, 0) + 1
        return dict(sorted(hist.items()))

    def to_json(self) -> dict:
        return {
            "q": self.field.q,
            "n": self.n,
            "k": self.k,
            "cap": self.cap,
            "histogram": self.histogram(),
            "max": self.max_over_field,
        }

    def to_csv(self) -> str:
        lines = ["matrix,min_powers"]
        for M in sorted(self.per_matrix_min, key=matrix_encoding):
            v = self.per_matrix_min[M]
            lines.append(f"{to_text(M)},{v if v is not None else f'>{self.cap}'}")
        return "\n".join(lines) + "\n"


def waring_report(F: FieldSpec, n: int, k: int, cap: int = 4) -> WaringReport:
    """Min summand count for every matrix in T_n(F_q), each asked of the
    engine's `min_count`, as `min_waring_number` asks it. The witness of a
    count v is its first matrix in `matrix_encoding` order, with the parts
    of the engine's `witness`. ValueError for n, cap or k below 1."""
    if cap < 1 or n < 1:
        raise ValueError(f"n and cap must be >= 1, got n={n}, cap={cap}")
    engine = _power_layers(F, n, k)
    per = {M: engine.min_count(M.entries, cap) for M in iter_matrices(F, n)}
    witnesses: dict[int, tuple[UTMatrix, tuple[UTMatrix, ...]]] = {}
    for M in sorted(per, key=matrix_encoding):
        v = per[M]
        if v is not None and v not in witnesses:
            witnesses[v] = (M, tuple(UTMatrix(F, n, a)
                                     for a in engine.witness(M.entries, v)))
    return WaringReport(F, n, k, cap, per, witnesses)


@functools.lru_cache(maxsize=LAYER_CACHE_SIZE)
def _bn_system(n: int) -> tuple[tuple, tuple[int, ...]]:
    """The system A P = P B of T_n, which depends on n alone.

    The unknowns are P's entries in `bn_conjugate`'s order: the diagonal,
    then the strict upper entries row-major. Per equation (i, j), in packed
    order, (AP - PB)_ij = sum_l A_il P_lj - P_il B_lj over i <= l <= j, as
    its (unknown, packed index into A) and (unknown, packed index into B)
    pairs, read off the product terms (u, v) = ((i, l), (l, j)). With it
    comes the unknown of each packed entry of P."""
    terms, diagonal = _product_terms(n, n), _diagonal_at(n)
    # the packed entry of each unknown, and its inverse
    order = sorted(range(len(terms)), key=lambda t: (t not in diagonal, t))
    unknown_of = tuple(map(order.index, range(len(terms))))
    equations = tuple(
        (tuple((unknown_of[v], u) for u, v in pairs),
         tuple((unknown_of[u], v) for u, v in pairs))
        for pairs in terms)
    return equations, unknown_of


def _kernel_rref(F: FieldSpec, rows, ncols: int):
    """Basis of {x : rows . x = 0} in reduced row echelon form, with its
    leading columns: basis vector i is 1 at its leading column c_i, and
    every basis vector is 0 at every other leading column and before its
    own (c_1 < ... < c_d).

    One Gauss-Jordan pass over the columns from last to first gives it: a
    pivot row is 0 after its pivot, so the kernel vector of a free column
    f (1 at f, 0 at the other free columns) is 0 before f. The leading
    columns are the free ones, and the form is unique. Arithmetic reads
    F's q x q tables (`_field_tables`)."""
    _, sub, mul = _field_tables(F)
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for c in reversed(range(ncols)):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        scale = mul[F.inv(rows[r][c])]
        pivot = rows[r] = [scale[x] for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                times = mul[f]
                rows[i] = [sub[x][times[y]] for x, y in zip(row, pivot)]
        pivots.append(c)
    leads = [f for f in range(ncols) if f not in pivots]
    basis = []
    for f in leads:
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(rows, pivots):
            v[c] = sub[0][row[f]]
        basis.append(v)
    return basis, leads


def bn_conjugate(F: FieldSpec, A: UTMatrix, B: UTMatrix) -> UTMatrix | None:
    """First P of B_n with P^-1 A P = B, or None. B_n is ordered by the
    diagonal first, then the strict upper entries row-major, each in
    encoding order.

    A P = P B is linear in P, so the candidates are the invertible points
    of a kernel. The unknowns are ordered as B_n is, and the kernel basis
    w_1..w_d is in reduced echelon form with leading columns
    c_1 < ... < c_d, from one elimination of the n(n+1)/2 equations over
    the columns from last to first (`_kernel_rref`). For v = sum a_i w_i,
    v[c_i] = a_i, so the order of the coefficient vectors is the B_n
    order of the points. Only the coefficients of diagonal leading columns
    (at most n) touch the diagonal; a depth-first search over them in
    encoding order, pruned as soon as a fixed diagonal entry is 0, with
    the rest set to 0, finds the first invertible point in at most q^n
    leaves. Elimination and search read F's q x q tables, which cost no
    more than the q^n leaves for n >= 2; T_1 is F itself, where x P = P y
    has an invertible solution exactly when x = y, the first being 1. The
    witness is checked on the same tables, A P = P B with P's diagonal
    nonzero, and RootMismatchError raised if it fails.

    The guard counts that work, with w = n(n+1)/2 unknowns: w^3 steps of
    elimination, w steps at each of at most (q-1)^n leaves, and 3 q^2 for
    the tables when n >= 2. At n = 1 that is q."""
    n, q = A.n, F.q
    width = n * (n + 1) // 2
    enum_guard(width ** 3 + width * (q - 1) ** n
               + (3 * q * q if n >= 2 else 0))
    if A.field != F:
        raise FieldMismatchError("matrices live over different fields")
    check_compatible(A, B)
    ae, be = A.entries, B.entries
    if n <= 1:
        return UTMatrix(F, n, (1,) * n) if ae == be else None
    add, sub, mul = _field_tables(F)
    equations, unknown_of = _bn_system(n)
    rows = []
    for a_terms, b_terms in equations:
        row = [0] * width
        for c, t in a_terms:
            row[c] = add[row[c]][ae[t]]
        for c, t in b_terms:
            row[c] = sub[row[c]][be[t]]
        rows.append(row)
    basis, leads = _kernel_rref(F, rows, width)
    diag_leads = [c for c in leads if c < n]
    # coefficient i fixes the diagonal columns from its lead to the next
    fixed = list(zip(diag_leads, diag_leads[1:] + [n]))
    if diag_leads[:1] != [0]:
        return None  # P_11 is 0 on the whole kernel

    def search(i: int, v: list[Element]) -> list[Element] | None:
        if i == len(diag_leads):
            return v
        lo, hi = fixed[i]
        # v[lo] = a: the diagonal entry itself, nonzero as in B_n
        for a in range(1, F.q):
            times = mul[a]
            w = [add[x][times[y]] for x, y in zip(v, basis[i])]
            if all(w[c] for c in range(lo, hi)):
                hit = search(i + 1, w)
                if hit is not None:
                    return hit
        return None

    v = search(0, [0] * width)
    if v is None:
        return None
    P = tuple([v[c] for c in unknown_of])
    terms = _product_terms(n, n)
    if (not all(P[t] for t in _diagonal_at(n))
            or _combine(ae, P, terms, add, mul)
            != _combine(P, be, terms, add, mul)):
        raise RootMismatchError("conjugation witness failed verification")
    return UTMatrix(F, n, P)


class CheckResult(Record):
    __slots__ = ("name", "applicable", "ok", "detail")

    def __init__(self, name: str, applicable: bool, ok: bool | None,
                 detail: str):
        Record.__init__(self, name, applicable, ok, detail)

    def to_json(self) -> dict:
        return {"name": self.name, "applicable": self.applicable,
                "ok": self.ok, "detail": self.detail}


def negative_checks(F: FieldSpec, k: int) -> tuple[CheckResult, ...]:
    """Machine checks of the negative claims, where hypotheses apply:

    (a) the (2,2) junction matrix (and E_12 + E_34) is not a k-th power in
        T_4 for k = 2;
    (b) nilpotent Jordan blocks are not sums of two k-th powers when -1 is
        not a k-th power (n = 2, 3);
    (c) when p | k, beta^k(I + E_12 scaled) has no k-th root in T_2.

    A check whose algebra is beyond the enumeration guard is reported as
    not applicable, naming the first size refused; a direct oracle call
    keeps the guard as a hard error.
    """
    # a WARING_MAX_ENUM that is not an integer fails closed here, where no
    # check can mistake its error for an algebra too large to enumerate
    enum_guard(0)

    def junction():
        engine = _power_layers(F, 4, k)
        j22 = junction_matrix(F, (2, 2))
        split = elementary(F, 4, 1, 2) + elementary(F, 4, 3, 4)
        return (not any(engine.min_count(C.entries, 1) for C in (j22, split)),
                f"E_23 and E_12+E_34 outside the square image of T_4(F_{F.q})")

    def jordan():
        mins = [(n, min_waring_number(F, jordan_block(F, 0, n), k, cap=2))
                for n in (2, 3)]
        return (all(m is None for _, m in mins),
                "; ".join(f"n={n}: min " + ("> 2" if m is None else f"= {m}")
                          for n, m in mins))

    def scalar_plus_nilpotent():
        engine = _power_layers(F, 2, k)
        return (not any(engine.min_count(
                    diag(F, [bk, bk]).with_entry(1, 2, alpha).entries, 1)
                    for bk in kth_root_map(F, k) if bk
                    for alpha in range(1, F.q)),
                f"[[b^k, a],[0, b^k]] with a, b nonzero never a {k}-th power")

    # (name, algebra sizes, check, reason it does not apply or None)
    checks = (
        ("junction_(2,2)_not_square", (4,), junction,
         None if k == 2 else "stated for k = 2"),
        ("jordan_not_two_powers", (2, 3), jordan,
         f"-1 is a {k}-th power in F_{F.q}"
         if minus_one_is_kth_power(F, k) else None),
        ("scalar_plus_nilpotent_not_power", (2,), scalar_plus_nilpotent,
         None if k % F.p == 0 and k >= 2
         else f"needs p | k; p = {F.p}, k = {k}"),
    )
    results = []
    for name, sizes, check, reason in checks:
        if reason is None:
            try:
                for n in sizes:
                    _check_image(F, n, k)
            except EnumerationTooLargeError:
                reason = f"T_{n}(F_{F.q}) too large to enumerate"
        results.append(CheckResult(name, False, None, reason) if reason
                       else CheckResult(name, True, *check()))
    return tuple(results)
