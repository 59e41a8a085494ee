"""Brute-force ground truth at tiny scale.

Everything here is exhaustive and guarded: the k-th power image of a whole
matrix algebra, minimum summand counts, and machine checks of the negative
claims (non-squares, non-conjugacy, the p | k obstruction).
`min_waring_number`, `waring_report` and `negative_checks` share one
memoised engine per (F, n, k), and at most LAYER_CACHE_SIZE engines are
kept. The engine enumerates the power image P^1 once per process, as a
frozenset of packed entry tuples, and answers every count by one query,
which builds no sumset P^2, P^3, ...: the diagonal of C decides most
queries by two exact facts (the diagonal map is a homomorphism; a pairwise
distinct diagonal of k-th powers makes a k-th power), and a memoised
search of C - P over the powers P settles the rest. `min_waring_number`
asks it of one matrix, `waring_report` of every matrix. `all_kth_powers`
enumerates afresh on every call. Conjugacy under the invertible-triangular
group B_n is decided exactly by a search of the kernel of P -> AP - PB,
which returns the same witness as a scan of B_n in `iter_bn` order. Guards
are hard errors, checked on every call, cached or not; an oracle must never
truncate silently.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .canonical import _matchable
from .errors import (
    EnumerationTooLargeError,
    FieldMismatchError,
    SizeMismatchError,
)
from .fields import Element, FieldSpec, minus_one_is_kth_power
from .power_sums import enum_guard
from .tri_matrix import (
    UTMatrix,
    check_in_field,
    elementary,
    jordan_block,
    junction_matrix,
    mat_pow,
    to_text,
)

BN_GUARD = 10 ** 7
LAYER_CACHE_SIZE = 32  # (F, n, k) engines kept, least recently used out


def matrix_encoding(A: UTMatrix) -> int:
    """Mixed-radix integer over the packed entries (exact set membership)."""
    code = 0
    for e in reversed(A.entries):
        code = code * A.field.q + e
    return code


def iter_matrices(F: FieldSpec, n: int):
    """All of T_n(F_q) in mixed-radix order."""
    width = n * (n + 1) // 2
    for entries in itertools.product(F.elements(), repeat=width):
        yield UTMatrix(F, n, entries)


def all_kth_powers(F: FieldSpec, n: int, k: int) -> dict[UTMatrix, UTMatrix]:
    """{A^k : A in T_n(F_q)} as a dict power -> first root in enumeration
    order (the keys are the image; roots witness membership)."""
    width = n * (n + 1) // 2
    enum_guard(F.q ** width)
    out: dict[UTMatrix, UTMatrix] = {}
    for A in iter_matrices(F, n):
        P = mat_pow(A, k)
        if P not in out:
            out[P] = A
    return out


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
    check_in_field(C)
    return _power_layers(F, C.n, k).min_count(C.entries, cap)


def _power_layers(F: FieldSpec, n: int, k: int) -> _SumsetLayers:
    """The engine of (F, n, k), behind the enumeration guard, which runs on
    every call so a lowered WARING_MAX_ENUM applies to warm entries too.
    ValueError for k < 1."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    enum_guard(F.q ** (n * (n + 1) // 2))
    return _cached_layers(F, n, k)


class _SumsetLayers:
    """P^1 = {A^k : A in T_n(F_q)} and membership in its sumset layers
    P^s = P^(s-1) + P^1.

    P^1 is enumerated once, by `all_kth_powers`, as a frozenset of packed
    entry tuples, and `roots` keeps its first root per power in order. No
    P^s, s >= 2, is built: `min_count` decides "is C in P^s?" from the
    diagonal of C, by two exact facts, and by a search of C - P over the
    powers P only where both are silent. Differences go through a q x q
    table when it costs no more than the image it serves (q^2 <= |P^1|),
    else through F itself: T_1(F_q) has at most q elements, so a q^2 table
    would dwarf it."""

    def __init__(self, F: FieldSpec, n: int, k: int):
        self.field = F
        images = all_kth_powers(F, n, k)
        self.roots = {P.entries: A.entries for P, A in images.items()}
        self.powers = frozenset(P.entries for P in images)
        self._table = None  # x - y, indexed [x][y]
        if F.q * F.q <= len(self.powers):
            elems = F.elements()
            self._table = tuple(tuple(F.sub(x, y) for y in elems)
                                for x in elems)
        # K: the (1, 1) entries of the powers, as diag(a)^k is one (T_0
        # has none, and no query of it gets past its one power)
        self._kth = frozenset(P[0] for P in self.powers if P)
        self._order = len(self._kth) - 1  # |H|, H = the nonzero k-th powers
        self._classes = (F.q - 1) // self._order + 1  # cosets of H, and 0
        # packed index of each diagonal entry: row i starts after n - j
        # entries for every row j above it
        self._diag_at = [i * n - i * (i - 1) // 2 for i in range(n)]
        self._levels = [frozenset({0, 1})]  # classes of W_1, W_2, ...
        self._frontier = [1]  # a representative per class new in the last
        # memos keyed by value, diagonal or matrix, and summand count
        self._opts: dict[tuple[Element, int], tuple[Element, ...]] = {}
        self._verdicts: dict[tuple[tuple[Element, ...], int], bool | None] = {}
        self._groups: dict[tuple[tuple[Element, ...], int], tuple] = {}
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

    def _sums(self, s: int):
        """Membership in W_s, the sums of s k-th powers in F_q (W_0 = {0}),
        as a predicate on values.

        H = K minus 0 is a subgroup of F_q^*, and h W_s = W_s for h in H,
        so W_s is 0 and whole cosets of H, told apart by the class
        chi(v) = v^|H| (chi(0) = 0). As w + a = a (w/a + 1), the classes
        of W_s are those of W_(s-1) and chi(t + 1) for t in a coset new in
        W_(s-1): each coset is walked once, as one representative times
        H, until a level adds none. No W_s is built as a set of elements:
        over a large field that would cost q |K| sums."""
        if s <= 1:
            return (self._kth if s else frozenset({0})).__contains__
        F, levels = self.field, self._levels
        while len(levels) < s and self._frontier:
            known = set(levels[-1])
            reps = []
            for u in (F.add(F.mul(r, h), 1)
                      for r in self._frontier for h in self._kth):
                if len(known) == self._classes:
                    break
                c = F.pow(u, self._order)
                if c not in known:
                    known.add(c)
                    reps.append(u)
            levels.append(frozenset(known))
            self._frontier = reps
        classes, order = levels[min(s, len(levels)) - 1], self._order
        return lambda v: F.pow(v, order) in classes

    def _options(self, x: Element, s: int) -> tuple[Element, ...]:
        """The v in K with x - v in W_(s-1), memoised per value; none
        exactly when x is outside W_s."""
        key = (x, s)
        if key not in self._opts:
            sub, inside = self.field.sub, self._sums(s - 1)
            self._opts[key] = tuple(v for v in self._kth if inside(sub(x, v)))
        return self._opts[key]

    def _verdict(self, d: tuple[Element, ...], s: int) -> bool | None:
        """What the diagonal d alone says of "C in P^s?" (memoised).

        False when an entry of d is outside W_s: the diagonal map is a
        homomorphism. True when d splits as d_1 + ... + d_s, every d_j in
        K^n and d_1 pairwise distinct: C minus the diagonal powers
        diag(d_2), ..., diag(d_s) has the pairwise distinct k-th powers d_1
        on its diagonal, so it is a k-th power (see `min_count`). d_1 takes
        at position i one of the `_options` of d_i, a bipartite matching.
        None otherwise."""
        key = (d, s)
        if key not in self._verdicts:
            options = [self._options(x, s) for x in d]
            self._verdicts[key] = all(options) and (
                _matchable(options, self._kth) or None)
        return self._verdicts[key]

    def _candidates(self, d: tuple[Element, ...], s: int) -> tuple:
        """The groups of powers P, by diagonal D, that can leave c - P in
        P^(s-1) when c has the diagonal d: each D_i among the `_options` of
        d_i (memoised)."""
        key = (d, s)
        if key not in self._groups:
            self._groups[key] = tuple(self._by_diag[D] for D in
                                      itertools.product(*[
                                          self._options(x, s) for x in d]))
        return self._groups[key]

    def _search(self, c: tuple[Element, ...], s: int) -> bool:
        """Is c in P^s (s >= 2)? Some power P leaves c - P in P^(s-1): a
        power when s = 2, else searched in turn. Answers are memoised, so a
        sum reached in several orders is searched once, and a deeper query
        reuses the shallower ones."""
        key = (c, s)
        if key in self._searched:
            return self._searched[key]
        found = False
        groups = self._candidates(tuple([c[i] for i in self._diag_at]), s)
        shifts = self._shifts(c) if groups else ()
        for P in itertools.chain.from_iterable(groups):
            rest = tuple([f(y) for f, y in zip(shifts, P)])
            if rest in self.powers if s == 2 else self._search(rest, s - 1):
                found = True
                break
        self._searched[key] = found
        return found

    def min_count(self, c: tuple[Element, ...], cap: int) -> int | None:
        """`min_waring_number` for the packed entries c.

        P^1 answers by lookup. For r >= 2 the diagonal comes first
        (`_verdict`), by two facts. Its entries in a member of P^s lie in
        W_s. And a matrix whose diagonal entries are pairwise distinct k-th
        powers d is a k-th power: `canonical.diagonalize_distinct` gives it
        as S diag(d) S^-1, and diag(d) = diag(a)^k, so it is
        (S diag(a) S^-1)^k. Only where neither settles it does `_search`
        run; it never needs the diagonal test again, since a residual whose
        diagonal split would have split the diagonal of c."""
        if c in self.powers:
            return 1
        d = tuple([c[i] for i in self._diag_at])
        for r in range(2, cap + 1):
            verdict = self._verdict(d, r)
            if verdict or verdict is None and self._search(c, r):
                return r
        return None


_cached_layers = functools.lru_cache(maxsize=LAYER_CACHE_SIZE)(_SumsetLayers)


@dataclass(frozen=True)
class WaringReport:
    """Minimum summand counts over all of T_n(F_q), capped."""

    field: FieldSpec
    n: int
    k: int
    cap: int
    per_matrix_min: dict[UTMatrix, int | None]
    witnesses: dict[int, tuple[UTMatrix, tuple[UTMatrix, ...]]]

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
    count v is its first matrix in `matrix_encoding` order; its parts
    descend from P^v to P^1, each step taking the first root whose power
    leaves the rest in P^(s-1) for s = v, ..., 2. ValueError for n, cap or
    k below 1."""
    if cap < 1 or n < 1:
        raise ValueError(f"n and cap must be >= 1, got n={n}, cap={cap}")
    engine = _power_layers(F, n, k)
    per = {M: engine.min_count(M.entries, cap) for M in iter_matrices(F, n)}
    witnesses: dict[int, tuple[UTMatrix, tuple[UTMatrix, ...]]] = {}
    for M in sorted(per, key=matrix_encoding):
        v = per[M]
        if v is not None and v not in witnesses:
            rest, parts = M.entries, []
            for s in range(v - 1, 0, -1):
                shifts = engine._shifts(rest)
                for P, A in engine.roots.items():
                    S = tuple([f(y) for f, y in zip(shifts, P)])
                    if engine.min_count(S, s) is not None:
                        break
                parts.append(A)
                rest = S
            parts.append(engine.roots[rest])
            witnesses[v] = (M, tuple(UTMatrix(F, n, a) for a in parts))
    return WaringReport(F, n, k, cap, per, witnesses)


def bn_size(F: FieldSpec, n: int) -> int:
    return (F.q - 1) ** n * F.q ** (n * (n - 1) // 2)


def iter_bn(F: FieldSpec, n: int):
    """All invertible upper-triangular matrices, deterministic order: the
    diagonal first, then the strict upper entries row-major, each in
    encoding order. `bn_conjugate` returns the first conjugator in it."""
    nonzero = range(1, F.q)
    strict = n * (n - 1) // 2
    for diag_vals in itertools.product(nonzero, repeat=n):
        for uppers in itertools.product(F.elements(), repeat=strict):
            entries = []
            it = iter(uppers)
            for i in range(1, n + 1):
                entries.append(diag_vals[i - 1])
                for _ in range(i + 1, n + 1):
                    entries.append(next(it))
            yield UTMatrix(F, n, tuple(entries))


def _rref(F: FieldSpec, rows, ncols: int):
    """Gauss-Jordan over F: (nonzero reduced rows, their pivot columns)."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        inv = F.inv(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                rows[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(row, rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _kernel_rref(F: FieldSpec, rows, ncols: int):
    """Basis of {x : rows . x = 0} in reduced row echelon form: basis
    vector i is 1 at its leading column c_i, and every basis vector is 0
    at every other leading column and before its own."""
    reduced, pivots = _rref(F, rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f not in pivot_set:
            v = [0] * ncols
            v[f] = 1
            for row, c in zip(reduced, pivots):
                v[c] = F.neg(row[f])
            basis.append(v)
    return _rref(F, basis, ncols)


def bn_conjugate(F: FieldSpec, A: UTMatrix, B: UTMatrix) -> UTMatrix | None:
    """First P in `iter_bn` order with P^-1 A P = B, or None.

    A P = P B is linear in P, so the candidates are the invertible points
    of a kernel. The unknowns are ordered as `iter_bn` orders them
    (diagonal first, then the strict upper entries row-major), and the
    kernel basis w_1..w_d is in reduced echelon form with leading columns
    c_1 < ... < c_d. For v = sum a_i w_i, v[c_i] = a_i, so the order of
    the coefficient vectors is the `iter_bn` order of the points. Only the
    coefficients of diagonal leading columns (at most n) touch the
    diagonal; a depth-first search over them in encoding order, pruned as
    soon as a fixed diagonal entry is 0, with the rest set to 0, finds the
    first invertible point in at most q^n leaves. The B_n-size guard is
    kept as the domain limit."""
    enum_guard(bn_size(F, A.n), BN_GUARD)
    if A.field != F:
        raise FieldMismatchError("matrices live over different fields")
    if B.n != A.n:
        raise SizeMismatchError(f"sizes {A.n} and {B.n} differ")
    if B.field != F:
        raise FieldMismatchError("matrices live over different fields")
    n = A.n
    unknowns = [(i, i) for i in range(1, n + 1)] + [
        (i, j) for i, j in A.positions() if i < j]
    col = {ij: c for c, ij in enumerate(unknowns)}
    width = len(unknowns)
    equations = []
    for i, j in A.positions():
        # (AP - PB)_ij = sum_l A_il P_lj - P_il B_lj over i <= l <= j
        row = [0] * width
        for l in range(i, j + 1):
            row[col[l, j]] = F.add(row[col[l, j]], A.get(i, l))
            row[col[i, l]] = F.sub(row[col[i, l]], B.get(l, j))
        equations.append(row)
    basis, leads = _kernel_rref(F, equations, width)
    diag_leads = [c for c in leads if c < n]
    # coefficient i fixes the diagonal columns from its lead to the next
    fixed = list(zip(diag_leads, diag_leads[1:] + [n]))
    if n and diag_leads[:1] != [0]:
        return None  # P_11 is 0 on the whole kernel

    def search(i: int, v: list[Element]) -> list[Element] | None:
        if i == len(diag_leads):
            return v
        lo, hi = fixed[i]
        # v[lo] = a: the diagonal entry itself, nonzero as in iter_bn
        for a in range(1, F.q):
            w = [F.add(x, F.mul(a, y)) for x, y in zip(v, basis[i])]
            if all(w[c] for c in range(lo, hi)):
                hit = search(i + 1, w)
                if hit is not None:
                    return hit
        return None

    v = search(0, [0] * width)
    if v is None:
        return None
    return UTMatrix(F, n, tuple(v[col[ij]] for ij in A.positions()))


@dataclass(frozen=True)
class CheckResult:
    name: str
    applicable: bool
    ok: bool | None
    detail: str

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
    """
    results = []

    if k == 2:
        try:
            powers = _power_layers(F, 4, k).powers
        except EnumerationTooLargeError:
            results.append(CheckResult(
                "junction_(2,2)_not_square", False, None,
                f"T_4(F_{F.q}) too large to enumerate"))
        else:
            j22 = junction_matrix(F, (2, 2))
            split = elementary(F, 4, 1, 2) + elementary(F, 4, 3, 4)
            ok = j22.entries not in powers and split.entries not in powers
            results.append(CheckResult(
                "junction_(2,2)_not_square", True, ok,
                f"E_23 and E_12+E_34 outside the square image of T_4(F_{F.q})"))
    else:
        results.append(CheckResult(
            "junction_(2,2)_not_square", False, None, "stated for k = 2"))

    if not minus_one_is_kth_power(F, k):
        details = []
        ok = True
        for n in (2, 3):
            J = jordan_block(F, 0, n)
            m = min_waring_number(F, J, k, cap=2)
            ok = ok and m is None
            details.append(f"n={n}: min > 2")
        results.append(CheckResult(
            "jordan_not_two_powers", True, ok, "; ".join(details)))
    else:
        results.append(CheckResult(
            "jordan_not_two_powers", False, None,
            f"-1 is a {k}-th power in F_{F.q}"))

    if k % F.p == 0 and k >= 2:
        powers2 = _power_layers(F, 2, k).powers
        # packed [[b^k, a], [0, b^k]]
        ok = not any((bk, alpha, bk) in powers2
                     for bk in {F.pow(beta, k) for beta in range(1, F.q)}
                     for alpha in range(1, F.q))
        results.append(CheckResult(
            "scalar_plus_nilpotent_not_power", True, ok,
            f"[[b^k, a],[0, b^k]] with a, b nonzero never a {k}-th power"))
    else:
        results.append(CheckResult(
            "scalar_plus_nilpotent_not_power", False, None,
            f"needs p | k; p = {F.p}, k = {k}"))

    return tuple(results)
