"""Solving and classifying X^k + Y^k = lambda (and the three-variable
version) over F_q.

The load-bearing structure is the partition of the solution set S into

    U   = solutions with x^k = y^k (the symmetric part), and
    V_i = maximal classes of solutions sharing the signature (x^k, y^k)
          with x^k != y^k.

Since x^k determines y^k = lambda - x^k, distinct classes have pairwise
distinct x-power components and pairwise distinct y-power components, which
is exactly what the matrix decomposition needs: one representative per class
yields diagonal assignments whose k-th powers never collide.

The classes are read off the cached k-th root map: V_i with signature
(v, lam - v) is exactly fiber(v) x fiber(lam - v), and U collects the
products with v = lam - v. O(q) work per lam once that map exists, and no
k-th power is recomputed. A classification is cached as those fiber pairs
and signatures only; the decomposer reads no more than one solution per
class (its pair of least roots), and records each chosen solution as an
AssignmentEntry.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

from .errors import (
    EnumerationTooLargeError,
    FieldMismatchError,
    HypothesisViolatedError,
    InsufficientClassesError,
    NoAdmissibleShiftError,
)
from .fields import Element, FieldSpec, kth_root_map, minus_one_is_kth_power

DEFAULT_ENUM_GUARD = 10 ** 8
# (F, lam, k) classifications kept, least recently used out; every lam of
# F_61, F_49, F_81 and F_125 for k = 2 and 3 makes 632 of them. Each holds
# its classes as root fiber pairs.
CLASS_CACHE_SIZE = 1024


def enum_guard(size: int, cap: int = DEFAULT_ENUM_GUARD) -> None:
    """Hard error when an exhaustive enumeration would exceed the guard.
    WARING_MAX_ENUM overrides the cap (documented as at-your-own-risk); a
    value that is not an integer fails closed with the same error."""
    raw = os.environ.get("WARING_MAX_ENUM")
    try:
        limit = cap if raw is None else int(raw)
    except ValueError:
        raise EnumerationTooLargeError(
            f"WARING_MAX_ENUM={raw!r} is not an integer") from None
    if size > limit:
        raise EnumerationTooLargeError(
            f"enumeration of size {size} exceeds guard {limit}")


Fiber = tuple[Element, ...]


@dataclass(frozen=True)
class SolutionClassification:
    """Partition S = U u V_1 u ... u V_r of the solutions of
    x^k + y^k = lam, kept as root fibers.

    Class i is fibers[i][0] x fibers[i][1], the roots of its signature
    signatures[i] = (x^k, y^k); classes are ordered lexicographically by
    signature. U is the union of u_fibers[j][0] x u_fibers[j][1] over the
    signatures u_signatures[j] = (v, v), in the same order; it spans
    several fibers only in characteristic 2 with lam = 0, and then the
    first is fiber(0) = (0,), so u_fibers[0] holds U's least member. The
    selection candidates are built on first access and kept.
    r = len(signatures).
    """

    lam: Element
    k: int
    signatures: tuple[tuple[Element, Element], ...]
    fibers: tuple[tuple[Fiber, Fiber], ...]
    u_signatures: tuple[tuple[Element, Element], ...]
    u_fibers: tuple[tuple[Fiber, Fiber], ...]

    @property
    def r(self) -> int:
        return len(self.signatures)

    @functools.cached_property
    def _candidates(self) -> tuple[tuple[tuple[Element, Element],
                                         tuple[Element, Element]], ...]:
        """What selection scans: (representative (x, y), signature) per
        class in class order, then U's least member (when U is nonempty)
        as a last resort for sub-threshold fields. A representative is its
        class's lex-smallest member, the least roots of its signature. In
        the theorem regime the V representatives alone always suffice, so
        the U candidate never changes theorem-regime outputs."""
        parts = zip(self.fibers + self.u_fibers[:1],
                    self.signatures + self.u_signatures[:1])
        return tuple(((xs[0], ys[0]), sig) for (xs, ys), sig in parts)


def power_diff_quotient(F: FieldSpec, x: Element, y: Element, k: int) -> Element:
    """x^(k-1) + x^(k-2) y + ... + y^(k-1).

    Satisfies x^k - y^k = (x - y) * power_diff_quotient(x, y); its
    nonvanishing is what lets triangular root-building divide by it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    acc = 0
    for i in range(k):
        acc = F.add(acc, F.mul(F.pow(x, k - 1 - i), F.pow(y, i)))
    return acc


@dataclass(frozen=True)
class QuotientZeroReport:
    """Exhaustive check of when power_diff_quotient vanishes off (0,0):
    exactly at pairs with (a = b and p | k) or (a != b and a^k = b^k)."""

    q: int
    k: int
    zero_pairs: tuple[tuple[Element, Element], ...]
    violations: tuple[tuple[Element, Element], ...]
    checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def quotient_zero_report(F: FieldSpec, k: int) -> QuotientZeroReport:
    """Scan F_q x F_q minus (0,0) and compare the observed zero set of the
    quotient against the predicted characterization."""
    enum_guard(F.q ** 2)
    p = F.p
    zeros = []
    violations = []
    checked = 0
    pow_map = {a: F.pow(a, k) for a in F.elements()}
    for a in F.elements():
        for b in F.elements():
            if a == 0 and b == 0:
                continue
            checked += 1
            is_zero = power_diff_quotient(F, a, b, k) == 0
            predicted = (a == b and k % p == 0) or (a != b and pow_map[a] == pow_map[b])
            if is_zero:
                zeros.append((a, b))
            if is_zero != predicted:
                violations.append((a, b))
    return QuotientZeroReport(F.q, k, tuple(zeros), tuple(violations), checked)


@functools.lru_cache(maxsize=CLASS_CACHE_SIZE)
def classified(F: FieldSpec, lam: Element, k: int) -> SolutionClassification:
    """The partition of the solutions of x^k + y^k = lam, cached; the
    decomposer hammers this. Walking the k-th power values v upward yields
    the classes fiber(v) x fiber(lam - v) in signature order. k < 1 raises
    ValueError (from kth_root_map), and lam outside [0, q) raises
    FieldMismatchError."""
    if not 0 <= lam < F.q:
        raise FieldMismatchError(f"lambda {lam} is outside [0, {F.q})")
    roots = kth_root_map(F, k)
    classes = []
    U = []
    for v in sorted(roots):
        w = F.sub(lam, v)
        if w not in roots:
            continue
        (U if v == w else classes).append(((v, w), (roots[v], roots[w])))
    return SolutionClassification(
        lam, k, tuple(sig for sig, _ in classes), tuple(f for _, f in classes),
        tuple(sig for sig, _ in U), tuple(f for _, f in U))


def lex_min_solution(F: FieldSpec, lam: Element, k: int
                     ) -> tuple[Element, Element] | None:
    """The (x, y)-least solution of x^k + y^k = lam, or None when there is
    none. Each part's least member pairs the least roots of its fibers, and
    the selection candidates hold those pairs of every class and of U."""
    return min((xy for xy, _ in classified(F, lam, k)._candidates),
               default=None)


def classification_report(F: FieldSpec, lam: Element, k: int) -> dict:
    """Stable JSON shape for a classification."""
    cl = classified(F, lam, k)
    return {
        "q": F.q,
        "k": k,
        "lambda": lam,
        "classes": [
            {"sig": [v, w], "size": len(xs) * len(ys), "rep": [xs[0], ys[0]]}
            for (v, w), (xs, ys) in zip(cl.signatures, cl.fibers)
        ],
        "U_size": sum(len(xs) * len(ys) for xs, ys in cl.u_fibers),
    }


@dataclass(frozen=True, slots=True)
class AssignmentEntry:
    """One diagonal position's solution: x^k + y^k (+ z^k) = lam."""

    lam: Element
    x: Element
    y: Element
    z: Element | None = None

    def as_row(self) -> list[Element]:
        if self.z is None:
            return [self.x, self.y]
        return [self.x, self.y, self.z]


def select_system_pairs(F: FieldSpec, demands, k: int
                        ) -> tuple[AssignmentEntry, ...]:
    """Assign l_i solutions of x^k + y^k = lam_i to each demand
    (lam_i, l_i), with all x-powers pairwise distinct and all y-powers
    pairwise distinct across the whole assignment.

    Demands are processed in decreasing multiplicity then increasing lam
    (hardest first); per position the lam's class representatives are
    scanned in class order and the first with both powers unused is taken.
    Chronological backtracking over representatives handles sub-threshold
    fields where pure greedy dead-ends. More positions than k-th power
    values fail at once, since the x-powers must be pairwise distinct.
    """
    demands = list(demands)
    lams = [lam for lam, _ in demands]
    if len(set(lams)) != len(lams):
        raise ValueError("demand targets must be pairwise distinct")
    if any(l < 1 for _, l in demands):
        raise ValueError("multiplicities must be >= 1")
    order = sorted(demands, key=lambda d: (-d[1], d[0]))
    positions: list[Element] = []
    for lam, mult in order:
        positions.extend([lam] * mult)
    n = len(positions)
    values = len(kth_root_map(F, k))
    if n > values:
        raise InsufficientClassesError(
            f"{n} positions need pairwise distinct values of x^{k}, but "
            f"x^{k} takes only {values} values over F_{F.q}",
            found=values, needed=n)

    cand_lists = {lam: classified(F, lam, k)._candidates for lam, _ in order}
    for lam, mult in order:
        found = len(cand_lists[lam])
        if found < mult:
            raise InsufficientClassesError(
                f"x^{k} + y^{k} = {lam} has {found} usable classes over "
                f"F_{F.q}, need {mult} (sufficient only for q > 4 n^2 k^16)",
                lam=lam, found=found, needed=mult)

    chosen: list[tuple[Element, Element, Element]] = []  # (lam, x, y)
    used_x: list[Element] = []
    used_y: list[Element] = []
    idx = [0] * n
    pos = 0
    while pos < n:
        lam = positions[pos]
        cands = cand_lists[lam]
        placed = False
        i = idx[pos]
        while i < len(cands):
            (x, y), (sx, sy) = cands[i]
            if sx not in used_x and sy not in used_y:
                chosen.append((lam, x, y))
                used_x.append(sx)
                used_y.append(sy)
                idx[pos] = i + 1
                placed = True
                break
            i += 1
        if placed:
            pos += 1
        else:
            idx[pos] = 0
            if pos == 0:
                raise InsufficientClassesError(
                    f"no compatible class assignment for targets "
                    f"{sorted(set(positions))} over F_{F.q} (k={k}); "
                    f"sufficient only for q > 4 n^2 k^16",
                    lam=lam, found=len(cands), needed=n)
            pos -= 1
            chosen.pop()
            used_x.pop()
            used_y.pop()

    return tuple(AssignmentEntry(*c) for c in chosen)


def shift_to_two_variable(F: FieldSpec, lam: Element, k: int,
                          forbidden=frozenset()) -> tuple[Element, Element]:
    """Pick z so that lam' = lam - z^k is nonzero and outside `forbidden`,
    reducing a three-power target to a two-power one. z scans encodings
    upward, so z = 0 wins whenever lam itself is admissible."""
    forbidden = frozenset(forbidden)
    for z in F.elements():
        shifted = F.sub(lam, F.pow(z, k))
        if shifted != 0 and shifted not in forbidden:
            return z, shifted
    raise NoAdmissibleShiftError(
        f"no shift keeps {lam} - z^{k} nonzero and outside "
        f"{sorted(forbidden)} over F_{F.q}")


@dataclass(frozen=True)
class LangWeilReport:
    q: int
    k: int
    m: int
    N: int
    expected: int
    bound: float

    @property
    def ok(self) -> bool:
        return abs(self.N - self.expected) <= self.bound


def lang_weil_check(F: FieldSpec, k: int, m: int, alphas) -> LangWeilReport:
    """Exact zero count N of alpha_1 X_1^k + ... + alpha_m X_m^k - 1 over
    F_q^m, compared against |N - q^(m-1)| <= k^(2m) sqrt(q^(m-1)).

    The count folds the per-variable value histograms together, which is
    the exhaustive scan reorganized (identical N, m*q^2 work).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    alphas = list(alphas)
    if len(alphas) != m:
        raise ValueError(f"need {m} coefficients, got {len(alphas)}")
    if any(not 0 <= a < F.q for a in alphas):
        raise FieldMismatchError(
            f"coefficients {alphas} are not all inside [0, {F.q})")
    if any(a == 0 for a in alphas):
        raise ValueError("coefficients must be nonzero")
    enum_guard(F.q ** m)
    hist = [0] * F.q
    for x in F.elements():
        hist[F.mul(alphas[0], F.pow(x, k))] += 1
    for a in alphas[1:]:
        nxt = [0] * F.q
        values = [F.mul(a, F.pow(x, k)) for x in F.elements()]
        counts: dict[Element, int] = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        for acc_v, acc_c in enumerate(hist):
            if acc_c:
                for v, c in counts.items():
                    nxt[F.add(acc_v, v)] += acc_c * c
        hist = nxt
    N = hist[1]
    expected = F.q ** (m - 1)
    bound = (k ** (2 * m)) * math.sqrt(expected)
    return LangWeilReport(F.q, k, m, N, expected, bound)


def count_zero_sum_classes(F: FieldSpec, k: int) -> int:
    """(q-1)/gcd(k, q-1) + 1 distinct-power solution classes of
    X^k + Y^k = 0, valid for odd p with -1 a k-th power; cross-checked
    against the observed classification ((0,0) counts as one class)."""
    if F.p == 2:
        raise HypothesisViolatedError("characteristic must be odd")
    if not minus_one_is_kth_power(F, k):
        raise HypothesisViolatedError(
            f"-1 is not a {k}-th power in F_{F.q}")
    formula = (F.q - 1) // math.gcd(k, F.q - 1) + 1
    cl = classified(F, 0, k)
    observed = cl.r + (1 if cl.u_fibers else 0)
    if observed != formula:
        raise RuntimeError(
            f"class-count self-check failed over F_{F.q}, k={k}: "
            f"formula {formula}, observed {observed}")
    return formula
