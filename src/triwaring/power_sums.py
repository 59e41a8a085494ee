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

import collections
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
from .fields import (ROOT_MAP_CACHE_SIZE, Element, FieldSpec, kth_root_map,
                     minus_one_is_kth_power)

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


def in_power_sums(F: FieldSpec, k: int, s: int):
    """Membership in W_s, the sums of s k-th powers in F_q (W_0 = {0}),
    as a predicate on values.

    H = K minus 0 is a subgroup of F_q^*, and h W_s = W_s for h in H,
    so W_s is 0 and whole cosets of H, told apart by the class
    chi(v) = v^|H| (chi(0) = 0). As w + a = a (w/a + 1), the classes
    of W_s are those of W_(s-1) and chi(t + 1) for t in a coset new in
    W_(s-1): each coset is walked once, as one representative times
    H, until a level adds none. No W_s is built as a set of elements:
    over a large field that would cost q |K| sums. One walk per (F, k)
    is kept, as the root map is. s < 0 raises ValueError."""
    if s < 0:
        raise ValueError(f"s must be >= 0, got {s}")
    kth = kth_root_map(F, k)
    if s <= 1:
        return (kth if s else {0}).__contains__
    levels = _coset_walk(F, k)
    classes, order = levels[min(s, len(levels)) - 1], len(kth) - 1
    return lambda v: F.pow(v, order) in classes


def diagonal_options(F: FieldSpec, d, k: int, s: int
                     ) -> tuple[tuple[tuple[Element, Element], ...], ...]:
    """Per d_i, the pairs (a, a^k), a a least root, with d_i - a^k in
    W_(s-1) (W_0 = {0}), ascending in a: empty exactly when d_i is
    outside W_s = K + W_(s-1)."""
    least = [(r[0], v) for v, r in kth_root_map(F, k).items()]  # ascending
    inside = in_power_sums(F, k, s - 1)
    return tuple([tuple([(a, v) for a, v in least if inside(F.sub(c, v))])
                  for c in d])


def diagonal_roots(F: FieldSpec, options, k: int
                   ) -> tuple[tuple[Element, Element], ...] | None:
    """The options (a_i, a_i^k), one from each list of `diagonal_options`
    for d at s, lex-least in the roots a_i with every pdq(a_i, a_j), i < j,
    nonzero, or None: `backsub_root` then roots any C with the diagonal d
    minus diagonal (s-1)-sums, so C is a sum of s k-th powers.

    Least roots suffice: two distinct ones have distinct powers, so pdq
    vanishes only on a root shared by two positions whose pdq(a, a) =
    k a^(k-1) is 0 (0 when k >= 2, every root when p | k). Such once-only
    roots serve one position each: every position takes its least option
    that leaves the later ones a matching into the unused once-only roots."""
    # the once-only options: all when p | k, else (0, 0^k) when k >= 2
    once = (set().union(*options) if k % F.p == 0
            else {(0, 0)} if k > 1 else set())
    free, chosen = set(once), []
    for i, opts in enumerate(options):
        # a later position with a reusable option never blocks the others
        later = [o for o in options[i + 1:] if set(o) <= once]
        pick = next((o for o in opts if (o not in once or o in free)
                     and _matchable(later, free - {o})), None)
        if pick is None:
            return None
        free.discard(pick)
        chosen.append(pick)
    return tuple(chosen)


def _matchable(option_lists, free) -> bool:
    """Can each list get its own element of `free`? One augmenting-path
    search per list (Hopcroft & Karp, SIAM J. Comput. 2, 1973)."""
    owner: dict = {}

    def augment(i: int, seen: set) -> bool:
        for a in option_lists[i]:
            if a in free and a not in seen:
                seen.add(a)
                if a not in owner or augment(owner[a], seen):
                    owner[a] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(option_lists)))


@functools.lru_cache(maxsize=ROOT_MAP_CACHE_SIZE)
def _coset_walk(F: FieldSpec, k: int) -> tuple[frozenset[Element], ...]:
    """The classes of W_1, W_2, ... by the walk of `in_power_sums`."""
    kth = kth_root_map(F, k)
    order = len(kth) - 1  # |H|, H = the nonzero k-th powers
    count = (F.q - 1) // order + 1  # cosets of H, and 0
    levels, reps = [frozenset({0, 1})], [1]  # reps: one per newest class
    while reps:
        known, frontier, reps = set(levels[-1]), reps, []
        for u in (F.add(F.mul(r, h), 1) for r in frontier for h in kth):
            if len(known) == count:
                break
            c = F.pow(u, order)
            if c not in known:
                known.add(c)
                reps.append(u)
        levels.append(frozenset(known))
    return tuple(levels)


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
    pow_map = {a: v for v, roots in kth_root_map(F, k).items() for a in roots}
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
    none: x is the root of lam's first option at s = 2
    (`diagonal_options`), and y the least root of lam - x^k."""
    if not 0 <= lam < F.q:
        raise FieldMismatchError(f"lambda {lam} is outside [0, {F.q})")
    (options,) = diagonal_options(F, (lam,), k, 2)
    return next(((x, kth_root_map(F, k)[F.sub(lam, v)][0])
                 for x, v in options), None)


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


def select_system_pairs(F: FieldSpec, targets, k: int
                        ) -> tuple[AssignmentEntry, ...]:
    """One solution of x^k + y^k = t per target t, in target order, with
    all x-powers pairwise distinct and all y-powers pairwise distinct. Each
    x and y is a least root (a class representative pairs the least roots
    of its signature), so the x's and y's serve as diagonal roots.

    Positions are scanned by decreasing multiplicity of their target, then
    increasing target, then target order (hardest first); each tries its
    target's representatives in class order and takes the first with both
    powers unused. Chronological backtracking (a stack of one candidate
    iterator per entered position) handles sub-threshold fields where
    greedy dead-ends; the result is the first assignment of that scan.
    More targets than k-th power values fail at once, as does a target with
    fewer classes than occurrences; an exhausted search names the first
    target scanned.
    """
    targets = list(targets)
    n, values = len(targets), len(kth_root_map(F, k))
    if n > values:
        raise InsufficientClassesError(
            f"{n} positions need pairwise distinct values of x^{k}, but "
            f"x^{k} takes only {values} values over F_{F.q}",
            found=values, needed=n)

    mult = collections.Counter(targets)
    cands = {lam: classified(F, lam, k)._candidates for lam in mult}
    for lam, need in sorted(mult.items(), key=lambda d: (-d[1], d[0])):
        found = len(cands[lam])
        if found < need:
            raise InsufficientClassesError(
                f"x^{k} + y^{k} = {lam} has {found} usable classes over "
                f"F_{F.q}, need {need} (sufficient only for q > 4 n^2 k^16)",
                lam=lam, found=found, needed=need)

    order = sorted(range(n), key=lambda i: (-mult[targets[i]], targets[i]))
    scan = [targets[i] for i in order]
    placed = []  # ((x, y), x^k, y^k) of each position placed so far
    stack = []  # the candidate iterator of each position entered
    used_x, used_y = set(), set()
    while len(placed) < n:
        if len(stack) == len(placed):
            stack.append(iter(cands[scan[len(placed)]]))
        for xy, (sx, sy) in stack[-1]:
            if sx not in used_x and sy not in used_y:
                placed.append((xy, sx, sy))
                used_x.add(sx)
                used_y.add(sy)
                break
        else:
            stack.pop()
            if not placed:
                raise InsufficientClassesError(
                    f"no compatible class assignment for targets "
                    f"{sorted(mult)} over F_{F.q} (k={k}); "
                    f"sufficient only for q > 4 n^2 k^16",
                    lam=scan[0], found=len(cands[scan[0]]), needed=n)
            _, sx, sy = placed.pop()
            used_x.remove(sx)
            used_y.remove(sy)
    chosen = sorted(zip(order, placed))
    return tuple(AssignmentEntry(targets[i], *xy) for i, (xy, _, _) in chosen)


def shift_to_two_variable(F: FieldSpec, lam: Element, k: int,
                          forbidden=frozenset()) -> tuple[Element, Element]:
    """Pick z so that lam' = lam - z^k is nonzero and outside `forbidden`,
    reducing a three-power target to a two-power one. z is the least root
    of the first admissible value in the root map's least-root order (the
    least admissible z), so z = 0 wins whenever lam itself is admissible.
    lam outside [0, q) raises FieldMismatchError, and k < 1 ValueError."""
    if not 0 <= lam < F.q:
        raise FieldMismatchError(f"lambda {lam} is outside [0, {F.q})")
    forbidden = frozenset(forbidden)
    for v, roots in kth_root_map(F, k).items():
        shifted = F.sub(lam, v)
        if shifted != 0 and shifted not in forbidden:
            return roots[0], shifted
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
    the exhaustive scan reorganized (identical N), each a * v counted
    |fiber(v)| times. Each of the m folds adds |K| values to each of q
    sums, K the k-th powers, so the guard counts m q |K| steps, with
    |K| = (q-1)/gcd(k, q-1) + 1 read before any map is built. k < 1
    raises ValueError (kth_root_map).
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
    enum_guard(m * F.q * ((F.q - 1) // math.gcd(k, F.q - 1) + 1))
    hist = [1] + [0] * (F.q - 1)  # the empty sum is 0
    for a in alphas:
        nxt = [0] * F.q
        counts = [(F.mul(a, v), len(roots))
                  for v, roots in kth_root_map(F, k).items()]
        for acc_v, acc_c in enumerate(hist):
            if acc_c:
                for v, c in counts:
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
