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
products with v = lam - v. One lazy walk per (F, lam, k), cached, meets
them by walking the k-th power values v upward, and goes on only when a
reader asks for a class it has not met: selection asks for as many
candidates as its scan reaches, and the structured route for two
classes, so neither pays O(q) for a large field. Only a failure (whose
counts name every class), `classified` (the whole partition) and its
readers, `solve`, `classify` and `count_zero_sum_classes`, walk to the end.
No k-th power is recomputed; the decomposer reads no more than one
solution per class (its pair of least roots), and records each chosen
solution as an AssignmentEntry.
"""

from __future__ import annotations

import collections
import functools
import math

from .errors import (
    HypothesisViolatedError,
    InsufficientClassesError,
    NoAdmissibleShiftError,
    RootMismatchError,
)
from .fields import (ROOT_MAP_CACHE_SIZE, Element, FieldSpec, Record,
                     check_elements, enum_guard, kth_power_map, kth_root_map,
                     minus_one_is_kth_power)

# (F, lam, k) class walks kept, least recently used out; every lam of
# F_61, F_49, F_81 and F_125 for k = 2 and 3 makes 632 of them. Each holds
# the classes it has met as root fiber pairs.
CLASS_CACHE_SIZE = 1024


Fiber = tuple[Element, ...]


class SolutionClassification(Record):
    """Partition S = U u V_1 u ... u V_r of the solutions of
    x^k + y^k = lam, kept as root fibers.

    Class i is fibers[i][0] x fibers[i][1], the roots of its signature
    signatures[i] = (x^k, y^k); classes are ordered lexicographically by
    signature. U is the union of u_fibers[j][0] x u_fibers[j][1] over the
    signatures u_signatures[j] = (v, v), in the same order; it spans
    several fibers only in characteristic 2 with lam = 0, and then the
    first is fiber(0) = (0,), so u_fibers[0] holds U's least member.
    r = len(signatures).
    """

    __slots__ = ("lam", "k", "signatures", "fibers", "u_signatures",
                 "u_fibers")

    def __init__(self, lam: Element, k: int,
                 signatures: tuple[tuple[Element, Element], ...],
                 fibers: tuple[tuple[Fiber, Fiber], ...],
                 u_signatures: tuple[tuple[Element, Element], ...],
                 u_fibers: tuple[tuple[Fiber, Fiber], ...]):
        Record.__init__(self, lam, k, signatures, fibers, u_signatures,
                        u_fibers)

    @property
    def r(self) -> int:
        return len(self.signatures)


class ClassWalk:
    """The classes of x^k + y^k = lam as far as they have been met: one
    walk over the k-th power values v in ascending order, each v with
    lam - v also a k-th power a class fiber(v) x fiber(lam - v) with
    signature (v, lam - v), in V when the two differ and in U otherwise.

    `candidates` is what selection scans: (representative (x, y),
    signature) per V class in class order, then, once the walk is done,
    U's least member (when U is nonempty) as a last resort for
    sub-threshold fields. A representative is its class's lex-smallest
    member, the least roots of its signature. In the theorem regime the
    V representatives alone always suffice, so the U candidate never
    changes theorem-regime outputs. lam outside [0, q) raises
    FieldMismatchError, and k < 1 ValueError (from kth_root_map)."""

    def __init__(self, F: FieldSpec, lam: Element, k: int):
        check_elements(F, (lam,), "lambda")
        self._roots = kth_root_map(F, k)
        self._lam, self._sub = lam, F.sub
        # the k-th power values not yet walked, ascending
        self._values = filter(self._roots.__contains__, range(F.q))
        # the V classes and the U parts met, as SolutionClassification
        # keeps them, and ((x, y), signature) of each candidate
        self.signatures, self.fibers = [], []
        self.u_signatures, self.u_fibers = [], []
        self.candidates = []
        self.done = False

    def reach(self, need: float = math.inf) -> int:
        """Walk on until `need` candidates are met, or to the end: the
        number of candidates met, fewer than `need` only when every one
        has been."""
        cands = self.candidates
        if len(cands) >= need or self.done:
            return len(cands)
        roots, lam, sub = self._roots, self._lam, self._sub
        for v in self._values:
            w = sub(lam, v)
            if w not in roots:
                continue
            xs, ys = roots[v], roots[w]
            if v == w:
                self.u_signatures.append((v, w))
                self.u_fibers.append((xs, ys))
                continue
            self.signatures.append((v, w))
            self.fibers.append((xs, ys))
            cands.append(((xs[0], ys[0]), (v, w)))
            if len(cands) >= need:
                return len(cands)
        self.done = True
        if self.u_fibers:
            (xs, ys), sig = self.u_fibers[0], self.u_signatures[0]
            cands.append(((xs[0], ys[0]), sig))
        return len(cands)

    def scan(self, start: int = 0):
        """(index, candidate) for the candidates from `start` on, walking
        on only past the last one met."""
        cands, i = self.candidates, start
        while i < len(cands) or self.reach(i + 1) > i:
            yield i, cands[i]
            i += 1


# the one class cache: class_walk(F, lam, k) is the (F, lam, k) walk
class_walk = functools.lru_cache(maxsize=CLASS_CACHE_SIZE)(ClassWalk)


def power_diff_quotient(F: FieldSpec, x: Element, y: Element, k: int) -> Element:
    """x^(k-1) + x^(k-2) y + ... + y^(k-1).

    Satisfies x^k - y^k = (x - y) * power_diff_quotient(x, y); its
    nonvanishing is what lets triangular root-building divide by it.
    Horner's rule in x, acc <- acc x + y^i for i < k, with y^i carried
    along: k steps of one product and one sum each, and no power. x or y
    outside [0, q) raises FieldMismatchError.
    """
    check_elements(F, (x, y))
    return _power_diff_quotient(F, x, y, k)


def _power_diff_quotient(F: FieldSpec, x: Element, y: Element, k: int
                         ) -> Element:
    if k < 1:
        raise ValueError("k must be >= 1")
    acc, yi = 0, 1
    for _ in range(k):
        acc = F.add(F.mul(acc, x), yi)
        yi = F.mul(yi, y)
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
    is kept, as the root map is. s < 0 raises ValueError, and the
    predicate raises FieldMismatchError for a value outside [0, q)."""
    inside = _in_power_sums(F, k, s)

    def member(v: Element) -> bool:
        check_elements(F, (v,), "value")
        return inside(v)
    return member


def _in_power_sums(F: FieldSpec, k: int, s: int):
    """`in_power_sums` without the element check, for values that are
    elements by construction."""
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
    outside W_s = K + W_(s-1). A d_i outside [0, q) raises
    FieldMismatchError."""
    check_elements(F, d, "diagonal entry")
    least = [(r[0], v) for v, r in kth_root_map(F, k).items()]  # ascending
    inside = _in_power_sums(F, k, s - 1)
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


class QuotientZeroReport(Record):
    """Exhaustive check of when power_diff_quotient vanishes off (0,0):
    exactly at pairs with (a = b and p | k) or (a != b and a^k = b^k)."""

    __slots__ = ("q", "k", "zero_pairs", "violations", "checked")

    def __init__(self, q: int, k: int,
                 zero_pairs: tuple[tuple[Element, Element], ...],
                 violations: tuple[tuple[Element, Element], ...],
                 checked: int):
        Record.__init__(self, q, k, zero_pairs, violations, checked)

    @property
    def ok(self) -> bool:
        return not self.violations


def quotient_zero_report(F: FieldSpec, k: int) -> QuotientZeroReport:
    """Scan F_q x F_q minus (0,0) and compare the observed zero set of the
    quotient against the predicted characterization. Each of the q^2 pairs
    takes the k steps of `power_diff_quotient`, so the guard counts q^2 k."""
    enum_guard(F.q ** 2 * k)
    p = F.p
    zeros = []
    violations = []
    checked = 0
    powers = kth_power_map(F, k)
    for a in F.elements():
        for b in F.elements():
            if a == 0 and b == 0:
                continue
            checked += 1
            is_zero = _power_diff_quotient(F, a, b, k) == 0
            predicted = (a == b and k % p == 0) or (a != b and powers[a] == powers[b])
            if is_zero:
                zeros.append((a, b))
            if is_zero != predicted:
                violations.append((a, b))
    return QuotientZeroReport(F.q, k, tuple(zeros), tuple(violations), checked)


def classified(F: FieldSpec, lam: Element, k: int) -> SolutionClassification:
    """The partition of the solutions of x^k + y^k = lam, from the cached
    `class_walk` walked to the end. k < 1 raises ValueError (from
    kth_root_map), and lam outside [0, q) raises FieldMismatchError."""
    walk = class_walk(F, lam, k)
    walk.reach()
    return SolutionClassification(lam, k, *map(tuple, (
        walk.signatures, walk.fibers, walk.u_signatures, walk.u_fibers)))


def lex_min_solution(F: FieldSpec, lam: Element, k: int
                     ) -> tuple[Element, Element] | None:
    """The (x, y)-least solution of x^k + y^k = lam, or None when there is
    none: x is the root of lam's first option at s = 2
    (`diagonal_options`), and y the least root of lam - x^k. lam outside
    [0, q) raises FieldMismatchError."""
    check_elements(F, (lam,), "lambda")
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


class AssignmentEntry(Record):
    """One diagonal position's solution: x^k + y^k (+ z^k) = lam."""

    __slots__ = ("lam", "x", "y", "z")

    def __init__(self, lam: Element, x: Element, y: Element,
                 z: Element | None = None):
        Record.__init__(self, lam, x, y, z)

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
    Positions of one target are interchangeable: swapping their picks
    keeps an assignment feasible, so the first one picks increasing
    candidates within a target, and a position whose target repeats the
    previous one's starts just after that position's pick.
    More targets than k-th power values fail at once, as does a target with
    fewer classes than occurrences; an exhausted search names the first
    target scanned. Each target's `class_walk` goes only as far as the
    scan reads it, and to the end only for a failure's count. A target
    outside [0, q) raises FieldMismatchError.
    """
    targets = list(targets)
    check_elements(F, targets, "target")
    n, values = len(targets), len(kth_root_map(F, k))
    if n > values:
        raise InsufficientClassesError(
            f"{n} positions need pairwise distinct values of x^{k}, but "
            f"x^{k} takes only {values} values over F_{F.q}",
            found=values, needed=n)

    mult = collections.Counter(targets)
    walks = {lam: class_walk(F, lam, k) for lam in mult}
    for lam, need in sorted(mult.items(), key=lambda d: (-d[1], d[0])):
        found = walks[lam].reach(need)
        if found < need:
            raise InsufficientClassesError(
                f"x^{k} + y^{k} = {lam} has {found} usable classes over "
                f"F_{F.q}, need {need} (sufficient only for q > 4 n^2 k^16)",
                lam=lam, found=found, needed=need)

    order = sorted(range(n), key=lambda i: (-mult[targets[i]], targets[i]))
    scan = [targets[i] for i in order]
    placed = []  # (index, (x, y), x^k, y^k) of each position placed so far
    stack = []  # the candidate scan of each position entered
    used_x, used_y = set(), set()
    while len(placed) < n:
        if len(stack) == len(placed):
            depth = len(placed)
            start = (placed[-1][0] + 1 if depth
                     and scan[depth] == scan[depth - 1] else 0)
            stack.append(walks[scan[depth]].scan(start))
        for i, (xy, (sx, sy)) in stack[-1]:
            if sx not in used_x and sy not in used_y:
                placed.append((i, xy, sx, sy))
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
                    lam=scan[0], found=walks[scan[0]].reach(), needed=n)
            _, _, sx, sy = placed.pop()
            used_x.remove(sx)
            used_y.remove(sy)
    chosen = sorted(zip(order, placed))
    return tuple(AssignmentEntry(targets[i], *xy)
                 for i, (_, xy, _, _) in chosen)


def shift_to_two_variable(F: FieldSpec, lam: Element, k: int,
                          forbidden=frozenset()) -> tuple[Element, Element]:
    """Pick z so that lam' = lam - z^k is nonzero and outside `forbidden`,
    reducing a three-power target to a two-power one. z is the least root
    of the first admissible value in the root map's least-root order (the
    least admissible z), so z = 0 wins whenever lam itself is admissible.
    lam outside [0, q) raises FieldMismatchError, and k < 1 ValueError."""
    check_elements(F, (lam,), "lambda")
    forbidden = frozenset(forbidden)
    for v, roots in kth_root_map(F, k).items():
        shifted = F.sub(lam, v)
        if shifted != 0 and shifted not in forbidden:
            return roots[0], shifted
    raise NoAdmissibleShiftError(
        f"no shift keeps {lam} - z^{k} nonzero and outside "
        f"{sorted(forbidden)} over F_{F.q}")


class LangWeilReport(Record):
    __slots__ = ("q", "k", "m", "N", "expected", "bound")

    def __init__(self, q: int, k: int, m: int, N: int, expected: int,
                 bound: float):
        # bound is k^(2m) sqrt(q^(m-1)), math.inf past float range
        Record.__init__(self, q, k, m, N, expected, bound)

    @property
    def ok(self) -> bool:
        """|N - E| <= k^(2m) sqrt(E) with E = q^(m-1), decided in exact
        integers as (N - E)^2 <= k^(4m) E."""
        return ((self.N - self.expected) ** 2
                <= self.k ** (4 * self.m) * self.expected)


def lang_weil_check(F: FieldSpec, k: int, m: int, alphas) -> LangWeilReport:
    """Exact zero count N of alpha_1 X_1^k + ... + alpha_m X_m^k - 1 over
    F_q^m, compared against |N - q^(m-1)| <= k^(2m) sqrt(q^(m-1)).

    The count folds the per-variable value histograms together, which is
    the exhaustive scan reorganized (identical N), each a * v counted
    |fiber(v)| times. Each of the m folds adds |K| values to each of q
    sums, K the k-th powers, so the guard counts m q |K| steps, with
    |K| = (q-1)/gcd(k, q-1) + 1 read before any map is built. The
    report's `ok` is exact; its `bound` is a float, math.inf where it
    leaves float range. k < 1 raises ValueError (kth_root_map).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    alphas = list(alphas)
    if len(alphas) != m:
        raise ValueError(f"need {m} coefficients, got {len(alphas)}")
    check_elements(F, alphas, "coefficient")
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
    try:
        bound = k ** (2 * m) * math.sqrt(expected)
    except OverflowError:  # an integer operand past float range
        bound = math.inf
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
        raise RootMismatchError(
            f"class-count self-check failed over F_{F.q}, k={k}: "
            f"formula {formula}, observed {observed}")
    return formula
