"""Machine checks of the paper's claims.

The paper builds its decompositions constructively, and proves what they
rest on: the divisor pdq(a, b) that root-building divides by vanishes
only where it says (`quotient_zero_report`), X^k + Y^k = 0 has the
classes it counts (`count_zero_sum_classes`), diagonal equations meet
the Lang-Weil point count (`lang_weil_check`), the negative claims hold
(`negative_checks`), and a fresh diagonal position keeps a root
(`embed_power`). The exhaustive scans run behind the enumeration
guard. No decomposition or oracle query calls these, so the
construction modules do not carry them.

Importing this module loads only `errors` and `fields`. A check that
reads another layer imports it when it runs: `count_zero_sum_classes`
loads `power_sums`, `negative_checks` the oracle, and `embed_power`
`tri_matrix`. So a Lang-Weil count compiles neither the oracle nor the
matrix layer.
"""

from __future__ import annotations

import math

from .errors import (
    EnumerationTooLargeError,
    HypothesisViolatedError,
    IndexOutOfRangeError,
    RootMismatchError,
)
from .fields import (Element, FieldSpec, Record, check_elements, enum_guard,
                     kth_power_map, kth_root_map, minus_one_is_kth_power)

# UTMatrix in `embed_power`'s annotations is tri_matrix's: annotations are
# not evaluated, so naming it loads nothing


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
    |K| = (q-1)/gcd(k, q-1) + 1 read before any map is built. A sum has
    up to m bit_length(q) bits, and each 8192 of them cost about one
    more step, so the steps are weighted by 1 + m bit_length(q) // 8192.
    The report's `ok` is exact; its `bound` is a float, math.inf where it
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
    enum_guard(m * F.q * ((F.q - 1) // math.gcd(k, F.q - 1) + 1)
               * (1 + m * F.q.bit_length() // 8192))
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
    from . import power_sums
    if F.p == 2:
        raise HypothesisViolatedError("characteristic must be odd")
    if not minus_one_is_kth_power(F, k):
        raise HypothesisViolatedError(
            f"-1 is not a {k}-th power in F_{F.q}")
    formula = (F.q - 1) // math.gcd(k, F.q - 1) + 1
    cl = power_sums.classified(F, 0, k)
    observed = cl.r + (1 if cl.u_fibers else 0)
    if observed != formula:
        raise RootMismatchError(
            f"class-count self-check failed over F_{F.q}, k={k}: "
            f"formula {formula}, observed {observed}")
    return formula


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

    Each asks `min_waring_number`, so the oracle's memoised engine of
    (F, n, k). A check whose algebra is beyond the enumeration guard is
    reported as not applicable, naming the first size refused; a direct
    oracle call keeps the guard as a hard error.
    """
    from .oracle import _check_image, min_waring_number
    from .tri_matrix import diag, elementary, jordan_block, junction_matrix
    # a WARING_MAX_ENUM that is not an integer fails closed here, where no
    # check can mistake its error for an algebra too large to enumerate
    enum_guard(0)

    def junction():
        j22 = junction_matrix(F, (2, 2))
        split = elementary(F, 4, 1, 2) + elementary(F, 4, 3, 4)
        return (not any(min_waring_number(F, C, k, 1) for C in (j22, split)),
                f"E_23 and E_12+E_34 outside the square image of T_4(F_{F.q})")

    def jordan():
        mins = [(n, min_waring_number(F, jordan_block(F, 0, n), k, cap=2))
                for n in (2, 3)]
        return (all(m is None for _, m in mins),
                "; ".join(f"n={n}: min " + ("> 2" if m is None else f"= {m}")
                          for n, m in mins))

    def scalar_plus_nilpotent():
        return (not any(min_waring_number(
                    F, diag(F, [bk, bk]).with_entry(1, 2, alpha), k, 1)
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


def embed_power(C: UTMatrix, rootC: UTMatrix, l: int, x: Element, k: int
                ) -> tuple[UTMatrix, UTMatrix]:
    """Insert a fresh row/column l (1-based, 1..n+1) with x^k on the
    diagonal and zeros elsewhere into C; the same insertion with x keeps
    the root property. Returns (B, rootB) with rootB^k = B verified.

    The inputs are checked before rootC^k = C is: C and rootC of another
    size or field raise SizeMismatchError or FieldMismatchError, k < 1
    ValueError, and x must be a nonzero element of F_q
    (FieldMismatchError outside [0, q), ValueError for 0)."""
    from .tri_matrix import check_compatible, mat_pow, zero
    check_compatible(C, rootC)
    if k < 1:
        raise ValueError("k must be >= 1")
    F, n = C.field, C.n
    if not (1 <= l <= n + 1):
        raise IndexOutOfRangeError(f"insertion index {l} not in 1..{n + 1}")
    check_elements(F, (x,), "x")
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
