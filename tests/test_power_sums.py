import collections
import itertools
import json
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from triwaring import claims, power_sums
from triwaring.claims import (
    count_zero_sum_classes,
    lang_weil_check,
    power_diff_quotient,
    quotient_zero_report,
)
from triwaring.cli import main
from triwaring.errors import (
    EnumerationTooLargeError,
    FieldMismatchError,
    HypothesisViolatedError,
    InsufficientClassesError,
    NoAdmissibleShiftError,
    RootMismatchError,
)
from triwaring.fields import (
    FieldSpec,
    kth_root_map,
    kth_roots,
    make_field,
    minus_one_is_kth_power,
)
from triwaring.power_sums import (
    CLASS_CACHE_SIZE,
    AssignmentEntry,
    ClassWalk,
    SolutionClassification,
    class_walk,
    classification_report,
    classified,
    diagonal_options,
    diagonal_roots,
    in_power_sums,
    lex_min_solution,
    select_system_pairs,
    shift_to_two_variable,
)
from tests.conftest import (
    PRIME_POWERS_49,
    assert_distinct_power_solutions,
)


def test_quotient_examples(F7, F13):
    assert power_diff_quotient(F7, 2, 3, 2) == 5
    assert power_diff_quotient(F13, 0, 0, 3) == 0
    assert power_diff_quotient(F13, 1, 5, 2) == 6
    # degree 0 for k = 1
    assert power_diff_quotient(F7, 4, 6, 1) == 1
    with pytest.raises(ValueError, match="k must be >= 1"):
        power_diff_quotient(F7, 1, 2, 0)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PRIME_POWERS_49), st.integers(1, 9), st.data())
def test_quotient_factorization(pm, k, data):
    # x^k - y^k = (x - y) * pdq(x, y)
    F = make_field(*pm)
    x = data.draw(st.integers(0, F.q - 1))
    y = data.draw(st.integers(0, F.q - 1))
    lhs = F.sub(F.pow(x, k), F.pow(y, k))
    rhs = F.mul(F.sub(x, y), power_diff_quotient(F, x, y, k))
    assert lhs == rhs


def test_quotient_zero_report_examples(F7, F3, F13):
    rep = quotient_zero_report(F7, 2)
    assert rep.ok
    # a != b with a^2 = b^2 means b = -a, a != 0: six ordered pairs
    assert len(rep.zero_pairs) == 6
    rep33 = quotient_zero_report(F3, 3)  # p | k: diagonal pairs vanish
    assert rep33.ok
    assert (1, 1) in rep33.zero_pairs and (2, 2) in rep33.zero_pairs
    rep132 = quotient_zero_report(F13, 2)
    assert rep132.ok
    assert all(a != b for a, b in rep132.zero_pairs)


def test_quotient_zero_report_lists_violations(F7, monkeypatch):
    # a quotient that never vanishes misses every predicted zero: the pairs
    # b = -a != 0, as a^2 = b^2 there (the scan takes the quotient
    # without the element check, its pairs being elements)
    monkeypatch.setattr(claims, "_power_diff_quotient", lambda *a: 1)
    rep = quotient_zero_report(F7, 2)
    assert rep.zero_pairs == () and not rep.ok
    assert rep.violations == tuple((a, 7 - a) for a in range(1, 7))


def test_quotient_zero_report_is_guarded(F7, monkeypatch):
    # the scan covers F_q x F_q, each pair's quotient in k steps, so
    # q^2 k = 98 must fit under the guard
    monkeypatch.setenv("WARING_MAX_ENUM", "97")
    with pytest.raises(EnumerationTooLargeError, match="size 98 exceeds"):
        quotient_zero_report(F7, 2)
    monkeypatch.setenv("WARING_MAX_ENUM", "98")
    assert quotient_zero_report(F7, 2).ok


def power_diff_quotient_reference(F, x, y, k):
    """The definition: the sum of x^(k-1-i) y^i over i < k."""
    acc = 0
    for i in range(k):
        acc = F.add(acc, F.mul(F.pow(x, k - 1 - i), F.pow(y, i)))
    return acc


def test_quotient_recurrence_matches_the_sum():
    for F in (make_field(7), make_field(2, 3), make_field(3, 2),
              make_field(13)):
        for k in range(1, 30):
            for x, y in itertools.product(F.elements(), repeat=2):
                assert (power_diff_quotient(F, x, y, k)
                        == power_diff_quotient_reference(F, x, y, k)), \
                    (F, x, y, k)


def expand(cl):
    """(U, classes) of a classification as (x, y) pairs, expanded from its
    root fibers; U sorted, each class in fiber order."""
    U = sorted((x, y) for xs, ys in cl.u_fibers for x in xs for y in ys)
    classes = tuple(tuple((x, y) for x in xs for y in ys)
                    for xs, ys in cl.fibers)
    return tuple(U), classes


def candidates_of(F, lam, k):
    """The whole candidate sequence of the cached class walk."""
    walk = class_walk(F, lam, k)
    walk.reach()
    return tuple(walk.candidates)


def eager_classification(F, lam, k):
    """Reference: the eager loop `classified` ran before its walk became
    lazy, over every k-th power value in ascending order; the
    classification and the candidate sequence built from it, the V
    representatives in class order and then U's least member."""
    roots = kth_root_map(F, k)
    classes, U = [], []
    for v in sorted(roots):
        w = F.sub(lam, v)
        if w not in roots:
            continue
        (U if v == w else classes).append(((v, w), (roots[v], roots[w])))
    cl = SolutionClassification(
        lam, k, tuple(sig for sig, _ in classes), tuple(f for _, f in classes),
        tuple(sig for sig, _ in U), tuple(f for _, f in U))
    parts = zip(cl.fibers + cl.u_fibers[:1],
                cl.signatures + cl.u_signatures[:1])
    return cl, tuple(((xs[0], ys[0]), sig) for (xs, ys), sig in parts)


def test_class_walk_matches_the_eager_loop(all_fields):
    # every lam of every field with q <= 49 and of F_169, k = 1..6: a
    # fresh walk grows its candidates one at a time, in the eager order,
    # and its finished classification is the eager one
    for F in all_fields + [make_field(13, 2)]:
        for k in range(1, 7):
            for lam in F.elements():
                cl, cands = eager_classification(F, lam, k)
                walk = ClassWalk(F, lam, k)
                for need in range(len(cands) + 2):
                    assert walk.reach(need) == min(need, len(cands))
                    assert tuple(walk.candidates) == cands[:need]
                    # lazy: the walk ends only when asked past what it met
                    assert walk.done or need <= len(cands)
                    assert not walk.done or need >= len(cands)
                assert classified(F, lam, k) == cl
                assert candidates_of(F, lam, k) == cands


def solution_set(F, lam, k):
    """Every solution of x^k + y^k = lam, sorted, read off the fibers."""
    U, classes = expand(classified(F, lam, k))
    return tuple(sorted(U + sum(classes, ())))


def test_enumerate_examples(F7, F13):
    sols = solution_set(F7, 1, 2)
    assert len(sols) == 8  # the circle has q + 1 points here
    assert solution_set(F13, 1, 3) == ((0, 1), (0, 3), (0, 9),
                                       (1, 0), (3, 0), (9, 0))
    assert len(solution_set(F7, 5, 1)) == 7


def raw_pair_scan(F, lam, k):
    """Reference: the q^2 double loop over (x, y) in encoding order."""
    return tuple((x, y) for x in F.elements() for y in F.elements()
                 if F.add(F.pow(x, k), F.pow(y, k)) == lam)


def test_enumerate_matches_fiber_route(odd_fields):
    # the fibers over the root map expand to the raw scan's tuple
    F169 = make_field(13, 2)
    cases = [(F, list(F.elements())) for F in odd_fields]
    cases.append((F169, [0, 1, 2, 14, 100, 168]))
    for F, lams in cases:
        for k in (2, 3):
            for lam in lams:
                assert solution_set(F, lam, k) == raw_pair_scan(F, lam, k)


def test_enumerate_rejects_bad_arguments(F7, F9):
    for k in (0, -1):
        with pytest.raises(ValueError):
            classified(F7, 1, k)
    for F, lam in ((F7, 7), (F7, 8), (F7, -6), (F9, 10)):
        with pytest.raises(FieldMismatchError):
            classified(F, lam, 2)
        with pytest.raises(FieldMismatchError):
            lex_min_solution(F, lam, 2)


def test_classify_f7_example(F7):
    cl = classified(F7, 1, 2)
    assert expand(cl)[0] == ((2, 2), (2, 5), (5, 2), (5, 5))
    assert cl.signatures == ((0, 1), (1, 0))
    assert cl.r == 2


def test_classify_zero_sum_f13(F13):
    cl = classified(F13, 0, 3)
    assert cl.signatures == ((1, 12), (5, 8), (8, 5), (12, 1))
    assert cl.u_signatures == ((0, 0),)
    assert cl.u_fibers == (((0,), (0,)),)
    assert cl.r + 1 == 5


def test_classify_empty(F7):
    # sixth powers over F_7 are {0, 1}, so their pair sums miss 3
    cl = classified(F7, 3, 6)
    assert cl.r == 0 and cl.u_fibers == ()
    assert lex_min_solution(F7, 3, 6) is None


def classify_solutions(F, k, sols):
    """Reference: partition solutions (x, y) of one equation into U and
    the V_i by raising every solution to the k-th power again; returns
    (U, classes, signatures)."""
    U = []
    by_sig = {}
    for x, y in sorted(sols):
        sx, sy = F.pow(x, k), F.pow(y, k)
        if sx == sy:
            U.append((x, y))
        else:
            by_sig.setdefault((sx, sy), []).append((x, y))
    signatures = tuple(sorted(by_sig))
    classes = tuple(tuple(by_sig[sig]) for sig in signatures)
    return tuple(U), classes, signatures


def fiber_pair_scan(F, lam, k):
    """Reference: each x reads its y's off the fiber of lam - x^k."""
    roots = kth_root_map(F, k)
    return tuple((x, y) for x in F.elements()
                 for y in roots.get(F.sub(lam, F.pow(x, k)), ()))


def test_classified_matches_reference(all_fields):
    # every lam of every field with q <= 49, characteristic 2 included
    for F in all_fields:
        for k in range(1, 7):
            for lam in F.elements():
                sols = fiber_pair_scan(F, lam, k)
                cl = classified(F, lam, k)
                assert (*expand(cl), cl.signatures) == \
                    classify_solutions(F, k, sols)
                assert solution_set(F, lam, k) == sols


@pytest.mark.parametrize("q, p, m, k", [
    ("2^3", 2, 3, 3),  # cubing permutes F_8: U is the diagonal, 8 fibers
    ("2^4", 2, 4, 3),  # fibers of 3 roots, whose products interleave
])
def test_classify_cli_lists_a_u_of_several_fibers(capsys, q, p, m, k):
    # -1 = 1, so every value v has lam - v = v at lam = 0
    F = make_field(p, m)
    assert len(classified(F, 0, k).u_fibers) > 1
    U, classes, signatures = classify_solutions(F, k,
                                                fiber_pair_scan(F, 0, k))
    argv = ["classify", "--q", q, "--k", str(k), "--lambda", "0"]
    assert main([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "q": F.q, "k": k, "lambda": 0,
        "U": [list(s) for s in U],
        "classes": [{"sig": list(sig), "solutions": [list(s) for s in c]}
                    for sig, c in zip(signatures, classes)],
    }
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"  U = {list(U)}"


def test_classified_cache_past_its_bound_gives_equal_answers():
    F = make_field(31)
    keys = [(lam, k) for k in range(1, CLASS_CACHE_SIZE // F.q + 2)
            for lam in F.elements()]
    assert len(keys) > CLASS_CACHE_SIZE
    first = [classified(F, lam, k) for lam, k in keys]
    misses = class_walk.cache_info().misses
    # cycling through more keys than the walk cache holds evicts every key
    assert [classified(F, lam, k) for lam, k in keys] == first
    assert class_walk.cache_info().misses == misses + len(keys)
    assert class_walk.cache_info().currsize <= CLASS_CACHE_SIZE


def test_representatives_are_least_roots(all_fields):
    # what lets the decomposer use a candidate's x and y as its diagonal
    # roots unchanged: one candidate per class, in class order, then U's
    # least member, each the lex-least member of its part
    for F in all_fields:
        for k in range(1, 7):
            for lam in F.elements():
                cl = classified(F, lam, k)
                U, classes = expand(cl)
                cands = candidates_of(F, lam, k)
                assert len(cands) == cl.r + (1 if U else 0)
                for (xy, (v, w)), members in zip(cands, classes):
                    assert xy == (kth_roots(F, v, k)[0],
                                  kth_roots(F, w, k)[0]) == min(members)
                assert [sig for _, sig in cands[:cl.r]] == \
                    list(cl.signatures)
                if U:
                    (x, y), (v, w) = cands[-1]
                    least = kth_roots(F, F.pow(U[0][0], k), k)[0]
                    assert (x, y) == U[0] == (least, least)
                    assert v == w == F.pow(x, k)


def count_pow_calls(monkeypatch):
    calls = []
    real = FieldSpec.pow

    def counted(self, a, e):
        calls.append((a, e))
        return real(self, a, e)

    monkeypatch.setattr(FieldSpec, "pow", counted)
    return calls


def test_classes_and_selection_read_powers_off_the_root_map(monkeypatch):
    F = make_field(5, 2)
    kth_root_map(F, 3)  # built (and cached) before counting
    calls = count_pow_calls(monkeypatch)
    walk = ClassWalk(F, 7, 3)
    assert walk.reach() and walk.signatures and calls == []
    assert classified(F, 7, 3).r > 0 and calls == []
    # the U candidates read their stored signatures, so selection takes no
    # power either
    targets = [0, 7, 0, 11]
    for lam in targets:
        classified(F, lam, 3)
    assert any(classified(F, lam, 3).u_fibers for lam in targets)
    calls.clear()
    select_system_pairs(F, targets, 3)
    assert calls == []


def test_partition_invariants_sweep(all_fields):
    # every solution in exactly one part; class size bounds; signature
    # injectivity in both components
    for F in all_fields:
        if F.q > 31:
            continue
        for k in range(1, 7):
            for lam in F.elements():
                sols = raw_pair_scan(F, lam, k)
                cl = classified(F, lam, k)
                U, classes = expand(cl)
                parts = [set(U)] + [set(c) for c in classes]
                union = set()
                for part in parts:
                    assert not (union & part)
                    union |= part
                assert union == set(sols)
                for c in classes:
                    assert len(c) <= k * k
                if F.p != 2:
                    # char 2 with lam = 0 makes U huge; odd char only
                    assert len(U) <= k * k
                xs = [sig[0] for sig in cl.signatures]
                ys = [sig[1] for sig in cl.signatures]
                assert len(set(xs)) == len(xs)
                assert len(set(ys)) == len(ys)


def test_classification_report_shape(F13):
    rep = classification_report(F13, 0, 3)
    assert rep == {
        "q": 13, "k": 3, "lambda": 0,
        "classes": [
            {"sig": [1, 12], "size": 9, "rep": [1, 4]},
            {"sig": [5, 8], "size": 9, "rep": [7, 2]},
            {"sig": [8, 5], "size": 9, "rep": [2, 7]},
            {"sig": [12, 1], "size": 9, "rep": [4, 1]},
        ],
        "U_size": 1,
    }


def test_select_pairs_examples(F7, F13):
    # one target repeated n times takes its first n class representatives
    ps = select_system_pairs(F7, [1, 1], 2)
    assert [(e.x, e.y) for e in ps] == [(0, 1), (1, 0)]
    with pytest.raises(InsufficientClassesError) as err:
        select_system_pairs(F13, [1, 1, 1], 3)
    assert (err.value.lam, err.value.found, err.value.needed) == (1, 2, 3)
    # the q-1 exponent leaves exactly the two axis classes
    two = select_system_pairs(F7, [1, 1], 6)
    assert len(two) == 2
    with pytest.raises(InsufficientClassesError):
        select_system_pairs(F7, [1, 1, 1], 6)


def test_select_pairs_distinctness(odd_fields):
    for F in odd_fields[:6]:
        for k in (2, 3):
            for lam in F.elements():
                cl = classified(F, lam, k)
                for n in range(2, min(cl.r, 4) + 1):
                    chosen = select_system_pairs(F, [lam] * n, k)
                    assert [(e.x, e.y) for e in chosen] == \
                        [xy for xy, _ in candidates_of(F, lam, k)[:n]]
                    assert_distinct_power_solutions(F, k, chosen)
                    for e in chosen:
                        assert F.pow(e.x, k) != F.pow(e.y, k)


def test_select_system_pairs_examples(F13):
    pa = select_system_pairs(F13, [0, 0], 2)
    assert_distinct_power_solutions(F13, 2, pa)
    assert [e.lam for e in pa] == [0, 0]
    pa2 = select_system_pairs(F13, [1, 0], 2)
    assert_distinct_power_solutions(F13, 2, pa2)
    assert [e.lam for e in pa2] == [1, 0]
    pa3 = select_system_pairs(F13, [5], 2)
    assert len(pa3) == 1
    assert select_system_pairs(F13, [], 2) == ()


def test_select_system_pairs_failure(F7):
    with pytest.raises(InsufficientClassesError) as err:
        select_system_pairs(F7, [0, 0], 2)
    assert err.value.lam == 0


def test_select_system_pairs_pigeonhole(F7):
    # squares of F_7 are {0, 1, 2, 4}: five positions cannot have
    # pairwise distinct x^2, whatever the targets
    with pytest.raises(InsufficientClassesError) as err:
        select_system_pairs(F7, [1, 3, 1, 5, 3], 2)
    assert (err.value.lam, err.value.found, err.value.needed) == (None, 4, 5)
    assert "lambda" not in err.value.to_json()


def reference_selection(F, targets, k):
    """The documented scan as a brute force: positions by decreasing
    multiplicity, increasing target, then target order; the first tuple of
    itertools.product over their candidate lists whose x-powers, like its
    y-powers, are pairwise distinct, dealt back to target order. None when
    no tuple qualifies."""
    order = sorted(range(len(targets)),
                   key=lambda i: (-targets.count(targets[i]), targets[i]))
    lists = [eager_classification(F, targets[i], k)[1] for i in order]
    for combo in itertools.product(*lists):
        xs = {sx for _, (sx, _) in combo}
        ys = {sy for _, (_, sy) in combo}
        if len(xs) == len(ys) == len(combo):
            chosen = dict(zip(order, combo))
            return [(t, *chosen[i][0]) for i, t in enumerate(targets)]
    return None


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([pm for pm in PRIME_POWERS_49 if pm[0] ** pm[1] <= 13]),
       st.sampled_from([2, 3, 4]), st.data())
def test_select_system_pairs_invariants(pm, k, data):
    # the selector is the documented scan: its first qualifying tuple, or a
    # typed failure exactly when no tuple qualifies
    F = make_field(*pm)
    pool = data.draw(st.lists(st.integers(0, F.q - 1), min_size=1,
                              max_size=3))
    targets = data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                 max_size=4))
    want = reference_selection(F, targets, k)
    if want is None:
        with pytest.raises(InsufficientClassesError) as err:
            select_system_pairs(F, targets, k)
        # the shift route bans by the target a failure names
        assert err.value.lam is None or err.value.lam in targets
        return
    got = select_system_pairs(F, targets, k)
    assert [(e.lam, e.x, e.y) for e in got] == want
    assert_distinct_power_solutions(F, k, got)


def select_scan_reference(F, targets, k):
    """The scan `select_system_pairs` made before it skipped the orderings
    of interchangeable positions: every position tries its target's
    candidates from the first, so picks of one target are retried in every
    order, reading the candidates of the eager classification. Same result,
    or the same failure (message, lam, found and needed), as
    `select_system_pairs`."""
    targets = list(targets)
    n, values = len(targets), len(kth_root_map(F, k))
    if n > values:
        raise InsufficientClassesError(
            f"{n} positions need pairwise distinct values of x^{k}, but "
            f"x^{k} takes only {values} values over F_{F.q}",
            found=values, needed=n)
    mult = collections.Counter(targets)
    cands = {lam: eager_classification(F, lam, k)[1] for lam in mult}
    for lam, need in sorted(mult.items(), key=lambda d: (-d[1], d[0])):
        found = len(cands[lam])
        if found < need:
            raise InsufficientClassesError(
                f"x^{k} + y^{k} = {lam} has {found} usable classes over "
                f"F_{F.q}, need {need} (sufficient only for q > 4 n^2 k^16)",
                lam=lam, found=found, needed=need)
    order = sorted(range(n), key=lambda i: (-mult[targets[i]], targets[i]))
    scan = [targets[i] for i in order]
    placed, stack = [], []
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


def selection_outcome(select, F, targets, k):
    """The parts, or the failure's type, message, lam, found and needed."""
    try:
        return select(F, targets, k)
    except InsufficientClassesError as err:
        return (type(err), str(err), err.lam, err.found, err.needed)


def test_selection_matches_the_scan_without_offsets():
    # every multiset diagonal of size n <= 4 over q <= 13, as many of
    # size 5 and 6 over the larger fields, and k in {1, 2, 3, 4, 6}
    rng = random.Random("select/offset")
    cases = 0
    for pm in PRIME_POWERS_49:
        F = make_field(*pm)
        for k in (1, 2, 3, 4, 6):
            if F.q <= 13:
                diagonals = [d for n in range(1, 5) for d in
                             itertools.combinations_with_replacement(
                                 range(F.q), n)]
            else:
                diagonals = [[rng.choice(pool) for _ in range(n)]
                             for n in (5, 6) for _ in range(40)
                             for pool in [rng.sample(range(F.q), 3)]]
            for d in diagonals:
                assert (selection_outcome(select_system_pairs, F, d, k)
                        == selection_outcome(select_scan_reference, F, d, k)
                        ), (F, d, k)
                cases += 1
    assert cases > 10_000


def test_selection_skips_the_orderings_on_wide_failing_diagonals():
    # T_13..T_15(F_31), k = 2, seeded diagonals: the same parts or the
    # same failure as the scan that retries every ordering. Seed 24 of T_15
    # fails after a search (0.2 s here, 1.3 s for the reference), seed 17
    # of T_13 before one; the others succeed
    F = make_field(31)
    outcomes = set()
    for n, seed in [(13, 0), (13, 1), (13, 17), (14, 0), (14, 1), (15, 0),
                    (15, 24)]:
        rng = random.Random(f"select/T{n}/{seed}")
        d = [rng.randrange(F.q) for _ in range(n)]
        got = selection_outcome(select_system_pairs, F, d, 2)
        assert got == selection_outcome(select_scan_reference, F, d, 2)
        outcomes.add(got[0] is InsufficientClassesError)
    assert outcomes == {True, False}


def test_select_system_pairs_wide():
    # 1,100 positions of one target: each takes the next class in order,
    # with no backtracking and no recursion
    F = make_field(1103)
    got = select_system_pairs(F, [5] * 1100, 1)
    cands = candidates_of(F, 5, 1)
    assert [(e.x, e.y) for e in got] == [xy for xy, _ in cands[:1100]]
    assert {e.lam for e in got} == {5}
    assert_distinct_power_solutions(F, 1, got)


def test_shift_examples(F7, F13):
    assert shift_to_two_variable(F7, 0, 2) == (1, 6)
    assert shift_to_two_variable(F13, 5, 2) == (0, 5)
    assert shift_to_two_variable(F7, 1, 2, {1}) == (2, 4)


def test_shift_exhaustion(F3):
    # squares mod 3 are {0, 1}; forbidding 2 leaves nothing for lam = 0
    with pytest.raises(NoAdmissibleShiftError):
        shift_to_two_variable(F3, 0, 2, {2})


def shift_reference(F, lam, k, forbidden):
    """Reference: the least z, scanning encodings upward, with lam - z^k
    nonzero and outside `forbidden`, and that shift; None if there is none."""
    for z in F.elements():
        shifted = F.sub(lam, F.pow(z, k))
        if shifted != 0 and shifted not in forbidden:
            return z, shifted
    return None


def test_shift_matches_element_scan(all_fields):
    # every lam, with the forbidden set grown from the reference's own
    # picks until it finds no shift
    cases = 0
    for F in all_fields:
        for k in range(1, 7):
            for lam in F.elements():
                forbidden = set()
                while (want := shift_reference(F, lam, k, forbidden)):
                    assert shift_to_two_variable(F, lam, k, forbidden) == want
                    forbidden.add(want[1])
                    cases += 1
                with pytest.raises(NoAdmissibleShiftError):
                    shift_to_two_variable(F, lam, k, forbidden)
                cases += 1
    assert cases == 55986


def test_shift_and_lang_weil_refuse_k_below_one(F7):
    # both read the root map, which refuses k < 1 (no x^0 = 1 counting)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be positive"):
            shift_to_two_variable(F7, 3, k)
        with pytest.raises(ValueError, match="k must be positive"):
            lang_weil_check(F7, k, 2, (1, 1))


def test_shift_and_power_sums_refuse_out_of_range(F7, F9):
    # lam must be a field element, s a count of summands
    for F in (F7, F9):
        for lam in (-1, F.q):
            with pytest.raises(FieldMismatchError, match="outside"):
                shift_to_two_variable(F, lam, 2)
        with pytest.raises(ValueError, match="s must be >= 0"):
            in_power_sums(F, 2, -1)


def test_lang_weil_examples(F7, F13):
    r = lang_weil_check(F7, 2, 2, (1, 1))
    assert r.N == 8 and abs(r.N - 7) <= r.bound and r.ok
    r2 = lang_weil_check(F13, 3, 2, (1, 1))
    assert r2.N == 6 and r2.ok
    r3 = lang_weil_check(F13, 1, 2, (1, 1))
    assert r3.N == 13 and r3.ok


def test_lang_weil_verdict_is_exact():
    # E = 9, k = 1, m = 2: the bound is exactly 3, reached at N = 12
    assert claims.LangWeilReport(9, 1, 2, 12, 9, 3.0).ok
    assert not claims.LangWeilReport(9, 1, 2, 13, 9, 3.0).ok
    # past float range the bound is infinite, and still not every N passes
    assert not claims.LangWeilReport(3, 10, 200, 10 ** 600, 3 ** 199,
                                     math.inf).ok


def test_lang_weil_rejects_zero_coefficient(F7):
    with pytest.raises(ValueError):
        lang_weil_check(F7, 2, 2, (1, 0))


def test_lang_weil_rejects_coefficients_outside_the_field(F7, F9):
    # an encoding outside [0, q) names no element: refused, not reduced
    for F, alphas in ((F9, (1, 10)), (F7, (1, 8)), (F7, (-1, 1)),
                      (F7, (7, 0))):
        with pytest.raises(FieldMismatchError):
            lang_weil_check(F, 2, 2, alphas)


def test_lang_weil_rejects_m_below_one(F7):
    for m in (0, -1):
        with pytest.raises(ValueError, match="m must be >= 1"):
            lang_weil_check(F7, 2, m, [])
    with pytest.raises(ValueError, match="need 2 coefficients, got 1"):
        lang_weil_check(F7, 2, 2, [1])


def test_lang_weil_matches_raw_scan():
    for (p, m), k, arity in [((3, 2), 2, 2), ((7, 1), 3, 3), ((5, 1), 4, 2),
                             ((11, 1), 2, 2), ((5, 2), 3, 2)]:
        F = make_field(p, m)
        raw = 0
        for xs in itertools.product(F.elements(), repeat=arity):
            total = 0
            for x in xs:
                total = F.add(total, F.pow(x, k))
            if total == 1:
                raw += 1
        assert lang_weil_check(F, k, arity, [1] * arity).N == raw


def test_lang_weil_guard_counts_the_fold(monkeypatch, capsys):
    # m folds of |K| values into q sums: 2 * 13 * 7 steps over F_13, k = 2
    monkeypatch.setenv("WARING_MAX_ENUM", "182")
    assert lang_weil_check(make_field(13), 2, 2, (1, 1)).N == 12
    monkeypatch.setenv("WARING_MAX_ENUM", "181")
    with pytest.raises(EnumerationTooLargeError, match="size 182 exceeds"):
        lang_weil_check(make_field(13), 2, 2, (1, 1))
    monkeypatch.delenv("WARING_MAX_ENUM")
    # q^m = 1009^3 is past 10^8, but the fold is 3 * 1009 * 505 steps
    assert lang_weil_check(make_field(1009), 2, 3, (1, 1, 1)).N == 1019090
    assert main(["bound", "--q", "1009", "--k", "2", "--m", "3",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["N"] == 1019090
    # q^m = 9973^2 is under 10^8, but k = 1 folds q values into q sums:
    # refused before any map is built
    for q, k, m in ((9973, 1, 2), (10007, 1, 1)):
        F = make_field(q)
        start = time.perf_counter()
        with pytest.raises(EnumerationTooLargeError,
                           match=f"size {m * q * q} exceeds guard"):
            lang_weil_check(F, k, m, [1] * m)
        assert time.perf_counter() - start < 0.01


def test_count_zero_sum_classes_examples(F7, F13):
    assert count_zero_sum_classes(F13, 3) == 5
    assert count_zero_sum_classes(F13, 2) == 7
    with pytest.raises(HypothesisViolatedError):
        count_zero_sum_classes(F7, 2)
    with pytest.raises(HypothesisViolatedError):
        count_zero_sum_classes(make_field(2, 2), 2)


def test_count_zero_sum_classes_self_check(F13, monkeypatch):
    # lam = 1's classification has 4 classes against the formula's 7
    one = classified(F13, 1, 2)
    monkeypatch.setattr(power_sums, "classified", lambda *a: one)
    with pytest.raises(RootMismatchError, match="formula 7, observed 4"):
        count_zero_sum_classes(F13, 2)


def test_count_zero_sum_classes_sweep(odd_fields):
    for F in odd_fields:
        for k in range(1, 11):
            if not minus_one_is_kth_power(F, k):
                continue
            expected = (F.q - 1) // math.gcd(k, F.q - 1) + 1
            assert count_zero_sum_classes(F, k) == expected


def test_in_power_sums_matches_brute_force_sumsets(all_fields):
    # W_0 = {0}, W_s = W_(s-1) + K, against the coset walk's predicate
    for F in all_fields:
        for k in sorted({1, 2, 3, 4, 6, max(1, (F.q - 1) // 2)}):
            K = set(kth_root_map(F, k))
            sums = {0}
            for s in range(5):
                inside = in_power_sums(F, k, s)
                assert {v for v in F.elements() if inside(v)} == sums, \
                    (F.q, k, s)
                sums = {F.add(w, v) for w in sums for v in K}


def test_diagonal_options_matches_brute_force(all_fields):
    # W_0 = {0}, W_s = W_(s-1) + K; each v in K with its least root,
    # ascending in that root, wherever c - v is in W_(s-1)
    for F in (F for F in all_fields if F.q <= 9):
        for k in sorted({1, 2, 3, F.p, F.q - 1}):
            least = {}  # v -> least root, in ascending order of the root
            for a in F.elements():
                least.setdefault(F.pow(a, k), a)
            sums = {0}
            for s in (1, 2, 3):
                got = diagonal_options(F, tuple(F.elements()), k, s)
                wider = {F.add(w, v) for w in sums for v in least}
                for c, opts in zip(F.elements(), got):
                    assert list(opts) == [(a, v) for v, a in least.items()
                                          if F.sub(c, v) in sums], (F.q, k, s)
                    assert (not opts) == (c not in wider), (F.q, k, s, c)
                sums = wider
    # s counts summands, so s = 0 is refused under the caller's own s
    with pytest.raises(ValueError, match=r"^s must be >= 1, got 0$"):
        diagonal_options(make_field(7), (1,), 2, 0)


def diagonal_roots_reference(F, d, k, s):
    """Reference: the first tuple, in lex order over all of F^n, with every
    d_i - a_i^k a sum of s - 1 k-th powers and every
    power_diff_quotient(a_i, a_j), i < j, nonzero."""
    sums = {0}
    for _ in range(s - 1):
        sums = {F.add(w, F.pow(a, k)) for w in sums for a in F.elements()}
    divides = {(a, b): power_diff_quotient(F, a, b, k) != 0
               for a in F.elements() for b in F.elements()}
    allowed = [[a for a in F.elements() if F.sub(c, F.pow(a, k)) in sums]
               for c in d]
    return next((roots for roots in itertools.product(*allowed)
                 if all(divides[pair]
                        for pair in itertools.combinations(roots, 2))), None)


@pytest.mark.parametrize("p, m", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                                  (2, 3), (3, 2)])
def test_diagonal_roots_matches_brute_force(p, m):
    # every diagonal of size <= 3, so a value repeated at two or three
    # positions, 0 among them, and p | k all occur
    F = make_field(p, m)
    outcomes = set()
    for k in sorted({1, 2, 3, p, F.q - 1}):
        for s in (2, 3):
            for n in range(4):
                for d in itertools.product(F.elements(), repeat=n):
                    got = diagonal_roots(F, diagonal_options(F, d, k, s), k)
                    roots = got and tuple(a for a, _ in got)
                    assert roots == diagonal_roots_reference(F, d, k, s), (
                        F.q, k, s, d)
                    assert all(v == F.pow(a, k) for a, v in got or ())
                    outcomes.add(got is None)
    assert outcomes == {True, False}
