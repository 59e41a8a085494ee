"""Acceptance criteria, one test per criterion.

Each test runs the full stated scope at exact arithmetic (no tolerances
anywhere except the stated runtime budgets), asserts the criterion, checks
its runtime budget, and prints one PASS line (visible with -s / -v).
"""

import math
import random
import time

import pytest

from triwaring.canonical import (
    bipartition,
    is_indecomposable,
    parse_presentation,
)
from triwaring.decomposer import (
    DecompositionResult,
    Obstruction,
    decompose_structured,
    decompose_three,
    decompose_two,
)
from triwaring.errors import InsufficientClassesError
from triwaring.fields import (
    kth_power_image,
    make_field,
    minus_one_is_kth_power,
)
from triwaring.oracle import (
    all_kth_powers,
    bn_conjugate,
    iter_matrices,
    min_waring_number,
)
from triwaring.power_sums import (
    count_zero_sum_classes,
    lang_weil_check,
    quotient_zero_report,
    select_system_pairs,
)
from triwaring.tri_matrix import (
    UTMatrix,
    backsub_root,
    diag,
    elementary,
    from_rows,
    from_text,
    jordan_block,
    junction_matrix,
    mat_pow,
    zero,
)
from tests.conftest import ODD_PRIME_POWERS_49
from tests.test_canonical import TABLE_ROWS

ODD_FIELDS_49 = [make_field(p, m) for (p, m) in ODD_PRIME_POWERS_49]


def _report(number, label, elapsed, budget):
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s"
    print(f"\nACCEPTANCE {number}: PASS ({label}; {elapsed:.2f}s "
          f"< {budget:.0f}s)")


def test_criterion_01_quotient_zero_characterization():
    t0 = time.perf_counter()
    cases = 0
    for F in ODD_FIELDS_49:
        if F.q > 25:
            continue
        for k in range(1, 9):
            rep = quotient_zero_report(F, k)
            assert rep.ok, (F.q, k, rep.violations)
            assert rep.checked == F.q * F.q - 1
            cases += 1
    _report(1, f"zero characterization exact on {cases} (q,k) pairs",
            time.perf_counter() - t0, 5)


def test_criterion_02_zero_sum_class_count():
    t0 = time.perf_counter()
    cases = 0
    for F in ODD_FIELDS_49:
        for k in range(1, 11):
            if not minus_one_is_kth_power(F, k):
                continue
            expected = (F.q - 1) // math.gcd(k, F.q - 1) + 1
            assert count_zero_sum_classes(F, k) == expected
            cases += 1
    assert count_zero_sum_classes(make_field(13), 3) == 5
    _report(2, f"closed-form class count on {cases} hypothesis cases",
            time.perf_counter() - t0, 5)


def test_criterion_03_point_count_bound():
    t0 = time.perf_counter()
    cases = 0
    for F in ODD_FIELDS_49:
        if F.q > 31:
            continue
        for k in range(1, 6):
            for m in (2, 3):
                rep = lang_weil_check(F, k, m, [1] * m)
                assert rep.ok, (F.q, k, m, rep)
                cases += 1
    _report(3, f"|N - q^(m-1)| within bound on {cases} instances",
            time.perf_counter() - t0, 60)


def test_criterion_04_root_round_trips():
    t0 = time.perf_counter()
    fields = [make_field(p, m) for (p, m) in ODD_PRIME_POWERS_49]
    fields += [make_field(2, m) for m in (1, 2, 3, 4)]
    rng = random.Random(20240817)

    done = 0
    while done < 10 ** 4:
        F = rng.choice(fields)
        k = rng.randint(1, 6)
        n = rng.randint(1, 6)
        image = sorted(kth_power_image(F, k))
        if len(image) < n:
            continue
        C = diag(F, rng.sample(image, n))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                C = C.with_entry(i, j, rng.randrange(F.q))
        assert mat_pow(backsub_root(C, k), k) == C
        done += 1

    done = 0
    while done < 10 ** 4:
        F = rng.choice(fields)
        k = rng.randint(1, 6)
        n = rng.randint(1, 6)
        image = sorted(kth_power_image(F, k))
        dvals = [rng.choice(image) for _ in range(n)]
        C = diag(F, dvals)
        placed = []
        pos = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        rng.shuffle(pos)
        for i, j in pos:
            if dvals[i - 1] == dvals[j - 1]:
                continue
            if any(s == i or r == j for (r, s) in placed):
                continue
            if rng.random() < 0.4:
                continue
            placed.append((i, j))
            C = C.with_entry(i, j, rng.randrange(1, F.q))
        assert mat_pow(backsub_root(C, k), k) == C
        done += 1
    _report(4, "2 x 10^4 random root extractions exact",
            time.perf_counter() - t0, 60)


def test_criterion_05_two_powers_at_reachable_scale():
    t0 = time.perf_counter()
    F13 = make_field(13)
    count = 0
    for C in iter_matrices(F13, 2):
        res = decompose_two(C, 2)
        assert res.verified
        count += 1
    assert count == 13 ** 3
    rng = random.Random(915)
    for _ in range(10 ** 4):
        C = UTMatrix(F13, 3, tuple(rng.randrange(13) for _ in range(6)))
        assert decompose_two(C, 2).verified
    _report(5, "100% of T_2(F_13) and 10^4 random T_3(F_13), k = 2",
            time.perf_counter() - t0, 120)


def test_criterion_06_three_powers_at_reachable_scale():
    t0 = time.perf_counter()
    total = 0
    for (p, m) in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        F = make_field(p, m)
        for k in (2, 3):
            for C in iter_matrices(F, 2):
                assert decompose_three(C, k).verified, (F.q, k, C)
                total += 1
    _report(6, f"100% of T_2(F_q) for q in (3,5,7,9,11,13), k in (2,3) "
               f"[{total} matrices]", time.perf_counter() - t0, 120)


def test_criterion_07_minus_one_condition_necessary():
    t0 = time.perf_counter()
    for p in (3, 7):
        F = make_field(p)
        C = from_text(F, "0,1;0")
        assert min_waring_number(F, C, 2, 4) == 3
        with pytest.raises(InsufficientClassesError):
            decompose_two(C, 2)
    _report(7, "E_12 needs three squares over F_3 and F_7; "
               "decompose_two fails typed", time.perf_counter() - t0, 30)


def test_criterion_08_negative_remarks():
    t0 = time.perf_counter()
    F3 = make_field(3)
    # (a) the 2x2 unipotent-plus-nilpotent is not a cube (27 inputs)
    cubes = set(all_kth_powers(F3, 2, 3))
    assert from_rows(F3, [[1, 1], [0, 1]]) not in cubes
    # (b) the (2,2) junction is not a square in T_4(F_3) (3^10 inputs);
    # the split form E_12 + E_34 is not one either
    squares4 = set(all_kth_powers(F3, 4, 2))
    assert junction_matrix(F3, (2, 2)) not in squares4
    assert elementary(F3, 4, 1, 2) + elementary(F3, 4, 3, 4) not in squares4
    # (c) J_{0,4}^2 is not B_4-conjugate to J_{0,2} + J_{0,2} (11664 scans)
    A = mat_pow(jordan_block(F3, 0, 4), 2)
    B = elementary(F3, 4, 1, 2) + elementary(F3, 4, 3, 4)
    assert bn_conjugate(F3, A, B) is None
    _report(8, "cube obstruction, junction non-square, Jordan non-conjugacy",
            time.perf_counter() - t0, 600)


def test_criterion_09_table_regression():
    t0 = time.perf_counter()
    F13 = make_field(13)
    rows = 0
    for row, n in TABLE_ROWS:
        pres = parse_presentation(row, n)
        C = pres.matrix(F13)
        assert is_indecomposable(C), row
        expected = bipartition(C)
        assert expected is not None, row
        for k in (2, 3):
            res = decompose_structured(C, k)
            assert isinstance(res, DecompositionResult), (row, k)
            assert res.verified, (row, k)
            got = res.plan.coloring
            assert got in (expected, tuple(3 - c for c in expected)), (row, k)
        rows += 1
    _report(9, f"{rows} presentation rows verified for k = 2 and k = 3",
            time.perf_counter() - t0, 60)


def test_criterion_10_seven_by_seven_obstruction():
    t0 = time.perf_counter()
    F13 = make_field(13)
    C = zero(F13, 7)
    for i, j in ((1, 2), (1, 3), (2, 6), (3, 4), (4, 5), (4, 6), (6, 7)):
        C = C.with_entry(i, j, 1)
    ob = decompose_structured(C, 2)
    assert isinstance(ob, Obstruction)
    refuted = set(ob.refuted_colorings)
    assert ob.explored == 2 ** 7 and len(refuted) == 2 ** 7
    for pattern in [(1, 2, 2, 1, 2, 1, 2), (1, 2, 1, 2, 1, 1, 2),
                    (1, 2, 2, 1, 2, 2, 1), (1, 2, 1, 2, 1, 2, 1)]:
        assert pattern in refuted
        assert tuple(3 - c for c in pattern) in refuted
    _report(10, "obstruction certified; all four printed diagonal patterns "
                "among the refuted cases", time.perf_counter() - t0, 60)


def test_criterion_11_exponent_q_minus_one():
    t0 = time.perf_counter()
    F7 = make_field(7)
    chosen = select_system_pairs(F7, [1, 1], 6)
    assert len(chosen) == 2
    sigs = {(F7.pow(e.x, 6), F7.pow(e.y, 6)) for e in chosen}
    assert sigs == {(0, 1), (1, 0)}
    with pytest.raises(InsufficientClassesError):
        select_system_pairs(F7, [1, 1, 1], 6)
    _report(11, "x^6 + y^6 = 1 over F_7: exactly two classes",
            time.perf_counter() - t0, 1)
