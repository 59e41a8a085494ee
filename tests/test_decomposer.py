import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from triwaring.canonical import bipartition, parse_presentation
from triwaring.decomposer import (
    DecompositionResult,
    Obstruction,
    StructuredPlan,
    _three_by_position_search,
    decompose_structured,
    decompose_three,
    decompose_two,
    verify_decomposition,
)
from triwaring.errors import (
    FieldMismatchError,
    InsufficientClassesError,
    PreconditionViolatedError,
    RootMismatchError,
    SizeMismatchError,
    TriwaringError,
)
from triwaring import decomposer, power_sums, tri_matrix
from triwaring.claims import power_diff_quotient
from triwaring.fields import kth_root_map, kth_roots, make_field
from triwaring.oracle import all_kth_powers, iter_matrices, waring_report
from triwaring.power_sums import (
    AssignmentEntry,
    classified,
    lex_min_solution,
)
from triwaring.tri_matrix import (
    UTMatrix,
    backsub_root,
    diag,
    from_text,
    mat_pow,
    to_text,
    zero,
)
from tests.conftest import PRIME_POWERS_49, assert_distinct_power_solutions

OBSTRUCTION_ENTRIES = ((1, 2), (1, 3), (2, 6), (3, 4), (4, 5), (4, 6), (6, 7))


def obstruction_matrix(F):
    C = zero(F, 7)
    for i, j in OBSTRUCTION_ENTRIES:
        C = C.with_entry(i, j, 1)
    return C


def test_decompose_two_nilpotent_f13(F13):
    C = from_text(F13, "0,1;0")
    res = decompose_two(C, 2)
    assert res.verified
    assert verify_decomposition(C, res.parts, 2)
    A, B = res.parts
    # first part diagonalizable: its diagonal k-th powers are distinct
    dp = [F13.pow(a, 2) for a in A.diagonal()]
    assert len(set(dp)) == len(dp)
    # second part diagonal
    assert B == diag(F13, B.diagonal())


def test_decompose_two_diagonal_target(F13):
    res = decompose_two(diag(F13, [1, 3]), 2)
    assert res.verified
    assert_distinct_power_solutions(F13, 2, res.assignment)


def test_decompose_two_insufficient_classes(F7, F3):
    for F in (F3, F7):
        with pytest.raises(InsufficientClassesError):
            decompose_two(from_text(F, "0,1;0"), 2)


def test_decomposers_over_even_characteristic():
    # in characteristic 2, x^2 + y^2 = 0 forces x^2 = y^2: one class (U),
    # too few for two positions with target 0, but a shift away from 0
    # leaves three powers enough room
    F4 = make_field(2, 2)
    with pytest.raises(InsufficientClassesError) as err:
        decompose_two(zero(F4, 2), 2)
    assert (err.value.lam, err.value.found, err.value.needed) == (0, 1, 2)
    res = decompose_three(zero(F4, 2), 2)
    assert res.verified and verify_decomposition(zero(F4, 2), res.parts, 2)
    C = from_text(F4, "1,1;1")
    assert [to_text(p) for p in decompose_two(C, 2).parts] == ["0,1;1", "1,0;0"]


def test_decompose_two_single_position(F13):
    res = decompose_two(diag(F13, [7]), 2)
    assert res.verified


def test_decompose_two_full_t2_f13(F13):
    for C in iter_matrices(F13, 2):
        res = decompose_two(C, 2)
        assert res.verified
        dp = [F13.pow(a, 2) for a in res.parts[0].diagonal()]
        assert len(set(dp)) == 2


def test_decompose_two_assignment_order_matches_diagonal(F13):
    C = from_text(F13, "5,1,2;0,3;5")
    res = decompose_two(C, 2)
    assert tuple(e.lam for e in res.assignment) == C.diagonal()


def test_decompose_three_examples(F7):
    C = from_text(F7, "0,1;0")
    res = decompose_three(C, 2)
    assert res.verified and len(res.parts) == 3
    A, B, D = res.parts
    assert B == diag(F7, B.diagonal())
    assert D == diag(F7, D.diagonal())
    res2 = decompose_three(diag(F7, [3, 5]), 2)
    assert res2.verified
    res3 = decompose_three(zero(F7, 1), 2)
    assert res3.verified


def test_decompose_three_small_field_edge_cases(F3):
    # these defeat the single-shift route and exercise the fallback
    for text in ("0,1;0", "2,1;2", "1,2;1"):
        res = decompose_three(from_text(F3, text), 2)
        assert res.verified, text
    F7 = make_field(7)
    res = decompose_three(from_text(F7, "3,1;3"), 3)
    assert res.verified


def test_oracle_agreement_t2():
    # decompose_two success implies a two-power witness; oracle min > 2
    # implies decompose_two fails
    for (p, m) in [(3, 1), (5, 1), (7, 1), (13, 1), (2, 2), (2, 3)]:
        F = make_field(p, m)
        for k in (2, 3):
            powers = set(all_kth_powers(F, 2, k))
            two_sums = set()
            for P in powers:
                for Q in powers:
                    two_sums.add(P + Q)
            for C in iter_matrices(F, 2):
                try:
                    res = decompose_two(C, k)
                    ok = True
                except InsufficientClassesError:
                    ok = False
                if ok:
                    assert res.verified and C in two_sums
                if C not in two_sums:
                    assert not ok, (F.q, k, to_text(C))


def test_three_powers_match_oracle_in_characteristic_two():
    # decompose_three succeeds on exactly the matrices the oracle puts at
    # three powers or fewer
    for (p, m), n in [((2, 2), 2), ((2, 3), 2), ((2, 2), 3)]:
        F = make_field(p, m)
        for k in (2, 3):
            per_matrix_min = waring_report(F, n, k, 3).per_matrix_min
            for C in iter_matrices(F, n):
                try:
                    ok = decompose_three(C, k).verified
                except InsufficientClassesError:
                    ok = False
                # None: more than the cap of three
                assert ok == (per_matrix_min[C] is not None), (
                    F.q, k, to_text(C))


def test_decompose_three_sweep_t2():
    for (p, m) in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        F = make_field(p, m)
        for k in (2, 3):
            for C in iter_matrices(F, 2):
                assert decompose_three(C, k).verified


def test_three_powers_succeed_where_the_value_route_does():
    # the shift runs once, and its failures fall to the value route, which
    # solves every matrix the shift solves: the two agree on success
    def solved(decompose, C, k):
        try:
            return decompose(C, k).verified
        except InsufficientClassesError:
            return False

    for (p, m), n in [((5, 1), 2), ((7, 1), 2), ((13, 1), 2), ((3, 1), 3)]:
        F = make_field(p, m)
        for k in (2, 3, 4, 6):
            for C in iter_matrices(F, n):
                assert solved(decompose_three, C, k) == solved(
                    _three_by_position_search, C, k), (F.q, k, to_text(C))


def test_three_powers_select_once(monkeypatch):
    # 11 and 4 are nonzero and distinct, so both shift by z = 0, and
    # selection on them runs out of classes; the value route answers
    # without a second selection
    calls = []

    def counted(*args):
        calls.append(args)
        return power_sums.select_system_pairs(*args)

    monkeypatch.setattr(decomposer, "select_system_pairs", counted)
    res = decompose_three(from_text(make_field(13), "11,12;4"), 3)
    assert len(calls) == 1
    assert res.verified
    assert [e.as_row() for e in res.assignment] == [[0, 4, 4], [1, 2, 2]]


def diagonal_outcome(decompose, C, k):
    """What decompose reads off the diagonal: the assignment rows and the
    diagonal parts, or the typed error."""
    try:
        res = decompose(C, k)
    except TriwaringError as err:
        return err.to_json()
    return [e.as_row() for e in res.assignment], res.parts[1:]


def test_decomposers_decide_by_the_diagonal_alone():
    # the strict part enters only A's back-substitution, whose divisors
    # the chosen diagonal keeps nonzero, so two matrices with one diagonal
    # get one assignment and one set of diagonal parts, or one error
    rng = random.Random(23)
    cells = [((p, m), n, k) for p, m in [(5, 1), (3, 2), (3, 1), (2, 3)]
             for n in (2, 3, 4) for k in (2, 3)]
    cells += [((13, 1), n, 2) for n in (6, 7, 8)]
    cells += [((31, 1), n, 3) for n in (9, 10, 11)]
    outcomes = set()
    for (p, m), n, k in cells:
        F = make_field(p, m)
        strict = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for _ in range(10):
            C = diag(F, [rng.randrange(F.q) for _ in range(n)])
            twins = []
            while len(twins) < 2:
                D = C.with_entries({ij: rng.randrange(F.q) for ij in strict})
                if D not in twins:
                    twins.append(D)
            for decompose in (decompose_two, decompose_three):
                got, other = (diagonal_outcome(decompose, D, k)
                              for D in twins)
                assert got == other, (F.q, k, to_text(twins[0]))
                outcomes.add(isinstance(got, dict))
    assert outcomes == {True, False}


def test_structured_table_row_123(F13):
    C = parse_presentation("123", 3).matrix(F13)
    res = decompose_structured(C, 2)
    assert isinstance(res, DecompositionResult) and res.verified
    assert res.plan.coloring == (1, 2, 1)
    assert res.plan.owned_a == ((1, 2),)
    assert res.plan.owned_b == ((2, 3),)
    A, B = res.parts
    assert mat_pow(A, 2) + mat_pow(B, 2) == C


def test_structured_zero_matrix(F13):
    res = decompose_structured(zero(F13, 3), 2)
    assert res.verified
    assert res.parts[0] == zero(F13, 3) and res.parts[1] == zero(F13, 3)


def test_structured_scalar_matrix(F13):
    res = decompose_structured(diag(F13, [5, 5, 5, 5]), 2)
    assert res.verified


@pytest.mark.parametrize("entries", [(1, 14, 3), (1, -1, 3), (13, 0, 13)])
def test_decomposers_reject_entries_outside_field(F13, entries):
    # such a C is refused when it is built, so no decomposer is handed one
    with pytest.raises(FieldMismatchError):
        UTMatrix(F13, 2, entries)


def test_structured_requires_constant_diagonal(F13):
    with pytest.raises(PreconditionViolatedError):
        decompose_structured(diag(F13, [1, 2]), 2)


def test_structured_plans_past_the_obstruction_cap(F13):
    # only an Obstruction, which lists all 2^n colorings, is capped at
    # n <= 8: a chain (a bipartite path with a bipartite chain graph) and
    # the zero matrix get verified plans past it
    chains = [",".join(map(str, range(1, n + 1))) for n in (10, 20)]
    for C in [zero(F13, 9),
              parse_presentation("123456789", 9).matrix(F13)] + [
            parse_presentation(row, row.count(",") + 1).matrix(F13)
            for row in chains]:
        res = decompose_structured(C, 2)
        assert isinstance(res, DecompositionResult) and res.verified
        assert verify_decomposition(C, res.parts, 2)
    # a 3-cycle on 1, 2, 3 has no plan, and n = 9 is past the cap
    odd_cycle = parse_presentation("123|4|5|6|7|8|9:13", 9).matrix(F13)
    with pytest.raises(PreconditionViolatedError, match="n <= 8"):
        decompose_structured(odd_cycle, 2)


def test_structured_insufficient_classes(F7):
    # x^2 + y^2 = 0 over F_7 has no asymmetric classes, and E_12 needs two
    C = from_text(F7, "0,1;0")
    with pytest.raises(InsufficientClassesError):
        decompose_structured(C, 2)


def test_structured_no_solution_diagonal(F7):
    # cubes of F_7 are {0, 1, 6}, so x^3 + y^3 = 3 has no solution at all
    with pytest.raises(InsufficientClassesError,
                       match="x\\^3 \\+ y\\^3 = 3 has no solutions over F_7"):
        decompose_structured(diag(F7, [3, 3]), 3)


def two_witness_map(F, k):
    """Reference: value -> lex-min (y, z) with y^k + z^k = value, by the
    q^2 scan the position-search fallback once kept as its own table."""
    out = {}
    for y in F.elements():
        yk = F.pow(y, k)
        for z in F.elements():
            v = F.add(yk, F.pow(z, k))
            if v not in out:
                out[v] = (y, z)
    return out


def test_lex_min_solution_matches_witness_scan(monkeypatch):
    # in characteristic 2, U spans several fibers at lambda = 0
    asked = []
    monkeypatch.setattr(power_sums, "classified", lambda *a: asked.append(a))
    for p, m in [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1), (2, 2), (2, 3),
                 (2, 4), (3, 3), (5, 2), (13, 2)]:
        F = make_field(p, m)
        q = F.q
        for k in sorted({*range(1, 13), q - 1, 2 * (q - 1), q + 1}):
            witness = two_witness_map(F, k)
            for v in F.elements():
                assert lex_min_solution(F, v, k) == witness.get(v), \
                    (F.q, k, v)
    assert asked == []  # no classification is built


def test_obstruction_7x7(F13):
    ob = decompose_structured(obstruction_matrix(F13), 2)
    assert isinstance(ob, Obstruction)
    assert ob.explored == 2 ** 7
    refuted = set(ob.refuted_colorings)
    assert len(refuted) == 2 ** 7
    for pattern in [(1, 2, 2, 1, 2, 1, 2), (1, 2, 1, 2, 1, 1, 2),
                    (1, 2, 2, 1, 2, 2, 1), (1, 2, 1, 2, 1, 2, 1)]:
        assert pattern in refuted


def test_structured_diagonal_patterns_match_bipartition(F13):
    from scripts.reproduce_tables import ROWS
    for row, n in ROWS:
        C = parse_presentation(row, n).matrix(F13)
        expected = bipartition(C)
        for k in (2, 3):
            res = decompose_structured(C, k)
            assert isinstance(res, DecompositionResult) and res.verified
            got = res.plan.coloring
            flipped = tuple(3 - c for c in got)
            assert expected in (got, flipped), (row, k)


def test_cold_decompose_two_reads_a_few_values(monkeypatch):
    # over F_10007, k = 3, every element is a cube: a cold class walk
    # meets a class at nearly every value, so selection reads a handful
    # of values per eigenvalue, where walking them all takes 10,007 F.sub
    # calls per eigenvalue
    F = make_field(10007)
    kth_root_map(F, 3)  # built (and cached) before counting
    rng = random.Random("decompose/cold/10007")
    calls = []
    real = type(F).sub

    def counted(self, a, b):
        calls.append((a, b))
        return real(self, a, b)

    monkeypatch.setattr(type(F), "sub", counted)
    for _ in range(20):
        C = UTMatrix(F, 3, tuple(rng.randrange(F.q) for _ in range(6)))
        power_sums.class_walk.cache_clear()
        calls.clear()
        assert decompose_two(C, 3).verified
        assert len(calls) <= 30


def test_verify_decomposition(F13):
    C = from_text(F13, "0,1;0")
    assert verify_decomposition(C, [C], 1)
    bad = [from_text(F13, "1,0;5"), diag(F13, [5, 1])]
    assert not verify_decomposition(C, bad, 2)


def powers_sum_to(C, parts, k):
    """Reference: every part raised by mat_pow, the powers summed."""
    total = zero(C.field, C.n)
    for part in parts:
        total = total + mat_pow(part, k)
    return total == C


def test_verify_decomposition_raises_diagonal_parts_entrywise():
    # diagonal parts take the entrywise route, the others mat_pow: the
    # verdict is mat_pow's on a seeded corpus, a wrong diagonal entry of
    # C is rejected, and so is a part given a single nonzero strict entry
    rng = random.Random("verify/diagonal")
    for pm in [(7, 1), (13, 1), (2, 3), (3, 2), (5, 2)]:
        F = make_field(*pm)
        for _ in range(60):
            n, k = rng.randint(1, 5), rng.randint(1, 7)
            parts = [diag(F, [rng.randrange(F.q) for _ in range(n)])
                     for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                parts.append(UTMatrix(F, n, tuple(
                    rng.randrange(F.q) for _ in range(n * (n + 1) // 2))))
            C = zero(F, n)
            for part in parts:
                C = C + mat_pow(part, k)
            assert verify_decomposition(C, parts, k)
            i = rng.randint(1, n)
            wrong = C.with_entry(i, i, C[i, i] + 1)
            assert not verify_decomposition(wrong, parts, k)
            if n > 1:
                j = rng.randint(2, n)
                r = rng.randint(1, j - 1)
                bent = [parts[0].with_entry(r, j, rng.randrange(1, F.q)),
                        *parts[1:]]
                assert verify_decomposition(C, bent, k) == \
                    powers_sum_to(C, bent, k)
    F13 = make_field(13)
    C = diag(F13, [1, 4])  # diag(1, 2)^2, whose (1, 2) entry x gives 3x
    assert verify_decomposition(C, [diag(F13, [1, 2])], 2)
    assert not verify_decomposition(C, [from_text(F13, "1,1;2")], 2)


def test_verify_decomposition_fails_closed(F7, F13):
    C = from_text(F13, "3,1,4;1,5;9")
    parts = decompose_two(C, 2).parts
    assert verify_decomposition(C, parts, 2)
    for i, j in C.positions():
        assert not verify_decomposition(
            C.with_entry(i, j, C[i, j] + 1), parts, 2), (i, j)
    # a part of another size or over another field raises, sizes first
    with pytest.raises(SizeMismatchError):
        verify_decomposition(C, [*parts, zero(F13, 2)], 2)
    with pytest.raises(FieldMismatchError):
        verify_decomposition(C, [*parts, zero(F7, 3)], 2)
    with pytest.raises(SizeMismatchError):
        verify_decomposition(C, [zero(F7, 2)], 2)


def test_verify_decomposition_refuses_k_below_one(F7):
    # at k = 0 every part's power is I, so any C = s I would pass
    C = diag(F7, [2, 2])
    parts = (from_text(F7, "3,5;6"), from_text(F7, "0,1;4"))
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            verify_decomposition(C, parts, k)


def test_failed_verification_raises(F13, monkeypatch):
    # a raise, not an assert, so python -O cannot strip it
    monkeypatch.setattr(decomposer, "verify_decomposition", lambda *a: False)
    with pytest.raises(RootMismatchError, match="2-power sum failed"):
        decompose_two(from_text(F13, "0,1;0"), 2)


def test_result_json_shape(F13):
    res = decompose_two(from_text(F13, "0,1;0"), 2)
    js = res.to_json()
    assert set(js) == {"target", "k", "parts", "assignment", "verified"}
    assert js["verified"] is True
    assert js["target"] == "0,1;0"
    assert all(isinstance(s, str) for s in js["parts"])
    res3 = decompose_three(from_text(make_field(7), "0,1;0"), 2)
    assert all(len(row) == 3 for row in res3.to_json()["assignment"])


def test_random_t3_sample(F13):
    rng = random.Random(8)
    for _ in range(300):
        C = UTMatrix(F13, 3, tuple(rng.randrange(13) for _ in range(6)))
        assert decompose_two(C, 2).verified
        assert decompose_three(C, 3).verified


def test_oracle_agreement_extension_field(F9):
    # exhaustive over T_2(F_9): never succeed where two-sum membership fails
    for k in (2, 3):
        powers = set(all_kth_powers(F9, 2, k))
        for C in iter_matrices(F9, 2):
            in_two = any((C - P) in powers for P in powers)
            try:
                res = decompose_two(C, k)
            except InsufficientClassesError:
                continue
            assert res.verified and in_two
        # -1 is a square and cubing is a bijection here, so both exponents
        # in fact succeed everywhere
        assert all(decompose_two(C, k).verified
                   for C in iter_matrices(F9, 2))


def test_single_position_insufficiency(F7):
    # sixth powers over F_7 are {0, 1}; 3 is not a sum of two of them
    with pytest.raises(InsufficientClassesError):
        decompose_two(diag(F7, [3]), 6)
    # nor is 4 a sum of three
    with pytest.raises(InsufficientClassesError):
        decompose_three(diag(F7, [4]), 6)
    # 3 = 1 + 1 + 1 works
    res = decompose_three(diag(F7, [3]), 6)
    assert res.verified and [p.diagonal() for p in res.parts] == [(1,), (1,), (1,)]


def structured_reference(C, k):
    """Reference: decompose_structured's plan by exhaustive search, a scan
    of all 2^n diagonal colorings and a backtracking entry split, for a
    constant-diagonal C with entries whose eigenvalue has two classes."""
    F, n = C.field, C.n
    lam = C.get(1, 1)
    entries = C.nonzero_strict_positions()
    s1, s2 = (tuple(kth_roots(F, v, k)[0] for v in sig)
              for sig in classified(F, lam, k).signatures[:2])
    sols = {1: s1, 2: s2}
    owned = ([], [])

    def fits(side, i, j):
        return all(s != i and r != j for r, s in side)

    def dfs(idx):
        if idx == len(entries):
            return True
        i, j = entries[idx]
        for side in owned:
            if fits(side, i, j):
                side.append((i, j))
                if dfs(idx + 1):
                    return True
                side.pop()
        return False

    split = dfs(0)
    refuted = []
    for coloring in itertools.product((1, 2), repeat=n):
        if not split or any(coloring[i - 1] == coloring[j - 1]
                            for i, j in entries):
            refuted.append(coloring)
            continue
        roots = []
        for side, owned_side in enumerate(owned):
            A0 = diag(F, [F.pow(sols[c][side], k) for c in coloring])
            roots.append(backsub_root(
                A0.with_entries({ij: C[ij] for ij in owned_side}), k))
        plan = StructuredPlan(coloring, tuple(owned[0]), tuple(owned[1]))
        entries = tuple(AssignmentEntry(lam, *sols[c]) for c in coloring)
        return DecompositionResult(tuple(roots), k, C, entries, True,
                                   plan=plan)
    return Obstruction(C, k, len(refuted), tuple(refuted))


def assert_structured_matches_reference(C, k):
    try:
        res = decompose_structured(C, k)
    except InsufficientClassesError:
        assert classified(C.field, C.get(1, 1), k).r < 2
        return
    if not C.nonzero_strict_positions():
        return
    ref = structured_reference(C, k)
    assert type(res) is type(ref), (to_text(C), k)
    assert res.to_json() == ref.to_json(), (to_text(C), k)
    if isinstance(ref, DecompositionResult):
        assert res == ref and res.plan == ref.plan, (to_text(C), k)


def test_structured_matches_exhaustive_search_01(F13):
    for n in range(1, 6):
        positions = [(i, j) for i in range(1, n + 1)
                     for j in range(i + 1, n + 1)]
        for bits in itertools.product((0, 1), repeat=len(positions)):
            C = zero(F13, n).with_entries(
                {ij: 1 for ij, b in zip(positions, bits) if b})
            for k in (2, 3):
                assert_structured_matches_reference(C, k)


def test_structured_matches_exhaustive_search_seeded():
    rng = random.Random(6)
    for p, m in [(5, 1), (3, 2), (31, 1)]:
        F = make_field(p, m)
        for _ in range(60):
            n = rng.randint(2, 8)
            density = rng.random()
            lam = rng.randrange(F.q)
            C = diag(F, [lam] * n).with_entries({
                (i, j): rng.randrange(1, F.q)
                for i in range(1, n + 1) for j in range(i + 1, n + 1)
                if rng.random() < density})
            if len(C.nonzero_strict_positions()) <= 24:
                assert_structured_matches_reference(C, rng.choice((2, 3, 4)))


def position_search_reference(C, k):
    """Reference: _three_by_position_search's assignment by a depth-first
    search over all q^n root sequences, each a_i the least element that
    keeps c_ii - a_i^k a sum of two k-th powers and pdq(a_i, a_j)
    nonzero; the lex-min (y, z) fills the diagonal parts."""
    F, n = C.field, C.n
    d = C.diagonal()

    def witness(i, a):
        return lex_min_solution(F, F.sub(d[i], F.pow(a, k)), k)

    chosen = []

    def dfs(i):
        if i == n:
            return True
        for a in F.elements():
            if witness(i, a) is not None and all(
                    power_diff_quotient(F, b, a, k) != 0 for b in chosen):
                chosen.append(a)
                if dfs(i + 1):
                    return True
                chosen.pop()
        return False

    if not dfs(0):
        raise InsufficientClassesError(
            f"no three-power assignment found over F_{F.q} (k={k}); "
            f"sufficient only for q > 4 n^2 k^16")
    pairs = [witness(i, a) for i, a in enumerate(chosen)]
    return tuple(AssignmentEntry(c, a, *s)
                 for c, a, s in zip(d, chosen, pairs))


def assert_position_search_matches_reference(C, k):
    """Same assignment, parts and typed error as the reference. The parts
    follow from the assignment: B and D are its diagonals, and A is the
    one matrix with diagonal (a_i) whose k-th power is C - B^k - D^k,
    because every pdq(a_i, a_j) is nonzero (the result is verified)."""
    try:
        expected = position_search_reference(C, k)
    except InsufficientClassesError as err:
        with pytest.raises(InsufficientClassesError) as got:
            _three_by_position_search(C, k)
        assert str(got.value) == str(err)
        return
    res = _three_by_position_search(C, k)
    assert res.verified and res.assignment == expected, (to_text(C), k)
    assert res.parts[0].diagonal() == tuple(e.x for e in expected)
    assert res.parts[1:] == (diag(C.field, [e.y for e in expected]),
                             diag(C.field, [e.z for e in expected]))


def test_position_search_matches_depth_first_t2():
    for p, m in [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1)]:
        F = make_field(p, m)
        for k in sorted({1, 2, 3, 4, p}):
            for C in iter_matrices(F, 2):
                assert_position_search_matches_reference(C, k)


def test_position_search_matches_depth_first_seeded():
    rng = random.Random(9)
    for p, m in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        F = make_field(p, m)
        for _ in range(80):
            n = 4 if F.q <= 7 else 3
            C = UTMatrix(F, n, tuple(rng.randrange(F.q)
                                     for _ in range(n * (n + 1) // 2)))
            if rng.random() < 0.5:
                # repeated diagonal values exercise the once-only roots
                C = C.with_entries({(i, i): C.get(1, 1)
                                    for i in range(1, n, 2)})
            assert_position_search_matches_reference(
                C, rng.choice(sorted({1, 2, 3, 4, p})))


def test_position_search_large_prime_field():
    # options are read off the coset classes of W_2, with no set of the
    # |K|^2 sums of two cubes built over F_10007
    C = from_text(make_field(10007), "0,1;0")
    start = time.perf_counter()
    res = _three_by_position_search(C, 3)
    assert time.perf_counter() - start < 2
    assert [e.as_row() for e in res.assignment] == [[0, 0, 0],
                                                    [1, 0, 10006]]
    assert res.verified


def random_matrix(F, n, rng):
    return UTMatrix(F, n, tuple(rng.randrange(F.q)
                                for _ in range(n * (n + 1) // 2)))


def test_three_powers_below_the_class_threshold():
    # more positions than k-th power values: the shift route cannot
    # assign, and the position route answers (the exhaustive search it
    # replaced refused these q^n > 10^6 spaces)
    rng = random.Random(12)
    F13, F31 = make_field(13), make_field(31)
    cases = ([(random_matrix(F13, 8, rng), 2) for _ in range(10)]
             + [(random_matrix(F13, 10, rng), 3) for _ in range(10)]
             + [(random_matrix(F31, 20, rng), 2)])
    start = time.perf_counter()
    for C, k in cases:
        res = decompose_three(C, k)
        assert res.verified and verify_decomposition(C, res.parts, k)
    assert time.perf_counter() - start < 5


def test_two_powers_fail_fast_on_pigeonhole():
    C = random_matrix(make_field(31), 20, random.Random(12))
    start = time.perf_counter()
    with pytest.raises(InsufficientClassesError) as err:
        decompose_two(C, 2)
    assert time.perf_counter() - start < 1
    # 20 positions, 16 squares in F_31
    assert (err.value.lam, err.value.found, err.value.needed) == (None, 16, 20)


def test_deep_selection_fails_in_time_and_three_powers_answer():
    # T_16(F_31), k = 2: the paper's selection backtracks through a deep
    # search before it fails (about 0.2 s per call on a 2-vCPU x86-64,
    # CPython 3.11); three powers still answer, after their shifted
    # diagonal's selection fails the same way
    C = random_matrix(make_field(31), 16, random.Random(3))
    start = time.perf_counter()
    with pytest.raises(InsufficientClassesError) as err:
        decompose_two(C, 2)
    assert time.perf_counter() - start < 3
    assert (err.value.lam, err.value.found, err.value.needed) == (20, 9, 16)
    start = time.perf_counter()
    res = decompose_three(C, 2)
    assert time.perf_counter() - start < 3
    assert res.verified and verify_decomposition(C, res.parts, 2)


def test_structured_obstruction_beyond_24_entries(F13):
    # n = 8 with 25 entries (the old entry cap was 24): triangles make the
    # entry graph non-bipartite, so all 256 colorings are refuted
    positions = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)]
    C = zero(F13, 8).with_entries({ij: 1 for ij in positions[:25]})
    ob = decompose_structured(C, 2)
    assert isinstance(ob, Obstruction)
    assert ob.explored == 256
    assert ob.refuted_colorings == tuple(itertools.product((1, 2), repeat=8))


def three_power_criterion(F, k):
    """Whether F_q = P* + P + P, P the k-th powers of F_q and P* the
    nonzero ones: for p not dividing k, this holds exactly when every
    matrix of every T_n(F_q) is a sum of three k-th powers (README)."""
    P = set(kth_root_map(F, k))
    pairs = {F.add(b, c) for b in P for c in P}
    return len({F.add(a, w) for a in P - {0} for w in pairs}) == F.q


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1),
                        (2, 2), (2, 3), (2, 4)]),
       st.integers(1, 6), st.integers(1, 5), st.data())
def test_decompose_three_verified_or_typed(pm, k, n, data):
    # a typed failure only where p | k or the field criterion fails: where
    # it holds, the value route gives every position a nonzero least root
    F = make_field(*pm)
    entries = data.draw(st.lists(st.integers(0, F.q - 1),
                                 min_size=n * (n + 1) // 2,
                                 max_size=n * (n + 1) // 2))
    C = UTMatrix(F, n, tuple(entries))
    try:
        res = decompose_three(C, k)
    except TriwaringError:
        assert k % F.p == 0 or not three_power_criterion(F, k), (C, k)
        return
    assert res.verified and verify_decomposition(C, res.parts, k)


def masked_structured(C, k):
    """Reference: decompose_structured as it was before one walk rooted
    both sides. Each side is its own `backsub_root` call on C with the
    other side's entries zeroed, and the pair is verified apart."""
    F, n = C.field, C.n
    d = C.diagonal()
    if len(set(d)) != 1:
        raise PreconditionViolatedError(
            f"structured search needs a constant diagonal, got {d}")
    entries = C.nonzero_strict_positions()
    lam = d[0]
    if not entries:
        s = lex_min_solution(F, lam, k)
        if s is None:
            raise InsufficientClassesError(
                f"x^{k} + y^{k} = {lam} has no solutions over F_{F.q}",
                lam=lam, found=0, needed=1)
        parts = (backsub_root(C, k, [s[0]] * n), diag(F, [s[1]] * n))
        return parts, StructuredPlan((1,) * n, (), ()), \
            (AssignmentEntry(lam, *s),) * n
    cl = classified(F, lam, k)
    if cl.r < 2:
        raise InsufficientClassesError(
            f"x^{k} + y^{k} = {lam} has {cl.r} classes over F_{F.q}, "
            f"need 2 for the structured split", lam=lam, found=cl.r, needed=2)
    s1, s2 = [(xs[0], ys[0]) for xs, ys in cl.fibers[:2]]
    sols = {1: s1, 2: s2}
    coloring = bipartition(C)
    split = decomposer._split_entries(entries)
    if coloring is None or split is None:
        if n > decomposer.STRUCTURED_MAX_N:
            raise PreconditionViolatedError(
                f"no plan, and obstructions stop at n <= "
                f"{decomposer.STRUCTURED_MAX_N}")
        refuted = tuple(itertools.product((1, 2), repeat=n))
        return Obstruction(C, k, len(refuted), refuted)
    owned_a, owned_b = split
    A = backsub_root(C.with_entries(dict.fromkeys(owned_b, 0)), k,
                     [sols[c][0] for c in coloring])
    B = backsub_root(C.with_entries(dict.fromkeys(owned_a, 0)), k,
                     [sols[c][1] for c in coloring])
    assert verify_decomposition(C, (A, B), k)
    return (A, B), StructuredPlan(coloring, owned_a, owned_b), \
        tuple(AssignmentEntry(lam, *sols[c]) for c in coloring)


def structured_outcome(route, C, k):
    """(parts, plan, assignment), an Obstruction's JSON, or a typed
    error's JSON: its type and message, and lambda, found and needed
    where it has them."""
    try:
        got = route(C, k)
    except TriwaringError as err:
        return err.to_json()
    if isinstance(got, Obstruction):
        return got.to_json()
    if isinstance(got, DecompositionResult):
        assert got.verified
        return got.parts, got.plan, got.assignment
    return got


def test_structured_matches_the_masked_construction():
    # every catalogue row and the two extra golden rows over prime,
    # extension and larger fields, and a seeded constant-diagonal corpus
    from scripts.reproduce_tables import ROWS
    from tests.test_golden import EXTRA_TABLE_ROWS
    planned = 0
    for p, m in [(13, 1), (31, 1), (3, 4), (7, 2), (5, 3), (13, 2)]:
        F = make_field(p, m)
        for row, n in [*ROWS, *EXTRA_TABLE_ROWS]:
            C = parse_presentation(row, n).matrix(F)
            for k in (2, 3, 12):
                got = structured_outcome(decompose_structured, C, k)
                assert got == structured_outcome(masked_structured, C, k), \
                    (F.q, row, k)
                planned += len(got) == 3 and bool(got[1].owned_a)
    rng = random.Random(27)
    for _ in range(300):
        F = make_field(*rng.choice(PRIME_POWERS_49))
        n = rng.randint(1, 7)
        density = rng.random()
        C = diag(F, [rng.randrange(F.q)] * n).with_entries({
            (i, j): rng.randrange(1, F.q)
            for i in range(1, n + 1) for j in range(i + 1, n + 1)
            if rng.random() < density})
        k = rng.choice((1, 2, 3, 4, 12, F.p, F.q - 1))
        got = structured_outcome(decompose_structured, C, k)
        assert got == structured_outcome(masked_structured, C, k), \
            (F.q, to_text(C), k)
        planned += len(got) == 3 and bool(got[1].owned_a)
    assert planned > 400


def test_every_route_walks_once(F7, F13, monkeypatch):
    walks = []

    def counted(*args):
        walks.append(args[1])
        return tri_matrix._root_parts(*args)

    monkeypatch.setattr(decomposer, "_root_parts", counted)
    routes = [
        (decompose_two, from_text(F13, "1,2,3;4,5;6"), 2),
        (decompose_three, from_text(F13, "1,2,3;4,5;6"), 2),
        (_three_by_position_search, from_text(F7, "0,1;0"), 2),
        (decompose_structured, parse_presentation("123", 3).matrix(F13), 2),
        (decompose_structured, zero(F13, 3), 3),
    ]
    for route, C, k in routes:
        walks.clear()
        res = route(C, k)
        assert res.verified and walks == [k], route.__name__
