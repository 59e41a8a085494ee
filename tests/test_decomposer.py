import random

import pytest

from triwaring.canonical import bipartition, presentation_matrix
from triwaring.decomposer import (
    DecompositionResult,
    Obstruction,
    decompose_structured,
    decompose_three,
    decompose_two,
    verify_decomposition,
)
from triwaring.errors import (
    EvenCharacteristicError,
    FieldMismatchError,
    InsufficientClassesError,
    PreconditionViolatedError,
)
from triwaring.fields import make_field
from triwaring.oracle import all_kth_powers, iter_matrices
from triwaring.power_sums import lex_min_solution
from triwaring.tri_matrix import (
    UTMatrix,
    diag,
    from_text,
    mat_pow,
    to_text,
    zero,
)

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
    res.assignment.validate(F13, 2)


def test_decompose_two_insufficient_classes(F7, F3):
    for F in (F3, F7):
        with pytest.raises(InsufficientClassesError):
            decompose_two(from_text(F, "0,1;0"), 2)


def test_decompose_two_rejects_even_characteristic():
    F4 = make_field(2, 2)
    with pytest.raises(EvenCharacteristicError):
        decompose_two(zero(F4, 2), 2)
    with pytest.raises(EvenCharacteristicError):
        decompose_three(zero(F4, 2), 2)


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
    assert tuple(e.lam for e in res.assignment.entries) == C.diagonal()


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
    for (p, m) in [(3, 1), (5, 1), (7, 1), (13, 1)]:
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


def test_decompose_three_sweep_t2():
    for (p, m) in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        F = make_field(p, m)
        for k in (2, 3):
            for C in iter_matrices(F, 2):
                assert decompose_three(C, k).verified


def test_structured_table_row_123(F13):
    C = presentation_matrix(F13, "123", 3)
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
    C = UTMatrix(F13, 2, entries)
    for decompose in (decompose_two, decompose_three, decompose_structured):
        with pytest.raises(FieldMismatchError):
            decompose(C, 2)


def test_structured_requires_constant_diagonal(F13):
    with pytest.raises(PreconditionViolatedError):
        decompose_structured(diag(F13, [1, 2]), 2)


def test_structured_size_cap(F13):
    with pytest.raises(PreconditionViolatedError):
        decompose_structured(zero(F13, 9), 2)


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


def test_lex_min_solution_matches_witness_scan():
    for p, m in [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1)]:
        F = make_field(p, m)
        for k in (2, 3, 4):
            witness = two_witness_map(F, k)
            for v in F.elements():
                s = lex_min_solution(F, v, k)
                if v in witness:
                    assert (s.x, s.y) == witness[v], (F.q, k, v)
                else:
                    assert s is None, (F.q, k, v)


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
    from tests.test_canonical import TABLE_ROWS
    for row, n in TABLE_ROWS:
        C = presentation_matrix(F13, row, n)
        expected = bipartition(C)
        for k in (2, 3):
            res = decompose_structured(C, k)
            assert isinstance(res, DecompositionResult) and res.verified
            got = res.plan.coloring
            flipped = tuple(3 - c for c in got)
            assert expected in (got, flipped), (row, k)


def test_verify_decomposition(F13):
    C = from_text(F13, "0,1;0")
    assert verify_decomposition(C, [C], 1)
    bad = [from_text(F13, "1,0;5"), diag(F13, [5, 1])]
    assert not verify_decomposition(C, bad, 2)


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
