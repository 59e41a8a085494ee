import random

import pytest

from triwaring.canonical import (
    ConjugationWitness,
    annihilate_entry,
    bipartition,
    diagonalize_distinct,
    is_indecomposable,
    parse_presentation,
    render_presentation,
)
from triwaring.errors import (
    DiagNotDistinctError,
    DuplicateVertexError,
    EqualDiagonalError,
    LabelOutOfRangeError,
    NotNilpotentError,
    ParseError,
    RootMismatchError,
)
from triwaring.tri_matrix import diag, elementary, from_rows, identity, zero

from scripts.reproduce_tables import ROWS


def test_annihilate_example(F7):
    A = from_rows(F7, [[1, 1], [0, 2]])
    after, w = annihilate_entry(A, 1, 2)
    assert after == diag(F7, [1, 2])
    assert w.S == identity(F7, 2).with_entry(1, 2, 1)
    assert w.verify()
    # a singular S conjugates nothing, though D S = S D here
    D = diag(F7, [1, 2])
    assert not ConjugationWitness(diag(F7, [1, 0]), D, D).verify()


def test_annihilate_noop_when_zero(F7):
    A = diag(F7, [1, 2])
    after, w = annihilate_entry(A, 1, 2)
    assert after == A and w.S == identity(F7, 2)


def test_witness_serialization(F7):
    from triwaring.tri_matrix import from_text
    A = from_rows(F7, [[1, 1], [0, 2]])
    _, w = annihilate_entry(A, 1, 2)
    js = w.to_json()
    assert set(js) == {"S", "before", "after"}
    assert from_text(F7, js["S"]) == w.S
    assert from_text(F7, js["before"]) == A


def test_annihilate_equal_diagonal(F7):
    with pytest.raises(EqualDiagonalError):
        annihilate_entry(diag(F7, [1, 1]).with_entry(1, 2, 1), 1, 2)
    with pytest.raises(EqualDiagonalError, match="need 1 <= l < r <= n"):
        annihilate_entry(diag(F7, [1, 2]), 2, 1)


def test_annihilate_preserves_earlier_entries(F13):
    # entries with larger row, or same row and smaller column, are earlier
    # in the reduction order and must be bit-identical afterwards
    rng = random.Random(21)
    for _ in range(120):
        n = rng.randint(2, 6)
        vals = rng.sample(range(13), n)
        A = diag(F13, vals)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                A = A.with_entry(i, j, rng.randrange(13))
        l = rng.randint(1, n - 1)
        r = rng.randint(l + 1, n)
        after, w = annihilate_entry(A, l, r)
        assert after.get(l, r) == 0
        assert w.verify()
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                if i > l or (i == l and j < r):
                    assert after.get(i, j) == A.get(i, j), (l, r, i, j)


def test_diagonalize_examples(F7, F13):
    D, w = diagonalize_distinct(from_rows(F7, [[1, 1], [0, 2]]))
    assert D == diag(F7, [1, 2]) and w.verify()
    A = diag(F7, [3, 5])
    D2, w2 = diagonalize_distinct(A)
    assert D2 == A and w2.S == identity(F7, 2)
    M = from_rows(F13, [[1, 1, 1], [0, 2, 1], [0, 0, 3]])
    D3, w3 = diagonalize_distinct(M)
    assert D3 == diag(F13, [1, 2, 3])
    assert w3.verify()


def test_diagonalize_random(F13):
    rng = random.Random(33)
    for _ in range(60):
        n = rng.randint(1, 6)
        A = diag(F13, rng.sample(range(13), n))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                A = A.with_entry(i, j, rng.randrange(13))
        D, w = diagonalize_distinct(A)
        assert D == diag(F13, A.diagonal())
        assert w.verify()


def test_diagonalize_rejects_repeats(F7):
    with pytest.raises(DiagNotDistinctError):
        diagonalize_distinct(diag(F7, [1, 1, 2]))


def test_diagonalize_raises_on_a_failed_check(F7, monkeypatch):
    # a raise, not an assert, so python -O cannot strip it
    monkeypatch.setattr(ConjugationWitness, "verify", lambda self: False)
    with pytest.raises(RootMismatchError):
        diagonalize_distinct(from_rows(F7, [[1, 1], [0, 2]]))


def test_diagonalize_extension_field(F9):
    M = from_rows(F9, [[0, 3, 7], [0, 4, 1], [0, 0, 8]])
    D, w = diagonalize_distinct(M)
    assert D == diag(F9, [0, 4, 8])
    assert w.verify()


def test_parse_example(F13):
    M = parse_presentation("12|34:13", 4).matrix(F13)
    assert M == (elementary(F13, 4, 1, 2) + elementary(F13, 4, 3, 4)
                 + elementary(F13, 4, 1, 3))
    assert parse_presentation("123", 3).matrix(F13) == (
        elementary(F13, 3, 1, 2) + elementary(F13, 3, 2, 3))
    assert parse_presentation("1234", 4).matrix(F13) == (
        elementary(F13, 4, 1, 2) + elementary(F13, 4, 2, 3)
        + elementary(F13, 4, 3, 4))


def test_parse_errors():
    with pytest.raises(DuplicateVertexError):
        parse_presentation("1236|245", 6)  # the misprinted table row
    with pytest.raises(ParseError):
        parse_presentation("1234|56:34", 6)  # arc already in a block
    with pytest.raises(LabelOutOfRangeError):
        parse_presentation("125", 4)  # label 5 exceeds n = 4
    with pytest.raises(ParseError):
        parse_presentation("12", 3)  # vertex 3 missing
    with pytest.raises(ParseError):
        parse_presentation("21|3", 3)  # block not ascending
    with pytest.raises(ParseError):
        parse_presentation("13|2:12|12", 3)  # duplicate arc
    with pytest.raises(ParseError):
        parse_presentation("12|3:31", 3)  # arc not strictly upper
    with pytest.raises(ParseError):
        parse_presentation("", 2)
    with pytest.raises(ParseError, match="empty block or arc"):
        parse_presentation("1||2", 2)
    with pytest.raises(ParseError, match="bad label in '1,x'"):
        parse_presentation("1,x|2,3,4,5,6,7,8,9,10", 10)
    with pytest.raises(ParseError, match="block minima not ascending"):
        parse_presentation("3|12", 3)
    with pytest.raises(ParseError, match="arc '123' is not a pair"):
        parse_presentation("12|3:123", 3)


def test_parse_comma_labels_for_large_n(F13):
    p = parse_presentation("1,2|3,4,5,6,7,8,9,10:1,3", 10)
    assert p.blocks[0] == (1, 2)
    assert p.extra_arcs == ((1, 3),)
    assert render_presentation(p) == "1,2|3,4,5,6,7,8,9,10:1,3"


def test_render_round_trip_on_all_table_rows():
    for row, n in ROWS:
        assert render_presentation(parse_presentation(row, n)) == row


def test_indecomposable_examples(F13):
    assert is_indecomposable(parse_presentation("12|34:13", 4).matrix(F13))
    assert not is_indecomposable(elementary(F13, 3, 1, 2))
    assert is_indecomposable(parse_presentation("123456", 6).matrix(F13))
    with pytest.raises(NotNilpotentError):
        is_indecomposable(diag(F13, [1, 0]))


def test_all_table_rows_connected(F13):
    for row, n in ROWS:
        assert is_indecomposable(parse_presentation(row, n).matrix(F13)), row


def test_bipartition(F13):
    assert bipartition(parse_presentation("123", 3).matrix(F13)) == (1, 2, 1)
    assert bipartition(parse_presentation("1234", 4).matrix(F13)) == (
        1, 2, 1, 2)
    # triangle graph: no proper 2-coloring
    tri = (elementary(F13, 3, 1, 2) + elementary(F13, 3, 2, 3)
           + elementary(F13, 3, 1, 3))
    assert bipartition(tri) is None
    assert bipartition(zero(F13, 3)) == (1, 1, 1)
