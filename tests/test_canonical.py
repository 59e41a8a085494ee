import pytest

from triwaring.canonical import (
    bipartition,
    is_indecomposable,
    parse_presentation,
    render_presentation,
)
from triwaring.errors import (
    DuplicateVertexError,
    LabelOutOfRangeError,
    NotNilpotentError,
    ParseError,
)
from triwaring.tri_matrix import diag, elementary, zero

from scripts.reproduce_tables import ROWS


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
