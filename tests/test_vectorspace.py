from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from resolvdim import vectorspace as vs
from resolvdim.errors import OutOfRange, VertexParseError


def test_encode_examples():
    assert vs.encode((1, 0, 0), 2) == 1
    assert vs.encode((2, 1), 3) == 5


def test_zero_vector_rejected():
    with pytest.raises(OutOfRange):
        vs.encode((0, 0), 3)
    with pytest.raises(OutOfRange):
        vs.decode(0, 2, 3)
    with pytest.raises(OutOfRange):
        vs.decode(8, 2, 3)


def test_skeleton_examples():
    assert vs.skeleton((1, 0, 1)) == 0b101
    assert vs.skeleton((2, 1)) == 0b11
    assert vs.skeleton((2, 0)) == vs.skeleton((1, 0)) == 0b01


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4, 5) for n in (1, 2, 3, 4)])
def test_roundtrip_full_range(q, n):
    for vid in range(1, q ** n):
        assert vs.encode(vs.decode(vid, q, n), q) == vid


@pytest.mark.parametrize("q,n", [(q, n) for q in (2, 3, 4) for n in (1, 2, 3, 4)])
def test_skeleton_class_sizes(q, n):
    counts = {}
    for vid in range(1, q ** n):
        mask = vs.skeleton(vs.decode(vid, q, n))
        counts[mask] = counts.get(mask, 0) + 1
    assert set(counts) == set(range(1, 1 << n))
    for mask, size in counts.items():
        assert size == (q - 1) ** bin(mask).count("1")
    assert sum(counts.values()) == q ** n - 1
    assert sum(comb(n, k) * (q - 1) ** k for k in range(1, n + 1)) == q ** n - 1


def test_vertex_text_rendering():
    assert vs.vertex_text(1, 2, 3) == "e1"
    assert vs.vertex_text(5, 3, 2) == "2e1+e2"
    assert vs.vertex_text(3, 2, 2) == "e1+e2"
    assert vs.vertex_text(7, 3, 2) == "e1+2e2"


def test_parse_vertex():
    assert vs.parse_vertex("e1", 2, 3) == 1
    assert vs.parse_vertex("2e1+e2", 3, 2) == 5
    assert vs.parse_vertex(" e1 + e3 ", 2, 3) == 5


def test_parse_vertex_list():
    assert vs.parse_vertex_list("e1,e1+e3,e3", 2, 3) == [1, 5, 4]


@pytest.mark.parametrize("bad,pos_at_least", [
    ("", 0),
    ("e0", 0),
    ("e4", 0),
    ("0e1", 0),
    ("2e1", 0),          # coefficient 2 invalid at q=2
    ("e2+e1", 3),        # indices must ascend
    ("e1+e1", 3),
    ("x1", 0),
    ("e1++e2", 3),
])
def test_parse_errors_carry_position(bad, pos_at_least):
    with pytest.raises(VertexParseError) as err:
        vs.parse_vertex(bad, 2, 3)
    assert err.value.position >= pos_at_least


def test_parse_list_error_position_is_global():
    with pytest.raises(VertexParseError) as err:
        vs.parse_vertex_list("e1,e9", 2, 3)
    assert err.value.position == 3


@pytest.mark.parametrize("text,detail,position", [
    ("e1, 2e1+e5", "index 5 outside 1..3", 7),
    ("e1,e1+x", "bad term 'x'", 6),
    ("e1,e2 (at position 9)", "bad term 'e2 (at position 9)'", 3),
])
def test_parse_list_error_keeps_the_term_detail(text, detail, position):
    # the list re-raises the term's own detail at the shifted position
    with pytest.raises(VertexParseError) as err:
        vs.parse_vertex_list(text, 3, 3)
    assert (err.value.detail, err.value.position) == (detail, position)
    assert str(err.value) == f"{detail} (at position {position})"


@given(st.sampled_from([2, 3, 4, 5]), st.integers(1, 4), st.data())
def test_roundtrip_property(q, n, data):
    vid = data.draw(st.integers(1, q ** n - 1))
    assert vs.encode(vs.decode(vid, q, n), q) == vid


@given(st.sampled_from([2, 3, 5]), st.integers(1, 5), st.data())
def test_text_roundtrip_property(q, n, data):
    vid = data.draw(st.integers(1, q ** n - 1))
    assert vs.parse_vertex(vs.vertex_text(vid, q, n), q, n) == vid
