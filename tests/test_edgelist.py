"""Differential tests: the numpy edge-list parser against the str-method one.

``_oracles.parse_edgelist_reference`` is the line-by-line parser built on
``str.splitlines``, ``str.split`` and ``int``.  The numpy parser must give
the same edges and header ``n`` wherever the reference accepts, and the
same line-numbered ``InputError`` wherever it raises.  It differs on
purpose in two ways: fields must be ``[+-]`` and ASCII digits (``int`` also
takes ``_`` separators and non-ASCII digits), and values must fit in int64
(the reference returns unbounded ints, which failed later in
``build_graph`` with an ``OverflowError``).
"""

import contextlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pagerank_limits import _textio
from pagerank_limits.errors import InputError
from pagerank_limits.graph import build_graph, read_edgelist

from _oracles import edge_triples, parse_edgelist, parse_edgelist_reference

SETTINGS = settings(max_examples=400, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
INT64 = range(-2**63, 2**63)

BREAKS = st.sampled_from(["\n", "\r\n", "\r"])
GAPS = st.text(" \t", min_size=1, max_size=3)
# mostly valid fields, so that most drawn texts parse
FIELDS = st.one_of(
    st.integers(-3, 10**6).map(str),
    st.integers(-3, 10**6).map(str),
    st.integers(-3, 10**6).map(str),
    st.integers(0, 10**6).map(lambda v: f"+{v}"),
    st.integers(0, 99).map(lambda v: f"000{v}"),
    st.text("0123456789", min_size=17, max_size=24),  # around the int64 limit
    st.text("0123456789#+-n=x", min_size=1, max_size=4),
)


@st.composite
def lines(draw):
    kind = draw(st.sampled_from(["data"] * 6 + ["comment", "header", "blank"]))
    lead, trail = draw(st.text(" \t", max_size=2)), draw(st.text(" \t", max_size=2))
    if kind == "data":
        count = draw(st.sampled_from([2, 2, 3, 3, 0, 1, 4]))
        fields = [draw(FIELDS) for _ in range(count)]
        body = "".join(f + draw(GAPS) for f in fields).rstrip(" \t")
    elif kind == "comment":
        body = "#" + draw(st.text("0123456789 \t#+-n=x", max_size=8))
    elif kind == "header":
        body = "#" + draw(GAPS) + "n" + draw(st.text(" ", max_size=1)) + "=" + draw(
            st.text("0123456789", min_size=1, max_size=5))
    else:
        body = ""
    return lead + body + trail


@st.composite
def texts(draw):
    parts = draw(st.lists(lines(), max_size=8))
    out = "".join(p + draw(BREAKS) for p in parts)
    if parts and draw(st.booleans()):
        out = out[:-1] if not out.endswith("\r\n") else out[:-2]
    return out


def line_of(err):
    return int(re.match(r"line (\d+):", str(err)).group(1))


def first_overflow_line(text):
    """Line of the first field the reference accepts but int64 cannot hold."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#") and any(int(f) not in INT64 for f in line.split()):
            return lineno
    return None


def assert_matches_reference(text):
    try:
        want = parse_edgelist_reference(text)
    except InputError as e:
        with pytest.raises(InputError) as got:
            parse_edgelist(text)
        assert line_of(got.value) == line_of(e)
        assert str(got.value) == str(e)
        return
    overflow = first_overflow_line(text)
    if overflow is not None:
        with pytest.raises(InputError, match=rf"^line {overflow}: integer out of int64 range"):
            parse_edgelist(text)
        return
    assert parse_edgelist(text) == want


@SETTINGS
@given(texts())
def test_structured_texts_match_reference(text):
    assert_matches_reference(text)


@SETTINGS
@given(st.text("0123456789 \t\r\n#+-n=x", max_size=60))
def test_raw_texts_match_reference(text):
    assert_matches_reference(text)


@SETTINGS
@given(st.text("0123 \t\r\n\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000#n=", max_size=40))
def test_every_str_whitespace_and_line_break_matches_reference(text):
    assert_matches_reference(text)


def test_grammar_examples():
    text = "# n=7\n  0 1\n\n# 5 5\n+2\t-0  0003\r\n4 5\r6 1 2\n"
    assert parse_edgelist(text) == ([(0, 1, 1), (2, 0, 3), (4, 5, 1), (6, 1, 2)], 7)
    assert parse_edgelist("") == ([], None)
    assert parse_edgelist("0 1\n#n=2\n# n=3 x\n") == ([(0, 1, 1)], 2)
    long = "9" * 30
    assert parse_edgelist(f"# {long}\n#{long} {long}\n0 1\n") == ([(0, 1, 1)], None)


@pytest.mark.parametrize("field", ["+", "-", "+-1", "--1", "1-", "1+1", "#", "x"])
def test_malformed_fields(field):
    text = f"0 1\n0 {field}\n"
    with pytest.raises(InputError) as want:
        parse_edgelist_reference(text)
    with pytest.raises(InputError) as got:
        parse_edgelist(text)
    assert str(got.value) == str(want.value) == f"line 2: non-integer field in '0 {field}'"


def test_every_ascii_byte_inside_a_field():
    # a field is read eight bytes at a time, so put each printable byte at
    # every position of fields of up to 18 characters
    for char in map(chr, range(33, 127)):
        for width in (2, 8, 9, 18):
            for at in range(width):
                field = "7" * at + char + "7" * (width - at - 1)
                text = f"0 1\n1 {field}\n"
                if char.isdigit() or (at == 0 and char in "+-"):
                    assert parse_edgelist(text) == ([(0, 1, 1), (1, int(field), 1)], None)
                else:
                    with pytest.raises(InputError) as got:
                        parse_edgelist(text)
                    assert str(got.value) == f"line 2: non-integer field in {'1 ' + field!r}"


@pytest.mark.parametrize("field", ["1_0", "\u0661", "\uff11", "1\u00b2", "0x1"])
def test_only_ascii_digits_are_fields(field):
    """``int`` accepts the first three; the edge-list grammar does not."""
    text = f"0 1\n{field} 2\n"
    with pytest.raises(InputError, match=r"^line 2: non-integer field"):
        parse_edgelist(text)


def test_values_beyond_int64_are_input_errors(tmp_path):
    top = 2**63 - 1
    assert parse_edgelist(f"{-top - 1} {top}\n")[0] == [(-top - 1, top, 1)]
    for text in (f"0 1\n{top + 1} 0\n", f"0 1\n0 1 -{top + 2}\n", "0 1\n1 0 " + "9" * 5000 + "\n"):
        with pytest.raises(InputError, match=r"^line 2: integer out of int64 range"):
            parse_edgelist(text)
    path = tmp_path / "big.txt"
    path.write_text(f"0 {top + 1}\n")
    with pytest.raises(InputError, match="line 1: integer out of int64 range"):
        read_edgelist(path)


def test_read_edgelist_matches_parse(tmp_path):
    text = "# n=5\r\n0 1\r\n1 2 3\r4 0\n\n3 3\n"
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    edges, n = parse_edgelist(text)
    g, want = read_edgelist(path), build_graph(edges, n)
    assert g.n == want.n == 5
    assert list(edge_triples(g)) == list(edge_triples(want))
    path.write_bytes(b"0 1\r\n1 x\r\n")
    with pytest.raises(InputError, match="^line 2: non-integer field in '1 x'"):
        read_edgelist(path)


def test_read_edgelist_infers_n_and_keeps_build_errors(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 1\n0 9 2\n")
    g = read_edgelist(path)
    assert g.n == 10 and g.total_multiplicity == 3
    assert np.array_equal(g.d_out[[0, 3]], [2, 1])
    path.write_text("# n=3\n0 1\n0 3\n")
    with pytest.raises(InputError, match=r"g\.txt: edge 1: vertex id out of range"):
        read_edgelist(path)
    path.write_text("# n=3\n0 1 0\n")
    with pytest.raises(InputError, match=r"g\.txt: edge 0: multiplicity must be >= 1"):
        read_edgelist(path)
    path.write_text("")
    assert read_edgelist(path).n == 0


# ---------------------------------------------------------------------------
# ASCII text is scanned in blocks, each ending at a line break; blocks of a
# few bytes put every kind of line, break and error at a cut

BLOCK_SIZES = (1, 2, 3, 4, 5, 7, 16)


@contextlib.contextmanager
def blocks_of(size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_textio, "_PARSE_BLOCK", size)
        yield


@settings(SETTINGS, max_examples=200)
@given(st.one_of(texts(), st.text("0123 \t\r\n\x0b\x1e\x85\xa0\u2028\u3000#n=x", max_size=40)),
       st.sampled_from(BLOCK_SIZES))
def test_small_blocks_match_reference(text, size):
    with blocks_of(size):
        assert_matches_reference(text)


def test_header_in_a_later_block():
    text = "# n=5\n" + "0 1\n" * 40 + "# n=9\n2 3\n"
    for size in BLOCK_SIZES:
        with blocks_of(size):
            edges, n = parse_edgelist(text)
        assert n == 9 and edges == [(0, 1, 1)] * 40 + [(2, 3, 1)]


@pytest.mark.parametrize("brk", ["\r\n", "\r", "\n", "\x0b", "\x1e"])
def test_line_breaks_at_a_cut(brk):
    text = brk.join(["0 1", "", "# c", "  ", "2 3 4", "5 6", "# n=7", ""])
    for size in BLOCK_SIZES:
        with blocks_of(size):
            assert parse_edgelist(text) == parse_edgelist_reference(text)
            with pytest.raises(InputError) as got:
                parse_edgelist(text + f"1 x{brk}")
        assert str(got.value) == "line 8: non-integer field in '1 x'"


def test_every_break_byte_ends_a_row():
    # one edge line ended by each ASCII line break, and a last one without:
    # the columns sized from the break count must hold a row for each
    text = "".join(f"{i} {i + 1}{brk}" for i, brk in enumerate("\n\v\f\r\x1c\x1d\x1e"))
    text += "7 8"
    for size in (*BLOCK_SIZES, 1 << 18):
        with blocks_of(size):
            assert parse_edgelist(text) == parse_edgelist_reference(text)
            assert len(parse_edgelist(text)[0]) == 8


def test_error_lines_count_earlier_blocks():
    top = 2**63
    for size in BLOCK_SIZES:
        with blocks_of(size):
            with pytest.raises(InputError, match="^line 31: expected '<source>"):
                parse_edgelist("0 1\r\n" * 30 + "0\r\n")
            with pytest.raises(InputError, match="^line 21: integer out of int64 range in"):
                parse_edgelist("0 1\n" * 20 + f"0 {top}\n" + "1 2\n" * 20)
            # a malformed line in a later block is reported before an
            # earlier field beyond int64, as a whole-text scan does
            with pytest.raises(InputError, match="^line 25: non-integer field in '3 y'"):
                parse_edgelist("0 1\n" * 20 + f"0 {top}\n" + "1 2\n" * 3 + "3 y\n")


def test_non_ascii_text_in_blocks(tmp_path):
    text = "# n=4\u2028 0\xa01\r\n\x85 2 3\u3000\n# caf\u00e9\n1 2 3\n"
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    want = parse_edgelist_reference(text)
    for size in BLOCK_SIZES:
        with blocks_of(size):
            assert parse_edgelist(text) == want
            g = read_edgelist(path)
        assert list(edge_triples(g)) == list(edge_triples(build_graph(*want)))
    with pytest.raises(InputError, match="^line 7: non-integer field in '1 \u00e9'"):
        parse_edgelist(text + "1 \u00e9\n")
