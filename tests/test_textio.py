"""Differential tests of the array file layer against the line-at-a-time one.

The ``_oracles`` writers emit one line per ``fh.write``; the array writers
must produce the same bytes, for any block size.  The float-CSV readers must
give the same bits as ``float`` on every file the writers produce, and on
arbitrary text they must accept exactly the documented grammar (checked
against ``table_reference`` below), naming the first bad line otherwise.
``build_graph``'s counting sort must give ``np.lexsort``'s permutation.
"""

import importlib
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pagerank_limits import _textio
from pagerank_limits.errors import InputError, UsageError
from pagerank_limits.graph import build_graph, write_edgelist
from pagerank_limits.limits import LimitTree, read_pool_csv, write_pool_csv, write_tree_edgelist
from pagerank_limits.pagerank import PageRankVector, read_scores_csv, write_scores_csv

from _oracles import (
    edge_triples,
    layout_tables_reference,
    read_float_csv_reference,
    read_tail_csv,
    schubfach_tables_reference,
    write_edgelist_reference,
    write_pool_csv_reference,
    write_scores_csv_reference,
    write_tail_csv_reference,
    write_tree_edgelist_reference,
)

census_mod = importlib.import_module("pagerank_limits.census")

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])
# block sizes that put block boundaries inside small inputs, and the real one
BLOCKS = st.sampled_from([1, 2, 3, 7, _textio._BLOCK])
INT64 = st.integers(-2**63, 2**63 - 1)
NEAR_2_31 = st.integers(2**31 - 3, 2**31 + 3)
SPECIAL = [5e-324, -0.0, 0.0, 1e16, 1e-5, 1.7976931348623157e308, -1.7976931348623157e308,
           2.2250738585072014e-308, 0.1, 1 / 3, 123456789012345.67, 1e-4, 9.999999999999999e15,
           float("inf"), float("-inf"), float("nan")]
FLOATS = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(0, 2**64 - 1).map(lambda u: float(np.array([u], np.uint64).view(np.float64)[0])),
)


def write_both(write, reference, name="f"):
    """The bytes of ``write(path)`` and ``reference(path)``."""
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / f"{name}.got", Path(tmp) / f"{name}.want"
        write(got)
        reference(want)
        return got.read_bytes(), want.read_bytes()


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


# ---------------------------------------------------------------------------
# edge lists


@st.composite
def multigraphs(draw):
    n = draw(st.integers(0, 40))
    if n == 0:
        return build_graph([], 0)
    # ids below n - 3 leave isolated trailing vertices on some draws
    ids = st.integers(0, max(0, n - 1 - draw(st.sampled_from([0, 3]))))
    mults = st.one_of(st.just(1), st.integers(1, 3), st.integers(1, 2**40))
    edges = draw(st.lists(st.tuples(ids, ids, mults), max_size=60))
    return build_graph(edges, n)


@SETTINGS
@given(multigraphs(), BLOCKS)
def test_write_edgelist_matches_reference(g, block):
    with mock.patch.object(_textio, "_BLOCK", block):
        got, want = write_both(lambda p: write_edgelist(g, p),
                               lambda p: write_edgelist_reference(g.n, edge_triples(g), p))
    assert got == want


@SETTINGS
@given(st.lists(st.tuples(st.one_of(NEAR_2_31, st.integers(0, 9)),
                          st.one_of(NEAR_2_31, st.integers(0, 9)),
                          st.one_of(st.just(1), st.integers(2, 2**63 - 1))), max_size=20),
       BLOCKS)
def test_write_edges_large_ids(triples, block):
    src, tgt, mult = np.array(triples, dtype=np.int64).reshape(-1, 3).T
    with mock.patch.object(_textio, "_BLOCK", block):
        got, want = write_both(lambda p: _textio.write_edges(p, 2**31 + 4, src, tgt, mult),
                               lambda p: write_edgelist_reference(2**31 + 4, triples, p))
    assert got == want


@st.composite
def trees(draw):
    size = draw(st.integers(1, 30))
    parent = [-1] + [draw(st.integers(0, v - 1)) for v in range(1, size)]
    marks = draw(st.lists(st.one_of(st.integers(0, 5), INT64), min_size=size, max_size=size))
    return LimitTree(parent=np.array(parent, dtype=np.int64),
                     mark=np.array(marks, dtype=np.int64),
                     node_depth=np.zeros(size, dtype=np.int64), truncation_depth=None)


@SETTINGS
@given(trees(), BLOCKS)
def test_write_tree_edgelist_matches_reference(t, block):
    with mock.patch.object(_textio, "_BLOCK", block):
        got, want = write_both(lambda p: write_tree_edgelist(t, p),
                               lambda p: write_tree_edgelist_reference(t, p))
    assert got == want


# ---------------------------------------------------------------------------
# float CSVs


@SETTINGS
@given(st.lists(FLOATS, max_size=40), BLOCKS)
def test_float_writers_match_reference_and_read_back(values, block):
    values = np.array(values, dtype=np.float64)
    vec = PageRankVector(values=values, order="exact", params=None, iterations=0)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(_textio, "_BLOCK", block):
        scores, pool = Path(tmp) / "scores.csv", Path(tmp) / "pool.csv"
        write_scores_csv(vec, scores)
        write_pool_csv(values, pool)
        write_scores_csv_reference(values, Path(tmp) / "scores.want")
        write_pool_csv_reference(values, Path(tmp) / "pool.want")
        assert scores.read_bytes() == (Path(tmp) / "scores.want").read_bytes()
        assert pool.read_bytes() == (Path(tmp) / "pool.want").read_bytes()
        assert np.array_equal(bits(read_scores_csv(scores)),
                              bits(read_float_csv_reference(scores, "vertex,score")[:, 1]))
        assert np.array_equal(bits(read_pool_csv(pool)),
                              bits(read_float_csv_reference(pool, "value")[:, 0]))
        # repr writes every NaN as "nan", so only the other values keep their bits
        back, nan = read_pool_csv(pool), np.isnan(values)
        assert np.array_equal(bits(back[~nan]), bits(values[~nan])) and np.isnan(back[nan]).all()


@SETTINGS
@given(st.lists(FLOATS.filter(np.isfinite), min_size=1, max_size=20),
       st.lists(st.one_of(FLOATS.filter(np.isfinite), st.integers(-5, 5)),
                min_size=1, max_size=20),
       BLOCKS)
def test_tail_writer_matches_reference_and_reads_back(sample, thresholds, block):
    tail = census_mod.TailSample(sample)
    # integer thresholds stay integers in the file, as repr writes them
    thresholds = np.array(sorted(thresholds))
    fractions = census_mod.ccdf(tail, thresholds)
    with mock.patch.object(_textio, "_BLOCK", block):
        got, want = write_both(
            lambda p: census_mod.write_tail_csv(tail, thresholds, p),
            lambda p: write_tail_csv_reference(thresholds, fractions, p))
    assert got == want
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(got)
        rs, fs = read_tail_csv(path)
        want = read_float_csv_reference(path, "r,ccdf")
        assert np.array_equal(bits(rs), bits(want[:, 0]))
        assert np.array_equal(bits(fs), bits(want[:, 1]))


def assert_reprs(tmp_path, values):
    """``write_pool_csv`` writes each value as ``repr`` does."""
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_pool_csv(values, got)
    write_pool_csv_reference(values, want)
    got, want = got.read_bytes(), want.read_bytes()
    if got != want:
        for i, (a, b) in enumerate(zip(got.split(b"\n"), want.split(b"\n"))):
            assert a == b, f"line {i + 1}: {a!r} written for {b!r}"
        assert got == want


def floats_of(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def test_schubfach_tables_match_per_exponent_powers():
    got, want = _textio._schubfach_tables(), schubfach_tables_reference()
    assert len(got) == len(want) == 5
    for a, b in zip(got, want):
        assert (a.dtype.str, a.shape) == (b.dtype.str, b.shape)
        assert np.array_equal(a, b)


def test_layout_tables_match_formatted_strings():
    for got, want in zip(_textio._layout_tables(), layout_tables_reference(), strict=True):
        assert (got.dtype.str, got.shape) == (want.dtype.str, want.shape)
        assert got.tobytes() == want.tobytes()


def test_floats_match_repr_on_random_bits(tmp_path):
    # every sign, exponent and payload: normals, subnormals, +-0, +-inf, NaNs
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    subnormal = rng.integers(0, 2**52, 2**12, dtype=np.uint64) | np.uint64(2**63) * (
        rng.random(2**12) < 0.5)
    special = [0, 2**63, 0x7FF << 52, 0xFFF << 52, (0x7FF << 52) + 1, (0xFFF << 52) + 2**51]
    assert_reprs(tmp_path, floats_of(np.concatenate([bits, subnormal, special])))


def test_floats_match_repr_at_hard_cases(tmp_path):
    # powers of two, whose lower neighbour is closer than the upper one
    two = np.ldexp(1.0, np.arange(-1074, 1024))
    # powers of ten and the positional/scientific switch points
    ten = np.array([float(f"1e{i}") for i in range(-323, 309)] + [1e-5, 1e-4, 1e16, 1e17])
    # integers around 2**53, where the spacing of doubles grows from 1 to 2
    near_53 = np.ldexp(1.0, 53) + np.arange(-2000.0, 2000.0)
    values = np.concatenate([two, ten, near_53])
    up, down = np.nextafter(values, np.inf), np.nextafter(values, -np.inf)
    values = np.concatenate([values, up, down, np.nextafter(up, np.inf),
                             np.nextafter(down, -np.inf)])
    assert_reprs(tmp_path, np.concatenate([values, -values]))


def test_floats_of_narrower_dtypes_upcast(tmp_path):
    rng = np.random.default_rng(13)
    for dtype in (np.float16, np.float32):
        assert_reprs(tmp_path, rng.standard_normal(1000).astype(dtype))


@pytest.mark.parametrize("dtype", [bool, np.uint8, np.longdouble, object])
def test_columns_of_other_dtypes_raise(tmp_path, dtype):
    with pytest.raises(TypeError, match=np.dtype(dtype).name):
        _textio.write_table(tmp_path / "f.csv", "value", [np.array([1, 0], dtype=dtype)])


def test_float_writer_working_memory_bounded(tmp_path):
    # one block of rows at a time: measured 1.8 MiB at 2^13-row blocks, about
    # 210 bytes a row of a block; the file's 2^18 rows would need over 50 MiB
    values = floats_of(np.random.default_rng(14).integers(0, 2**64, 2**18, dtype=np.uint64,
                                                          endpoint=False))
    tracemalloc.start()
    try:
        _textio.write_table(tmp_path / "f.csv", "value", [values])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 + 300 * _textio._BLOCK


def table_reference(text: str, header: str, usecols):
    """The float-CSV grammar of ``_textio.read_table``, one line at a time.

    Returns the (rows, len(usecols)) values, or the 1-based number of the
    first bad line.
    """
    k = header.count(",") + 1
    lines = re.split(r"\r\n|\r|\n", text)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        try:
            if not line.isascii() or len(fields) != k:
                raise ValueError
            row = []
            for j in usecols:
                field = fields[j].strip()
                if "_" in field:
                    raise ValueError
                row.append(float(field))
        except ValueError:
            return lineno
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(len(rows), len(usecols))


TOKENS = st.sampled_from(["0.5", "1e5", "-1E-5", "+.5", "5.", "inf", "-Infinity", "nan",
                          "12", "0", "1_0", ".", "e5", "0x1", "1 2", "abc", "", "١",
                          "1.5.3", "--1", "NaN"])
PADS = st.text(" \t\x0b\x0c\x1c\x1f", max_size=2)


@st.composite
def csv_texts(draw, header):
    k = header.count(",") + 1
    out = [header]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 6 + ["empty", "blank", "short", "long"]))
        count = {"row": k, "short": k - 1, "long": k + 1}.get(kind, 0)
        fields = [draw(PADS) + draw(TOKENS) + draw(PADS) for _ in range(count)]
        out.append({"empty": "", "blank": draw(PADS)}.get(kind, ",".join(fields)))
    breaks = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in out]
    text = "".join(line + brk for line, brk in zip(out, breaks))
    return text[:-len(breaks[-1])] if draw(st.booleans()) else text


@SETTINGS
@given(st.sampled_from([("value", None, (0,)), ("vertex,score", [1], (1,)),
                        ("r,ccdf", None, (0, 1))]).flatmap(
           lambda spec: st.tuples(st.just(spec), csv_texts(spec[0]))))
def test_reader_accepts_exactly_the_grammar(case):
    (header, usecols, cols), text = case
    want = table_reference(text, header, cols)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.csv"
        path.write_bytes(text.encode("utf-8"))
        if isinstance(want, int):
            with pytest.raises(InputError, match=rf"f\.csv: line {want}: "):
                _textio.read_table(path, header, usecols)
        else:
            assert np.array_equal(bits(_textio.read_table(path, header, usecols)), bits(want))


@pytest.mark.parametrize("header,text,line", [
    ("vertex,score", "vertex,score\n0,0.5\n1\n", 3),
    ("value", "value\n0.5\nabc\n", 3),
    ("value", "value\n0.5\n\n1_000\n", 4),
    ("value", "value\r\n0.5\r\n  \r\n", 3),
    ("r,ccdf", "r,ccdf\n0.1,0.5\n0.2,0.1,0\n", 3),
])
def test_reader_names_first_bad_line(tmp_path, header, text, line):
    path = tmp_path / "f.csv"
    path.write_bytes(text.encode())
    with pytest.raises(InputError, match=rf"^{re.escape(str(path))}: line {line}: "):
        _textio.read_table(path, header)


def test_reader_header_and_empty_body(tmp_path):
    path = tmp_path / "f.csv"
    path.write_bytes(b"value\r\n\n\n")
    assert read_pool_csv(path).shape == (0,)
    path.write_bytes(b" vertex,score \r")
    assert read_scores_csv(path).shape == (0,)
    for data in (b"", b"score\n0.5\n", b"\xff\n"):
        path.write_bytes(data)
        with pytest.raises(InputError, match="expected 'value' header"):
            read_pool_csv(path)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, np.float64("nan")])
def test_json_writer_refuses_non_finite_floats(tmp_path, value):
    # JSON has no Infinity or NaN; nothing is written
    path = tmp_path / "meta.json"
    with pytest.raises(UsageError, match=rf"^{re.escape(str(path))}: Out of range float"):
        _textio.write_json(path, {"ok": 1.5, "nested": [{"x": value}]})
    assert not path.exists()
    _textio.write_json(path, {"b": np.float64(1.5), "a": [np.int64(2)]})
    assert path.read_text() == '{\n  "a": [\n    2\n  ],\n  "b": 1.5\n}\n'


# ---------------------------------------------------------------------------
# graph build


@SETTINGS
@given(multigraphs())
def test_in_order_is_lexsort_by_target_then_source(g):
    assert np.array_equal(g.in_order, np.lexsort((g.src, g.tgt)))
    assert g.in_order.dtype == np.int64


def test_in_order_of_empty_graphs():
    for n in (0, 1, 5):
        g = build_graph([], n)
        assert g.in_order.size == 0 and g.in_order.dtype == np.int64
