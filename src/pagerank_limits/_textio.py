"""The package's text file formats, one codec each, in array code.

Edge lists (graphs and sampled limit trees) and float-column CSVs (scores,
limit pools, tails) are written by one block writer that formats whole
columns at a time into NUL-padded byte matrices and deletes the NULs:
integers as ASCII digit matrices, floats as exactly the bytes of their
``repr``, the shortest digits that read back to the same double.  Those
digits come from the Schubfach method (R. Giulietti, "The Schubfach way to
render doubles", 2020) in uint64 array arithmetic; ``test_textio.py``'s
``test_floats_match_repr_*`` tests pin the bytes to ``repr``.  Edge lists
are parsed by a byte scan and float CSVs by ``np.loadtxt``.  JSON sidecars
and records go through :func:`write_json`, so every format is defined here
once.
"""

from __future__ import annotations

import functools
import io
import json
import re
import warnings

import numpy as np

from .errors import InputError, UsageError

_BLOCK = 1 << 13  # rows formatted per block; the float formatter's arrays stay in L2


# ---------------------------------------------------------------------------
# writers
#
# A field of a block is a (rows, width) uint8 matrix padded with NUL bytes
# anywhere in a row; _write_rows joins the fields and deletes every NUL.


def _digits(values):
    """Decimal text of integers as a NUL-padded (rows, width) byte matrix.

    Digits are right-aligned with NUL for leading zeros; a leading ``-``
    column is NUL on non-negative rows.
    """
    v = values.astype(np.int64, copy=False)
    mag = np.abs(v).view(np.uint64)  # abs(-2**63) wraps, its uint64 view is 2**63
    width = len(str(int(mag.max())))
    if width < 10:
        mag = mag.astype(np.uint32)  # 32-bit division is several times faster
    ten = mag.dtype.type(10)
    mat = np.empty((v.size, width), dtype=np.uint8)
    for j in range(width - 1, -1, -1):
        rest = mag // ten
        digit = mag - rest * ten + 48
        if j < width - 1:
            digit *= mag > 0  # digits left of the leading one are NUL; zero is "0"
        mat[:, j] = digit
        mag = rest
    negative = v < 0
    if negative.any():
        mat = np.hstack([(negative.view(np.uint8) * np.uint8(ord("-")))[:, None], mat])
    return mat


_EXP = np.uint64(0x7FF << 52)
_FRAC = np.uint64((1 << 52) - 1)
_LOW32 = np.uint64(0xFFFFFFFF)
_P10 = 10 ** np.arange(18, dtype=np.uint64)


@functools.cache
def _schubfach_tables():
    """Per-exponent constants of :func:`_shortest`, indexed by twice the
    biased binary exponent plus one where the significand bits are zero.

    For a double ``c * 2**q`` (``c`` with its hidden bit) the decimal
    exponent is ``k = floor(log10(2**q))``, or ``floor(log10(3/4 * 2**q))``
    where the gap below is half the gap above (a power of two above the
    smallest normal).  ``g`` is ``10**-k`` scaled into ``(2**127, 2**128)``
    and rounded up (floor plus one); ``h = q + floor(log2(10**-k)) + 1`` is
    in 1..4, so ``g * (4c << h) / 2**128`` is ``4 * v * 10**-k``.  Returns
    ``g``'s high and low words, ``M = 2**(h + 2)``, ``DL = (2 - lower) *
    2**h`` (the distance from ``4c << h`` to the lower boundary's) and ``k``.
    The table of ``g`` over the 617 decimal exponents is built with Python
    integers, once, on the first float written.
    """
    j_min, j_max = -292, 324
    g, log2 = [], []
    for j in range(j_min, j_max + 1):
        p = 10 ** abs(j)
        if j >= 0:
            f = p.bit_length() - 1  # floor(log2(10**j))
            scaled = p >> (f - 127) if f >= 127 else p << (127 - f)
        else:
            f = -p.bit_length()  # 10**-j is no power of two
            scaled = (1 << (127 - f)) // p
        g.append(scaled + 1)
        log2.append(f)
    g_hi = np.array([x >> 64 for x in g], dtype=np.uint64)
    g_lo = np.array([x & (2**64 - 1) for x in g], dtype=np.uint64)
    log2 = np.array(log2, dtype=np.int64)
    biased = np.repeat(np.arange(2048), 2)
    lower = (np.arange(4096) % 2 == 1) & (biased > 1)  # significand bits zero
    q = np.maximum(biased, 1) - 1075
    k = (q * 1262611 - lower * 524031) >> 22
    j = -k - j_min
    h = q + log2[j] + 1
    return (g_hi[j], g_lo[j], np.uint64(1) << (h + 2).astype(np.uint64),
            (2 - lower).astype(np.uint64) << h.astype(np.uint64), k)


def _round_to_odd(g, cp):
    """``g * cp // 2**128`` with its last bit set where ``g * cp`` has a
    fraction, for 128-bit ``g`` and ``cp`` below ``2**59``.

    ``g`` is its high word and the 32-bit halves of both words; products of
    32-bit halves stand in for a 64x64->128-bit multiply.
    """
    g_hi, (c0, c1), (a0, a1) = g
    b0, b1 = cp & _LOW32, cp >> np.uint64(32)
    # high word of g_lo * cp
    p = a1 * b0
    mid = (a0 * b0) >> np.uint64(32)
    mid += p & _LOW32
    mid += a0 * b1
    x = a1 * b1
    x += p >> np.uint64(32)
    x += mid >> np.uint64(32)
    # g_hi * cp + x, in two words
    p = c1 * b0
    mid = (c0 * b0) >> np.uint64(32)
    mid += p & _LOW32
    mid += c0 * b1
    y0 = g_hi * cp
    y0 += x
    y1 = c1 * b1
    y1 += p >> np.uint64(32)
    y1 += mid >> np.uint64(32)
    y1 += y0 < x
    return y1 | (y0 > np.uint64(1))


def _shortest(bits):
    """Shortest round-trip decimal ``d * 10**k`` of each finite nonzero
    double (given by its bits), as uint64 ``d`` and int64 ``k``; ``d`` may
    end in zeros.  Among the shortest, the one closest to the double, ties
    to even ``d``: the digits of ``repr``.  Other entries are garbage.

    Schubfach: ``vb``, ``vbl`` and ``vbr`` are 4 * 10**-k times the double
    and its two rounding boundaries, rounded to odd.  One candidate with a
    digit fewer is tried, then the two neighbours of ``vb / 4``.
    """
    g_hi, g_lo, m, dl, k = _schubfach_tables()
    frac = bits & _FRAC
    at = ((bits >> np.uint64(51)) & np.uint64(0xFFE) | (frac == 0)).astype(np.intp)
    c = frac | np.minimum(bits & _EXP, np.uint64(1 << 52))  # the hidden bit
    m = np.take(m, at)
    cb = c * m  # 4c << h
    g_hi, g_lo = np.take(g_hi, at), np.take(g_lo, at)
    g = (g_hi, (g_hi & _LOW32, g_hi >> np.uint64(32)), (g_lo & _LOW32, g_lo >> np.uint64(32)))
    vb = _round_to_odd(g, cb)
    odd = c & np.uint64(1)  # an odd significand excludes its boundaries
    lower = _round_to_odd(g, cb - np.take(dl, at)) + odd
    upper = _round_to_odd(g, cb + (m >> np.uint64(1))) - odd
    k = np.take(k, at)
    s = vb >> np.uint64(2)
    # one digit fewer: the multiple of 10 below s or the one above it
    sp = s // np.uint64(10)
    up = sp * np.uint64(40)
    up_in = lower <= up
    wp_in = up + np.uint64(40) <= upper
    fewer = (up_in != wp_in) & (s >= np.uint64(10))
    # s or s + 1: the one inside the interval, else the closer, ties to even
    u = vb & ~np.uint64(3)
    u_in = lower <= u
    w_in = u + np.uint64(4) <= upper
    mid = u | np.uint64(2)
    d = s + (w_in & (~u_in | (vb > mid) | ((vb == mid) & (s & np.uint64(1)).astype(bool))))
    d += fewer * (sp + wp_in - d)
    return d, k + fewer


@functools.cache
def _layout_tables():
    """Word tables of :func:`_floats`: the four ASCII digits of 0..9999 (one
    little-endian uint32 each) and their trailing zeros (4 for 0); for 0..17
    digits shown, masks keeping the shown ones of digits 2-9 and of 10-17;
    and the exponents ``e-330``..``e+330`` after an empty entry 0, as
    NUL-padded little-endian uint64 words.  The words are viewed from byte
    matrices built in integer array arithmetic, once, on the first float
    written."""
    n = np.arange(10000, dtype=np.uint32)
    quads = np.empty((n.size, 4), dtype=np.uint8)
    for j in range(4):
        quads[:, j] = n // np.uint32(10 ** (3 - j)) % np.uint32(10) + np.uint32(48)
    zeros = sum((n % np.uint32(p) == 0).view(np.uint8) for p in (10, 100, 1000, 10000))
    keep = np.array([[(1 << 8 * min(max(shown - first, 0), 8)) - 1 for shown in range(18)]
                     for first in (1, 9)], dtype=np.uint64)
    e = np.arange(-330, 331)
    a = np.abs(e)[:, None]
    width = 2 + (a >= 100)  # exponent digits, at least two
    place = np.arange(3)
    text = np.zeros((e.size + 1, 8), dtype=np.uint8)  # row 0 is the empty entry
    text[1:, 0] = ord("e")
    text[1:, 1] = np.where(e < 0, ord("-"), ord("+"))
    text[1:, 2:5] = np.where(place < width,
                             a // 10 ** np.maximum(width - 1 - place, 0) % 10 + 48, 0)
    return quads.view("<u4").ravel(), zeros, keep, text.view("<u8").ravel()


def _floats(values):
    """``repr`` of each float64 as a NUL-padded (rows, width) byte matrix.

    A row holds a sign, a ``0.000`` prefix, up to 17 digits each followed by
    a place for the point, and an ``e+XXX`` exponent, NUL where ``repr``
    has none of it: positional from 1e-4 to below 1e16, with ``.0`` on
    integral values, ``d.ddde+XX`` otherwise.  Places that are NUL on every
    row of the block are left out.
    """
    bits = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    rows = bits.size
    quads, zeros, keep, exponents = _layout_tables()
    finite = (bits & _EXP) != _EXP
    magnitude = bits << np.uint64(1)  # the sign shifted out
    zero = magnitude == 0
    neg = (bits >> np.uint64(63)).astype(bool) & (magnitude <= _EXP << np.uint64(1))  # NaN: no sign
    d, k = _shortest(bits)
    d *= finite & ~zero
    ndig = np.searchsorted(_P10, d, side="right")
    e = (k + ndig - 1) * ~zero  # exponent of the leading digit; 0 for zero
    # 17 digits, left-aligned: a leading one and four quads
    d *= np.take(_P10, 17 - ndig)
    head = d // np.uint64(10**16)
    d -= head * np.uint64(10**16)
    hi = d // np.uint64(10**8)
    quad = np.empty((4, rows), dtype=np.uint32)
    for j, half in ((0, hi), (2, d - hi * np.uint64(10**8))):
        half = half.astype(np.uint32)
        quad[j] = half // np.uint32(10000)
        quad[j + 1] = half - quad[j] * np.uint32(10000)
    tail = np.take(quads, quad.T).view(np.uint64)  # digits 2-9 and 10-17, per row
    tz = np.take(zeros, quad)
    tz = tz[3] + (tz[3] == 4) * (tz[2] + (tz[2] == 4) * (tz[1] + (tz[1] == 4) * tz[0]))
    m = 17 - tz.astype(np.int64)  # significant digits

    sci = finite & ((e < -4) | (e > 15))
    small = finite & ~sci & (e < 0)  # 0.000ddd
    whole = finite & ~sci & (e >= 0)  # ddd.ddd, at least one digit after the point
    shown = (m + whole * np.maximum(e + 2 - m, 0)) * finite
    tail[:, 0] &= np.take(keep[0], shown)
    tail[:, 1] &= np.take(keep[1], shown)
    # the point follows digit `point`; -1: no point among the digits
    point = whole * (e + 1) + (sci & (m > 1)) - 1

    lead = (1 - e) * small  # bytes of 0.000 shown
    sign_w = int(neg.any())
    prefix_w = int(lead.max())
    sep_w = int(np.max(point, initial=-1)) + 1
    digit_w = max(int(np.max(shown, initial=0)), 3 * (not finite.all()))  # room for inf, nan
    exp_w = 0 if not sci.any() else 4 + (int((np.abs(e) * sci).max()) >= 100)
    out = np.zeros((rows, sign_w + prefix_w + sep_w + digit_w + exp_w), dtype=np.uint8)
    if sign_w:
        out[:, 0] = neg.view(np.uint8) * np.uint8(ord("-"))
    at = sign_w
    for j in range(prefix_w):
        out[:, at + j] = (lead > j).view(np.uint8) * np.uint8(b"0.000"[j])
    at += prefix_w
    # digit i at at + 2i while a point may follow it, else at at + sep_w + i
    tail = tail.view(np.uint8)
    out[:, at] = (head + np.uint64(48)) * (shown > 0)
    lo = max(sep_w, 1)
    out[:, at + 2:at + 2 * lo:2] = tail[:, :lo - 1]
    out[:, at + sep_w + lo:at + sep_w + digit_w] = tail[:, lo - 1:digit_w - 1]
    for j in range(sep_w):
        out[:, at + 2 * j + 1] = (point == j).view(np.uint8) * np.uint8(ord("."))
    if exp_w:
        exp = np.take(exponents, (e + 331) * sci).view(np.uint8).reshape(rows, 8)
        out[:, -exp_w:] = exp[:, :exp_w]
    for r in np.flatnonzero(~finite).tolist():
        out[r, at:at + 3] = np.frombuffer(b"nan" if bits[r] & _FRAC else b"inf", dtype=np.uint8)
    return out


def _field(column, a, b):
    """Rows a:b of one column as a NUL-padded byte matrix; see :func:`_write_rows`."""
    if isinstance(column, bytes):
        return np.broadcast_to(np.frombuffer(column, dtype=np.uint8), (b - a, len(column)))
    values, present = column if isinstance(column, tuple) else (column, None)
    values = values[a:b]
    if values.dtype.kind == "i":
        mat = _digits(values)
    elif values.dtype.kind == "f" and values.dtype.itemsize <= 8:
        mat = _floats(values)  # float16 and float32 upcast, as tolist() does
    else:
        raise TypeError(f"cannot write a column of dtype {values.dtype}")
    if present is not None:
        mat = mat * present[a:b, None]
    return mat


def _write_rows(fh, columns, sep: bytes) -> None:
    """Write one line per row: the columns' entries joined by the byte ``sep``.

    A column is an array (signed integers are written in decimal, floats of
    up to 64 bits as ``repr`` writes them, any other dtype raises
    ``TypeError``), a bytes literal repeated on every row, or a pair
    ``(array, present)``: rows where ``present`` is False omit the entry
    together with the separator before it.  Rows are formatted ``_BLOCK``
    at a time into one NUL-padded byte matrix whose NULs are deleted.
    """
    arrays = [c[0] if isinstance(c, tuple) else c for c in columns if not isinstance(c, bytes)]
    rows = min(map(len, arrays))
    for a in range(0, rows, _BLOCK):
        b = min(rows, a + _BLOCK)
        mats = []
        for j, column in enumerate(columns):
            if j:
                mark = np.full((b - a, 1), sep[0], dtype=np.uint8)
                if isinstance(column, tuple):
                    mark *= column[1][a:b, None]
                mats.append(mark)
            mats.append(_field(column, a, b))
        mats.append(np.full((b - a, 1), ord("\n"), dtype=np.uint8))
        fh.write(np.hstack(mats).tobytes().translate(None, b"\0"))


def write_edges(path, n: int, src, tgt, mult=None, marks=None) -> None:
    """Write an edge list: the ``# n=<n>`` header, then for ``marks`` one
    ``# mark <node> <value>`` comment per node, then ``<source> <target>``
    rows with `` <multiplicity>`` where it is not 1."""
    columns = [src, tgt] if mult is None else [src, tgt, (mult, mult != 1)]
    with open(path, "wb") as fh:
        fh.write(b"# n=%d\n" % n)
        if marks is not None:
            _write_rows(fh, [b"# mark", np.arange(len(marks)), marks], b" ")
        _write_rows(fh, columns, b" ")


def write_table(path, header: str, columns) -> None:
    """Write a CSV: ``header``, then the columns joined by commas, one row per line."""
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        _write_rows(fh, columns, b",")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def write_json(path, obj) -> None:
    """Write a JSON document (sidecars, configs, records): keys sorted, two-space
    indent, a final newline; numpy scalars and arrays as their Python values.
    JSON has no Infinity or NaN: a non-finite float raises ``UsageError``
    before the file is opened."""
    try:
        text = json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise UsageError(f"{path}: {e}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# edge-list parser


_HEADER_RE = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")
# non-ASCII line breaks of str.splitlines() and other non-ASCII whitespace
_UNICODE_BREAK_RE = re.compile("[\x85\u2028\u2029]")
_UNICODE_SPACE_RE = re.compile(r"[^\S\x00-\x7f]")
# the ASCII bytes that end a line for str.splitlines
_BREAK_BYTES = b"\n\v\f\r\x1c\x1d\x1e"
_BREAK_RE = re.compile(b"[" + re.escape(_BREAK_BYTES) + b"]")
_INT64_DIGITS = 18  # any value of at most this many digits fits in int64
_ONES = 0x0101010101010101  # 1 in each byte of a word
# bytes of text scanned at a time: the scan's per-byte and per-token arrays
# (about 75 bytes a token) stay near 3 MB whatever the file's size
_PARSE_BLOCK = 1 << 18


def parse_edges(text):
    """Parse the edge-list text format into ``(src, tgt, mult, n)``.

    ``text`` is a ``str`` or UTF-8 ``bytes``.  Tokens are runs of non-space
    bytes, a line whose first token starts with ``#`` is a comment (or the
    ``# n=<count>`` header; the last one counts), and every other nonblank
    line must hold two or three ``[+-]<ASCII digits>`` fields.  Line numbers
    in errors count lines as ``str.splitlines`` does.  The UTF-8 bytes are
    scanned ``_PARSE_BLOCK`` at a time, each block ending at a line break
    (no multi-byte character holds an ASCII byte), into preallocated int64
    columns.
    """
    if isinstance(text, bytes) and not text.isascii():
        text = text.decode("utf-8")
    source = None  # the text errors quote, when it is not ASCII
    if isinstance(text, str):
        if not text.isascii():
            # map non-ASCII breaks to "\v" and other whitespace to " ", so the
            # byte scan splits lines and fields where str methods would
            source = text
            text = _UNICODE_SPACE_RE.sub(" ", _UNICODE_BREAK_RE.sub("\v", text))
        text = text.encode("utf-8", "surrogatepass")
    # a line per line break, and the last may end without one
    raw = np.frombuffer(text, dtype=np.uint8)
    breaks = sum(int(np.count_nonzero(_is_break(raw[i:i + _PARSE_BLOCK])))
                 for i in range(0, raw.size, _PARSE_BLOCK))
    del raw
    out = np.empty((3, breaks + 1), dtype=np.int64)
    rows, n, overflow = 0, None, None
    for a, b in _line_blocks(text):
        src, tgt, mult, header, late = _scan(text, a, b, source)
        out[0, rows:rows + src.size] = src
        out[1, rows:rows + src.size] = tgt
        out[2, rows:rows + src.size] = mult
        rows += src.size
        n = n if header is None else header
        overflow = overflow or late
    if overflow:  # raised once no line of a later block is malformed
        raise InputError(overflow)
    return out[0, :rows], out[1, :rows], out[2, :rows], n


def _line_blocks(data: bytes):
    """(start, stop) of consecutive pieces of ``data``, each of at least
    ``_PARSE_BLOCK`` bytes and ending at a line break, except the last.
    A block may end between the bytes of ``\\r\\n``: the ``\\n`` then
    only separates, and errors count lines in the whole text."""
    a, end = 0, len(data)
    while a < end:
        m = _BREAK_RE.search(data, a + _PARSE_BLOCK - 1)
        b = end if m is None else m.end()
        yield a, b
        a = b


def _scan(text: bytes, start: int, stop: int, source=None):
    """``(src, tgt, mult, n, overflow)`` of the edge-list lines
    ``text[start:stop]``: ``n`` is their last header's count or None,
    ``overflow`` None or the message of their first field beyond int64,
    which the caller raises once no line is malformed.  Errors count lines
    from the start of ``text`` and quote them from ``source`` (``text``
    decoded when None).

    Tokens are found by a numpy scan of the bytes; per-byte arrays are bool
    or uint8, int64 arrays are per token or per line.
    """
    data = text[start:stop]
    b = np.frombuffer(data, dtype=np.uint8)
    # str.split() whitespace: 9-13 and 28-32
    space = (b - 9) <= 4
    space |= (b - 28) <= 4
    # token bounds alternate: start, end, start, ...
    change = np.empty(b.size + 1, dtype=bool)
    change[0] = b.size and not space[0]
    change[-1] = b.size and not space[-1]
    np.not_equal(space[1:], space[:-1], out=change[1:-1])
    del space
    bounds = np.flatnonzero(change)
    del change
    starts, ends = bounds[0::2], bounds[1::2]

    # a token heads its line when a break lies in the whitespace before it
    gap = np.zeros(starts.size, dtype=np.int64)  # the first token heads anyway
    np.subtract(starts[1:], ends[:-1], out=gap[1:])
    head = _is_break(b[starts - 1])
    wide = np.flatnonzero(gap > 1)
    if wide.size:
        breaks = np.flatnonzero(_is_break(b))
        head[wide] = (np.searchsorted(breaks, starts[wide])
                      > np.searchsorted(breaks, ends[wide - 1]))
    if head.size:
        head[0] = True
    heads = np.flatnonzero(head)
    del head, gap
    fields = np.diff(heads, append=starts.size)
    comment = b[starts[heads]] == ord("#")
    n = None
    for i, last in zip(heads[comment].tolist(), (heads + fields - 1)[comment].tolist()):
        m = _HEADER_RE.match(data[starts[i]:ends[last]].decode("utf-8", "surrogatepass"))
        if m:
            n = int(m.group(1))

    # digits of every token (at most 255 counted); comment lines' are never read
    negative = b[starts] == 45
    sign = negative | (b[starts] == 43)
    ndig = ends - starts
    ndig -= sign
    ndig = np.minimum(ndig, 255).astype(np.uint8)
    in_data = ~np.repeat(comment, fields)
    width = min(int(ndig.max(initial=0, where=in_data)), _INT64_DIGITS) or 1
    long = np.flatnonzero(in_data & (ndig > width))
    np.minimum(ndig, width, out=ndig)
    values, bad = _token_values(data, ends, ndig, width)
    bad |= ndig == 0
    long_digits = [data[s + int(sign[i]):e] for i, s, e in
                   zip(long.tolist(), starts[long].tolist(), ends[long].tolist())]
    for i, digits in zip(long.tolist(), long_digits):
        bad[i] = not digits.isdigit()
    bad &= in_data

    def where(pos):
        li = _line_number(np.frombuffer(text, dtype=np.uint8), start + pos)
        line = (text.decode("ascii") if source is None else source).splitlines()[li].strip()
        return f"line {li + 1}", line

    bad_count = ~comment & (fields != 2) & (fields != 3)
    bad_line = bad_count.copy()
    bad_line[np.searchsorted(heads, np.flatnonzero(bad), side="right") - 1] = True
    if bad_line.any():
        h = int(np.argmax(bad_line))
        at, line = where(starts[heads[h]])
        if bad_count[h]:
            raise InputError(f"{at}: expected '<source> <target> [multiplicity]'")
        raise InputError(f"{at}: non-integer field in {line!r}")

    np.negative(values, out=values, where=negative)
    overflow = None
    for i, digits in zip(long.tolist(), long_digits):
        digits = digits.lstrip(b"0") or b"0"
        v = int(digits) if len(digits) <= 19 else 2**64
        if negative[i]:
            v = -v
        if not -2**63 <= v < 2**63:
            at, line = where(starts[i])
            overflow = f"{at}: integer out of int64 range in {line!r}"
            break
        values[i] = v
    del bounds, starts, ends

    heads, three = heads[~comment], fields[~comment] == 3
    mult = np.ones(heads.size, dtype=np.int64)
    mult[three] = values[heads[three] + 2]
    return values[heads], values[heads + 1], mult, n, overflow


def _is_break(b):
    """Bytes that end a line for ``str.splitlines``: 10-13 and 28-30."""
    brk = (b - 10) <= 3
    brk |= (b - 28) <= 2
    return brk


def _line_number(b, pos) -> int:
    """0-based ``str.splitlines`` line of byte ``pos``, a token's first byte."""
    before = b[:pos]
    crlf = np.count_nonzero((before[1:] == 10) & (before[:-1] == 13))
    return int(np.count_nonzero(_is_break(before))) - crlf


def _token_values(data: bytes, ends, ndig, width):
    """Values of the last ``ndig`` (<= width) bytes before each token end,
    read as decimal digits, and whether any of those bytes is not a digit.

    Eight digits at a time, SWAR-style: the eight bytes ending at a chunk's
    last digit are loaded as one little-endian word, the bytes left of the
    digits masked out, the rest checked for ``0``-``9`` and combined pairwise
    into one number (D. Lemire's eight-digit parse).
    """
    chunks = -(-width // 8)
    # pad bytes before the text, so that every load starts at or after byte 0
    buf = bytes(8 * chunks) + data
    words = np.ndarray((len(buf) - 7,), "<u8", buffer=buf, strides=(1,))
    bad = np.zeros(ends.size, dtype=bool)
    for c in range(chunks):
        at = ends + 8 * (chunks - c - 1)
        x = words[at]
        low = at.view(np.uint64)  # scratch space from here on
        digits = np.clip(ndig.astype(np.int16) - 8 * c, 0, 8) if width > 8 else ndig
        # the top `digits` bytes of a word (a shift by 64 leaves none)
        np.left_shift(np.uint64(2**64 - 1), (8 - digits.astype(np.uint8)) * np.uint8(8),
                      out=low)
        x ^= np.uint64(_ONES * 0x30)
        x &= low
        # the digit bytes now hold 0-9, other bytes of the token more
        np.add(x, np.uint64(_ONES * 0x76), out=low)  # sets bit 7 of bytes above 9
        low |= x
        low &= np.uint64(_ONES * 0x80)
        bad |= low != 0
        for bits, mask in ((8, 0x00FF00FF00FF00FF), (16, 0x0000FFFF0000FFFF),
                           (32, 0x00000000FFFFFFFF)):
            np.right_shift(x, np.uint64(bits), out=low)
            x *= np.uint64(10 ** (bits // 8))
            x += low
            x &= np.uint64(mask)
        x = x.view(np.int64)
        values = x if c == 0 else values + x * np.int64(10 ** (8 * c))
    return values, bad


# ---------------------------------------------------------------------------
# float-CSV reader


def read_table(path, header: str, usecols=None) -> np.ndarray:
    """Columns ``usecols`` (default all; they must include the last) of the
    float CSV at ``path``, as a (rows, columns) float64 array.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``.  The first line, stripped,
    must equal ``header``, whose comma count sets the number of fields.
    Every other line is empty or holds exactly that many comma-separated
    fields.  A field in ``usecols`` is a number that Python's ``float``
    accepts, spelled in ASCII without ``_`` separators, optionally padded
    with ASCII whitespace; other fields are not read.  The values are parsed by
    ``np.loadtxt`` in C, from the bytes through an ASCII text stream, and are
    bit-identical to ``float``'s.  A malformed file raises
    ``InputError("<path>: line L: ...")`` naming its first bad line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    start = data.find(b"\n") + 1 or len(data)
    if data[:start].decode("utf-8", "replace").strip() != header:
        raise InputError(f"{path}: expected '{header}' header")
    k = header.count(",") + 1
    usecols = tuple(range(k)) if usecols is None else tuple(usecols)
    values = _parse_rows(data, start, k, usecols)
    if values is not None:
        return values
    # the first line that fails on its own, by bisection over the lines
    lines = data[start:].split(b"\n")
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parse_rows(b"\n".join(lines[lo:mid]), 0, k, usecols) is None:
            hi = mid
        else:
            lo = mid
    raise InputError(f"{path}: line {lo + 2}: not a '{header}' row: "
                     f"{lines[lo].decode('utf-8', 'replace')!r}")


def _parse_rows(data: bytes, start: int, k: int, usecols):
    """Columns ``usecols`` of the CSV lines of k fields in ``data[start:]``,
    or None if malformed."""
    stream = io.BytesIO(data)  # shares the bytes
    stream.seek(start)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        try:
            values = np.loadtxt(io.TextIOWrapper(stream, encoding="ascii"), dtype=np.float64,
                                delimiter=",", comments=None, usecols=usecols, ndmin=2)
        except ValueError:  # UnicodeDecodeError included
            return None
    # loadtxt fails rows too short for usecols, which hold the last field,
    # and takes rows with extra fields; the comma count pins every row to k
    if data.count(b",", start) != (k - 1) * values.shape[0]:
        return None
    return values.reshape(-1, len(usecols))
