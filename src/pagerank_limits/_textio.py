"""The package's text file formats, one codec each, in array code.

Edge lists (graphs and sampled limit trees) and float-column CSVs (scores,
limit pools, tails) are written by one block writer that formats whole
columns at a time: integers as ASCII digit matrices, floats through
``repr``, padding masked out.  Edge lists are parsed by a byte scan and
float CSVs by ``np.loadtxt``, so every format is defined here once.
"""

from __future__ import annotations

import io
import re
import warnings

import numpy as np

from .errors import InputError

_BLOCK = 1 << 16  # rows formatted per block


# ---------------------------------------------------------------------------
# writers


def _digits(values):
    """Decimal text of integers as a (rows, width) byte matrix and its keep mask.

    Digits are right-aligned and the leading zeros masked out; a leading
    ``-`` column is kept only on negative rows.
    """
    v = values.astype(np.int64, copy=False)
    mag = np.abs(v).view(np.uint64)  # abs(-2**63) wraps, its uint64 view is 2**63
    width = len(str(int(mag.max())))
    if width < 10:
        mag = mag.astype(np.uint32)  # 32-bit division is several times faster
    mat = np.empty((v.size, width), dtype=np.uint8)
    keep = np.empty((v.size, width), dtype=bool)
    for j in range(width - 1, -1, -1):
        keep[:, j] = mag > 0  # digits left of the leading one are zero
        mag, mat[:, j] = np.divmod(mag, mag.dtype.type(10))
    keep[:, -1] = True  # zero is written "0"
    mat += 48
    negative = v < 0
    if negative.any():
        mat = np.hstack([np.full((v.size, 1), ord("-"), dtype=np.uint8), mat])
        keep = np.hstack([negative[:, None], keep])
    return mat, keep


def _reprs(values):
    """``repr`` of each entry as a (rows, width) byte matrix and its keep mask."""
    text = np.array(list(map(repr, values.tolist())), dtype=np.bytes_)
    mat = text.view(np.uint8).reshape(text.size, text.itemsize)
    return mat, mat != 0  # repr never contains NUL, the padding of np.bytes_


def _field(column, a, b):
    """(bytes, keep mask) of rows a:b of one column; see :func:`_write_rows`."""
    if isinstance(column, bytes):
        mat = np.broadcast_to(np.frombuffer(column, dtype=np.uint8), (b - a, len(column)))
        return mat, np.ones(mat.shape, dtype=bool)
    values, present = column if isinstance(column, tuple) else (column, None)
    values = values[a:b]
    mat, keep = _digits(values) if values.dtype.kind == "i" else _reprs(values)
    if present is not None:
        keep &= present[a:b, None]
    return mat, keep


def _write_rows(fh, columns, sep: bytes) -> None:
    """Write one line per row: the columns' entries joined by the byte ``sep``.

    A column is an array (signed integers are written in decimal, anything
    else as the ``repr`` of its ``tolist()`` entries), a bytes literal
    repeated on every row, or a pair ``(array, present)``: rows where
    ``present`` is False omit the entry together with the separator before
    it.  Rows are formatted ``_BLOCK`` at a time into one byte matrix whose
    padding a keep mask drops.
    """
    arrays = [c[0] if isinstance(c, tuple) else c for c in columns if not isinstance(c, bytes)]
    rows = min(map(len, arrays))
    for a in range(0, rows, _BLOCK):
        b = min(rows, a + _BLOCK)
        mats, keeps = [], []
        for j, column in enumerate(columns):
            mat, keep = _field(column, a, b)
            if j:
                mats.append(np.full((b - a, 1), sep[0], dtype=np.uint8))
                keeps.append(keep.any(axis=1, keepdims=True))
            mats.append(mat)
            keeps.append(keep)
        mats.append(np.full((b - a, 1), ord("\n"), dtype=np.uint8))
        keeps.append(np.ones((b - a, 1), dtype=bool))
        fh.write(np.hstack(mats)[np.hstack(keeps)].tobytes())


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


# ---------------------------------------------------------------------------
# edge-list parser


_HEADER_RE = re.compile(r"#\s*n\s*=\s*(\d+)\s*$")
# non-ASCII line breaks of str.splitlines() and other non-ASCII whitespace
_UNICODE_BREAK_RE = re.compile("[\x85\u2028\u2029]")
_UNICODE_SPACE_RE = re.compile(r"[^\S\x00-\x7f]")
_INT64_DIGITS = 18  # any value of at most this many digits fits in int64
_ONES = 0x0101010101010101  # 1 in each byte of a word


def parse_edges(text: str):
    """Parse the edge-list text format into ``(src, tgt, mult, n)``.

    The text is scanned as bytes with numpy: tokens are runs of non-space
    bytes, a line whose first token starts with ``#`` is a comment (or the
    ``# n=<count>`` header), and every other nonblank line must hold two or
    three ``[+-]<ASCII digits>`` fields.  Line numbers in errors count lines
    as ``str.splitlines`` does.  Per-byte arrays are bool or uint8; int64
    arrays are per token or per line.
    """
    source = text
    if not text.isascii():
        # map non-ASCII breaks to "\v" and other whitespace to " ", so the
        # byte scan splits lines and fields where str methods would
        text = _UNICODE_SPACE_RE.sub(" ", _UNICODE_BREAK_RE.sub("\v", text))
    data = text.encode("utf-8", "surrogatepass")
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

    bad_count = ~comment & (fields != 2) & (fields != 3)
    bad_line = bad_count.copy()
    bad_line[np.searchsorted(heads, np.flatnonzero(bad), side="right") - 1] = True
    if bad_line.any():
        h = int(np.argmax(bad_line))
        li = _line_number(b, starts[heads[h]])
        if bad_count[h]:
            raise InputError(f"line {li + 1}: expected '<source> <target> [multiplicity]'")
        raise InputError(f"line {li + 1}: non-integer field in "
                         f"{_stripped_line(source, li)!r}")

    np.negative(values, out=values, where=negative)
    for i, digits in zip(long.tolist(), long_digits):
        digits = digits.lstrip(b"0") or b"0"
        v = int(digits) if len(digits) <= 19 else 2**64
        if negative[i]:
            v = -v
        if not -2**63 <= v < 2**63:
            li = _line_number(b, starts[i])
            raise InputError(f"line {li + 1}: integer out of int64 range in "
                             f"{_stripped_line(source, li)!r}")
        values[i] = v
    del bounds, starts, ends

    heads, three = heads[~comment], fields[~comment] == 3
    mult = np.ones(heads.size, dtype=np.int64)
    mult[three] = values[heads[three] + 2]
    return values[heads], values[heads + 1], mult, n


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


def _stripped_line(text: str, li: int) -> str:
    return text.splitlines()[li].strip()



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
    ``np.loadtxt`` in C and are bit-identical to ``float``'s.  A malformed
    file raises ``InputError("<path>: line L: ...")`` naming its first bad
    line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    head, _, body = data.partition(b"\n")
    if head.decode("utf-8", "replace").strip() != header:
        raise InputError(f"{path}: expected '{header}' header")
    k = header.count(",") + 1
    usecols = tuple(range(k)) if usecols is None else tuple(usecols)
    values = _parse_rows(body, k, usecols)
    if values is not None:
        return values
    # the first line that fails on its own, by bisection over the lines
    lines = body.split(b"\n")
    lo, hi = 0, len(lines)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _parse_rows(b"\n".join(lines[lo:mid]), k, usecols) is None:
            hi = mid
        else:
            lo = mid
    raise InputError(f"{path}: line {lo + 2}: not a '{header}' row: "
                     f"{lines[lo].decode('utf-8', 'replace')!r}")


def _parse_rows(text: bytes, k: int, usecols):
    """Columns ``usecols`` of CSV lines of k fields, or None if malformed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        try:
            values = np.loadtxt(io.StringIO(text.decode("ascii")), dtype=np.float64,
                                delimiter=",", comments=None, usecols=usecols, ndmin=2)
        except ValueError:  # UnicodeDecodeError included
            return None
    # loadtxt fails rows too short for usecols, which hold the last field,
    # and takes rows with extra fields; the comma count pins every row to k
    if text.count(b",") != (k - 1) * values.shape[0]:
        return None
    return values.reshape(-1, len(usecols))
