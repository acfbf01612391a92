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
    # str.splitlines() breaks: 10-13 and 28-30, with "\r\n" one break;
    # str.split() whitespace: 9-13 and 28-32
    brk = ((b - 10) <= 3) | ((b - 28) <= 2)
    brk[1:] &= (b[1:] != 10) | (b[:-1] != 13)
    breaks = np.flatnonzero(brk)
    del brk
    space = ((b - 9) <= 4) | ((b - 28) <= 4)
    edge = np.diff(space.view(np.int8), prepend=np.int8(1), append=np.int8(1))
    starts = np.flatnonzero(edge == -1)
    ends = np.flatnonzero(edge == 1)
    del edge
    odd = np.flatnonzero(~space & ((b - 48) > 9))  # token bytes that are not digits
    del space
    line = np.searchsorted(breaks, starts)  # 0-based line of each token

    heads = np.flatnonzero(np.diff(line, prepend=-1))  # first token of each line
    fields = np.diff(heads, append=starts.size)
    comment = b[starts[heads]] == ord("#")
    n = None
    for i in heads[comment].tolist():
        li = int(line[i])
        stop = int(breaks[li]) if li < breaks.size else b.size
        m = _HEADER_RE.match(data[starts[i]:stop].decode("utf-8", "surrogatepass"))
        if m:
            n = int(m.group(1))

    bad_count = line[heads[~comment & (fields != 2) & (fields != 3)]]
    tok = np.searchsorted(starts, odd, side="right") - 1  # the token holding each byte
    sign = (odd == starts[tok]) & ((b[odd] == 43) | (b[odd] == 45)) & (ends[tok] - odd > 1)
    tok = tok[~sign]
    tok = tok[~comment[np.searchsorted(heads, tok, side="right") - 1]]
    bad_lines = np.union1d(bad_count, line[tok])
    if bad_lines.size:
        li = int(bad_lines[0])
        if li in bad_count:
            raise InputError(f"line {li + 1}: expected '<source> <target> [multiplicity]'")
        raise InputError(f"line {li + 1}: non-integer field in "
                         f"{_stripped_line(source, li)!r}")
    del line

    # values of every token; those of comment lines are never read
    negative = b[starts] == 45
    ndig = ends - starts
    ndig -= negative | (b[starts] == 43)
    values = np.zeros(starts.size, dtype=np.int64)
    pos = ends.copy()
    for j in range(min(int(ndig.max(initial=0)), _INT64_DIGITS)):
        pos -= 1
        digit = b[pos] - 48
        digit *= ndig > j
        values += digit * np.int64(10 ** j)
    del pos
    np.negative(values, out=values, where=negative)
    long = np.flatnonzero(ndig > _INT64_DIGITS)
    for i in long[~comment[np.searchsorted(heads, long, side="right") - 1]].tolist():
        digits = data[ends[i] - ndig[i]:ends[i]].lstrip(b"0") or b"0"
        v = int(digits) if len(digits) <= 19 else 2**64
        if negative[i]:
            v = -v
        if not -2**63 <= v < 2**63:
            li = int(np.searchsorted(breaks, starts[i]))
            raise InputError(f"line {li + 1}: integer out of int64 range in "
                             f"{_stripped_line(source, li)!r}")
        values[i] = v

    heads, three = heads[~comment], fields[~comment] == 3
    mult = np.ones(heads.size, dtype=np.int64)
    mult[three] = values[heads[three] + 2]
    return values[heads], values[heads + 1], mult, n


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
