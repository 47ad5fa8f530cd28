"""Deterministic CSV/JSON emission shared by every artifact writer.

Numbers go through :func:`fmt17` (17 significant digits, enough to round-trip
IEEE doubles).  JSON is emitted by walking the object tree, so float format,
key order and indentation are pinned and identical inputs give identical
bytes.

CSV tables are checked a column at a time.  Each column then formats every
distinct magnitude once (keyed on its bits, so 0.0 and -0.0 stay apart; an
integer column every distinct value) into a NUL-padded byte table, and the
rows are built from it as bytes.  A negative value's text is that of its
magnitude behind a "-", which is the text :func:`fmt17` gives it, and no
number's text holds a NUL, so dropping the padding leaves the bytes of
formatting every cell.  The lab's flows are symmetric (the Type III strip is
mirror-symmetric, the half-plane saddle an odd extension), so the two
acceptance solves format only 17% and 29% of their cells.  Float magnitudes
are formatted by one vectorised numpy kernel (:func:`_format_block`): a
long-double product gives the 17 digits of ``format(x, ".17g")`` for all
but the few values that might round otherwise, which go through
``format()`` themselves, and table lookups lay out the text, so each table
row holds the bytes of ``format(x, ".17g")``.  A large table is built on
two threads (see :func:`write_csv`); its bytes do not depend on that.
Tables are parsed in one pass.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import types

import numpy as np

SCHEMA_VERSION = 2
# rows per block of write_csv, and distinct values per formatting chunk:
# 4096 and 16384 rows wrote the solve tables equally fast, and the smaller
# block leaves a smaller heap behind the write; the float kernel ran at 134
# ns a value on 4096 keys, against 223 on 1024 and 165 on 16384, and its
# temporaries stay near 1 MB
CSV_BLOCK = 4096
# write_csv builds a table of more blocks than this on two threads; a
# 5,000-row table took 8.8-9.6 ms through the worker against 6.1-6.5 ms on
# one thread
_WORKER_BLOCKS = 8


def fmt17(x) -> str:
    """Render a number with 17 significant digits."""
    if isinstance(x, (bool, np.bool_)):
        raise TypeError("fmt17 expects a number, got a bool")
    v = float(x)
    if not math.isfinite(v):
        raise ValueError("non-finite value in numeric output: %r" % v)
    return format(v, ".17g")


def _emit(obj, indent: int, pieces: list) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        items = list(obj.items())
        for k, (key, val) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError("JSON keys must be strings, got %r" % (key,))
            pieces.append(pad + "  " + json.dumps(key) + ": ")
            _emit(val, indent + 1, pieces)
            pieces.append(",\n" if k + 1 < len(items) else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            pieces.append("[]")
            return
        # Flat numeric lists stay on one line; nested structures get one
        # element per line so large tables remain diffable.
        if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq):
            pieces.append("[" + ", ".join(
                fmt17(v) if isinstance(v, float) else str(v) for v in seq) + "]")
            return
        pieces.append("[\n")
        for k, val in enumerate(seq):
            pieces.append(pad + "  ")
            _emit(val, indent + 1, pieces)
            pieces.append(",\n" if k + 1 < len(seq) else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, (bool, np.bool_)):
        pieces.append("true" if obj else "false")
    elif obj is None:
        pieces.append("null")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(fmt17(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    else:
        raise TypeError("cannot serialize %r" % type(obj))


def write_json(obj, path) -> None:
    pieces: list = []
    _emit(obj, 0, pieces)
    with open(path, "w") as fh:
        fh.writelines(pieces)
        fh.write("\n")


def read_json(path):
    # fmt17 writes -0.0 as "-0", which json would read as the integer 0
    with open(path) as fh:
        return json.load(fh, parse_int=lambda t: -0.0 if t == "-0" else int(t))


def write_csv(path, header, columns) -> None:
    """Write named columns of numbers as CSV with 17-digit floats.

    ``columns`` are arrays of one size, each read in C order and checked
    whole before the file is opened: plain integers if its dtype is integer,
    else the :func:`fmt17` text of each value as a double.  A bool column
    raises TypeError and a non-finite value ValueError, as :func:`fmt17`
    does.  Each column is deduplicated (:func:`_dedup`) and its distinct
    keys formatted (:func:`_key_text`); the rows are built as bytes,
    :data:`CSV_BLOCK` at a time.

    A table of more than :data:`_WORKER_BLOCKS` blocks is built on two
    threads.  One worker formats column k's keys while the calling thread
    deduplicates column k + 1; once every text table is done, the worker
    builds every other block of rows while the calling thread builds the
    rest and writes them all in file order.  The bytes are the same either
    way.  The worker is joined, and the pages it freed returned to the
    system, before this returns or raises.
    """
    cols = [np.asarray(c) for c in columns]
    n = cols[0].size if cols else 0
    for k, c in enumerate(cols):
        if c.size != n:
            raise ValueError("CSV columns must share a length")
        if c.dtype == bool:
            raise TypeError("CSV columns must be numbers, got a bool column")
        if not np.issubdtype(c.dtype, np.integer):
            c = cols[k] = np.asarray(c, dtype=float)
            if not np.isfinite(c).all():
                raise ValueError("non-finite value in numeric output")
    if n <= _WORKER_BLOCKS * CSV_BLOCK:
        _write_rows(path, header, cols, n, _Done)
        return
    from concurrent.futures import ThreadPoolExecutor

    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            _write_rows(path, header, cols, n, pool.submit)
    finally:
        _release_freed_pages()


class _Done:
    """A call made at once, in place of a worker's future."""

    def __init__(self, fn, *args):
        self._value = fn(*args)

    def result(self):
        return self._value


def _release_freed_pages():
    """Return the pages that free() keeps to the system (glibc's
    ``malloc_trim``; elsewhere nothing happens).

    A worker thread's allocations come from its own malloc arena, whose
    freed pages the calling thread cannot reuse; joining a worker without
    this leaves them resident under what the process does next.  In
    ``verify`` the 512^2 torus checks after the saddle's worker rose by
    5.6 MB instead of 3.1 MB in one process.
    """
    try:
        import ctypes

        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return
    trim(0)


def _write_rows(path, header, cols, n, submit):
    """The body of :func:`write_csv` on checked columns, handing the key
    formatting and every other block of rows to ``submit(fn, *args)``, whose
    ``result()`` is ``fn(*args)``: a one-worker pool's ``submit``, or
    :class:`_Done`.  The handed-off blocks share the ``spare`` buffer, and
    only one of them is in flight at a time."""
    texts = []
    for c in cols if n else []:
        keys, index, signed = _dedup(c)
        texts.append((submit(_key_text, keys, signed), index, signed))
        del keys
    tables = [(text.result(), index, signed) for text, index, signed in texts]
    # a cell is a sign byte (float columns), its NUL-padded text and a
    # separator; dropping the NULs leaves the row's text.  The texts go in
    # as one np.void item per cell, through a structured view of the rows
    offsets, width = [], 0
    for table, _, signed in tables:
        offsets.append(width + signed)
        width += signed + table.itemsize + 1
    layout = np.dtype({"names": ["c%d" % k for k in range(len(tables))],
                       "formats": [t.dtype for t, _, _ in tables],
                       "offsets": offsets, "itemsize": width})
    rows = np.full((min(n, CSV_BLOCK), width), ord(","), np.uint8)
    rows[:, -1:] = ord("\n")
    spare = rows.copy()

    def block(m, start):
        m = m[:min(CSV_BLOCK, n - start)]
        cells = m.view(layout)[:, 0]
        for name, at, (table, index, signed) in zip(layout.names, offsets,
                                                    tables):
            ix = index[start:start + len(m)]
            if signed:
                m[:, at - 1] = (ix >> 31) * ord("-")
                ix = ix & 0x7FFFFFFF
            cells[name] = table[ix]
        return m[m != 0]

    starts = range(0, n, CSV_BLOCK)
    odd = starts[1::2]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        ahead = [submit(block, spare, s) for s in odd[:1]]
        for k, start in enumerate(starts[::2]):
            fh.write(block(rows, start))
            if ahead:
                done = ahead.pop().result()
                ahead = [submit(block, spare, s) for s in odd[k + 1:k + 2]]
                fh.write(done)


def _dedup(c):
    """``(keys, index, signed)`` of one checked column: its sorted distinct
    keys, and each cell's rank among them in C order as uint32.  Float keys
    are the bits of |c|, and a cell's sign bit rides in the top bit of its
    index."""
    signed = not np.issubdtype(c.dtype, np.integer)
    keys = np.empty(c.size, np.float64 if signed else c.dtype)
    if signed:
        np.abs(c, out=keys.reshape(c.shape))
        keys = keys.view(np.int64)
    else:
        keys.reshape(c.shape)[...] = c
    order = np.argsort(keys)
    keys.sort()
    new = np.empty(len(keys), bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    distinct = keys[new]
    # the ranks go where the sorted keys were, where a key is 4 bytes or more
    rank = (keys.view(np.uint32)[:len(keys)] if keys.itemsize >= 4
            else np.empty(len(keys), np.uint32))
    np.cumsum(new, dtype=np.uint32, out=rank)
    rank -= 1
    index = np.empty(len(keys), np.uint32)
    index[order] = rank
    if signed:
        np.bitwise_or(index, np.uint32(1 << 31), out=index,
                      where=np.signbit(c).reshape(-1))
    return distinct, index, signed


def _key_text(keys, signed):
    """The text of a column's sorted distinct keys, one NUL-padded np.void
    item each: integers, or (``signed``) the bits of float magnitudes,
    formatted CSV_BLOCK keys at a time."""
    if signed:
        table = _float_text(keys.view(np.float64))
    else:
        table = np.concatenate([
            np.array(list(map(str, keys[k:k + CSV_BLOCK].tolist())),
                     dtype="S")
            for k in range(0, len(keys), CSV_BLOCK)])
        table = table.view(np.uint8).reshape(len(keys), -1)
    return table.view("V%d" % table.shape[1])[:, 0]


# format(x, ".17g") for x > 0, vectorised.  With e = floor(log10 x), %.17g
# prints the 17 digits of N = round(x 10**(16 - e)), half to even; N = 1e17
# carries into e + 1.  It writes them fixed for -4 <= e < 17 and as
# d.ddd...e+XX otherwise, trailing zeros and a bare "." dropped.  Here
# y = x 10**(16 - e) is one long-double product with 10**(16 - e) rounded to
# 64 bits.  Where that power is exact (0 <= 16 - e <= 27) y is rounded once,
# to a grid of multiples of ulp(y) that holds every half-integer, so round(y)
# is N unless y is itself a half-integer.  Elsewhere the two roundings leave
# |y - x 10**(16 - e)| <= 2**-63 (1 + 2**-65) y < 0.011, so round(y) is N
# unless y lies within _BAND of a half-integer.  Those values (a few in a
# thousand on the solve tables) go through format() one by one, and so does
# every value on a host whose long double has no 64-bit mantissa or is not
# little-endian.
_E0 = 330                # exponent e is row e + _E0 of the exponent tables
_BAND = 2.0 ** -6


def _pow10_64(k):
    """10**k rounded to 64 significant bits, half to even, as a long double."""
    num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
    shift = 64 - num.bit_length() + den.bit_length()
    # num 2**shift / den lies in [2**63, 2**65)
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    if num >= den << 64:
        den <<= 1
        shift -= 1
    q, r = divmod(num, den)
    q += 2 * r > den or (2 * r == den and q & 1)
    hi = np.longdouble(q >> 32) * np.longdouble(2.0 ** 32)
    return np.ldexp(hi + np.longdouble(q & 0xFFFFFFFF), -shift)


def _byte_mask(lo, hi):
    """Three little-endian words per (lo, hi) pair, 0xFF on bytes lo..hi-1."""
    at = np.arange(24)
    inside = (at >= lo[..., None]) & (at < hi[..., None])
    return (inside * np.uint8(255)).view(np.uint64)


@functools.cache
def _digit_tables():
    """The kernel's constant tables, built on the first float column, or
    None where the long double cannot carry it.

    A value's digits sit in three little-endian 64-bit words: "0000", "000"
    and the 17 digits from byte 7.  Its layout is keyed on (e, s), s its
    significant digits: the right shift that puts z "0"s in front of the
    digits (z = -e for fixed e < 0, else 0), the masks that keep the bytes
    before the point at q and move the ones after it up one byte to end at
    the mantissa length L, and the point and exponent bytes."""
    if np.finfo(np.longdouble).nmant < 63 or sys.byteorder != "little":
        return None
    t = types.SimpleNamespace()
    e = np.arange(-_E0, _E0 + 1)
    t.pow = np.array([_pow10_64(16 - k) for k in e.tolist()], np.longdouble)
    t.band = np.where((e >= -11) & (e <= 16), 0.0, _BAND)
    four = np.arange(10000)
    digits = np.stack([four // 1000, four // 100 % 10, four // 10 % 10,
                       four % 10], 1)
    chunk = (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    t.chunk_lo = chunk.astype(np.uint64)
    t.chunk_hi = t.chunk_lo << np.uint64(32)
    t.lead = np.uint64(0x30303030) | np.uint64(0x303030) << np.uint64(32) \
        | (np.arange(10, dtype=np.uint64) + ord("0")) << np.uint64(56)
    t.zeros = (digits[:, ::-1] == 0).cumprod(1).sum(1)   # trailing "0"s

    fixed = ((e >= -4) & (e <= 16))[:, None]
    z = np.where(fixed & (e[:, None] < 0), -e[:, None], 0)
    q = np.where(fixed & (e[:, None] > 0), e[:, None] + 1, 1)
    s = np.arange(1, 18)
    length = np.where(z + s > q, z + s + 1, q)               # (e, s)
    a = np.abs(e)
    exp_text = np.stack([np.full_like(e, ord("e")),
                         np.where(e < 0, ord("-"), ord("+")),
                         np.where(a >= 100, a // 100, a // 10 % 10) + 48,
                         np.where(a >= 100, a // 10 % 10, a % 10) + 48,
                         np.where(a >= 100, a % 10 + 48, 0)], 1)
    exp_len = np.where(fixed[:, 0], 0, 4 + (a >= 100))[:, None]
    marks = np.zeros(length.shape + (24,), np.uint8)
    at = np.arange(24)
    marks[(at == q[..., None]) & (length > q)[..., None]] = ord(".")
    for k in range(5):
        put = (at == (length + k)[..., None]) & (k < exp_len)[..., None]
        marks[put] = np.broadcast_to(exp_text[:, None, k, None],
                                     marks.shape)[put]
    t.shift = np.broadcast_to((8 * (7 - z)).astype(np.uint64),
                              length.shape).ravel()
    t.low = np.broadcast_to(_byte_mask(np.zeros_like(q), q),
                            length.shape + (3,)).reshape(-1, 3).T.copy()
    t.high = _byte_mask(q + 1, length).reshape(-1, 3).T.copy()
    t.marks = marks.view(np.uint64).reshape(-1, 3).T.copy()
    t.width = (length + exp_len).ravel()
    return t


def _needs_dtoa(e, dist):
    """Where the long-double digits may not be dtoa's: ``dist`` is
    |frac(y) - 1/2|, zero at a possible tie, for exponents ``e``."""
    return dist <= _digit_tables().band[e + _E0]


def _float_text(keys):
    """The NUL-padded text table of sorted distinct ``keys`` >= 0, each row
    ``format(key, ".17g")``, formatted CSV_BLOCK keys at a time into 24-byte
    rows and then packed, in place, to the longest text's width."""
    table = np.zeros((len(keys), 24), np.uint8)
    first = int(len(keys) > 0 and keys[0] == 0)   # 0.0 sorts first
    table[:first, 0] = ord("0")
    width = first
    fmt = _dtoa_rows if _digit_tables() is None else _format_block
    for k in range(first, len(keys), CSV_BLOCK):
        width = max(width, fmt(keys[k:k + CSV_BLOCK],
                               table[k:k + CSV_BLOCK]))
    # packed in place and shrunk: a packed copy beside it, made on the
    # worker thread, kept solve_emit's peak resident set 1.1 MB higher
    # (88.2 against 87.1 MB, medians of 10 benchmark runs)
    flat = table.reshape(-1)
    for k in range(0, len(keys), CSV_BLOCK):
        rows = min(CSV_BLOCK, len(keys) - k)
        flat[width * k:width * (k + rows)] = table[k:k + rows,
                                                   :width].reshape(-1)
    del flat
    table.resize(len(keys) * width)
    return table.reshape(len(keys), width)


def _dtoa_rows(x, rows):
    """format() each ``x`` into its row; the longest text's length."""
    text = list(map("{:.17g}".format, x.tolist()))
    rows[:] = np.array(text, "S24").view(np.uint8).reshape(-1, 24)
    return max(map(len, text))


def _format_block(x, rows):
    """Write the text of each ``x`` > 0 into its 24-byte row of ``rows``;
    return the longest text's length."""
    t = _digit_tables()
    e = np.floor(np.log10(x)).astype(np.int64)
    xl = x.astype(np.longdouble)
    y = xl * t.pow[e + _E0]
    below, above = y < 1e16, y >= 1e17
    off = np.flatnonzero(below | above)   # log10 was one off
    if len(off):
        e[off] += above[off].astype(np.int64) - below[off]
        y[off] = xl[off] * t.pow[e[off] + _E0]
    big_n = y.astype(np.int64)            # y < 2**63: a truncating cast
    frac = (y - big_n.astype(np.longdouble)).astype(np.float64)  # exact
    big_n += frac > 0.5
    slow = _needs_dtoa(e, np.abs(frac - 0.5))
    slow |= (big_n - 10 ** 16).view(np.uint64) > 9 * 10 ** 16
    carry = big_n == 10 ** 17
    e += carry
    big_n[carry | slow] = 10 ** 16
    # N = lead 10**16 + c0 10**12 + c1 10**8 + c2 10**4 + c3, by // and a
    # product (np.divmod does not divide by a constant as fast)
    hi = big_n // 10 ** 8
    lo = big_n - hi * 10 ** 8
    c0 = hi // 10 ** 4
    c1 = hi - c0 * 10 ** 4
    lead = c0 // 10 ** 4
    c0 -= lead * 10 ** 4
    c2 = lo // 10 ** 4
    c3 = lo - c2 * 10 ** 4
    w0 = t.lead[lead]
    w1 = t.chunk_lo[c0] | t.chunk_hi[c1]
    w2 = t.chunk_lo[c2] | t.chunk_hi[c3]
    zeros = t.zeros[c3]
    run = c3 == 0
    for c in (c2, c1, c0):
        zeros += run * t.zeros[c]
        run &= c == 0
    key = (e + _E0) * 17 + 16 - zeros     # s - 1 = 16 - trailing zeros
    right = t.shift[key]
    left = 64 - right
    f0 = (w0 >> right) | (w1 << left)
    f1 = (w1 >> right) | (w2 << left)
    f2 = w2 >> right
    b8, b56 = np.uint64(8), np.uint64(56)
    words = rows.view(np.uint64)
    low, high, marks = t.low, t.high, t.marks
    words[:, 0] = (f0 & low[0][key]) | (f0 << b8 & high[0][key]) \
        | marks[0][key]
    words[:, 1] = (f1 & low[1][key]) | ((f1 << b8 | f0 >> b56)
                                       & high[1][key]) | marks[1][key]
    words[:, 2] = (f2 & low[2][key]) | ((f2 << b8 | f1 >> b56)
                                       & high[2][key]) | marks[2][key]
    width = int(t.width[key].max())
    slow = np.flatnonzero(slow)
    if len(slow):
        part = rows[slow]
        width = max(width, _dtoa_rows(x[slow], part))
        rows[slow] = part
    return width


def read_csv(path):
    """Read a CSV written by :func:`write_csv` back into float columns."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        body = fh.tell()
        if not fh.readline().strip():  # header only; np.loadtxt would warn
            return header, [np.empty(0) for _ in header]
        fh.seek(body)
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, list(table.T.copy())
