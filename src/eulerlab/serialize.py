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
acceptance solves format only 17% and 29% of their cells.  Tables are parsed
in one pass.
"""

from __future__ import annotations

import json
import math

import numpy as np

SCHEMA_VERSION = 2
# rows per block of write_csv, and distinct values per formatting chunk:
# 4096 and 16384 wrote the solve tables equally fast, and the smaller block
# leaves a smaller heap behind the write
CSV_BLOCK = 4096


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
    does.  Each column's text comes from :func:`_text_table`; the rows are
    built as bytes, :data:`CSV_BLOCK` at a time.
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
    tables = [_text_table(c) for c in cols] if n else []
    # a cell is a sign byte (float columns), its NUL-padded text and a
    # separator; dropping the NULs leaves the row's text
    ends = np.cumsum([s + t.shape[1] + 1 for t, _, s in tables], dtype=int)
    rows = np.full((min(n, CSV_BLOCK), ends[-1] if n else 0), ord(","),
                   np.uint8)
    rows[:, -1:] = ord("\n")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, n, CSV_BLOCK):
            m = rows[:min(CSV_BLOCK, n - start)]
            for (table, index, signed), end in zip(tables, ends):
                ix = index[start:start + len(m)]
                if signed:
                    m[:, end - table.shape[1] - 2] = (ix >> 31) * ord("-")
                    ix = ix & 0x7FFFFFFF
                m[:, end - table.shape[1] - 1:end - 1] = table[ix]
            fh.write(m[m != 0].tobytes())


def _text_table(c):
    """``(table, index, signed)`` of one checked column: each distinct key
    formatted once, CSV_BLOCK keys at a time, into a row of the NUL-padded
    uint8 ``table``, and each cell's row in C order.  Float keys are the bits
    of |c|, and a cell's sign bit rides in the top bit of its index."""
    signed = not np.issubdtype(c.dtype, np.integer)
    keys, index = np.unique(np.abs(c).view(np.int64) if signed else c,
                            return_inverse=True)
    index = index.reshape(-1).astype(np.uint32)
    if signed:
        index |= np.signbit(c).reshape(-1).astype(np.uint32) << 31
        keys = keys.view(np.float64)
    fmt = "{:.17g}".format if signed else str
    table = np.concatenate([
        np.array(list(map(fmt, keys[k:k + CSV_BLOCK].tolist())), dtype="S")
        for k in range(0, len(keys), CSV_BLOCK)])
    return table.view(np.uint8).reshape(len(keys), -1), index, signed


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
