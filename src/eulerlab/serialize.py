"""Deterministic CSV/JSON emission shared by every artifact writer.

Numbers go through :func:`fmt17` (17 significant digits, enough to round-trip
IEEE doubles).  JSON is emitted by walking the object tree, so float format,
key order and indentation are pinned and identical inputs give identical
bytes.  CSV tables are formatted a column at a time and parsed in one pass.
"""

from __future__ import annotations

import json
import math

import numpy as np

SCHEMA_VERSION = 2


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

    ``columns`` are equal-length 1d sequences, each checked and formatted
    whole before any row is written: plain integers if its dtype is integer,
    else the :func:`fmt17` text of each value.  A bool column raises
    TypeError and a non-finite value ValueError, as :func:`fmt17` does.
    """
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0]) if cols else 0
    cells = []
    for c in cols:
        if len(c) != n:
            raise ValueError("CSV columns must share a length")
        if c.dtype == bool:
            raise TypeError("CSV columns must be numbers, got a bool column")
        if np.issubdtype(c.dtype, np.integer):
            cells.append(map(str, c.tolist()))
            continue
        c = np.asarray(c, dtype=float)
        if not np.isfinite(c).all():
            raise ValueError("non-finite value in numeric output")
        cells.append(map("{:.17g}".format, c.tolist()))
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


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
