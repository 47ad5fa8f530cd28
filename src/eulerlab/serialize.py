"""Deterministic CSV/JSON emission shared by every artifact writer.

All numeric output goes through :func:`fmt17`, which renders floats with 17
significant digits (enough to round-trip IEEE doubles exactly).  The JSON
writer walks the object tree itself so float formatting, key order, and
indentation are fully pinned: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math

import numpy as np

SCHEMA_VERSION = 1


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


def dumps_json(obj) -> str:
    pieces: list = []
    _emit(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def write_json(obj, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_json(obj))


def read_json(path):
    # fmt17 writes -0.0 as "-0", which json would read as the integer 0
    with open(path) as fh:
        return json.load(fh, parse_int=lambda t: -0.0 if t == "-0" else int(t))


def write_csv(path, header, columns) -> None:
    """Write named columns of numbers as CSV with 17-digit floats.

    ``columns`` are equal-length 1d sequences; integer columns are detected
    per cell so trace/bin indices stay unpadded.
    """
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0]) if cols else 0
    for c in cols:
        if len(c) != n:
            raise ValueError("CSV columns must share a length")
    lines = [",".join(header)]
    for row in range(n):
        cells = []
        for c in cols:
            v = c[row]
            if np.issubdtype(c.dtype, np.integer):
                cells.append(str(int(v)))
            else:
                cells.append(fmt17(v))
        lines.append(",".join(cells))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Read a CSV written by :func:`write_csv` back into float columns."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = [[] for _ in header]
        for line in fh:
            line = line.strip()
            if not line:
                continue
            for slot, cell in zip(data, line.split(",")):
                slot.append(float(cell))
    return header, [np.asarray(c) for c in data]
