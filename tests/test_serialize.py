"""Property tests for the 17-digit emission layer.

Every finite double must come back from a written artifact with the same
bit pattern, so -0.0 and subnormals count; non-finite values have no
17-digit form and are refused.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eulerlab import serialize

finite = st.floats(allow_nan=False, allow_infinity=False)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


@given(st.lists(finite, min_size=1, max_size=16))
def test_json_round_trip_is_bit_exact(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "round_trip.json"
    serialize.write_json({"values": values, "first": values[0]}, path)
    back = serialize.read_json(path)
    assert np.array_equal(bits(back["values"]), bits(values))
    assert bits(back["first"]) == bits(values[0])


@given(st.lists(finite, min_size=1, max_size=16))
def test_csv_round_trip_is_bit_exact(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    serialize.write_csv(path, ["v"], [np.asarray(values)])
    header, cols = serialize.read_csv(path)
    assert header == ["v"]
    assert np.array_equal(bits(cols[0]), bits(values))


@given(st.sampled_from([math.nan, math.inf, -math.inf]),
       st.sampled_from([float, np.float64, np.float32]))
def test_fmt17_rejects_non_finite(value, kind):
    with pytest.raises(ValueError, match="non-finite"):
        serialize.fmt17(kind(value))


def test_negative_zero_survives_a_json_read(tmp_path):
    path = tmp_path / "zeros.json"
    serialize.write_json({"v": [-0.0, 0.0, -0.0]}, path)
    assert path.read_text().count("-0") == 2
    assert list(np.signbit(serialize.read_json(path)["v"])) == [True, False,
                                                                True]


def test_header_only_csv_reads_as_empty_columns(tmp_path):
    path = tmp_path / "empty.csv"
    serialize.write_csv(path, ["trace_id", "x"],
                        [np.empty(0, dtype=int), np.empty(0)])
    assert path.read_text() == "trace_id,x\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        header, cols = serialize.read_csv(path)
    assert header == ["trace_id", "x"]
    assert [c.dtype for c in cols] == [np.float64, np.float64]
    assert [c.shape for c in cols] == [(0,), (0,)]


@pytest.mark.parametrize("column, error", [
    (np.array([True, False]), TypeError),
    (np.array([1.0, math.nan]), ValueError),
    (np.array([1.0, -math.inf]), ValueError),
    # the only bad value sits in the last block of rows
    (np.r_[np.ones(2 * serialize.CSV_BLOCK), math.nan], ValueError),
])
def test_csv_columns_are_checked_before_any_row(tmp_path, column, error):
    path = tmp_path / "bad.csv"
    with pytest.raises(error):
        serialize.write_csv(path, ["x", "bad"],
                            [np.arange(float(len(column))), column])
    assert not path.exists()


def test_csv_cells_are_fmt17_text(tmp_path):
    values = [np.pi, -0.0, 5e-324, 1e300, 2.0 ** -1074, 0.1, 3.0]
    path = tmp_path / "cells.csv"
    serialize.write_csv(path, ["v", "n"],
                        [np.asarray(values), np.arange(len(values))])
    rows = path.read_text().splitlines()[1:]
    assert rows == ["%s,%d" % (serialize.fmt17(v), i)
                    for i, v in enumerate(values)]


def reference_csv(header, columns):
    """CSV text as written by formatting every cell on its own, row by row."""
    cells = []
    for c in map(np.asarray, columns):
        if np.issubdtype(c.dtype, np.integer):
            cells.append(map(str, c.tolist()))
        else:
            cells.append(map("{:.17g}".format,
                             np.asarray(c, dtype=float).tolist()))
    return (",".join(header) + "\n"
            + "".join(",".join(row) + "\n" for row in zip(*cells)))


# zero, the smallest and largest subnormals, the smallest normal and the
# extreme exponents; the test gives each value both signs
EDGE_VALUES = [0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1e-300, 0.1, 1.0 / 3.0, 1e300, 1.7976931348623157e308]
INT_DTYPES = [np.int64, np.int32, np.uint64]


@settings(max_examples=60, deadline=None)
@given(block=st.sampled_from([1, 2, 5, serialize.CSV_BLOCK]),
       blocks_and_rows=st.sampled_from([(0, 0), (0, 1), (1, -1), (1, 0),
                                        (1, 1), (2, 1)]),
       pool=st.lists(st.one_of(st.sampled_from(EDGE_VALUES), finite),
                     min_size=1, max_size=6),
       n_float=st.integers(1, 3),
       int_dtypes=st.lists(st.sampled_from(INT_DTYPES), max_size=2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_csv_bytes_match_per_cell_formatting(tmp_path_factory, block,
                                             blocks_and_rows, pool, n_float,
                                             int_dtypes, seed):
    # lengths 0, 1, block - 1, block, block + 1 and 2 block + 1; a small
    # pool of magnitudes and their neighbours one ulp down, with random
    # signs, repeats values within a block and across block boundaries
    n = max(0, blocks_and_rows[0] * block + blocks_and_rows[1])
    rng = np.random.default_rng(seed)
    pool = np.r_[pool, np.nextafter(pool, 0.0)]
    columns = []
    for _ in range(n_float):
        mags = pool[rng.integers(len(pool), size=n)]
        columns.append(np.where(rng.random(n) < 0.5, -mags, mags))
    for dt in int_dtypes:
        info = np.iinfo(dt)
        columns.append(rng.integers(info.min, info.max, size=n, dtype=dt,
                                    endpoint=True))
    order = rng.permutation(len(columns))
    columns = [columns[k] for k in order]
    header = ["c%d" % k for k in order]
    path = tmp_path_factory.getbasetemp() / "blocks.csv"
    with mock.patch.object(serialize, "CSV_BLOCK", block):
        serialize.write_csv(path, header, columns)
    assert path.read_text() == reference_csv(header, columns)
