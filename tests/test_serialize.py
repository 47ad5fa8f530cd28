"""Property tests for the 17-digit emission layer.

Every finite double must come back from a written artifact with the same
bit pattern, so -0.0 and subnormals count; non-finite values have no
17-digit form and are refused.
"""

import math
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eulerlab import flows, serialize

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
# int16 keys are too narrow to hold the ranks write_csv puts in their place
INT_DTYPES = [np.int64, np.int32, np.uint64, np.int16]


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


def text_table(column):
    """``(table, index, signed)`` of one column, as ``write_csv`` builds it:
    the column deduplicated, then its distinct keys formatted."""
    keys, index, signed = serialize._dedup(np.asarray(column))
    return serialize._key_text(keys, signed), index, signed


@pytest.mark.parametrize("blocks", [serialize._WORKER_BLOCKS + 1,
                                    serialize._WORKER_BLOCKS + 2])
@pytest.mark.parametrize("tail", [0, 1])
def test_tables_above_the_threshold_go_through_the_worker(tmp_path,
                                                          monkeypatch,
                                                          blocks, tail):
    # an odd and an even count of blocks (the calling thread builds the
    # even ones, the worker the odd ones), with a full or a one-row last
    # block; the worker is joined and its freed pages released once
    block = 16
    n = (blocks - 1) * block + (tail or block)
    rng = np.random.default_rng(blocks + tail)
    mags = rng.choice([0.0, 5e-324, 0.1, 1.0 / 3.0, 1e300, 2.5], size=n)
    columns = [np.where(rng.random(n) < 0.5, -mags, mags),
               rng.integers(-3, 4, size=n), rng.standard_normal(n),
               np.arange(n, dtype=np.uint64)]
    header = ["a", "b", "c", "d"]
    released, before = [], threading.active_count()
    monkeypatch.setattr(serialize, "CSV_BLOCK", block)
    monkeypatch.setattr(serialize, "_release_freed_pages",
                        lambda: released.append(threading.active_count()))
    path = tmp_path / "worker.csv"
    # switch threads as often as the interpreter allows, so the two row
    # buffers are written while the other thread runs
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        serialize.write_csv(path, header, columns)
    finally:
        sys.setswitchinterval(interval)
    assert path.read_text() == reference_csv(header, columns)
    assert released == [before]
    # one block fewer stays on the calling thread, with the same bytes
    short = [c[:serialize._WORKER_BLOCKS * block] for c in columns]
    serialize.write_csv(path, header, short)
    assert path.read_text() == reference_csv(header, short)
    assert released == [before]


def test_an_error_on_the_worker_comes_out_of_write_csv(tmp_path,
                                                       monkeypatch):
    # the float formatter raises on the worker: write_csv raises it before
    # the file is opened, and the worker is gone when it does
    threads, before = [], threading.active_count()

    def broken(keys):
        threads.append(threading.current_thread())
        raise RuntimeError("formatter failed")

    monkeypatch.setattr(serialize, "CSV_BLOCK", 16)
    monkeypatch.setattr(serialize, "_float_text", broken)
    n = 16 * (serialize._WORKER_BLOCKS + 1)
    path = tmp_path / "broken.csv"
    with pytest.raises(RuntimeError, match="formatter failed"):
        serialize.write_csv(path, ["k", "v"],
                            [np.arange(n), np.linspace(0.0, 1.0, n)])
    assert not path.exists()
    assert threading.active_count() == before
    assert threads and threading.main_thread() not in threads


def test_half_plane_table_working_set_is_bounded(saddle_full, tmp_path):
    # the reference half-plane node table as save_flow writes it, in
    # full-grid float arrays: 9.7 with one argsort and uint32 ranks per
    # column, text tables packed in place and rows gathered as np.void
    # cells (12.82 with np.unique's two int64 inverses and text rows 24
    # bytes wide); the bound leaves 13%
    fl = saddle_full[1]
    g = fl.grid
    columns = [*flows._node_table(g), fl.velocity.vx.T, fl.velocity.vy.T,
               fl.pressure.values.T, fl.vorticity.values.T]
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        serialize.write_csv(tmp_path / "flow.csv",
                            ["x", "y", "vx", "vy", "P", "omega"], columns)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak / (g.nx * g.ny * 8) <= 11.0


def test_one_magnitude_with_both_signs_blocks_apart(tmp_path):
    # the column-wide table serves a value and its negation three blocks
    # apart, and -0.0 next to 0.0
    n = 3 * serialize.CSV_BLOCK + 5
    col = np.arange(n) / 7.0
    col[[0, n - 1]] = [np.pi, -np.pi]
    col[[1, n - 2]] = [0.0, -0.0]
    table, index, signed = text_table(col)
    assert signed and len(table) == n - 2
    path = tmp_path / "signs.csv"
    serialize.write_csv(path, ["v", "k"], [col, np.arange(n)])
    assert path.read_text() == reference_csv(["v", "k"], [col, np.arange(n)])
    rows = path.read_text().splitlines()
    assert rows[1:3] == ["3.1415926535897931,0", "0,1"]
    assert rows[-2:] == ["-0,%d" % (n - 2), "-3.1415926535897931,%d" % (n - 1)]


def test_cell_widths_from_one_to_the_widest(tmp_path):
    # "0" is the narrowest text and "-2.2250738585072014e-308" the widest,
    # next to the widest int64 and uint64 texts
    floats = np.array([0.0, -2.2250738585072014e-308, 1.0, -0.5, 5e-324])
    i64 = np.array([0, np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 7])
    u64 = np.array([0, np.iinfo(np.uint64).max, 1, 10, 2 ** 63],
                   dtype=np.uint64)
    columns = [i64, floats, u64, floats[::-1].copy()]
    path = tmp_path / "widths.csv"
    serialize.write_csv(path, ["a", "b", "c", "d"], columns)
    assert path.read_text() == reference_csv(["a", "b", "c", "d"], columns)
    assert path.read_text().splitlines()[2] == (
        "-9223372036854775808,-2.2250738585072014e-308,"
        "18446744073709551615,-0.5")


def test_a_transposed_view_writes_its_c_order(tmp_path):
    rng = np.random.default_rng(3)
    field = np.round(rng.standard_normal((7, 5)), 2)  # (nx, ny)
    paths = [tmp_path / "view.csv", tmp_path / "copy.csv"]
    serialize.write_csv(paths[0], ["v", "n"], [field.T, np.arange(35)])
    serialize.write_csv(paths[1], ["v", "n"], [field.T.ravel(),
                                               np.arange(35)])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def kernel_text(values):
    """The text ``write_csv`` gives each value, checking that every row of
    its text table is the text followed by NULs only."""
    table, index, signed = text_table(np.asarray(values, dtype=float))
    assert signed and table.dtype.kind == "V"
    rows = table.tolist()
    for r in rows:
        text = r.rstrip(b"\0")
        assert b"\0" not in text and len(text) > 0
    assert table.itemsize == max(len(r.rstrip(b"\0")) for r in rows)
    return ["-" * int(i >> 31) + rows[i & 0x7FFFFFFF].rstrip(b"\0").decode()
            for i in index.tolist()]


def neighbours(values, ulps=2):
    """``values`` and their finite neighbours up to ``ulps`` ulps each side."""
    out = [np.asarray(values, dtype=float)]
    for toward in (0.0, np.inf):
        step = out[0]
        for _ in range(ulps):
            with np.errstate(over="ignore"):   # the largest double's
                step = np.nextafter(step, toward)
            out.append(step)
    out = np.concatenate(out)
    return out[np.isfinite(out)]


@settings(max_examples=300, deadline=None)
@given(st.lists(finite, min_size=1, max_size=64))
def test_kernel_text_is_format_17g(values):
    assert kernel_text(values) == ["{:.17g}".format(v) for v in values]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=1e-16, max_value=1e20), min_size=1,
                max_size=256),
       st.sampled_from([1, 3, 64]))
def test_kernel_text_across_blocks(values, block):
    # values where the long-double product is exact and where it is not,
    # split over blocks of a few keys
    with mock.patch.object(serialize, "CSV_BLOCK", block):
        assert kernel_text(values) == ["{:.17g}".format(v) for v in values]


# every power of ten a double reaches, 1e-323 to 1e308, where the decimal
# exponent changes and the first guess of it can be one off
POWERS_OF_TEN = [float("1e%d" % k) for k in range(-323, 309)]
FAMILIES = {
    "powers of ten": neighbours(POWERS_OF_TEN),
    # x 10**(16 - e) ends in exactly one half: a tie, rounded half to even,
    # down to an even last digit or up from an odd one
    "ties": [16.000015258789062, 8.000007629394531, 0.023546218872070312,
             0.0004763603210449219, 1.3113021850585938e-06,
             1.5497207641601562e-06, 1.7881393432617188e-07,
             2.980232238769531e-07, 2.0 ** -25, 8.940696716308594e-08],
    # 17 digits that round up into the next decade
    "carries": neighbours([9.9999999999999999e-05, 99999999999999999.0,
                           0.099999999999999999, 9.9999999999999999e22,
                           9.9999999999999999e-300]),
    "subnormals": neighbours([5e-324, 1e-320, 2.225073858507201e-308,
                              1.2345e-315]),
    "zero": [0.0],
    "edges": neighbours(EDGE_VALUES),
    # outside the exact powers, y = x 10**(16 - e) lies across a
    # half-integer from x 10**(16 - e) itself: the band sends these to
    # format()
    "rounded products": [1.378551e-317, 2.8218410097801e-276,
                         1.5231709793896137e-208, 6.498134491524302e-168,
                         3.3987890803065585e-125, 3.1584966312238785e-71,
                         5.447394294479486e-62, 2.5370339436530752e+47,
                         2.8533478111693098e+59, 6.445407143961869e+142,
                         3.589012988361085e+210, 1.7750631198163622e+252,
                         6.894596735968038e+280],
    # short decimal texts, in fixed and in exponent form
    "short": [1.0, 0.5, 0.25, 100.0, 1e16, 1e17, 1.5e17, 123456.0, 1e-5,
              1.5e-5, 0.0001, 0.00012, 1e22, 1e23, 1e100, 1.25e-100],
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_kernel_text_on_fixed_families(family):
    values = np.asarray(FAMILIES[family], dtype=float)
    values = np.r_[values, -values]
    assert kernel_text(values) == ["{:.17g}".format(v) for v in values]


def test_a_tie_rounds_half_to_even():
    # 2**-25 = 2.98023223876953125e-08 and 3 2**-25 = 8.94069671630859375e-08
    # have 18 significant digits, the last a 5
    assert kernel_text([2.0 ** -25, -(2.0 ** -25), 3 * 2.0 ** -25]) == [
        "2.9802322387695312e-08", "-2.9802322387695312e-08",
        "8.9406967163085938e-08"]
    assert kernel_text([9.9999999999999999e-05, 99999999999999999.0]) == [
        "0.0001", "1e+17"]


FALLBACK_VALUES = np.concatenate([v for v in FAMILIES.values()]
                                 + [np.linspace(-3.0, 7.0, 1001)])


@pytest.mark.parametrize("patch", [
    # every value fails the exactness test and goes through format()
    ("_needs_dtoa", lambda e, dist: np.ones(len(e), bool)),
    # a host without a 64-bit long double: no kernel at all
    ("_digit_tables", lambda: None),
])
def test_the_format_fallback_gives_the_same_bytes(patch):
    want = text_table(FALLBACK_VALUES)
    with mock.patch.object(serialize, *patch):
        got = text_table(FALLBACK_VALUES)
        assert kernel_text(FALLBACK_VALUES) == [
            "{:.17g}".format(v) for v in FALLBACK_VALUES]
    assert got[0].dtype == want[0].dtype
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1]) and got[2] == want[2]


def test_an_exponent_guess_two_off_still_gives_format_text():
    # log10 two too high leaves N below 1e16 after the one retry; those
    # values go through format()
    log10 = np.log10
    values = FAMILIES["short"] + FAMILIES["ties"]
    with mock.patch.object(serialize.np, "log10", lambda x: log10(x) + 2):
        assert kernel_text(values) == ["{:.17g}".format(v) for v in values]


def test_powers_of_ten_are_rounded_to_64_bits():
    if serialize._digit_tables() is None:
        pytest.skip("this long double has no 64-bit mantissa")
    from fractions import Fraction
    for k in range(-350, 351, 7):
        p = Fraction(*serialize._pow10_64(k).as_integer_ratio())
        exact = Fraction(10) ** k
        if 0 <= k <= 27:
            assert p == exact
        # half an ulp of a 64-bit mantissa
        assert abs(p - exact) <= exact * Fraction(1, 2 ** 64)
