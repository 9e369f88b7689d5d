"""Price ingestion, return math, splits, windows and synthetic data."""
import csv
import io
import math
import pickle
import tracemalloc
from datetime import date as Date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdportfolio.marketdata import (
    DataError,
    PriceTable,
    compute_log_returns,
    load_prices,
    panel_to_prices,
    sample_window,
    synth_dataset,
    time_split,
    write_prices,
)


def write_csv(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


GOOD_CSV = """date,INDEX,AAA,BBB
2020-01-02,100.0,10.0,20.0
2020-01-03,101.0,10.1,19.8
2020-01-06,100.5,10.05,19.9
"""


def test_load_prices_happy_path(tmp_path):
    table = load_prices(write_csv(tmp_path, GOOD_CSV), "INDEX")
    assert table.tickers == ("AAA", "BBB")
    assert table.index_name == "INDEX"
    assert table.n_rows == 3 and table.n_assets == 2
    np.testing.assert_allclose(table.index_prices, [100.0, 101.0, 100.5])
    assert not table.prices.flags.writeable


def test_load_prices_sorts_by_date(tmp_path):
    shuffled = (
        "date,INDEX,AAA,BBB\n"
        "2020-01-06,100.5,10.05,19.9\n"
        "2020-01-02,100.0,10.0,20.0\n"
        "2020-01-03,101.0,10.1,19.8\n"
    )
    table = load_prices(write_csv(tmp_path, shuffled), "INDEX")
    assert [d.isoformat() for d in table.dates] == ["2020-01-02", "2020-01-03", "2020-01-06"]
    np.testing.assert_allclose(table.prices[:, 0], [10.0, 10.1, 10.05])


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("day,INDEX,AAA\n2020-01-02,1,1\n2020-01-03,1,1\n", "must start with a 'date'"),
        ("date,INDEX\n2020-01-02,1\n2020-01-03,1\n", "at least two price columns"),
        ("date,INDEX,AAA,AAA\n2020-01-02,1,1,1\n2020-01-03,1,1,1\n", "duplicate column"),
        (GOOD_CSV, "unknown index column"),
        ("date,INDEX,AAA\n2020-01-02,1,1,9\n", "malformed row 1"),
        ("date,INDEX,AAA\nnot-a-date,1,1\n2020-01-03,1,1\n", "row 1, column date"),
        ("date,INDEX,AAA\n2020-01-02,1,x\n2020-01-03,1,1\n", "row 1, column AAA"),
        ("date,INDEX,AAA\n2020-01-02,1,-3\n2020-01-03,1,1\n", "row 1, column AAA"),
        ("date,INDEX,AAA\n2020-01-02,1,0\n2020-01-03,1,1\n", "row 1, column AAA"),
        ("date,INDEX,AAA\n2020-01-02,1,1\n", "at least two data rows"),
        ("date,INDEX,AAA\n\n\r\n", "at least two data rows"),
        ("date,INDEX,AAA\n2020-01-02,1,1\n2020-01-02,2,2\n", "duplicate date"),
        # row numbers count blank lines; a line of blanks is a record of one field
        ("date,INDEX,AAA\n2020-01-02,1,1\n\n2020-01-03,1,x\n", "row 3, column AAA: invalid number 'x'"),
        ("date,INDEX,AAA\n2020-01-02,1,1\n \n2020-01-03,1,1\n", "malformed row 2: expected 3 fields, got 1"),
        # no comment character, empty, quoted and unfinished cells
        ("date,INDEX,AAA\n2020-01-02,1,1#2\n2020-01-03,1,1\n", "row 1, column AAA: invalid number '1#2'"),
        ("date,INDEX,AAA\n2020-01-02,1,\n2020-01-03,1,1\n", "row 1, column AAA: invalid number ''"),
        ('date,INDEX,AAA\n2020-01-02,1,"1,5"\n2020-01-03,1,1\n', "row 1, column AAA: invalid number '1,5'"),
        # an open quote runs on over the line breaks, as csv.reader reads it
        ('date,INDEX,AAA\n2020-01-02,1,"1\n2020-01-03,1,1\n', r"row 1, column AAA: invalid number '1\\n2020-01-03"),
        ("date,INDEX,AAA\n2020-01-02,1,nan\n2020-01-03,1,1\n", "row 1, column AAA: price must be positive"),
        ("date,INDEX,AAA\n2020-01-02,1,inf\n2020-01-03,1,1\n", "row 1, column AAA: price must be positive"),
        # digit separators and non-ASCII digits are not part of the number grammar
        ("date,INDEX,AAA\n2020-01-02,1,1_000\n2020-01-03,1,1\n", "row 1, column AAA: invalid number '1_000'"),
        ("date,INDEX,AAA\n2020-01-02,1,\uff17\n2020-01-03,1,1\n", "row 1, column AAA: invalid number '\uff17'"),
        # of several faults, the first in row-major order is named
        ("date,INDEX,AAA\n2020-01-02,-1,x\n2020-01-03,1,1\n", "row 1, column INDEX: price must be positive"),
        ("date,INDEX,AAA\n2020-01-02,1,x\nnot-a-date,1,1\n", "row 1, column AAA: invalid number"),
        ("date,INDEX,AAA\n2020-01-02,1,0\n2020-01-03,1\n", "row 1, column AAA: price must be positive"),
        ("date,INDEX,AAA\n2020-01-02,1,x\n", "row 1, column AAA: invalid number"),
        # a field longer than csv.field_size_limit(): in the header, or quoted in a faulty file
        pytest.param("date,INDEX," + "A" * 140000 + "\n2020-01-02,1,1\n2020-01-03,1,1\n",
                     "header: field larger than field limit", id="long_header_field"),
        pytest.param('date,INDEX,AAA\n2020-01-02,1,"' + "1" * 140000 + '"\n2020-01-03,1,1\n',
                     "row 1: field larger than field limit", id="long_quoted_cell"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_load_prices_rejects_bad_input(tmp_path, text, fragment):
    index = "NOPE" if fragment.startswith("unknown") else "INDEX"
    with pytest.raises(DataError, match=fragment):
        load_prices(write_csv(tmp_path, text), index)


@pytest.mark.parametrize(
    "text",
    [
        GOOD_CSV.replace("\n", "\r\n"),
        GOOD_CSV.replace("\n", "\r"),
        GOOD_CSV.rstrip("\n"),
        GOOD_CSV.replace("10.0,", '"10.0",').replace("2020-01-03", '"2020-01-03"'),
        GOOD_CSV.replace("10.1,", " 10.1 ,").replace("19.9", "\t19.9 "),
        GOOD_CSV.replace("\n2020-01-03", "\n\n\r\n2020-01-03") + "\n",
        # \x0c and \x85 end a line for str.splitlines, not for csv.reader
        GOOD_CSV.replace("20.0\n", "20.0\x0c\n").replace("19.8\n", "19.8\x85\n"),
        # a quoted cell may hold a line break; a quote left open on the last line ends with the file
        GOOD_CSV.replace(",10.0,", ',"10.0\n",').replace(",10.1,", ',"\r\n10.1",'),
        GOOD_CSV.replace(",19.9\n", ',"19.9\n'),
        GOOD_CSV.replace(",19.9\n", ',"19.9'),
    ],
    ids=["crlf", "cr", "no_final_newline", "quoted", "blanks", "blank_lines", "not_line_breaks",
         "quoted_line_breaks", "open_quote_at_end", "open_quote_at_end_no_newline"],
)
def test_load_prices_reads_the_csv_dialect(tmp_path, text):
    path = tmp_path / "prices.csv"
    path.write_bytes(text.encode())
    table = load_prices(path, "INDEX")
    expected = load_prices(write_csv(tmp_path, GOOD_CSV, "good.csv"), "INDEX")
    assert table.dates == expected.dates
    np.testing.assert_array_equal(table.prices, expected.prices)
    np.testing.assert_array_equal(table.index_prices, expected.index_prices)


def _reference_load_prices(path, index_column):
    """The cell-by-cell csv.reader and float() parser that load_prices replaced."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        header = [h.strip() for h in header]
        if not header or header[0] != "date":
            raise DataError("header must start with a 'date' column")
        columns = header[1:]
        if index_column not in columns:
            raise DataError(f"unknown index column {index_column!r}")
        rows = []
        for r, fields in enumerate(reader, start=1):
            if not fields:
                continue
            if len(fields) != len(header):
                raise DataError(f"malformed row {r}: expected {len(header)} fields, got {len(fields)}")
            try:
                day = Date.fromisoformat(fields[0].strip())
            except ValueError:
                raise DataError(f"row {r}, column date: invalid ISO-8601 date {fields[0]!r}") from None
            values = []
            for name, raw in zip(columns, fields[1:]):
                try:
                    price = float(raw)
                except ValueError:
                    raise DataError(f"row {r}, column {name}: invalid number {raw!r}") from None
                if not math.isfinite(price) or price <= 0:
                    raise DataError(f"row {r}, column {name}: price must be positive and finite")
                values.append(price)
            rows.append((day, values))
    if len(rows) < 2:
        raise DataError("need at least two data rows")
    rows.sort(key=lambda item: item[0])
    for (a, _), (b, _) in zip(rows, rows[1:]):
        if a == b:
            raise DataError(f"duplicate date {a.isoformat()}")
    matrix = np.array([vals for _, vals in rows], dtype=np.float64)
    return tuple(day for day, _ in rows), matrix[:, 1:], matrix[:, 0]


def _outcome(load, path):
    try:
        result = load(path, "INDEX")
    except DataError as e:
        return str(e)
    if not isinstance(result, tuple):
        result = (result.dates, result.prices, result.index_prices)
    dates, prices, index_prices = result
    return dates, prices.tobytes(), index_prices.tobytes()


# Cells on which csv.reader with float() and the new reader agree by design: no
# digit separators and no non-ASCII digits.  An open quote ('"1') runs on into
# the next lines.  Good cells and dates are repeated so that a fair share of the
# files load.
_GOOD_CELLS = ["1", "2.5", "10.25", " 3 ", "\t4", "1e3", ".5", "5.", "+7", "1E-2", '"1.5"', '"1"2', "\x0c6"]
_CELLS = st.sampled_from(_GOOD_CELLS * 20 + [
    "0", "-1", "x", "", "nan", "inf", "-inf", "1e400", "1e-400", "1#2", "1 2", '"1,5"', '"1""2"',
    '1"2"', ' "1"', '"x"', '"1', '"',
])


@st.composite
def price_lines(draw):
    """One data line: mostly a record of the header's width, sometimes a misfit or a blank."""
    kind = draw(st.sampled_from(["record"] * 12 + ["misfit", "blank", "blank"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\x0c"]))
    day = draw(st.dates(Date(2020, 1, 1), Date(2020, 12, 31))).isoformat()
    day = draw(st.sampled_from([day] * 30 + [f" {day} ", f'"{day}"', day.replace("-", ""), "2020-02-30", "x", ""]))
    width = 3 if kind == "record" else draw(st.sampled_from([1, 2, 4]))
    return ",".join([day, *draw(st.lists(_CELLS, min_size=width, max_size=width))])


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(st.tuples(price_lines(), st.sampled_from(["\n", "\r\n", "\r"])), max_size=5),
    final_break=st.booleans(),
)
def test_load_prices_matches_the_reference_parser(tmp_path_factory, lines, final_break):
    text = "date,INDEX,AAA,BBB\n" + "".join(line + end for line, end in lines)
    if lines and not final_break:
        text = text[: -len(lines[-1][1])]
    path = tmp_path_factory.mktemp("csv") / "prices.csv"
    path.write_bytes(text.encode())
    assert _outcome(load_prices, path) == _outcome(_reference_load_prices, path)


_POSITIVE = st.floats(min_value=5e-324, max_value=1.7e308, allow_nan=False, allow_infinity=False)


@st.composite
def decimal_strings(draw):
    """A positive decimal in one of the forms price files hold."""
    form = draw(st.sampled_from(["repr", "e", "f", "digits"]))
    if form == "repr":
        return repr(draw(_POSITIVE))
    if form == "e":
        return f"{draw(_POSITIVE):.{draw(st.integers(0, 40))}e}"
    if form == "f":
        return f"{draw(st.floats(1e-6, 1e22)):.{draw(st.integers(0, 30))}f}"
    # long mantissas and exponents down to the subnormal range
    mantissa = draw(st.text("0123456789", min_size=1, max_size=40))
    point = draw(st.integers(0, len(mantissa)))
    exponent = draw(st.one_of(st.integers(-345, -280), st.integers(-30, 30), st.integers(280, 308)))
    return f"{mantissa[:point]}.{mantissa[point:]}e{exponent}"


@settings(max_examples=200, deadline=None)
@given(cells=st.lists(decimal_strings().filter(lambda s: 0 < float(s) < math.inf), min_size=2, max_size=12))
def test_load_prices_converts_decimals_as_float_does(tmp_path_factory, cells):
    values = [float(cell) for cell in cells]
    names = [f"C{j}" for j in range(len(cells))]
    path = tmp_path_factory.mktemp("csv") / "prices.csv"
    path.write_text(
        f"date,{','.join(names)}\n2020-01-02,{','.join(cells)}\n2020-01-03,{','.join(['1'] * len(cells))}\n"
    )
    table = load_prices(path, "C0")
    got = np.concatenate([table.index_prices[:1], table.prices[0]])
    assert got.tobytes() == np.array(values, dtype=np.float64).tobytes()


def test_load_prices_missing_file(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        load_prices(tmp_path / "absent.csv", "INDEX")


def test_write_then_load_round_trips_exactly(tmp_path):
    table = load_prices(write_csv(tmp_path, GOOD_CSV), "INDEX")
    out = tmp_path / "copy.csv"
    write_prices(table, out)
    again = load_prices(out, "INDEX")
    assert again.dates == table.dates
    assert again.tickers == table.tickers
    np.testing.assert_array_equal(again.prices, table.prices)
    np.testing.assert_array_equal(again.index_prices, table.index_prices)


FIXTURE_PRICES = Path(__file__).parent / "data" / "checkpoint_v1" / "prices.csv"


def _reference_write_prices(table):
    """The writer `write_prices` replaced, one `csv.writer` row per date, kept as its oracle."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["date", table.index_name, *table.tickers])
    for i, day in enumerate(table.dates):
        writer.writerow(
            [day.isoformat(), repr(float(table.index_prices[i]))]
            + [repr(float(v)) for v in table.prices[i]]
        )
    return buffer.getvalue()


def test_write_prices_reproduces_the_fixture_byte_for_byte(tmp_path):
    out = tmp_path / "prices.csv"
    write_prices(load_prices(FIXTURE_PRICES, "INDEX"), out)
    assert out.read_bytes() == FIXTURE_PRICES.read_bytes()


def test_write_prices_equals_the_csv_writer_loop_at_repr_edges(tmp_path):
    edges = [5e-324, 1e-05, 0.0001, 1e16, 1.7976931348623157e308]
    table = PriceTable(
        dates=(Date(2020, 1, 2), Date(2020, 1, 3), Date(2020, 1, 6)),
        tickers=("A,1", 'B"2', "plain"),
        prices=np.array([edges[:3], edges[2:], [0.1, 100.0, 2.5]]),
        index_name="IDX",
        index_prices=np.array([edges[0], edges[-1], 123.456]),
    )
    out = tmp_path / "prices.csv"
    write_prices(table, out)
    assert out.read_bytes() == _reference_write_prices(table).encode("utf-8")
    again = load_prices(out, "IDX")
    assert again.dates == table.dates and again.tickers == table.tickers
    assert again.prices.tobytes() == table.prices.tobytes()
    assert again.index_prices.tobytes() == table.index_prices.tobytes()


def _traced_rise(call) -> int:
    """Bytes that `call()` allocates at its peak above what it started with, by tracemalloc."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _wide_prices(tmp_path):
    """A 60-asset, 1,500-day table written as a price CSV (about 1.7 MB)."""
    panel, _ = synth_dataset(n_assets=60, n_days=1499, k_sparse=5, noise_scale=0.002, seed=4)
    table = panel_to_prices(panel, index_name="INDEX")
    path = tmp_path / "wide.csv"
    write_prices(table, path)
    return table, path


def test_write_prices_holds_no_more_than_a_row_of_text(tmp_path):
    table, path = _wide_prices(tmp_path)
    rise = _traced_rise(lambda: write_prices(table, path))
    assert rise < 0.25 * path.stat().st_size


def test_load_prices_holds_no_line_of_text_it_has_parsed(tmp_path):
    _, path = _wide_prices(tmp_path)
    text = path.read_text()
    padded = tmp_path / "padded.csv"
    padded.write_text(text.replace(",", "," + " " * 48), newline="")  # blanks the dialect ignores
    added = padded.stat().st_size - path.stat().st_size
    loaded = []
    rise = _traced_rise(lambda: loaded.append(load_prices(path, "INDEX")))
    padded_rise = _traced_rise(lambda: loaded.append(load_prices(padded, "INDEX")))
    assert loaded[0].prices.tobytes() == loaded[1].prices.tobytes()
    assert padded_rise - rise < 0.1 * added


def test_compute_log_returns_oracle(tmp_path):
    table = load_prices(write_csv(tmp_path, GOOD_CSV), "INDEX")
    panel = compute_log_returns(table)
    assert panel.n_rows == 2
    assert panel.dates[0].isoformat() == "2020-01-03"
    assert panel.returns[0, 0] == pytest.approx(math.log(10.1 / 10.0), abs=1e-15)
    assert panel.index_returns[1] == pytest.approx(math.log(100.5 / 101.0), abs=1e-15)


def test_panel_to_prices_inverts_log_returns():
    panel, _ = synth_dataset(n_assets=5, n_days=30, k_sparse=2, noise_scale=0.0, seed=3)
    table = panel_to_prices(panel, index_name="IDX")
    back = compute_log_returns(table)
    np.testing.assert_allclose(back.returns, panel.returns, atol=1e-12)
    np.testing.assert_allclose(back.index_returns, panel.index_returns, atol=1e-12)
    assert back.dates == panel.dates


def test_time_split_floor_and_boundaries():
    panel, _ = synth_dataset(n_assets=4, n_days=10, k_sparse=2, noise_scale=0.0, seed=0)
    split = time_split(panel, 0.8)
    assert split.train.n_rows == 8 and split.validation.n_rows == 2
    np.testing.assert_array_equal(
        np.vstack([split.train.returns, split.validation.returns]), panel.returns
    )
    with pytest.raises(DataError):
        time_split(panel, 0.05)   # empty training side
    with pytest.raises(DataError):
        time_split(panel, 1.0)
    with pytest.raises(DataError):
        time_split(panel, 0.0)


def test_sample_window_bounds_and_golden_sequence():
    panel, _ = synth_dataset(n_assets=4, n_days=101, k_sparse=2, noise_scale=0.0, seed=11)
    assert panel.n_rows == 101
    rng = np.random.default_rng(7)
    starts = [panel.dates.index(sample_window(panel, 60, rng).dates[0]) for _ in range(4)]
    # frozen draw for rows=101, length=60, default_rng(7)
    assert starts == [39, 26, 28, 37]
    w = sample_window(panel, 60, np.random.default_rng(7))
    np.testing.assert_array_equal(w.returns, panel.returns[39:99])
    np.testing.assert_array_equal(w.index_returns, panel.index_returns[39:99])
    assert w.dates == panel.dates[39:99] and w.tickers == panel.tickers
    full = sample_window(panel, 101, np.random.default_rng(0))
    assert full.dates == panel.dates
    with pytest.raises(DataError):
        sample_window(panel, 102, np.random.default_rng(0))
    with pytest.raises(DataError):
        sample_window(panel, 1, np.random.default_rng(0))


def test_synth_dataset_construction():
    panel, weights = synth_dataset(n_assets=30, n_days=200, k_sparse=4, noise_scale=0.0, seed=21)
    assert panel.returns.shape == (200, 30)
    assert np.count_nonzero(weights) == 4
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    support_weights = weights[weights > 0]
    np.testing.assert_allclose(support_weights, 0.25)
    # noise-free index is exactly the weighted basket
    np.testing.assert_allclose(panel.index_returns, panel.returns @ weights, atol=1e-15)


def test_synth_dataset_noise_scale():
    clean, w1 = synth_dataset(n_assets=10, n_days=300, k_sparse=3, noise_scale=0.0, seed=5)
    noisy, w2 = synth_dataset(n_assets=10, n_days=300, k_sparse=3, noise_scale=0.002, seed=5)
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(clean.returns, noisy.returns)
    residual = noisy.index_returns - noisy.returns @ w2
    assert residual.std() == pytest.approx(0.002, rel=0.2)


def test_synth_dataset_determinism_and_validation():
    a, wa = synth_dataset(n_assets=6, n_days=50, k_sparse=2, noise_scale=0.001, seed=9)
    b, wb = synth_dataset(n_assets=6, n_days=50, k_sparse=2, noise_scale=0.001, seed=9)
    np.testing.assert_array_equal(a.returns, b.returns)
    np.testing.assert_array_equal(a.index_returns, b.index_returns)
    np.testing.assert_array_equal(wa, wb)
    with pytest.raises(DataError):
        synth_dataset(n_assets=1, n_days=50, k_sparse=1, noise_scale=0.0, seed=0)
    with pytest.raises(DataError):
        synth_dataset(n_assets=5, n_days=50, k_sparse=6, noise_scale=0.0, seed=0)
    with pytest.raises(DataError):
        synth_dataset(n_assets=5, n_days=50, k_sparse=2, noise_scale=-0.1, seed=0)
    with pytest.raises(DataError, match="noise scale"):
        synth_dataset(n_assets=5, n_days=50, k_sparse=2, noise_scale=math.nan, seed=0)


def test_panels_are_immutable():
    panel, _ = synth_dataset(n_assets=4, n_days=20, k_sparse=2, noise_scale=0.0, seed=1)
    with pytest.raises(ValueError):
        panel.returns[0, 0] = 9.9
    with pytest.raises(ValueError):
        panel.index_returns[0] = 9.9


def test_pickled_tables_come_back_frozen_and_checked():
    # compare_optimizers pickles its data to every worker process
    panel, _ = synth_dataset(n_assets=4, n_days=20, k_sparse=2, noise_scale=0.001, seed=1)
    split = pickle.loads(pickle.dumps(time_split(panel, 0.8)))
    prices = pickle.loads(pickle.dumps(panel_to_prices(panel, index_name="INDEX")))
    for arr in (split.train.returns, split.validation.index_returns,
                prices.prices, prices.index_prices):
        assert not arr.flags.writeable
    np.testing.assert_array_equal(split.train.returns, panel.returns[:split.train.n_rows])
    original = panel_to_prices(panel, index_name="INDEX")
    assert (prices.dates, prices.tickers, prices.index_name) == (
        original.dates, original.tickers, original.index_name)
    np.testing.assert_array_equal(prices.prices, original.prices)
    # unpickling runs the constructor's checks
    smuggled = panel.returns.copy()
    smuggled[0, 0] = math.nan
    object.__setattr__(panel, "returns", smuggled)
    data = pickle.dumps(panel)
    with pytest.raises(DataError, match="finite"):
        pickle.loads(data)
