"""``load_csv`` against the per-cell reference loader in ``per_cell_csv``.

Values must be bitwise equal, sign of zero included, and a faulty file must
raise the same error class with the same text. The one deliberate
difference: cells that Python's ``float()`` accepts but numpy's reader
does not (digit underscores, non-ASCII digits) are rejected.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from intervalcast import load_csv
from intervalcast.errors import DataError, FormatError, ParseError

import per_cell_csv


def _write(tmp_path, text: str):
    path = tmp_path / "series.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


def _outcome(load, path: str, channel_limit: int):
    try:
        series = load(path, channel_limit, 1.0)
    except DataError as err:
        return type(err), str(err)
    return series.values, series.channel_names


def _assert_same_as_reference(path: str, channel_limit: int):
    """The series ``load_csv`` returns, after checking it against the reference."""
    series = load_csv(path, channel_limit, 1.0)
    ref = per_cell_csv.load_csv(path, channel_limit, 1.0)
    assert series.channel_names == ref.channel_names
    assert series.values.shape == ref.values.shape
    assert series.values.tobytes() == ref.values.tobytes()
    assert np.array_equal(np.signbit(series.values), np.signbit(ref.values))
    return series


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(finite, min_size=n, max_size=n), min_size=1, max_size=12)
))
def test_repr_written_floats_are_bitwise_equal(tmp_path, rows):
    lines = [",".join(f"c{j}" for j in range(len(rows[0])))]
    lines += [",".join(repr(v) for v in row) for row in rows]
    path = _write(tmp_path, "\n".join(lines) + "\n")
    series = _assert_same_as_reference(path, channel_limit=len(rows[0]))
    assert series.values.tobytes() == np.array(rows, dtype=np.float64).tobytes()


EXTREMES = [
    "-0.0", "5e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
    "0.12345678901234567890123", "3.14159265358979323846264338327950288",
    "-9007199254740993.000000000000001", "1.00000000000000011102230246251565404",
]


def test_extreme_and_long_decimals_are_bitwise_equal(tmp_path):
    path = _write(tmp_path, "a,b\n" + "".join(f"{v},{v}\n" for v in EXTREMES))
    series = _assert_same_as_reference(path, channel_limit=2)
    assert math.copysign(1.0, series.values[0, 0]) == -1.0
    assert series.values[1, 0] == 5e-324


@pytest.mark.parametrize("text", [
    "a,b\n+1,+2.5\n-3,+0\n",
    "a,b\n 1 , 2.5 \n\t3,4\t\n",
    '"a","b"\n"1","2.5"\n3,"4"\n',
    "a,b\r\n1,2.5\r\n3,4\r\n",
    '" a ","b,c"\n1,2\n',
])
def test_signs_padding_quotes_and_crlf(tmp_path, text):
    _assert_same_as_reference(_write(tmp_path, text), channel_limit=2)


def test_text_column_past_channel_limit_is_not_parsed(tmp_path):
    path = _write(tmp_path, "load,note\n0.5,idle\n0.75,\"busy, peak\"\n1,x\n")
    series = _assert_same_as_reference(path, channel_limit=1)
    assert series.channel_names == ("load",)
    assert np.array_equal(series.values[:, 0], [0.5, 0.75, 1.0])


@pytest.mark.parametrize("text, cls, where", [
    ("a,b\n1,2\n3,abc\n", ParseError, "row 3, column 2"),
    ("a,b\n1,2\n3,\n", ParseError, "row 3, column 2"),
    ("a,b\n1,2\n3\n", FormatError, "row 3 has 1 cells, expected 2"),
    ("a,b\n1,2\n3,4,5\n4,5\n", FormatError, "row 3 has 3 cells, expected 2"),
    ("a,b,c\n1,2,3\n4,5,6,7\n", FormatError, "row 3 has 4 cells, expected 3"),
    ("a,b\n1,2\n\n3,4\n", FormatError, "row 3 has 0 cells, expected 2"),
    ("a,b\n1,2\n3,4\n\n", FormatError, "row 4 has 0 cells, expected 2"),
    ("a\n1\n\n3\n", FormatError, "row 3 has 0 cells, expected 1"),
    ("a,b\n1,2\n3,nan\n", ParseError, "row 3, column 2: non-finite value"),
    ("a,b\n1,2\n-inf,4\n", ParseError, "row 3, column 1: non-finite value"),
    ("a,b\n1,2\n3,1e309\n", ParseError, "row 3, column 2: non-finite value"),
    ("a,b\n", FormatError, "no data rows after the header"),
    ("", FormatError, "empty file"),
])
def test_faults_match_the_reference(tmp_path, text, cls, where):
    path = _write(tmp_path, text)
    new = _outcome(load_csv, path, 2)
    assert new == _outcome(per_cell_csv.load_csv, path, 2)
    assert new[0] is cls and new[1].startswith(path + ": ") and where in new[1]


@pytest.mark.parametrize("text", ["\n1,2\n", "\n\n"])
def test_blank_header_row_is_rejected(tmp_path, text):
    # the per-cell reference reads a blank first line as a header of no
    # columns and fails later, on a row width or on the (0, 0) series
    path = _write(tmp_path, text)
    with pytest.raises(FormatError) as err:
        load_csv(path, 2, 1.0)
    assert str(err.value) == f"{path}: the header row (row 1) is empty"


@pytest.mark.parametrize("row", ["4,5", '4,"5,6"'])
def test_short_row_hidden_from_the_kept_columns_is_rejected(tmp_path, row):
    # the kept column is present in every row, so only the width check sees
    # it; in the quoted row the comma count is right and the cell count is not
    path = _write(tmp_path, f"a,b,c\n1,2,3\n{row}\n")
    assert _outcome(load_csv, path, 1) == _outcome(per_cell_csv.load_csv, path, 1)
    with pytest.raises(FormatError, match="row 3 has 2 cells, expected 3"):
        load_csv(path, 1, 1.0)


def test_first_fault_in_row_order_wins(tmp_path):
    # a parse error after a non-finite cell is reported first, as before
    path = _write(tmp_path, "a,b\nnan,2\n1,x\n")
    assert _outcome(load_csv, path, 2) == _outcome(per_cell_csv.load_csv, path, 2)
    with pytest.raises(ParseError, match="row 3, column 2: cannot parse 'x'"):
        load_csv(path, 2, 1.0)


@pytest.mark.parametrize("cell", ["1_000", "١"])
def test_cells_only_float_accepts_are_rejected(tmp_path, cell):
    # Python's float() reads digit underscores and non-ASCII digits; numpy's
    # reader does not, and load_csv no longer accepts them
    path = _write(tmp_path, f"a,b\n1,2\n{cell},4\n")
    assert per_cell_csv.load_csv(path, 2, 1.0).values[1, 0] in (1000.0, 1.0)
    with pytest.raises(ParseError) as err:
        load_csv(path, 2, 1.0)
    assert str(err.value).startswith(path + ": cannot parse the data rows as numbers")
    assert repr(cell) in str(err.value)
