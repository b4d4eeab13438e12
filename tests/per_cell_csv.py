"""Reference CSV loader, one Python ``float()`` per kept cell.

:func:`intervalcast.data.load_csv` must return bit-identical values and
the same names, and raise the same error class and text for a faulty
file; the tests compare the two.
"""

from __future__ import annotations

import csv

import numpy as np

from intervalcast.data import TimeSeries
from intervalcast.errors import ConfigError, FormatError, ParseError


def load_csv(path: str, channel_limit: int, domain_max: float) -> TimeSeries:
    if channel_limit < 1:
        raise ConfigError(f"channel_limit must be >= 1, got {channel_limit}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise FormatError(f"{path}: empty file, expected a header row")
        names = tuple(h.strip() for h in header[:channel_limit])
        width = len(header)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise FormatError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {width}"
                )
            parsed = []
            for col, cell in enumerate(row[:channel_limit], start=1):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: row {lineno}, column {col}: "
                        f"cannot parse {cell!r} as a number"
                    ) from None
            rows.append(parsed)
    if not rows:
        raise FormatError(f"{path}: no data rows after the header")
    values = np.array(rows, dtype=np.float64)
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise ParseError(
            f"{path}: row {row + 2}, column {col + 1}: "
            f"non-finite value {values[row, col]!r}"
        )
    return TimeSeries(values, names, domain_max)
