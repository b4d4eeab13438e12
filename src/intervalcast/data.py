"""Time-series containers, windowing, splits, normalization, CSV I/O.

Also holds the synthetic benchmark trace generator: blocks of a fixed
sinusoidal input segment followed by one of four level-shifted sinusoidal
output segments, optionally corrupted by Gaussian noise.

:func:`write_csv` writes a series as :func:`load_csv` reads it, and
:func:`write_rows` writes every result file with one cell rule.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError, FormatError, ParseError, SplitError

SYNTH_LENGTH = 3100
SYNTH_SEGMENT = 24  # timesteps per input segment and per output segment
SYNTH_CLASSES = 4   # output-segment level shifts k in {0, 1, 2, 3}
SYNTH_NOISE_SD = 0.05


@dataclass(eq=False)
class TimeSeries:
    """A T x n real-valued series with channel names and a domain maximum.

    ``values`` is made read-only on construction; downstream code shares
    views of it freely.
    """

    values: np.ndarray
    channel_names: tuple[str, ...]
    domain_max: float

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise DataError(f"series must be a T x n array with T,n >= 1, got shape {v.shape}")
        names = tuple(str(c) for c in self.channel_names)
        if len(names) != v.shape[1]:
            raise DataError(
                f"{len(names)} channel names for {v.shape[1]} columns"
            )
        v.setflags(write=False)
        self.values = v
        self.channel_names = names
        self.domain_max = float(self.domain_max)

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window extraction parameters."""

    w: int
    tau: int
    stride: int = 1

    def __post_init__(self):
        if self.w < 1 or self.tau < 1 or self.stride < 1:
            raise ConfigError(
                f"window config needs w, tau, stride >= 1, got "
                f"w={self.w}, tau={self.tau}, stride={self.stride}"
            )


@dataclass(frozen=True)
class Windows:
    """Supervised pairs as aligned arrays: histories, targets and their origins.

    ``history`` is (N, w, n), ``target`` (N, tau, n) and ``t_origin`` (N,);
    row k's origin is the index of its first target timestep, so its history
    covers rows [t_origin[k] - w, t_origin[k] - 1] of the source series.
    Indexing takes the same rows of all three: an integer gives one window
    (a (w, n) history, a (tau, n) target, a scalar origin), and a slice,
    mask or index array the aligned subset.
    """

    history: np.ndarray
    target: np.ndarray
    t_origin: np.ndarray

    def __post_init__(self):
        h, t, o = len(self.history), len(self.target), np.size(self.t_origin)
        if np.ndim(self.t_origin) and not h == t == o:
            raise DataError(f"misaligned windows: {h} histories, {t} targets, {o} origins")

    def __len__(self) -> int:
        return len(self.t_origin)

    def __getitem__(self, key) -> "Windows":
        return Windows(self.history[key], self.target[key], self.t_origin[key])


@dataclass(frozen=True)
class SplitSpec:
    """Chronological train/val/test fractions; must sum to 1."""

    train_frac: float
    val_frac: float
    test_frac: float

    def __post_init__(self):
        for name, f in (
            ("train_frac", self.train_frac),
            ("val_frac", self.val_frac),
            ("test_frac", self.test_frac),
        ):
            if not (0.0 < f < 1.0):
                raise ConfigError(f"{name} must be in (0, 1), got {f}")
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"split fractions must sum to 1, got {total}")


@dataclass(frozen=True)
class ScaleRecord:
    """What :func:`normalize` did to the data: the count of clipped entries."""

    clipped_entries: int


def make_windows(series: TimeSeries, cfg: WindowConfig) -> Windows:
    """All (history, target) pairs at origins w, w+stride, ..., as views of the series.

    The number of windows is floor((T - w - tau) / stride) + 1. No window
    is copied: history and target are both slices of one strided view of
    ``w + tau`` consecutive rows.
    """
    if series.T < cfg.w + cfg.tau:
        raise DataError(
            f"series length {series.T} is shorter than w + tau = {cfg.w + cfg.tau}"
        )
    spans = np.lib.stride_tricks.sliding_window_view(
        series.values, cfg.w + cfg.tau, axis=0
    ).swapaxes(1, 2)[:: cfg.stride]  # (N, w + tau, n)
    origins = np.arange(cfg.w, series.T - cfg.tau + 1, cfg.stride)
    return Windows(spans[:, : cfg.w], spans[:, cfg.w :], origins)


def chrono_split(samples: Windows, spec: SplitSpec) -> tuple[Windows, Windows, Windows]:
    """Contiguous chronological partition of ``samples``, which are in origin order.

    Subset sizes are floors of fraction x total with the remainder assigned
    to test. Any empty subset is an error (early stopping needs validation
    data and evaluation needs test data). The parts are views of ``samples``.
    """
    total = len(samples)
    if total == 0:
        raise DataError("cannot split an empty sample list")
    if np.any(np.diff(samples.t_origin) < 0):
        raise DataError("windows to split must be in ascending origin order")
    n_train = int(spec.train_frac * total)
    n_val = int(spec.val_frac * total)
    n_test = total - n_train - n_val
    if n_train == 0 or n_val == 0 or n_test == 0:
        raise SplitError(
            f"split of {total} samples yields sizes "
            f"{n_train}/{n_val}/{n_test}; every subset must be non-empty"
        )
    return (
        samples[:n_train],
        samples[n_train : n_train + n_val],
        samples[n_train + n_val :],
    )


def split_windows(
    series: TimeSeries, cfg: WindowConfig, spec: SplitSpec
) -> tuple[Windows, Windows, Windows, TimeSeries]:
    """The train, validation and test windows of ``series``, and the test span.

    The windows are :func:`chrono_split` of :func:`make_windows`. The test
    span is the sub-series from the first test window's history to the last
    test window's target: the series that rolling evaluation rolls over.
    """
    train, val, test = chrono_split(make_windows(series, cfg), spec)
    values = series.values[test.t_origin[0] - cfg.w : test.t_origin[-1] + cfg.tau]
    return train, val, test, TimeSeries(values, series.channel_names, series.domain_max)


def normalize(series: TimeSeries) -> tuple[TimeSeries, ScaleRecord]:
    """Divide by ``domain_max`` and clip to [0, 1]; clips are counted."""
    # written so that NaN, which fails every comparison, is rejected too
    if not (0.0 < series.domain_max < math.inf):
        raise ConfigError(f"domain_max must be positive and finite, got {series.domain_max}")
    scaled = series.values / series.domain_max
    clipped = int(np.count_nonzero((scaled < 0.0) | (scaled > 1.0)))
    out = TimeSeries(np.clip(scaled, 0.0, 1.0), series.channel_names, 1.0)
    return out, ScaleRecord(clipped)


def synth_hypothesis(k: int) -> np.ndarray:
    """The k-th noise-free output segment, values (sin(pi*n/48 + pi/2) + k)/4."""
    n = np.arange(1, SYNTH_SEGMENT + 1, dtype=np.float64)
    return (np.sin(np.pi * n / (2 * SYNTH_SEGMENT) + np.pi / 2) + k) / 4.0


def synth_input_segment() -> np.ndarray:
    """The fixed input segment, values sin(pi*n/48) for n = 1..24."""
    n = np.arange(1, SYNTH_SEGMENT + 1, dtype=np.float64)
    return np.sin(np.pi * n / (2 * SYNTH_SEGMENT))


def generate_synthds(seed: int, noise_sd: float = SYNTH_NOISE_SD) -> TimeSeries:
    """The univariate synthetic trace of length 3100.

    Blocks of 48 steps (input segment then output segment with a level
    shift k drawn uniformly from {0,1,2,3} per block) are concatenated and
    the final block truncated to reach the exact length. Gaussian noise
    with mean ``noise_sd`` and standard deviation ``noise_sd`` is added
    element-wise to the whole trace. Deterministic for a given seed.
    """
    # written so that NaN, which fails every comparison, is rejected too
    if not (0.0 <= noise_sd < math.inf):
        raise ConfigError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    rng = np.random.default_rng(seed)
    input_seg = synth_input_segment()
    blocks = np.stack([np.concatenate([input_seg, synth_hypothesis(k)])
                       for k in range(SYNTH_CLASSES)])
    count = -(-SYNTH_LENGTH // blocks.shape[1])
    trace = blocks[rng.integers(0, SYNTH_CLASSES, size=count)].ravel()[:SYNTH_LENGTH]
    if noise_sd > 0:
        trace = trace + rng.normal(noise_sd, noise_sd, size=trace.size)
    return TimeSeries(trace.reshape(-1, 1), ("synth",), 1.0)


def load_csv(path: str, channel_limit: int, domain_max: float) -> TimeSeries:
    """Read a header-plus-numeric-rows CSV, keeping the first ``channel_limit`` columns.

    Rows are treated as consecutive timesteps in file order. Ragged rows,
    blank lines, unparseable cells and non-finite values (nan, inf) are
    rejected with their location; nothing is imputed.

    Every value comes from one ``np.loadtxt`` call over the kept columns.
    That reader skips blank lines and, given ``usecols``, does not check row
    widths, so a scan first counts the data lines and flags any line whose
    comma count is off or that holds a quote. When the scan or the reader
    finds anything, :func:`_raise_first_fault` walks the rows to name the
    fault; if it finds none, the reader's values stand.
    """
    if channel_limit < 1:
        raise ConfigError(f"channel_limit must be >= 1, got {channel_limit}")
    with open(path, encoding="utf-8") as fh:
        header = next(csv.reader(iter(fh.readline, "")), None)
        if header is None:
            raise FormatError(f"{path}: empty file, expected a header row")
        if not header:
            raise FormatError(f"{path}: the header row (row 1) is empty")
        names = tuple(h.strip() for h in header[:channel_limit])
        width = len(header)
        body = fh.tell()
        lines, suspect = 0, False
        for line in fh:
            lines += 1
            suspect = suspect or '"' in line or line.count(",") != width - 1
        if not lines:
            raise FormatError(f"{path}: no data rows after the header")
        fh.seek(body)
        try:
            with warnings.catch_warnings():
                # a body of blank lines only; the row count below rejects it
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(
                    fh, dtype=np.float64, delimiter=",", quotechar='"', comments=None,
                    usecols=range(min(channel_limit, width)), ndmin=2,
                )
        except ValueError as exc:
            values, failure = None, exc
    if values is None or suspect or len(values) != lines:
        _raise_first_fault(path, channel_limit)
        if values is None:
            raise ParseError(f"{path}: cannot parse the data rows as numbers (numpy: {failure})")
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise ParseError(
            f"{path}: row {row + 2}, column {col + 1}: "
            f"non-finite value {values[row, col]!r}"
        )
    return TimeSeries(values, names, domain_max)


def _raise_first_fault(path: str, channel_limit: int) -> None:
    """Raise the first row-width or cell fault in the file's csv rows, if any.

    Rows are numbered as ``csv.reader`` yields them, the header being row 1.
    This walk only names faults: :func:`load_csv` takes no value from it.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        width = len(next(reader))
        for lineno, row in enumerate(reader, start=2):
            if len(row) != width:
                raise FormatError(
                    f"{path}: row {lineno} has {len(row)} cells, expected {width}"
                )
            for col, cell in enumerate(row[:channel_limit], start=1):
                try:
                    float(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {lineno}, column {col}: "
                        f"cannot parse {cell!r} as a number"
                    ) from None


def write_csv(series: TimeSeries, path: str) -> None:
    """Write the series in the same CSV layout :func:`load_csv` reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(series.channel_names)
        for row in series.values:
            writer.writerow([repr(float(v)) for v in row])


def write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a result CSV: the ``header`` names, then one line per row of cells.

    The one cell rule: None is empty, a float (numpy's too) is
    ``repr(float(v))``, anything else ``str(v)``. A cell that holds a comma
    or a quote is quoted; lines end in ``\\n``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        # csv writes None as empty and the rest by str, a Python float's str being its repr
        writer.writerows([float(v) if isinstance(v, np.floating) else v for v in row]
                         for row in rows)
