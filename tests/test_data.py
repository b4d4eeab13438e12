import csv

import numpy as np
import pytest

from intervalcast import (
    SplitSpec,
    TimeSeries,
    WindowConfig,
    Windows,
    chrono_split,
    generate_synthds,
    load_csv,
    make_windows,
    normalize,
    split_windows,
    write_csv,
)
from intervalcast.data import (
    SYNTH_SEGMENT,
    synth_hypothesis,
    synth_input_segment,
    write_rows,
)
from intervalcast.errors import (
    ConfigError,
    DataError,
    FormatError,
    ParseError,
    SplitError,
)
from per_block_synth import per_block_synthds


def _series(values, domain_max=1.0):
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    names = tuple(f"c{i}" for i in range(arr.shape[1]))
    return TimeSeries(arr, names, domain_max)


# ---------------------------------------------------------------- windows


def test_window_counts():
    assert len(make_windows(_series(np.arange(10.0)), WindowConfig(4, 2))) == 5
    assert len(make_windows(_series(np.arange(6.0)), WindowConfig(4, 2))) == 1


def test_window_count_synth_scale():
    series = generate_synthds(0, 0.0)
    assert len(make_windows(series, WindowConfig(48, 24))) == 3029


def test_window_too_short():
    with pytest.raises(DataError):
        make_windows(_series(np.arange(5.0)), WindowConfig(4, 2))


def test_window_rows_match_series():
    rng = np.random.default_rng(0)
    series = _series(rng.uniform(size=(30, 2)))
    for s in make_windows(series, WindowConfig(5, 3, stride=2)):
        assert np.array_equal(s.history, series.values[s.t_origin - 5 : s.t_origin])
        assert np.array_equal(s.target, series.values[s.t_origin : s.t_origin + 3])


def test_windows_are_views_of_the_series():
    series = generate_synthds(0, 0.05)
    windows = make_windows(series, WindowConfig(48, 24, stride=3))
    assert np.shares_memory(windows.history, series.values)
    assert np.shares_memory(windows.target, series.values)
    for part in chrono_split(windows, SplitSpec(0.66, 0.17, 0.17)):
        assert np.shares_memory(part.history, series.values)
        assert np.shares_memory(part.target, series.values)


@pytest.mark.parametrize("stride", [1, 3])
def test_window_gather_matches_series_slices(stride):
    # an index-array batch pairs each origin's history and target rows
    rng = np.random.default_rng(1)
    series = _series(rng.uniform(size=(40, 3)))
    windows = make_windows(series, WindowConfig(6, 4, stride=stride))
    batch = windows[rng.permutation(len(windows))[:7]]
    for history, target, o in zip(batch.history, batch.target, batch.t_origin):
        assert np.array_equal(history, series.values[o - 6 : o])
        assert np.array_equal(target, series.values[o : o + 4])


def test_windows_reject_misaligned_arrays():
    with pytest.raises(DataError, match="5 histories, 4 targets, 5 origins"):
        Windows(np.zeros((5, 3, 1)), np.zeros((4, 2, 1)), np.arange(5))
    with pytest.raises(DataError, match="5 histories, 5 targets, 6 origins"):
        Windows(np.zeros((5, 3, 1)), np.zeros((5, 2, 1)), np.arange(6))


def test_window_config_validation():
    with pytest.raises(ConfigError):
        WindowConfig(0, 2)
    with pytest.raises(ConfigError):
        WindowConfig(2, 2, stride=0)


# ---------------------------------------------------------------- splits


def _dummy_samples(n):
    series = _series(np.arange(float(n + 4)))
    return make_windows(series, WindowConfig(3, 1))[:n]


def test_split_66_17_17():
    train, val, test = chrono_split(_dummy_samples(100), SplitSpec(0.66, 0.17, 0.17))
    assert (len(train), len(val), len(test)) == (66, 17, 17)


def test_split_70_10_20():
    train, val, test = chrono_split(_dummy_samples(10), SplitSpec(0.70, 0.10, 0.20))
    assert (len(train), len(val), len(test)) == (7, 1, 2)


def test_split_rejects_empty_subset():
    with pytest.raises(SplitError):
        chrono_split(_dummy_samples(3), SplitSpec(0.34, 0.33, 0.33))


def test_split_rejects_unordered_windows():
    windows = _dummy_samples(10)
    shuffled = windows[np.array([1, 0, 2, 3, 4, 5, 6, 7, 8, 9])]
    with pytest.raises(DataError, match="ascending origin order"):
        chrono_split(shuffled, SplitSpec(0.5, 0.25, 0.25))


def test_split_chronological_and_disjoint():
    train, val, test = chrono_split(_dummy_samples(50), SplitSpec(0.5, 0.25, 0.25))
    origins = np.concatenate([train.t_origin, val.t_origin, test.t_origin]).tolist()
    assert origins == sorted(origins)
    assert len(set(origins)) == len(origins)
    assert train[-1].t_origin < val[0].t_origin < test[0].t_origin


@pytest.mark.parametrize("stride", [1, 2, 3])  # tau 4: 3 does not divide it
@pytest.mark.parametrize("spec", [SplitSpec(0.66, 0.17, 0.17), SplitSpec(0.5, 0.2, 0.3)])
def test_split_windows_cuts_the_test_span(stride, spec):
    rng = np.random.default_rng(4)
    series = _series(rng.uniform(size=(90, 2)))
    cfg = WindowConfig(6, 4, stride)
    train, val, test, test_series = split_windows(series, cfg, spec)
    for got, want in zip((train, val, test), chrono_split(make_windows(series, cfg), spec)):
        for field in ("history", "target", "t_origin"):
            assert getattr(got, field).tobytes() == getattr(want, field).tobytes()
    first, last = test.t_origin[0], test.t_origin[-1]
    assert test_series.values.tobytes() == series.values[first - 6 : last + 4].tobytes()
    assert test_series.channel_names == series.channel_names
    # the rolled targets tile the span from the first test origin, leaving
    # fewer than tau of its last steps unforecast
    rolls = make_windows(test_series, WindowConfig(6, 4, 4))
    end = first + 4 * len(rolls)
    assert last < end <= last + 4
    assert rolls.target.reshape(-1, 2).tobytes() == series.values[first:end].tobytes()
    if stride == 1:
        every_tau = test[::4]
        assert rolls.history.tobytes() == every_tau.history.tobytes()
        assert rolls.target.tobytes() == every_tau.target.tobytes()
        assert (rolls.t_origin + first - 6).tolist() == every_tau.t_origin.tolist()


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(0.5, 0.5, 0.5)
    with pytest.raises(ConfigError):
        SplitSpec(1.0, 0.0, 0.0)


# ---------------------------------------------------------------- scaling


def test_normalize_basic():
    series = _series([250.0, 0.0], domain_max=500.0)
    out, record = normalize(series)
    assert out.values[0, 0] == 0.5
    assert out.values[1, 0] == 0.0
    assert record.clipped_entries == 0


def test_normalize_clips_and_counts():
    series = _series([600.0, 100.0], domain_max=500.0)
    out, record = normalize(series)
    assert out.values[0, 0] == 1.0
    assert record.clipped_entries == 1


def test_normalize_rejects_nonpositive_max():
    with pytest.raises(ConfigError):
        normalize(_series([1.0, 2.0], domain_max=0.0))


@pytest.mark.parametrize("domain_max", [float("nan"), float("inf")])
def test_normalize_rejects_non_finite_max(domain_max):
    # NaN would give an all-NaN series and inf an all-zero one, with 0 clips
    with pytest.raises(ConfigError) as err:
        normalize(_series([1.0, 2.0], domain_max=domain_max))
    assert f"domain_max must be positive and finite, got {domain_max}" in str(err.value)


# ---------------------------------------------------------------- synthetic trace


def test_synth_length_and_shape():
    series = generate_synthds(0)
    assert series.T == 3100
    assert series.n == 1


@pytest.mark.parametrize("noise_sd", [0.0, 0.05])
def test_synth_matches_per_block_reference(noise_sd):
    for seed in range(8):
        got = generate_synthds(seed, noise_sd).values
        expected = per_block_synthds(seed, noise_sd)
        assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), seed


def test_synth_deterministic():
    a = generate_synthds(7, 0.05)
    b = generate_synthds(7, 0.05)
    assert np.array_equal(a.values, b.values)


def test_synth_noise_free_output_ranges():
    series = generate_synthds(3, 0.0)
    v = series.values[:, 0]
    assert v.min() >= 0.0 and v.max() <= 1.0
    hyps = np.stack([synth_hypothesis(k) for k in range(4)])
    for block in range(3100 // (2 * SYNTH_SEGMENT)):
        out = v[block * 48 + 24 : block * 48 + 48]
        dists = np.abs(hyps - out).max(axis=1)
        k = int(np.argmin(dists))
        assert dists[k] < 1e-12  # every output segment is exactly one hypothesis
        if k == 3:
            assert out.min() >= 0.75 and out.max() <= 1.0


def test_synth_input_segments_fixed():
    series = generate_synthds(5, 0.0)
    v = series.values[:, 0]
    expected = synth_input_segment()
    for block in range(3100 // 48):
        assert np.array_equal(v[block * 48 : block * 48 + 24], expected)


@pytest.mark.parametrize("seed", [0, 1, 15])
def test_synth_covers_all_hypotheses(seed):
    series = generate_synthds(seed, 0.0)
    v = series.values[:, 0]
    ks = set()
    for block in range(3100 // 48):
        out = v[block * 48 + 24 : block * 48 + 48]
        ks.add(int(round(out.mean() * 4 - np.cos(np.pi * np.arange(1, 25) / 48).mean())))
    assert ks == {0, 1, 2, 3}


def test_synth_rejects_negative_noise():
    with pytest.raises(ConfigError):
        generate_synthds(0, -1.0)


@pytest.mark.parametrize("noise_sd", [float("nan"), float("inf")])
def test_synth_rejects_non_finite_noise(noise_sd):
    # NaN used to pass the >= 0 check and skip the noise; inf gave an inf trace
    with pytest.raises(ConfigError) as err:
        generate_synthds(0, noise_sd)
    assert str(err.value) == f"noise_sd must be finite and >= 0, got {noise_sd}"


# ---------------------------------------------------------------- CSV I/O


def test_load_csv_channel_limit(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,c\n1,2,3\n4,5,6\n", encoding="utf-8")
    series = load_csv(str(path), channel_limit=2, domain_max=10.0)
    assert series.n == 2
    assert series.channel_names == ("a", "b")
    assert np.array_equal(series.values, [[1.0, 2.0], [4.0, 5.0]])


def test_load_csv_parse_error_names_location(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3,abc\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_csv(str(path), channel_limit=2, domain_max=1.0)
    assert "row 3" in str(err.value) and "column 2" in str(err.value)


def test_load_csv_rejects_non_finite_cell_with_location(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3,4\n5,nan\n6,inf\n", encoding="utf-8")
    with pytest.raises(ParseError) as err:
        load_csv(str(path), channel_limit=2, domain_max=1.0)
    assert "row 4, column 2" in str(err.value) and "nan" in str(err.value)


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n1,2\n3\n", encoding="utf-8")
    with pytest.raises(FormatError):
        load_csv(str(path), channel_limit=2, domain_max=1.0)


def test_load_csv_traffic_shape(tmp_path):
    # wide beam-level layout: 100 channels over 1025 timesteps
    rng = np.random.default_rng(2)
    path = tmp_path / "beams.csv"
    header = ",".join(f"beam{i}" for i in range(100))
    rows = [",".join(repr(float(x)) for x in rng.uniform(0, 1, 100)) for _ in range(1025)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    series = load_csv(str(path), channel_limit=100, domain_max=1.0)
    assert series.T == 1025 and series.n == 100


def test_csv_round_trip(tmp_path):
    series = generate_synthds(1, 0.05)
    path = tmp_path / "synth.csv"
    write_csv(series, str(path))
    back = load_csv(str(path), channel_limit=1, domain_max=1.0)
    assert np.array_equal(back.values, series.values)
    assert back.channel_names == series.channel_names


def test_write_rows_cell_rule(tmp_path):
    # one rule for every cell: a numpy float as a plain repr, None empty,
    # bools and ints by str; a comma-holding label is quoted
    path = tmp_path / "rows.csv"
    write_rows(path, ["label", "mae", "gap", "flag", "count"], [
        ("E2E[0,1]", np.float64(0.1) + np.float64(0.2), None, True, np.int64(7)),
        ("B", np.float32(0.1), 1 / 3, False, 3),
    ])
    data = path.read_bytes()
    assert data == (
        b"label,mae,gap,flag,count\n"
        b'"E2E[0,1]",0.30000000000000004,,True,7\n'
        b"B,0.10000000149011612,0.3333333333333333,False,3\n"
    )
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][0] == "E2E[0,1]"
    assert {len(row) for row in rows} == {5}


def test_normalize_clips_negative_values():
    series = _series([-5.0, 250.0], domain_max=500.0)
    out, record = normalize(series)
    assert out.values[0, 0] == 0.0
    assert record.clipped_entries == 1
