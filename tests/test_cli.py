import base64
import csv
import json
import os
from pathlib import Path

import numpy as np
import pytest

import intervalcast
from intervalcast import PolicyConfig, init, save_checkpoint
from intervalcast.cli import main
from intervalcast.data import generate_synthds

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# sweep takes --seeds where train takes --seed, so each sweep test names its seeds
FAST_MODEL = ["--w", "12", "--tau", "6", "--epochs", "3", "--hidden", "6"]
FAST_SWEEP = FAST_MODEL + ["--noise-sd", "0"]
FAST_TRAIN = FAST_SWEEP + ["--seed", "0"]
# CSV data takes no --noise-sd: it would only print an ignored-flag warning
FAST_CSV_TRAIN = FAST_MODEL + ["--seed", "0"]


def _rows(path) -> list[list[str]]:
    """A result CSV's rows by ``csv.reader``; all as wide as the header, a ``#`` footer excepted."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    body = rows[:-1] if rows[-1][0].startswith("#") else rows
    assert {len(row) for row in body} == {len(rows[0])}, path
    return rows


def test_generate_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["generate", "--seed", "3", "--out", str(out1)]) == 0
    assert main(["generate", "--seed", "3", "--out", str(out2)]) == 0
    assert (out1 / "synthds.csv").read_bytes() == (out2 / "synthds.csv").read_bytes()


def test_generate_default_noise_is_p05(tmp_path):
    assert main(["generate", "--seed", "1", "--out", str(tmp_path / "d")]) == 0
    assert main([
        "generate", "--seed", "1", "--noise-sd", "0.05", "--out", str(tmp_path / "e"),
    ]) == 0
    assert (tmp_path / "d/synthds.csv").read_bytes() == (tmp_path / "e/synthds.csv").read_bytes()


def test_generate_rejects_negative_noise(tmp_path, capsys):
    code = main(["generate", "--noise-sd", "-1", "--out", str(tmp_path)])
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("noise_sd", ["nan", "inf"])
def test_non_finite_noise_is_rejected(tmp_path, capsys, noise_sd):
    # NaN used to give a noise-free trace with exit 0, and inf a non-finite one;
    # the data is checked before --out is made, so no empty directory is left
    for argv in (["generate"], ["train", "--policy", "b"] + FAST_MODEL,
                 ["sweep", "--sweep", "nu=1", "--seeds", "0"] + FAST_MODEL):
        out = tmp_path / argv[0]
        assert main(argv + ["--noise-sd", noise_sd, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: ConfigError: noise_sd must be finite and >= 0, got {noise_sd}\n"
        )
        assert not out.exists()


@pytest.mark.parametrize("argv,flag,value,minimum", [
    (["generate", "--seed", "-1"], "--seed", -1, 0),
    (["train", "--policy", "b", "--seed", "-1"] + FAST_SWEEP, "--seed", -1, 0),
    (["train", "--policy", "b", "--data-seed", "-2"] + FAST_SWEEP, "--data-seed", -2, 0),
    (["sweep", "--sweep", "nu=1", "--seeds", "0,-1"] + FAST_SWEEP, "--seeds", -1, 0),
    (["train", "--policy", "b"] + FAST_SWEEP + ["--epochs", "0"], "--epochs", 0, 1),
    (["train", "--policy", "b", "--batch", "0"] + FAST_SWEEP, "--batch", 0, 1),
    (["train", "--policy", "b", "--patience", "-3"] + FAST_SWEEP, "--patience", -3, 1),
    (["train", "--policy", "b"] + FAST_SWEEP + ["--hidden", "0"], "--hidden", 0, 1),
    (["train", "--policy", "b", "--model", "linear", "--kernel", "0"] + FAST_SWEEP,
     "--kernel", 0, 1),
    (["train", "--policy", "b", "--kernel", "0"] + FAST_SWEEP, "--kernel", 0, 1),
    (["sweep", "--sweep", "nu=1", "--batch", "0"] + FAST_SWEEP, "--batch", 0, 1),
], ids=["generate", "train", "data-seed", "sweep", "epochs", "batch", "patience", "hidden",
        "kernel-linear", "kernel-mlp", "sweep-batch"])
def test_negative_seed_fails_naming_its_flag(tmp_path, capsys, argv, flag, value, minimum):
    # seeds below 0 and counts below 1 are rejected as the flag is parsed,
    # before --out is made: sweep used to train seed 0 first, and a count
    # of 0 used to fail in train() and leave an empty --out directory; a
    # --kernel the mlp ignores is rejected all the same
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: ConfigError: {flag} must be >= {minimum}, got {value}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["train", "--policy", "b"] + FAST_TRAIN + ["--w", "0"], "--w"),
    (["train", "--policy", "b"] + FAST_TRAIN + ["--tau", "0"], "--tau"),
    (["train", "--policy", "b"] + FAST_TRAIN + ["--stride", "0"], "--stride"),
    (["train", "--policy", "d"] + FAST_TRAIN + ["--L", "0"], "--L"),
    (["train", "--policy", "b"] + FAST_TRAIN + ["--channels", "0"], "--channels"),
    (["sweep", "--sweep", "nu=1", "--seeds", "0"] + FAST_SWEEP + ["--L", "0"], "--L"),
    (["sweep", "--sweep", "nu=1", "--seeds", "0"] + FAST_SWEEP + ["--eval-L", "0"], "--eval-L"),
    (["sweep", "--sweep", "L=4,0", "--seeds", "0"] + FAST_SWEEP, "--sweep L"),
    (["eval", "--checkpoints", "ck.json", "--L", "0"], "--L"),
    (["eval", "--checkpoints", "ck.json", "--stride", "0"], "--stride"),
    (["eval", "--checkpoints", "ck.json", "--channels", "0"], "--channels"),
], ids=["train-w", "train-tau", "train-stride", "train-L", "train-channels", "sweep-L",
        "sweep-eval-L", "sweep-L-value", "eval-L", "eval-stride", "eval-channels"])
def test_integer_flag_below_one_fails_naming_it(tmp_path, capsys, argv, flag):
    # a 0 used to fail later, naming a window config, a partition size or
    # channel_limit instead of the flag; --channels 0 with synthetic data
    # only warned and ran
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {flag} must be >= 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["train"] + FAST_TRAIN, "--policy is required (flag or config file)"),
    (["eval"], "--checkpoints must name at least one file"),
    (["eval", "--checkpoints", ","], "--checkpoints must name at least one file"),
    (["sweep", "--seeds", "0"] + FAST_SWEEP, "--sweep is required (flag or config file)"),
])
def test_command_without_its_required_input_fails_naming_it(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: ConfigError: {message}\n"
    assert not out.exists()


def test_version_matches_pyproject(capsys):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    version = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["version"]
    assert intervalcast.__version__ == version
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"{version}\n"


def test_train_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    code = main(["train", "--policy", "b", "--out", str(out)] + FAST_TRAIN)
    assert code == 0
    assert (out / "checkpoint.json").exists()
    report = _rows(out / "report.csv")
    assert report[0] == ["epoch", "train_loss", "val_loss", "lr"]
    assert len(report) == 4  # header + 3 epochs
    summary = _rows(out / "summary.csv")
    assert summary[0] == ["best_epoch", "stopped_early", "epochs_run"]
    assert summary[1][1:] == ["False", "3"]
    assert (out / "train.log").exists()


def test_train_default_data_without_signal_fails_loudly(tmp_path, capsys):
    # default synthetic data (noise 0.05, clipped to [0, 1], w=48, tau=24):
    # no 24-step training target lies inside one L=16 cell, so every
    # indicator weight is 0 and the run must not save its random init
    out = tmp_path / "d16"
    code = main(["train", "--policy", "d", "--L", "16", "--out", str(out)])
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error: TrainingError: policy D16, epoch 0:")
    assert "every drawn loss weight is 0" in err
    assert not (out / "checkpoint.json").exists()


@pytest.mark.parametrize("domain_max", ["nan", "inf"])
def test_train_rejects_non_finite_domain_max(tmp_path, capsys, domain_max):
    assert main(["generate", "--out", str(tmp_path)]) == 0
    out = tmp_path / "run"
    code = main([
        "train", "--policy", "b", "--data", str(tmp_path / "synthds.csv"),
        "--domain-max", domain_max, "--out", str(out),
    ] + FAST_CSV_TRAIN)
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError: domain_max must be positive and finite, got ")
    assert len(err.strip().splitlines()) == 1
    assert not (out / "checkpoint.json").exists()


def test_train_byte_identical_reruns(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    args = ["train", "--policy", "d", "--L", "4"] + FAST_TRAIN
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("checkpoint.json", "report.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_train_e2e_requires_interval(tmp_path, capsys):
    code = main(["train", "--policy", "e2e", "--out", str(tmp_path)] + FAST_TRAIN)
    assert code != 0
    assert "interval" in capsys.readouterr().err


def test_train_warns_on_ignored_interval(tmp_path, capsys):
    code = main(
        ["train", "--policy", "b", "--interval", "0,0.5", "--out", str(tmp_path)]
        + FAST_TRAIN
    )
    assert code == 0
    assert "warning" in capsys.readouterr().err


def test_train_requires_policy(tmp_path, capsys):
    code = main(["train", "--out", str(tmp_path)] + FAST_TRAIN)
    assert code != 0


def test_eval_builds_table(tmp_path):
    b_dir, d_dir, eval_dir = tmp_path / "b", tmp_path / "d", tmp_path / "eval"
    assert main(["train", "--policy", "b", "--out", str(b_dir)] + FAST_TRAIN) == 0
    assert main(["train", "--policy", "d", "--L", "4", "--out", str(d_dir)] + FAST_TRAIN) == 0
    code = main([
        "eval",
        "--checkpoints", f"{b_dir}/checkpoint.json,{d_dir}/checkpoint.json",
        "--L", "4", "--noise-sd", "0", "--out", str(eval_dir),
    ])
    assert code == 0
    lines = _rows(eval_dir / "table.csv")
    assert lines[0] == ["interval", "B", "D4", "best_policy", "improvement_pct"]
    assert len(lines) == 6  # header + 4 cells + averaged row
    runs = _rows(eval_dir / "eval_runs.csv")
    assert runs[0][:2] == ["label", "checkpoint"]
    assert runs[0][4] == "mae"
    for row in runs[1:]:
        mae = row[4]
        assert mae == "" or float(mae) >= 0.0, row  # a plain number, not np.float64(...)


def test_eval_quotes_a_label_that_holds_a_comma(tmp_path):
    # the e2e label E2E[0,1] holds a comma; unquoted, it split the label
    # column and left the table's header wider than its rows
    b_dir, e2e_dir, eval_dir = tmp_path / "b", tmp_path / "e2e", tmp_path / "eval"
    assert main(["train", "--policy", "b", "--out", str(b_dir)] + FAST_TRAIN) == 0
    assert main(
        ["train", "--policy", "e2e", "--interval", "0,1", "--out", str(e2e_dir)] + FAST_TRAIN
    ) == 0
    assert main([
        "eval", "--checkpoints", f"{b_dir}/checkpoint.json,{e2e_dir}/checkpoint.json",
        "--L", "1", "--noise-sd", "0", "--out", str(eval_dir),
    ]) == 0
    table = _rows(eval_dir / "table.csv")
    assert table[0] == ["interval", "B", "E2E[0,1]", "best_policy", "improvement_pct"]
    assert [row[0] for row in table[1:]] == ["0:1", "average"]
    runs = _rows(eval_dir / "eval_runs.csv")
    assert [row[0] for row in runs[1:]] == ["B", "E2E[0,1]"]


@pytest.mark.parametrize(
    "damage", ["truncated", "missing_key", "not_an_object", "non_finite_weight"]
)
def test_eval_malformed_checkpoint_names_file(tmp_path, capsys, damage):
    ck_dir = tmp_path / "b"
    assert main(["train", "--policy", "b", "--out", str(ck_dir)] + FAST_TRAIN) == 0
    path = ck_dir / "checkpoint.json"
    text = path.read_text()
    if damage == "truncated":
        path.write_text(text[: len(text) // 2])
    elif damage == "not_an_object":
        path.write_text("[]")
    elif damage == "non_finite_weight":
        doc = json.loads(text)
        theta = np.frombuffer(base64.b64decode(doc["theta"]), "<f8").copy()
        theta[3] = float("nan")
        doc["theta"] = base64.b64encode(theta.tobytes()).decode()
        path.write_text(json.dumps(doc))
    else:
        doc = json.loads(text)
        del doc["arch"]["kind"]
        path.write_text(json.dumps(doc))
    code = main([
        "eval", "--checkpoints", str(path), "--noise-sd", "0", "--out", str(tmp_path / "eval"),
    ])
    assert code != 0
    err = capsys.readouterr().err
    assert err.startswith(f"error: FormatError: {path}: malformed checkpoint")
    assert len(err.strip().splitlines()) == 1


def test_eval_names_a_checkpoint_whose_channels_differ_from_the_series(tmp_path, capsys):
    values = generate_synthds(0, 0.0).values[:, 0].tolist()
    data = tmp_path / "two.csv"
    data.write_text("u,v\n" + "".join(f"{v!r},{1.0 - v!r}\n" for v in values))
    ck_dir = tmp_path / "b2"
    assert main(
        ["train", "--policy", "b", "--data", str(data), "--out", str(ck_dir)] + FAST_CSV_TRAIN
    ) == 0
    capsys.readouterr()
    path = ck_dir / "checkpoint.json"
    code = main([
        "eval", "--checkpoints", str(path), "--noise-sd", "0", "--out", str(tmp_path / "eval"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: ConfigError: {path}: 2 channels, but the series has 1\n"
    assert not (tmp_path / "eval" / "eval_runs.csv").exists()


def test_eval_names_a_checkpoint_whose_window_differs_from_the_first(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, dims in zip(paths, [(12, 6, 1), (12, 4, 1)]):
        save_checkpoint(path, init("mlp", dims, 0, hidden=3), 0, PolicyConfig("b"))
    out = tmp_path / "eval"
    assert main(["eval", "--checkpoints", f"{paths[0]},{paths[1]}", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: ConfigError: {paths[1]}: window 12/4 differs from the first checkpoint's 12/6\n"
    )
    assert not out.exists()


def test_eval_table_cell_is_mean_over_seeds(tmp_path):
    # two checkpoints of one label: each table cell averages that label's
    # eval_runs.csv MAEs on the interval, and the averaged row its cells
    b_dir, eval_dir = tmp_path / "b", tmp_path / "eval"
    assert main(["train", "--policy", "b", "--out", str(b_dir)] + FAST_TRAIN) == 0
    checkpoints = [f"{b_dir}/checkpoint.json"]
    for seed in ("0", "1"):
        d_dir = tmp_path / f"d{seed}"
        assert main(
            ["train", "--policy", "d", "--L", "4", "--seed", seed, "--out", str(d_dir)]
            + FAST_SWEEP
        ) == 0
        checkpoints.append(f"{d_dir}/checkpoint.json")
    assert main([
        "eval", "--checkpoints", ",".join(checkpoints),
        "--L", "4", "--noise-sd", "0", "--out", str(eval_dir),
    ]) == 0
    runs: dict[tuple[str, str], list[float]] = {}
    for row in (eval_dir / "eval_runs.csv").read_text().splitlines()[1:]:
        label, _, lo, hi, mae = row.split(",")[:5]
        interval = f"{float(lo):g}:{float(hi):g}"
        runs.setdefault((label, interval), []).extend([float(mae)] if mae else [])
    assert len(runs[("D4", "0:0.25")]) == 2
    assert any(len(set(maes)) == 2 for (label, _), maes in runs.items() if label == "D4")
    table = (eval_dir / "table.csv").read_text().splitlines()
    header, *rows = [line.split(",") for line in table]
    assert header == ["interval", "B", "D4", "best_policy", "improvement_pct"]
    for label, col in (("B", 1), ("D4", 2)):
        cells = []
        for row in rows[:-1]:
            maes = runs[(label, row[0])]
            cell = float(np.mean(maes)) if maes else None
            assert row[col] == ("" if cell is None else repr(cell)), (label, row)
            cells.append(cell)
        present = [c for c in cells if c is not None]
        assert rows[-1][0] == "average"
        assert float(rows[-1][col]) == float(np.mean(present))


def test_eval_requires_baseline(tmp_path, capsys):
    d_dir = tmp_path / "d"
    assert main(["train", "--policy", "d", "--L", "4", "--out", str(d_dir)] + FAST_TRAIN) == 0
    code = main([
        "eval", "--checkpoints", f"{d_dir}/checkpoint.json",
        "--noise-sd", "0", "--out", str(tmp_path / "eval"),
    ])
    assert code != 0
    err = capsys.readouterr().err
    assert err == (
        "error: ConfigError: the comparison table needs runs of the baseline policy 'B'\n"
    )
    # the check runs before any evaluation and before --out is made
    assert not (tmp_path / "eval").exists()


def test_sweep_delta_axis(tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--sweep", "delta=0:0.4:3", "--seeds", "0",
        "--out", str(out),
    ] + FAST_SWEEP)
    assert code == 0
    lines = _rows(out / "sweep.csv")
    assert lines[0] == ["param", "value", "seed", "strategy", "mae_avg"]
    assert len(lines) == 4  # 3 delta values, one seed, avg strategy only
    summary = _rows(out / "sweep_summary.csv")
    assert summary[0] == ["param", "value", "strategy", "mae_avg_mean", "gamma"]
    assert len(summary) == 4


def test_sweep_gamma_is_max_over_avg_mean(tmp_path):
    # gamma = mae_avg_mean(max) / mae_avg_mean(avg) on both rows of a dstar
    # value; a c sweep has the avg strategy only, so its gamma is blank
    assert main(["sweep", "--sweep", "nu=1", "--seeds", "0,1", "--out", str(tmp_path / "nu")]
                + FAST_SWEEP) == 0
    header, *rows = _rows(tmp_path / "nu" / "sweep_summary.csv")
    means = {row[2]: float(row[3]) for row in rows}
    assert sorted(means) == ["avg", "max"]
    assert [float(row[4]) for row in rows] == [means["max"] / means["avg"]] * 2
    assert main(["sweep", "--sweep", "delta=0.2:0.2:1", "--seeds", "0",
                 "--out", str(tmp_path / "delta")] + FAST_SWEEP) == 0
    header, *rows = _rows(tmp_path / "delta" / "sweep_summary.csv")
    assert [(row[2], row[4]) for row in rows] == [("avg", "")]


def test_sweep_delta_values_read_as_typed(tmp_path):
    # linspace gives 0.1 + 0.2 = 0.30000000000000004 for the middle value of
    # 0.1:0.5:3; the CSVs must show the 0.3 that the C0.3 label names
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--sweep", "delta=0.1:0.5:3", "--seeds", "0", "--out", str(out),
    ] + FAST_SWEEP)
    assert code == 0
    for name in ("sweep.csv", "sweep_summary.csv"):
        rows = (out / name).read_text().strip().splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["0.1", "0.3", "0.5"]


def test_sweep_warns_once_per_ignored_flag(tmp_path, capsys):
    # the c policy ignores --L; three swept values still give one warning
    code = main([
        "sweep", "--sweep", "delta=0:0.4:3", "--L", "8", "--seeds", "0",
        "--out", str(tmp_path),
    ] + FAST_SWEEP)
    assert code == 0
    warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]
    assert warnings == ["warning: --L is ignored by the c policy"]


@pytest.mark.parametrize("sweep,flag", [
    ("L=2", ["--L", "16"]), ("nu=1", ["--nu", "2"]), ("delta=0.2:0.2:1", ["--delta", "0.3"]),
], ids=["L", "nu", "delta"])
def test_sweep_warns_that_it_sets_the_swept_flag(tmp_path, capsys, sweep, flag):
    args = ["sweep", "--sweep", sweep, "--seeds", "0"] + FAST_SWEEP
    assert main(args + flag + ["--out", str(tmp_path / "flag")]) == 0
    assert _warnings(capsys) == [f"warning: {flag[0]} is ignored: --sweep sets it"]
    assert main(args + ["--out", str(tmp_path / "plain")]) == 0
    assert _warnings(capsys) == []
    for name in ("sweep.csv", "sweep_summary.csv"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_sweep_partition_axis_takes_nu_flag(tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--sweep", "L=2", "--nu", "0", "--seeds", "0", "--out", str(out),
    ] + FAST_SWEEP)
    assert code == 0
    rows = [line.split(",")[:4] for line in (out / "sweep.csv").read_text().splitlines()[1:]]
    assert rows == [["L", "2", "0", "avg"], ["L", "2", "0", "max"]]  # dstar: both strategies


def test_sweep_invalid_spec(tmp_path, capsys):
    code = main(
        ["sweep", "--sweep", "gamma=1,2", "--seeds", "0", "--out", str(tmp_path)] + FAST_SWEEP
    )
    assert code != 0
    assert "sweep" in capsys.readouterr().err.lower()


def test_sweep_rejects_empty_seeds(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--sweep", "nu=1", "--seeds", "", "--out", str(out)] + FAST_SWEEP)
    assert code != 0
    err = capsys.readouterr().err
    assert err == "error: ConfigError: --seeds names no values\n"
    assert not (out / "sweep_summary.csv").exists()


def test_sweep_rejects_empty_partition_values(tmp_path, capsys):
    code = main(["sweep", "--sweep", "L=", "--seeds", "0", "--out", str(tmp_path)] + FAST_SWEEP)
    assert code != 0
    assert capsys.readouterr().err == "error: ConfigError: --sweep L names no values\n"


def test_flag_prefixes_are_rejected(tmp_path):
    # a prefix of a flag is an unknown flag, as a prefix of a config key is
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--sweep", "nu=1", "--seed", "0", "--out", str(tmp_path)] + FAST_SWEEP)
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["train", "--policy", "b", "--epoch", "3", "--out", str(tmp_path)] + FAST_TRAIN)
    assert exc.value.code == 2
    assert not any(tmp_path.iterdir())


def test_energy_threshold_study(tmp_path):
    trace = tmp_path / "u.csv"
    rng = np.random.default_rng(0)
    trace.write_text(
        "u\n" + "\n".join(repr(float(x)) for x in rng.uniform(0, 0.05, 200)) + "\n"
    )
    out = tmp_path / "energy"
    assert main(["energy", "--trace", str(trace), "--out", str(out)]) == 0
    lines = _rows(out / "thresholds.csv")
    assert lines[0] == ["threshold", "r_bar", "e_bar", "objective", "sleep_steps"]
    assert len(lines) == 28  # header + 26 thresholds + best-threshold footer
    assert len(lines[-1]) == 1 and lines[-1][0].startswith("# best_threshold=")
    first = lines[1]
    assert float(first[0]) == 0.0
    assert float(first[2]) == pytest.approx(1266.0)  # all-on at threshold 0


def test_energy_compare_mode(tmp_path):
    truth, fc = tmp_path / "t.csv", tmp_path / "f.csv"
    vals = np.linspace(0, 0.05, 100)
    truth.write_text("u\n" + "\n".join(repr(float(v)) for v in vals) + "\n")
    fc.write_text("u\n" + "\n".join(repr(float(v)) for v in vals) + "\n")
    out = tmp_path / "cmp"
    assert main([
        "energy", "--truth", str(truth), "--forecast", str(fc), "--out", str(out),
    ]) == 0
    lines = _rows(out / "decision_errors.csv")
    assert lines[0] == ["threshold", "sleep_duration_error", "mismatch_steps", "energy_error_wh"]
    assert all(line[1] == "0" for line in lines[1:])


def test_energy_reads_only_the_first_column(tmp_path):
    # a text column after the utilization is counted for the row width but
    # never parsed
    truth, fc = tmp_path / "t.csv", tmp_path / "f.csv"
    vals = [repr(float(v)) for v in np.linspace(0, 0.05, 50)]
    truth.write_text("u,note\n" + "".join(f"{v},idle\n" for v in vals))
    fc.write_text("u\n" + "".join(f"{v}\n" for v in vals))
    for name, args in (("text", [str(truth), str(fc)]), ("swapped", [str(fc), str(truth)])):
        out = tmp_path / name
        assert main(["energy", "--truth", args[0], "--forecast", args[1], "--out", str(out)]) == 0
        lines = (out / "decision_errors.csv").read_text().strip().splitlines()
        assert len(lines) == 27
        assert all(line.split(",")[1:] == ["0", "0", "0.0"] for line in lines[1:])


@pytest.mark.parametrize("flags", [
    ["--trace", "--truth"], ["--trace", "--forecast"], ["--trace", "--truth", "--forecast"],
    ["--truth"], [],
])
def test_energy_takes_a_trace_or_a_truth_and_forecast_pair(tmp_path, capsys, flags):
    # the trace exists and the other files do not: nothing is read or written
    trace = tmp_path / "u.csv"
    trace.write_text("u\n0.01\n0.02\n")
    paths = {"--trace": str(trace)}
    out = tmp_path / "o"
    args = [token for flag in flags for token in (flag, paths.get(flag, str(tmp_path / "no.csv")))]
    code = main(["energy", "--out", str(out)] + args)
    assert code == 1
    assert capsys.readouterr().err == (
        "error: ConfigError: energy takes either --trace or both --truth and --forecast\n"
    )
    assert not out.exists()


def test_energy_length_mismatch(tmp_path, capsys):
    truth, fc = tmp_path / "t.csv", tmp_path / "f.csv"
    truth.write_text("u\n0.1\n0.2\n")
    fc.write_text("u\n0.1\n")
    code = main(["energy", "--truth", str(truth), "--forecast", str(fc),
                 "--out", str(tmp_path / "o")])
    assert code != 0
    assert "lengths differ" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args,error", [
    (["--trace", "missing.csv"], "FileNotFoundError"),
    (["--trace", "t.csv", "--c-cap", "-1"], "c_cap must be a positive finite capacity"),
    (["--trace", "high.csv"], "utilization must lie in [0, 1]"),
    (["--trace", "t.csv", "--thresholds", "0.5:0.1:3"], "thresholds must be sorted ascending"),
    (["--truth", "t.csv", "--forecast", "missing.csv"], "FileNotFoundError"),
], ids=["missing_trace", "bad_config", "trace_out_of_range", "descending_grid",
        "missing_forecast"])
def test_energy_checks_its_inputs_before_making_out(tmp_path, capsys, monkeypatch, args, error):
    # each input used to be read or checked after --out was made, leaving it empty
    monkeypatch.chdir(tmp_path)
    Path("t.csv").write_text("u\n0.1\n0.2\n")
    Path("high.csv").write_text("u\n1.5\n")
    assert main(["energy", *args, "--out", "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and error in err
    assert not Path("o").exists()


def test_config_file_provides_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("policy=b\nepochs=2\nhidden=6\nw=12\ntau=6\nnoise_sd=0\nseed=0\n")
    out1 = tmp_path / "c1"
    assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
    report = (out1 / "report.csv").read_text().splitlines()
    assert len(report) == 3  # header + 2 epochs from the config file

    out2 = tmp_path / "c2"
    assert main(["train", "--config", str(cfg), "--epochs", "3", "--out", str(out2)]) == 0
    assert len((out2 / "report.csv").read_text().splitlines()) == 4


def test_eval_takes_no_window_flags(tmp_path, capsys):
    # eval reads w and tau from the checkpoints, so neither is a flag or a key
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoints", "b.json", "--w", "99", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --w 99" in capsys.readouterr().err
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("w=12\n")
    code = main(["eval", "--checkpoints", "b.json", "--config", str(cfg),
                 "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == "error: ConfigError: unknown config key 'w'\n"
    assert not (tmp_path / "o").exists()


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nonsense=1\n")
    code = main(["train", "--policy", "b", "--config", str(cfg),
                 "--out", str(tmp_path / "o")] + FAST_TRAIN)
    assert code == 1
    assert capsys.readouterr().err == "error: ConfigError: unknown config key 'nonsense'\n"


def test_config_file_line_without_equals_names_its_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# fast run\n\nepochs 3\n")
    code = main(["train", "--policy", "b", "--config", str(cfg),
                 "--out", str(tmp_path / "o")] + FAST_TRAIN)
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: ConfigError: {cfg}:3: expected KEY=VALUE, got 'epochs 3'\n"
    )
    assert not (tmp_path / "o").exists()


def test_config_bad_value_fails_as_the_flag_would(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=x\n")
    with pytest.raises(SystemExit) as exc:
        main(["train", "--policy", "b", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "argument --epochs: invalid int value: 'x'" in capsys.readouterr().err

    cfg.write_text("policy=zzz\n")
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "argument --policy: invalid choice: 'zzz'" in capsys.readouterr().err

    cfg.write_text("split=50,50\n")
    code = main(["train", "--policy", "b", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: ConfigError: --split expects 'train,val,test', got '50,50'\n"
    )
    assert not (tmp_path / "o").exists()


def test_config_keys_are_flag_names(tmp_path):
    # a key names the flag, in any case, with - and _ alike, and acts as the
    # flag would
    fast = ["--w", "12", "--tau", "6", "--epochs", "3", "--hidden", "6", "--seed", "0"]
    cfg = tmp_path / "train.cfg"
    cfg.write_text("policy=dstar\nL=8\nnu=1\ndata-seed=3\nnoise_sd=0\n")
    by_config, by_flags = tmp_path / "config", tmp_path / "flags"
    assert main(["train", "--config", str(cfg), "--out", str(by_config)] + fast) == 0
    assert main([
        "train", "--policy", "dstar", "--L", "8", "--nu", "1", "--data-seed", "3",
        "--noise-sd", "0", "--out", str(by_flags),
    ] + fast) == 0
    checkpoint = (by_config / "checkpoint.json").read_bytes()
    assert json.loads(checkpoint)["policy"]["L"] == 8
    assert checkpoint == (by_flags / "checkpoint.json").read_bytes()

    trace = tmp_path / "u.csv"
    values = np.linspace(0, 0.05, 50)
    trace.write_text("u\n" + "\n".join(repr(float(v)) for v in values) + "\n")
    cfg = tmp_path / "energy.cfg"
    cfg.write_text("lambda=0.3\n")
    assert main(["energy", "--trace", str(trace), "--config", str(cfg),
                 "--out", str(tmp_path / "e_config")]) == 0
    assert main(["energy", "--trace", str(trace), "--lambda", "0.3",
                 "--out", str(tmp_path / "e_flags")]) == 0
    assert main(["energy", "--trace", str(trace), "--out", str(tmp_path / "e_default")]) == 0
    table = (tmp_path / "e_config" / "thresholds.csv").read_bytes()
    assert table == (tmp_path / "e_flags" / "thresholds.csv").read_bytes()
    assert table != (tmp_path / "e_default" / "thresholds.csv").read_bytes()


def _same_artifacts(tmp_path, command, config_text, flags, names, common=()):
    """Run ``command`` once with a config file and once with ``flags``; compare ``names``."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text)
    by_config, by_flags = tmp_path / "by_config", tmp_path / "by_flags"
    assert main([command, "--config", str(cfg), "--out", str(by_config), *common]) == 0
    assert main([command, *flags, "--out", str(by_flags), *common]) == 0
    for name in names:
        assert (by_config / name).read_bytes() == (by_flags / name).read_bytes(), name


def test_config_interval_equals_flag(tmp_path):
    _same_artifacts(
        tmp_path, "train", "policy=e2e\ninterval=0.75,1\n",
        ["--policy", "e2e", "--interval", "0.75,1"], ["checkpoint.json", "report.csv"],
        FAST_TRAIN,
    )
    policy = json.loads((tmp_path / "by_config" / "checkpoint.json").read_text())["policy"]
    assert policy["task_interval"] == [0.75, 1.0]


def test_config_sweep_and_seeds_equal_flags(tmp_path):
    _same_artifacts(
        tmp_path, "sweep", "sweep=nu=0,1\nseeds=0,1\n",
        ["--sweep", "nu=0,1", "--seeds", "0,1"], ["sweep.csv", "sweep_summary.csv"],
        FAST_SWEEP,
    )
    rows = (tmp_path / "by_config" / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 8  # 2 values x 2 seeds x 2 strategies


def test_config_thresholds_equals_flag(tmp_path):
    trace = tmp_path / "u.csv"
    trace.write_text("u\n" + "\n".join(repr(float(v)) for v in np.linspace(0, 0.6, 50)) + "\n")
    _same_artifacts(
        tmp_path, "energy", "thresholds=0:0.5:11\n", ["--thresholds", "0:0.5:11"],
        ["thresholds.csv"], ["--trace", str(trace)],
    )
    lines = (tmp_path / "by_config" / "thresholds.csv").read_text().splitlines()
    assert len(lines) == 13  # header + 11 thresholds + best-threshold footer


def _scaled_csv(tmp_path, domain_max: float):
    """The noise-free synthetic trace in native units of [0, domain_max], as CSV."""
    values = generate_synthds(0, 0.0).values * domain_max
    path = tmp_path / "native.csv"
    path.write_text("u\n" + "\n".join(repr(float(v)) for v in values[:, 0]) + "\n")
    return path


def test_eval_native_scales_csv_by_domain_max(tmp_path):
    data = ["--data", str(_scaled_csv(tmp_path, 500.0)), "--domain-max", "500"]
    b_dir = tmp_path / "b"
    assert main(["train", "--policy", "b", "--out", str(b_dir)] + FAST_CSV_TRAIN + data) == 0
    ev = ["eval", "--checkpoints", f"{b_dir}/checkpoint.json"] + data
    assert main(ev + ["--out", str(tmp_path / "plain")]) == 0
    assert main(ev + ["--native", "--out", str(tmp_path / "native")]) == 0

    def maes(name):
        rows = (tmp_path / name / "eval_runs.csv").read_text().splitlines()[1:]
        return [row.split(",")[4] for row in rows]

    plain, native = maes("plain"), maes("native")
    assert any(m != "" for m in plain)
    for p, n in zip(plain, native, strict=True):
        assert (p == n == "") or float(n) == 500.0 * float(p)

    # native=true and native=false in a config file act as --native and its absence
    cfg = tmp_path / "native.cfg"
    for value, twin in (("true", "native"), ("false", "plain")):
        cfg.write_text(f"native={value}\n")
        out = tmp_path / f"config_{value}"
        assert main(ev + ["--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "table.csv").read_bytes() == (tmp_path / twin / "table.csv").read_bytes()


def _warnings(capsys) -> list[str]:
    return [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]


def test_eval_native_leaves_synthetic_data_unscaled(tmp_path, capsys):
    # the synthetic trace is already in [0, 1]: --native scales by its own
    # domain maximum of 1, and --domain-max only applies to CSV data
    b_dir = tmp_path / "b"
    assert main(["train", "--policy", "b", "--out", str(b_dir)] + FAST_TRAIN) == 0
    ev = ["eval", "--checkpoints", f"{b_dir}/checkpoint.json", "--noise-sd", "0"]
    assert main(ev + ["--out", str(tmp_path / "plain")]) == 0
    assert _warnings(capsys) == []
    assert main(ev + ["--native", "--domain-max", "100", "--out", str(tmp_path / "native")]) == 0
    assert _warnings(capsys) == ["warning: --domain-max is ignored with synthetic data"]
    table = (tmp_path / "native" / "table.csv").read_bytes()
    assert table == (tmp_path / "plain" / "table.csv").read_bytes()


def test_data_flags_the_source_ignores_warn_and_change_nothing(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path)]) == 0
    csv_args = ["train", "--policy", "b", "--data", str(tmp_path / "synthds.csv")] + FAST_CSV_TRAIN
    assert main(csv_args + ["--out", str(tmp_path / "plain")]) == 0
    assert _warnings(capsys) == []
    assert main(csv_args + ["--data-seed", "3", "--noise-sd", "0.2",
                            "--out", str(tmp_path / "flagged")]) == 0
    assert _warnings(capsys) == [
        "warning: --data-seed is ignored with CSV data",
        "warning: --noise-sd is ignored with CSV data",
    ]
    for name in ("checkpoint.json", "report.csv", "summary.csv"):
        flagged = (tmp_path / "flagged" / name).read_bytes()
        assert flagged == (tmp_path / "plain" / name).read_bytes()
    synth_args = ["train", "--policy", "b", "--channels", "1"] + FAST_TRAIN
    assert main(synth_args + ["--out", str(tmp_path / "synth")]) == 0
    assert _warnings(capsys) == ["warning: --channels is ignored with synthetic data"]


def test_env_var_default_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("INTERVALCAST_OUT", str(tmp_path / "envout"))
    assert main(["generate", "--seed", "0"]) == 0
    assert (tmp_path / "envout" / "synthds.csv").exists()


def test_eval_strategy_flag_labels_dstar(tmp_path):
    b_dir, ds_dir = tmp_path / "b", tmp_path / "ds"
    assert main(["train", "--policy", "b", "--out", str(b_dir)] + FAST_TRAIN) == 0
    assert main(
        ["train", "--policy", "dstar", "--L", "8", "--nu", "5", "--out", str(ds_dir)]
        + FAST_TRAIN
    ) == 0
    for strategy in ("avg", "max"):
        out = tmp_path / f"eval_{strategy}"
        assert main([
            "eval",
            "--checkpoints", f"{b_dir}/checkpoint.json,{ds_dir}/checkpoint.json",
            "--L", "4", "--strategy", strategy, "--noise-sd", "0", "--out", str(out),
        ]) == 0
        header = (out / "table.csv").read_text().splitlines()[0]
        assert f"Dstar8^{strategy}" in header
