"""Batch command-line entry point.

Subcommands: ``generate`` (synthetic trace export), ``train`` (one policy,
one seed), ``eval`` (Table-style per-interval comparison of checkpoints),
``sweep`` (hyperparameter grids over L, nu, or delta), and ``energy`` (the
threshold study and forecast-vs-truth decision comparison).

Flag precedence: command line > config file > defaults. A config file's
KEY=VALUE lines are read as the flags they name (each KEY a flag without
its dashes, such as ``L`` or ``data-seed``), so a bad value fails as that
flag would. Flags, like config keys, must be spelled in full: no prefix of
a flag is accepted. The default output directory comes from
INTERVALCAST_OUT when set.
All result files are plain CSV, written by :func:`data.write_rows` with one
cell rule; timestamps appear only in ``train.log`` so repeated runs with
identical flags are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    SplitSpec,
    TimeSeries,
    WindowConfig,
    generate_synthds,
    load_csv,
    normalize,
    split_windows,
    write_csv,
    write_rows,
)
from .energy import (
    EnergySimConfig,
    compare_decisions,
    default_threshold_grid,
    sweep_threshold,
)
from .errors import ConfigError, IntervalcastError
from .evaluation import require_baseline, rolling_eval, write_table_csv
from .intervals import DecaySpec, DiscretePartition, Interval
from .patching import STRATEGIES, STRATEGY_AVERAGE, STRATEGY_MAXCONF
from .training import (
    DEFAULT_BATCH,
    DEFAULT_EPOCHS,
    DEFAULT_PATIENCE,
    POLICY_FIELDS,
    POLICY_KINDS,
    PolicyConfig,
    load_checkpoint,
    save_checkpoint,
    train,
)

ENV_OUT_DIR = "INTERVALCAST_OUT"


# ---------------------------------------------------------------------------
# flag parsing helpers


def _parse_interval(text: str) -> Interval:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--interval expects 'lo,hi', got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"--interval expects two numbers, got {text!r}") from None
    return Interval(lo, hi)


def _parse_nu(text: str) -> DecaySpec:
    if text.strip().lower() in ("inf", "infinity"):
        return DecaySpec(math.inf)
    try:
        return DecaySpec(float(text))
    except ValueError:
        raise ConfigError(f"--nu expects a number or 'inf', got {text!r}") from None


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} names no values")
    return values


def _int_flag(flag: str, minimum: int, many: bool = False):
    """The argparse type of an integer flag (a comma list if ``many``), none below ``minimum``."""
    def parse(text: str):
        values = _parse_int_list(text, flag) if many else [int(text)]
        if min(values) < minimum:
            raise ConfigError(f"{flag} must be >= {minimum}, got {min(values)}")
        return values if many else values[0]
    parse.__name__ = "int"  # argparse names the type when the text is not an integer
    return parse


def _parse_split(text: str) -> SplitSpec:
    parts = text.split(",")
    if len(parts) != 3:
        raise ConfigError(f"--split expects 'train,val,test', got {text!r}")
    try:
        fracs = [float(p) for p in parts]
    except ValueError:
        raise ConfigError(f"--split expects three numbers, got {text!r}") from None
    if any(f > 1 for f in fracs):  # percentages like 66,17,17
        fracs = [f / 100.0 for f in fracs]
    return SplitSpec(*fracs)


def _parse_sweep(text: str) -> tuple[str, list]:
    if "=" not in text:
        raise ConfigError(f"--sweep expects 'param=values', got {text!r}")
    param, values = text.split("=", 1)
    param = param.strip().lower()
    if param == "l":
        return "L", _parse_int_list(values, "--sweep L")
    if param == "nu":
        return "nu", [_parse_nu(v) for v in values.split(",")]
    if param == "delta":
        # 12 significant digits drop linspace's rounding noise (0.15000000000000002
        # is the 0.15 of 0:0.4:9), so sweep.csv and the C label show one value
        return "delta", [float(f"{v:.12g}") for v in _parse_thresholds(values, "--sweep delta")]
    raise ConfigError(f"unknown sweep parameter {param!r}, expected L, nu or delta")


def _parse_paths(text: str) -> list[str]:
    return [p for p in text.split(",") if p.strip()]


def _parse_thresholds(text: str, flag: str = "--thresholds") -> np.ndarray:
    """A 'start:stop:count' grid, as for ``--thresholds`` and ``--sweep delta=``."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{flag} expects 'start:stop:count', got {text!r}")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"bad {flag} grid {text!r}") from None
    if count < 1:
        raise ConfigError(f"{flag} grid count must be >= 1")
    return np.linspace(start, stop, count)


def _config_key(name: str) -> str:
    """A config key or a long flag without its dashes, as config files match them."""
    return name.strip().lower().replace("-", "_")


def _load_config_file(path: str) -> dict[str, str]:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected KEY=VALUE, got {raw!r}")
        key, value = line.split("=", 1)
        values[_config_key(key)] = value.strip()
    return values


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(ENV_OUT_DIR) or "runs"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# dataset assembly shared by train / eval / sweep


# The data flags that only one data source reads, with their defaults. The
# parser leaves them None, so a flag the chosen source ignores can be named.
_DATA_FLAGS = {
    "synthetic data": {"data_seed": 0, "noise_sd": 0.05},
    "CSV data": {"domain_max": 1.0, "channels": 100},
}


def _load_series(args) -> tuple[TimeSeries, float]:
    """The normalized series and the raw series' domain maximum.

    Prints one stderr warning per data flag that the chosen source ignores.
    """
    source = "synthetic data" if args.data == "synth" else "CSV data"
    for other, flags in _DATA_FLAGS.items():
        for dest in flags:
            if other != source and getattr(args, dest) is not None:
                print(f"warning: --{dest.replace('_', '-')} is ignored with {source}",
                      file=sys.stderr)
    value = {dest: default if getattr(args, dest) is None else getattr(args, dest)
             for dest, default in _DATA_FLAGS[source].items()}
    if args.data == "synth":
        raw = generate_synthds(value["data_seed"], value["noise_sd"])
    else:
        raw = load_csv(args.data, value["channels"], value["domain_max"])
    series, _ = normalize(raw)
    return series, raw.domain_max


# Each optional PolicyConfig field: the dest of the flag that sets it and
# the value it takes when the flag is not given. The interval has no
# default, so the e2e policy requires its flag.
_POLICY_FIELD_FLAGS = {
    "task_interval": ("interval", None),
    "delta": ("delta", 0.2),
    "partition": ("L", 4),
    "nu": ("nu", DecaySpec(math.inf)),
    "phi": ("phi", 0.5),
}


def _warn_ignored_flags(args, kind: str) -> None:
    """One stderr warning per policy flag that the ``kind`` policy does not take."""
    for name, (dest, _) in _POLICY_FIELD_FLAGS.items():
        if name not in POLICY_FIELDS[kind] and getattr(args, dest) is not None:
            print(f"warning: --{dest} is ignored by the {kind} policy", file=sys.stderr)


def _policy_from_args(args, kind: str, **swept) -> PolicyConfig:
    """The ``kind`` policy from its flags, with ``swept`` values (by dest) taking precedence."""
    fields = {}
    for name in POLICY_FIELDS[kind]:
        dest, default = _POLICY_FIELD_FLAGS[name]
        value = swept.get(dest, getattr(args, dest))
        if value is None:
            if default is None:
                raise ConfigError(f"--{dest} is required for the {kind} policy")
            value = default
        fields[name] = DiscretePartition(value) if name == "partition" else value
    return PolicyConfig(kind, weight_decay=args.weight_decay, **fields)


def _train(args, policy, train_s, val_s, seed):
    """``train`` with the model and loop settings that the flags give."""
    return train(
        policy, args.model, train_s, val_s, seed,
        epochs=args.epochs, batch_size=args.batch, patience=args.patience,
        hidden=args.hidden, kernel=args.kernel,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    series = generate_synthds(args.seed, args.noise_sd)
    out = _out_dir(args)
    path = out / args.name
    write_csv(series, path)
    print(f"wrote {path} ({series.T} x {series.n})")
    return 0


def cmd_train(args) -> int:
    if args.policy is None:
        raise ConfigError("--policy is required (flag or config file)")
    policy = _policy_from_args(args, args.policy)
    _warn_ignored_flags(args, args.policy)
    started = time.time()
    series, _ = _load_series(args)
    cfg = WindowConfig(args.w, args.tau, args.stride)
    train_s, val_s, _, _ = split_windows(series, cfg, args.split)
    out = _out_dir(args)
    params, report, steps = _train(args, policy, train_s, val_s, args.seed)
    save_checkpoint(out / "checkpoint.json", params, steps, policy)
    write_rows(out / "report.csv", ["epoch", "train_loss", "val_loss", "lr"],
               [(r.epoch, r.train_loss, r.val_loss, r.lr) for r in report.epochs])
    write_rows(out / "summary.csv", ["best_epoch", "stopped_early", "epochs_run"],
               [(report.best_epoch, report.stopped_early, len(report.epochs))])
    log = [
        f"started_unix={started}",
        f"policy={policy.label()} model={args.model} seed={args.seed}",
        f"epochs_run={len(report.epochs)} best_epoch={report.best_epoch} "
        f"stopped_early={report.stopped_early}",
        f"wall_clock_seconds={report.wall_clock_seconds}",
    ]
    (out / "train.log").write_text("\n".join(log) + "\n", encoding="utf-8")
    print(
        f"trained {policy.label()} ({args.model}, seed {args.seed}): "
        f"best epoch {report.best_epoch}, "
        f"val loss {report.epochs[report.best_epoch].val_loss:.6g}"
    )
    return 0


def cmd_eval(args) -> int:
    if not args.checkpoints:
        raise ConfigError("--checkpoints must name at least one file")
    # Every checkpoint is read and checked before any evaluation runs.
    loaded = []
    for path in args.checkpoints:
        params, _, policy = load_checkpoint(path)
        label = policy.label()
        if policy.kind == "dstar":
            label += f"^{args.strategy}"
        loaded.append((path, params, policy, label))
    first = loaded[0][1].arch
    for path, params, _, _ in loaded[1:]:
        if (params.arch.w, params.arch.tau) != (first.w, first.tau):
            raise ConfigError(
                f"{path}: window {params.arch.w}/{params.arch.tau} differs from "
                f"the first checkpoint's {first.w}/{first.tau}"
            )
    require_baseline([label for *_, label in loaded])
    series, domain_max = _load_series(args)
    for path, params, _, _ in loaded:
        if params.arch.n != series.n:
            raise ConfigError(f"{path}: {params.arch.n} channels, but the series has {series.n}")
    partition = DiscretePartition(args.L)
    cfg = WindowConfig(first.w, first.tau, args.stride)
    *_, test_series = split_windows(series, cfg, args.split)
    out = _out_dir(args)
    per_run = []
    runs_by_policy: dict[str, list] = {}
    for path, params, policy, label in loaded:
        metrics = rolling_eval(
            params, policy, test_series, cfg, partition.intervals, strategy=args.strategy
        )
        maes = [m.mae * domain_max if args.native and m.mae is not None else m.mae
                for m in metrics]
        for m, mae in zip(metrics, maes):
            per_run.append((label, path, m.interval.lo, m.interval.hi, mae,
                            m.covered_entries, m.total_entries))
        runs_by_policy.setdefault(label, []).append(maes)
    write_rows(out / "eval_runs.csv",
               ["label", "checkpoint", "interval_lo", "interval_hi", "mae", "covered", "total"],
               per_run)
    write_table_csv(out / "table.csv", partition.intervals, runs_by_policy)
    print(f"wrote {out / 'table.csv'} and {out / 'eval_runs.csv'}")
    return 0


def cmd_sweep(args) -> int:
    if args.sweep is None:
        raise ConfigError("--sweep is required (flag or config file)")
    param, values = args.sweep
    eval_cells = DiscretePartition(args.eval_L).intervals
    runs, summary = [], []
    series, _ = _load_series(args)
    cfg = WindowConfig(args.w, args.tau, args.stride)
    train_s, val_s, _, test_series = split_windows(series, cfg, args.split)

    kind = "c" if param == "delta" else "dstar"
    policies = [_policy_from_args(args, kind, **{param: v}) for v in values]
    _warn_ignored_flags(args, kind)
    if getattr(args, param) is not None:
        print(f"warning: --{param} is ignored: --sweep sets it", file=sys.stderr)
    out = _out_dir(args)
    for value, policy in zip(values, policies):
        strategies = STRATEGIES if policy.kind == "dstar" else (STRATEGY_AVERAGE,)
        per_strategy: dict[str, list[float]] = {s: [] for s in strategies}
        value_text = value.nu if isinstance(value, DecaySpec) else value
        for seed in args.seeds:
            params, _, _ = _train(args, policy, train_s, val_s, seed)
            for strategy in strategies:
                metrics = rolling_eval(
                    params, policy, test_series, cfg, eval_cells, strategy=strategy
                )
                maes = [m.mae for m in metrics if m.mae is not None]
                avg = float(np.mean(maes))
                per_strategy[strategy].append(avg)
                runs.append((param, value_text, seed, strategy, avg))
        means = {s: float(np.mean(per_strategy[s])) for s in strategies}
        # gamma < 1 favors the max-confidence strategy; blank without both strategies
        gamma = None
        if len(strategies) == 2 and means[STRATEGY_AVERAGE] > 0:
            gamma = means[STRATEGY_MAXCONF] / means[STRATEGY_AVERAGE]
        summary += [(param, value_text, s, means[s], gamma) for s in strategies]
    write_rows(out / "sweep.csv", ["param", "value", "seed", "strategy", "mae_avg"], runs)
    write_rows(out / "sweep_summary.csv",
               ["param", "value", "strategy", "mae_avg_mean", "gamma"], summary)
    print(f"wrote {out / 'sweep.csv'} and {out / 'sweep_summary.csv'}")
    return 0


def _read_utilization(path: str) -> np.ndarray:
    series = load_csv(path, channel_limit=1, domain_max=1.0)
    return series.values[:, 0]


def cmd_energy(args) -> int:
    if [bool(args.truth), bool(args.forecast)] != [not args.trace] * 2:
        raise ConfigError("energy takes either --trace or both --truth and --forecast")
    cfg = EnergySimConfig(
        c_cap=args.c_cap, c_cov=args.c_cov, alpha=args.alpha,
        e_on=args.e_on, e_off=args.e_off, lam=vars(args)["lambda"],
    )
    if args.trace:
        u = _read_utilization(args.trace)
        outcomes, best = sweep_threshold(u, args.thresholds, cfg)
        rows = [(o.threshold, o.r_bar, o.e_bar, o.objective, o.sleep_steps) for o in outcomes]
        # made once every input is checked, so a failed run leaves no empty directory
        out = _out_dir(args)
        write_rows(out / "thresholds.csv",
                   ["threshold", "r_bar", "e_bar", "objective", "sleep_steps"],
                   rows + [(f"# best_threshold={best!r}",)])
        print(f"wrote {out / 'thresholds.csv'} (best threshold {best:g})")
        return 0
    u_true = _read_utilization(args.truth)
    u_fc = np.clip(_read_utilization(args.forecast), 0.0, 1.0)
    rows = []
    for th in args.thresholds:
        errs = compare_decisions(u_true, u_fc, float(th), cfg)
        rows.append((th, errs.sleep_duration_error, errs.mismatch_steps, errs.energy_error_wh))
    out = _out_dir(args)
    write_rows(out / "decision_errors.csv",
               ["threshold", "sleep_duration_error", "mismatch_steps", "energy_error_wh"], rows)
    print(f"wrote {out / 'decision_errors.csv'}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", default="synth", help="'synth' or a CSV path")
    p.add_argument("--data-seed", type=_int_flag("--data-seed", 0), default=None,
                   help="seed for the synthetic trace (0)")
    p.add_argument("--noise-sd", type=float, default=None, help="synthetic noise level (0.05)")
    p.add_argument("--domain-max", type=float, default=None,
                   help="value-domain maximum for CSV data (1)")
    p.add_argument("--channels", type=int, default=None, help="channel crop for CSV data (100)")
    p.add_argument("--stride", type=int, default=1, help="window stride")
    p.add_argument("--split", type=_parse_split, default="66,17,17",
                   help="train,val,test fractions")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--w", type=int, default=48, help="history window length")
    p.add_argument("--tau", type=int, default=24, help="forecast horizon")
    p.add_argument("--model", choices=("mlp", "linear"), default="mlp")
    p.add_argument("--hidden", type=_int_flag("--hidden", 1), default=64, help="mlp hidden width")
    p.add_argument("--kernel", type=_int_flag("--kernel", 1), default=25,
                   help="linear moving-average window")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=_int_flag("--epochs", 1), default=DEFAULT_EPOCHS)
    p.add_argument("--batch", type=_int_flag("--batch", 1), default=DEFAULT_BATCH)
    p.add_argument("--patience", type=_int_flag("--patience", 1), default=DEFAULT_PATIENCE)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--interval", type=_parse_interval, default=None,
                   help="task interval 'lo,hi' (e2e)")
    p.add_argument("--delta", type=float, default=None, help="minimum interval length (c)")
    p.add_argument("--L", type=int, default=None, help="partition size (d, dstar)")
    p.add_argument("--nu", type=_parse_nu, default=None, help="decay rate or 'inf' (dstar)")
    p.add_argument("--phi", type=float, default=None, help="classification weight (dstar)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalcast",
        description="Interval-conditioned forecasting experiments",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None)
    common.add_argument("--config", default=None, help="file of KEY=VALUE flag settings")

    def add_command(name, func, summary):
        p = sub.add_parser(name, help=summary, parents=[common], allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = add_command("generate", cmd_generate, "write the synthetic trace as CSV")
    p.add_argument("--seed", type=_int_flag("--seed", 0), default=0)
    p.add_argument("--noise-sd", type=float, default=0.05)
    p.add_argument("--name", default="synthds.csv", help="output file name")

    p = add_command("train", cmd_train, "train one policy with one seed")
    p.add_argument("--policy", choices=POLICY_KINDS, default=None)
    p.add_argument("--seed", type=_int_flag("--seed", 0), default=0)
    _add_data_flags(p)
    _add_model_flags(p)
    _add_train_flags(p)

    p = add_command("eval", cmd_eval, "per-interval comparison table for checkpoints")
    p.add_argument("--checkpoints", type=_parse_paths, default=None,
                   help="comma-separated checkpoint paths")
    p.add_argument("--L", type=int, default=4, help="evaluation partition size")
    p.add_argument("--strategy", choices=STRATEGIES, default=STRATEGY_AVERAGE)
    p.add_argument("--native", action="store_true",
                   help="report MAE in the data's units (times its domain maximum)")
    _add_data_flags(p)

    p = add_command("sweep", cmd_sweep, "grid sweep over L, nu, or delta")
    p.add_argument("--sweep", type=_parse_sweep, default=None,
                   help="'L=4,8,16,32', 'nu=0,1,2,5,inf', or 'delta=0:0.4:9'")
    p.add_argument("--seeds", type=_int_flag("--seeds", 0, many=True), default="0",
                   help="comma-separated training seeds")
    p.add_argument("--eval-L", type=int, default=4, help="evaluation partition size")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_train_flags(p)

    p = add_command("energy", cmd_energy, "threshold study / decision comparison")
    p.add_argument("--trace", default=None, help="utilization CSV for a threshold sweep")
    p.add_argument("--truth", default=None, help="true utilization CSV")
    p.add_argument("--forecast", default=None, help="forecast utilization CSV")
    p.add_argument("--c-cap", type=float, default=100.0)
    p.add_argument("--c-cov", type=float, default=30.0)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--e-on", type=float, default=1266.0)
    p.add_argument("--e-off", type=float, default=320.0)
    p.add_argument("--lambda", type=float, default=0.5)
    p.add_argument("--thresholds", type=_parse_thresholds, default=default_threshold_grid(),
                   help="'start:stop:count' grid")
    return parser


def _config_flags(path: str, defaults: dict) -> list[str]:
    """The flag tokens that a config file's KEY=VALUE lines name.

    A key matches a dest of ``defaults`` in any case, with ``-`` and ``_``
    alike; its flag is the dest with ``_`` as ``-``. A dest whose default is
    False is a switch, given when the value reads as true.
    """
    dests = {_config_key(d): d for d in defaults if d not in ("command", "func")}
    tokens = []
    for key, value in _load_config_file(path).items():
        if key not in dests:
            raise ConfigError(f"unknown config key {key!r}")
        flag = "--" + dests[key].replace("_", "-")
        if defaults[dests[key]] is not False:
            tokens.append(f"{flag}={value}")
        elif value.lower() in ("1", "true", "yes", "on"):
            tokens.append(flag)
    return tokens


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            defaults = vars(parser.parse_args([args.command]))
            at = argv.index(args.command) + 1
            argv[at:at] = _config_flags(args.config, defaults)
            args = parser.parse_args(argv)
        return args.func(args)
    except (IntervalcastError, OSError, ValueError, KeyError) as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
