"""Batch command-line entry point.

Subcommands: ``generate`` (synthetic trace export), ``train`` (one policy,
one seed), ``eval`` (Table-style per-interval comparison of checkpoints),
``sweep`` (hyperparameter grids over L, nu, or delta), and ``energy`` (the
threshold study and forecast-vs-truth decision comparison).

Flag precedence: command line > config file (simple KEY=VALUE lines, each
KEY a flag name such as ``L`` or ``data-seed``) > defaults. The default
output directory comes from INTERVALCAST_OUT when set.
All result files are plain CSV; timestamps appear only in ``train.log`` so
repeated runs with identical flags are byte-identical.
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
    chrono_split,
    generate_synthds,
    load_csv,
    make_windows,
    normalize,
    write_csv,
)
from .energy import (
    EnergySimConfig,
    compare_decisions,
    default_threshold_grid,
    sweep_threshold,
)
from .errors import ConfigError, IntervalcastError
from .evaluation import (
    IntervalMetric,
    improvement_table,
    rolling_eval,
    strategy_ratio,
    write_table_csv,
)
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
    write_report_csv,
    write_summary_csv,
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


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


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
        return "L", _parse_int_list(values)
    if param == "nu":
        return "nu", [_parse_nu(v) for v in values.split(",")]
    if param == "delta":
        # 12 significant digits drop linspace's rounding noise (0.15000000000000002
        # is the 0.15 of 0:0.4:9), so sweep.csv and the C label show one value
        return "delta", [float(f"{v:.12g}") for v in _parse_thresholds(values, "--sweep delta")]
    raise ConfigError(f"unknown sweep parameter {param!r}, expected L, nu or delta")


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


def _load_series(args) -> TimeSeries:
    if args.data == "synth":
        raw = generate_synthds(args.data_seed, args.noise_sd)
    else:
        raw = load_csv(args.data, args.channels, args.domain_max)
    series, _ = normalize(raw)
    return series


def _window_config(args, w=None, tau=None) -> WindowConfig:
    return WindowConfig(w or args.w, tau or args.tau, args.stride)


def _split_samples(series, cfg, split):
    return chrono_split(make_windows(series, cfg), split)


def _test_series(series: TimeSeries, cfg: WindowConfig, test_samples) -> TimeSeries:
    """Contiguous sub-series whose target span is exactly the test samples'."""
    first, last = test_samples.t_origin[0], test_samples.t_origin[-1]
    values = series.values[first - cfg.w : last + cfg.tau]
    return TimeSeries(values, series.channel_names, series.domain_max)


# The flag that sets each optional PolicyConfig field; its dest is the flag
# name without the dashes.
_POLICY_FIELD_FLAGS = {
    "task_interval": "--interval",
    "delta": "--delta",
    "partition": "--L",
    "nu": "--nu",
    "phi": "--phi",
}


def _warn_ignored_flags(args) -> None:
    """One stderr warning per policy flag that ``args.policy`` does not take."""
    taken = POLICY_FIELDS[args.policy]
    for name, flag in _POLICY_FIELD_FLAGS.items():
        if name not in taken and getattr(args, flag[2:]) is not None:
            print(f"warning: {flag} is ignored by the {args.policy} policy", file=sys.stderr)


def _policy_from_args(args) -> PolicyConfig:
    kind = args.policy
    if kind is None:
        raise ConfigError("--policy is required (flag or config file)")
    if kind == "b":
        return PolicyConfig("b", weight_decay=args.weight_decay)
    if kind == "e2e":
        if args.interval is None:
            raise ConfigError("--interval is required for the e2e policy")
        return PolicyConfig(
            "e2e", task_interval=_parse_interval(args.interval),
            weight_decay=args.weight_decay,
        )
    if kind == "c":
        delta = 0.2 if args.delta is None else args.delta
        return PolicyConfig("c", delta=delta, weight_decay=args.weight_decay)
    partition = DiscretePartition(4 if args.L is None else args.L)
    if kind == "d":
        return PolicyConfig("d", partition=partition, weight_decay=args.weight_decay)
    nu = DecaySpec(math.inf) if args.nu is None else args.nu
    phi = 0.5 if args.phi is None else args.phi
    return PolicyConfig(
        "dstar", partition=partition, nu=nu, phi=phi, weight_decay=args.weight_decay
    )


def _train_once(args, policy, seed):
    series = _load_series(args)
    cfg = _window_config(args)
    train_s, val_s, _ = _split_samples(series, cfg, _parse_split(args.split))
    return train(
        policy,
        args.model,
        train_s,
        val_s,
        seed,
        epochs=args.epochs,
        batch_size=args.batch,
        patience=args.patience,
        hidden=args.hidden,
        kernel=args.kernel,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    if args.noise_sd < 0:
        raise ConfigError(f"--noise-sd must be >= 0, got {args.noise_sd}")
    out = _out_dir(args)
    series = generate_synthds(args.seed, args.noise_sd)
    path = out / args.name
    write_csv(series, path)
    print(f"wrote {path} ({series.T} x {series.n})")
    return 0


def cmd_train(args) -> int:
    policy = _policy_from_args(args)
    _warn_ignored_flags(args)
    out = _out_dir(args)
    started = time.time()
    params, report, opt = _train_once(args, policy, args.seed)
    save_checkpoint(out / "checkpoint.json", params, opt, policy)
    write_report_csv(out / "report.csv", report)
    write_summary_csv(out / "summary.csv", report)
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
    out = _out_dir(args)
    if not args.checkpoints:
        raise ConfigError("--checkpoints must name at least one file")
    checkpoints = [p for p in args.checkpoints.split(",") if p.strip()]
    if not checkpoints:
        raise ConfigError("--checkpoints must name at least one file")
    series = _load_series(args)
    partition = DiscretePartition(args.L)
    scale = None
    per_run_lines = ["label,checkpoint,interval_lo,interval_hi,mae,covered,total"]
    by_policy: dict[str, list] = {}
    cfg = None
    for path in checkpoints:
        params, _, policy = load_checkpoint(path)
        if cfg is None:
            cfg = WindowConfig(params.arch.w, params.arch.tau, args.stride)
            _, _, test_s = _split_samples(series, cfg, _parse_split(args.split))
            test_series = _test_series(series, cfg, test_s)
            scale = args.domain_max if args.native else 1.0
        elif (params.arch.w, params.arch.tau) != (cfg.w, cfg.tau):
            raise ConfigError(
                f"{path}: window {params.arch.w}/{params.arch.tau} differs from "
                f"the first checkpoint's {cfg.w}/{cfg.tau}"
            )
        label = policy.label()
        if policy.kind == "dstar":
            label += f"^{args.strategy}"
        metrics = rolling_eval(
            params, policy, test_series, cfg, partition.intervals,
            strategy=args.strategy, scale=scale,
        )
        for m in metrics:
            per_run_lines.append(
                f"{label},{path},{m.interval.lo!r},{m.interval.hi!r},"
                f"{'' if m.mae is None else repr(m.mae)},{m.covered_entries},{m.total_entries}"
            )
        by_policy.setdefault(label, []).append(metrics)
    (out / "eval_runs.csv").write_text("\n".join(per_run_lines) + "\n", encoding="utf-8")

    averaged = {}
    for label, runs in by_policy.items():
        merged = []
        for i, iv in enumerate(partition.intervals):
            maes = [r[i].mae for r in runs if r[i].mae is not None]
            merged.append(
                IntervalMetric(
                    iv,
                    float(np.mean(maes)) if maes else None,
                    runs[0][i].covered_entries,
                    runs[0][i].total_entries,
                )
            )
        averaged[label] = merged
    baseline = next((lbl for lbl in averaged if lbl == "B"), None)
    if baseline is None:
        raise ConfigError(
            "the comparison table needs a baseline checkpoint (policy b)"
        )
    rows = improvement_table(averaged, baseline=baseline)
    write_table_csv(out / "table.csv", rows)
    print(f"wrote {out / 'table.csv'} and {out / 'eval_runs.csv'}")
    return 0


def cmd_sweep(args) -> int:
    out = _out_dir(args)
    if not args.sweep:
        raise ConfigError("--sweep is required (flag or config file)")
    param, values = _parse_sweep(args.sweep)
    seeds = _parse_int_list(args.seeds)
    eval_cells = DiscretePartition(args.eval_L).intervals
    lines = ["param,value,seed,strategy,mae_avg"]
    summary = ["param,value,strategy,mae_avg_mean,gamma"]
    series = _load_series(args)
    cfg = _window_config(args)
    train_s, val_s, test_s = _split_samples(series, cfg, _parse_split(args.split))
    test_series = _test_series(series, cfg, test_s)

    kind = "c" if param == "delta" else "dstar"
    swept = [argparse.Namespace(**{**vars(args), "policy": kind, param: v}) for v in values]
    _warn_ignored_flags(swept[0])  # the swept flag is never ignored, so once covers all
    for value, value_args in zip(values, swept):
        policy = _policy_from_args(value_args)
        strategies = STRATEGIES if policy.kind == "dstar" else (STRATEGY_AVERAGE,)
        per_strategy: dict[str, list[float]] = {s: [] for s in strategies}
        value_text = value.nu if isinstance(value, DecaySpec) else value
        for seed in seeds:
            params, _, _ = train(
                policy, args.model, train_s, val_s, seed,
                epochs=args.epochs, batch_size=args.batch, patience=args.patience,
                hidden=args.hidden, kernel=args.kernel,
            )
            for strategy in strategies:
                metrics = rolling_eval(
                    params, policy, test_series, cfg, eval_cells, strategy=strategy
                )
                maes = [m.mae for m in metrics if m.mae is not None]
                avg = float(np.mean(maes))
                per_strategy[strategy].append(avg)
                lines.append(f"{param},{value_text},{seed},{strategy},{avg!r}")
        means = {s: float(np.mean(per_strategy[s])) for s in strategies}
        gamma = ""
        if len(strategies) == 2:
            gamma = repr(strategy_ratio(means[STRATEGY_MAXCONF], means[STRATEGY_AVERAGE]))
        for strategy in strategies:
            summary.append(f"{param},{value_text},{strategy},{means[strategy]!r},{gamma}")
    (out / "sweep.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "sweep_summary.csv").write_text("\n".join(summary) + "\n", encoding="utf-8")
    print(f"wrote {out / 'sweep.csv'} and {out / 'sweep_summary.csv'}")
    return 0


def _read_utilization(path: str) -> np.ndarray:
    series = load_csv(path, channel_limit=1, domain_max=1.0)
    return series.values[:, 0]


def cmd_energy(args) -> int:
    out = _out_dir(args)
    cfg = EnergySimConfig(
        c_cap=args.c_cap, c_cov=args.c_cov, alpha=args.alpha,
        e_on=args.e_on, e_off=args.e_off, lam=args.lam,
    )
    thresholds = (
        _parse_thresholds(args.thresholds) if args.thresholds else default_threshold_grid()
    )
    if args.trace:
        u = _read_utilization(args.trace)
        outcomes, best = sweep_threshold(u, thresholds, cfg)
        lines = ["threshold,r_bar,e_bar,objective,sleep_steps"]
        for o in outcomes:
            lines.append(
                f"{o.threshold!r},{o.r_bar!r},{o.e_bar!r},{o.objective!r},{o.sleep_steps}"
            )
        lines.append(f"# best_threshold={best!r}")
        (out / "thresholds.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {out / 'thresholds.csv'} (best threshold {best:g})")
        return 0
    if not (args.truth and args.forecast):
        raise ConfigError("energy needs either --trace or both --truth and --forecast")
    u_true = _read_utilization(args.truth)
    u_fc = np.clip(_read_utilization(args.forecast), 0.0, 1.0)
    lines = ["threshold,sleep_duration_error,mismatch_steps,energy_error_wh"]
    for th in thresholds:
        errs = compare_decisions(u_true, u_fc, float(th), cfg)
        lines.append(
            f"{float(th)!r},{errs.sleep_duration_error},{errs.mismatch_steps},"
            f"{errs.energy_error_wh!r}"
        )
    (out / "decision_errors.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {out / 'decision_errors.csv'}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", default="synth", help="'synth' or a CSV path")
    p.add_argument("--data-seed", type=int, default=0, help="seed for the synthetic trace")
    p.add_argument("--noise-sd", type=float, default=0.05, help="synthetic noise level")
    p.add_argument("--domain-max", type=float, default=1.0, help="value-domain maximum for CSV data")
    p.add_argument("--channels", type=int, default=100, help="channel crop for CSV data")
    p.add_argument("--w", type=int, default=48, help="history window length")
    p.add_argument("--tau", type=int, default=24, help="forecast horizon")
    p.add_argument("--stride", type=int, default=1, help="window stride")
    p.add_argument("--split", default="66,17,17", help="train,val,test fractions")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("mlp", "linear"), default="mlp")
    p.add_argument("--hidden", type=int, default=64, help="mlp hidden width")
    p.add_argument("--kernel", type=int, default=25, help="linear moving-average window")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=DEFAULT_EPOCHS)
    p.add_argument("--batch", type=int, default=DEFAULT_BATCH)
    p.add_argument("--patience", type=int, default=DEFAULT_PATIENCE)
    p.add_argument("--weight-decay", type=float, default=0.0)
    p.add_argument("--interval", default=None, help="task interval 'lo,hi' (e2e)")
    p.add_argument("--delta", type=float, default=None, help="minimum interval length (c)")
    p.add_argument("--L", type=int, default=None, help="partition size (d, dstar)")
    p.add_argument("--nu", type=_parse_nu, default=None, help="decay rate or 'inf' (dstar)")
    p.add_argument("--phi", type=float, default=None, help="classification weight (dstar)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalcast",
        description="Interval-conditioned forecasting experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write the synthetic trace as CSV")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-sd", type=float, default=0.05)
    p.add_argument("--name", default="synthds.csv", help="output file name")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one policy with one seed")
    p.add_argument("--policy", choices=POLICY_KINDS, default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_data_flags(p)
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="per-interval comparison table for checkpoints")
    p.add_argument("--checkpoints", default=None, help="comma-separated checkpoint paths")
    p.add_argument("--L", type=int, default=4, help="evaluation partition size")
    p.add_argument("--strategy", choices=STRATEGIES, default=STRATEGY_AVERAGE)
    p.add_argument("--native", action="store_true", help="report MAE in native units")
    _add_data_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="grid sweep over L, nu, or delta")
    p.add_argument("--sweep", default=None,
                   help="'L=4,8,16,32', 'nu=0,1,2,5,inf', or 'delta=0:0.4:9'")
    p.add_argument("--seeds", default="0", help="comma-separated training seeds")
    p.add_argument("--eval-L", type=int, default=4, help="evaluation partition size")
    _add_data_flags(p)
    _add_model_flags(p)
    _add_train_flags(p)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("energy", help="threshold study / decision comparison")
    p.add_argument("--trace", default=None, help="utilization CSV for a threshold sweep")
    p.add_argument("--truth", default=None, help="true utilization CSV")
    p.add_argument("--forecast", default=None, help="forecast utilization CSV")
    p.add_argument("--c-cap", type=float, default=100.0)
    p.add_argument("--c-cov", type=float, default=30.0)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--e-on", type=float, default=1266.0)
    p.add_argument("--e-off", type=float, default=320.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.5)
    p.add_argument("--thresholds", default=None, help="'start:stop:count' grid")
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_energy)
    return parser


def _extract_config_path(argv: list[str]) -> str | None:
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            return argv[i + 1]
        if token.startswith("--config="):
            return token.split("=", 1)[1]
    return None


def _typed_config(command_parser: argparse.ArgumentParser, raw: dict[str, str]) -> dict:
    """Convert KEY=VALUE strings through each flag's declared type.

    A key names a flag by its long option without the dashes (``L``,
    ``lambda``, ``data-seed`` or ``data_seed``), in any case. The result is
    keyed by each flag's dest, ready for ``set_defaults``.
    """
    actions = {
        _config_key(option[2:]): a
        for a in command_parser._actions
        for option in a.option_strings
        if option.startswith("--")
    }
    out = {}
    for key, value in raw.items():
        if key not in actions:
            raise ConfigError(f"unknown config key {key!r}")
        action = actions[key]
        if isinstance(action, argparse._StoreTrueAction):
            out[action.dest] = value.strip().lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            try:
                out[action.dest] = action.type(value)
            except ValueError:
                raise ConfigError(f"config key {key!r}: cannot parse {value!r}") from None
        else:
            out[action.dest] = value
    return out


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        config_path = _extract_config_path(argv)
        if config_path:
            command = next((t for t in argv if not t.startswith("-")), None)
            choices = parser._subparsers._group_actions[0].choices
            if command in choices:
                sub = choices[command]
                sub.set_defaults(**_typed_config(sub, _load_config_file(config_path)))
        args = parser.parse_args(argv)
        return args.func(args)
    except (IntervalcastError, OSError, ValueError, KeyError) as exc:
        message = str(exc).replace("\n", " ")
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
