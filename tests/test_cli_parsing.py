import argparse
import math

import numpy as np
import pytest

from intervalcast import cli
from intervalcast.cli import (
    _parse_interval,
    _parse_nu,
    _parse_split,
    _parse_sweep,
    _parse_thresholds,
)
from intervalcast.errors import ConfigError
from intervalcast.intervals import Interval


def test_parse_sweep_partition_axis():
    param, values = _parse_sweep("L=4,8,16,32")
    assert param == "L"
    assert values == [4, 8, 16, 32]


def test_parse_sweep_decay_axis():
    param, values = _parse_sweep("nu=0,1,2,5,inf")
    assert param == "nu"
    assert [v.nu for v in values[:-1]] == [0.0, 1.0, 2.0, 5.0]
    assert math.isinf(values[-1].nu)


def test_parse_sweep_delta_axis():
    param, values = _parse_sweep("delta=0:0.4:9")
    assert param == "delta"
    assert np.allclose(values, np.linspace(0.0, 0.4, 9))
    assert len(values) == 9


def test_parse_sweep_rejects_unknown_param():
    with pytest.raises(ConfigError):
        _parse_sweep("gamma=1,2")
    with pytest.raises(ConfigError):
        _parse_sweep("no-equals")


def test_parse_interval():
    assert _parse_interval("0.75,1.0") == Interval(0.75, 1.0)
    with pytest.raises(ConfigError):
        _parse_interval("0.75")
    with pytest.raises(ConfigError):
        _parse_interval("a,b")


def test_parse_nu():
    assert _parse_nu("37") .nu == 37.0
    assert math.isinf(_parse_nu("inf").nu)
    assert math.isinf(_parse_nu("Infinity").nu)
    with pytest.raises(ConfigError):
        _parse_nu("many")


def test_parse_split_percentages_and_fractions():
    assert _parse_split("66,17,17").train_frac == pytest.approx(0.66)
    assert _parse_split("0.7,0.1,0.2").test_frac == pytest.approx(0.2)
    with pytest.raises(ConfigError):
        _parse_split("50,50")


def test_parse_thresholds():
    grid = _parse_thresholds("0:0.025:26")
    assert grid.size == 26
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(0.025)
    with pytest.raises(ConfigError):
        _parse_thresholds("0:0.025")


# A value other than the default for every flag that takes one, keyed by
# dest; a new flag needs an entry here.
FLAG_VALUES = {
    "out": "o", "seed": "3", "noise_sd": "0.1", "name": "x.csv", "policy": "dstar",
    "data": "d.csv", "data_seed": "2", "domain_max": "9", "channels": "7", "w": "12",
    "tau": "6", "stride": "2", "split": "70,10,20", "model": "linear", "hidden": "6",
    "kernel": "5", "epochs": "2", "batch": "8", "patience": "1", "weight_decay": "0.01",
    "interval": "0.75,1", "delta": "0.1", "L": "8", "nu": "inf", "phi": "0.3",
    "checkpoints": "a.json,b.json", "strategy": "max", "sweep": "nu=0,1", "seeds": "0,1",
    "eval_L": "8", "trace": "u.csv", "truth": "t.csv", "forecast": "f.csv", "c_cap": "50",
    "c_cov": "20", "alpha": "0.25", "e_on": "1000", "e_off": "300", "lambda": "0.3",
    "thresholds": "0:0.5:11",
}


def _parsed(monkeypatch, argv) -> dict:
    """The namespace that ``main`` hands to the command, without running it."""
    seen = []
    for name in ("cmd_generate", "cmd_train", "cmd_eval", "cmd_sweep", "cmd_energy"):
        monkeypatch.setattr(cli, name, lambda args: seen.append(args) or 0)
    assert cli.main(argv) == 0
    values = vars(seen[0])
    del values["config"], values["func"]
    return values


def _assert_same(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for dest in a:
        if isinstance(a[dest], np.ndarray):
            assert np.array_equal(a[dest], b[dest]), dest
        else:
            assert a[dest] == b[dest], dest


def test_every_flag_is_its_own_config_key(tmp_path, monkeypatch):
    # walks every long flag of every command: its dest is the flag without
    # the dashes, and the key of that name in a config file acts as the flag
    parser = cli.build_parser()
    commands = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    cfg = tmp_path / "run.cfg"
    for command, sub in commands.items():
        defaults = _parsed(monkeypatch, [command])
        for action in sub._actions:
            for flag in action.option_strings:
                if not flag.startswith("--") or flag in ("--help", "--config"):
                    continue
                key = flag[2:]
                assert action.dest == key.replace("-", "_"), f"{command} {flag} sets its own dest"
                if action.default is False:  # a switch
                    cases = [("true", [flag]), ("false", [])]
                else:
                    cases = [(FLAG_VALUES[action.dest], [flag, FLAG_VALUES[action.dest]])]
                for value, tokens in cases:
                    cfg.write_text(f"{key}={value}\n")
                    by_config = _parsed(monkeypatch, [command, "--config", str(cfg)])
                    by_flag = _parsed(monkeypatch, [command] + tokens)
                    _assert_same(by_config, by_flag)
                    if tokens:
                        with pytest.raises(AssertionError):
                            _assert_same(by_flag, defaults)
