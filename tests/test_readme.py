"""The README's library example runs as written, its commands parse, and its defaults hold."""

import re
import shlex
from pathlib import Path

import numpy as np

from intervalcast import SplitSpec
from intervalcast.cli import build_parser, main
from intervalcast.models import KINDS, ModelArch, _layout

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_example_runs():
    namespace: dict = {}
    exec(compile(_library_example(), str(README), "exec"), namespace)
    assert namespace["pred"].shape == (24, 1)
    assert np.all(np.isfinite(namespace["pred"]))
    assert namespace["preds"].shape == (len(namespace["test_s"]), 24, 1)
    assert np.allclose(namespace["preds"][0], namespace["pred"], rtol=0.0, atol=1e-12)
    assert namespace["report"].best_epoch >= 0
    # one roll per tau test windows (the split's stride is 1), the first at
    # the first test window
    rolls = (len(namespace["test_s"]) - 1) // 24 + 1
    assert namespace["rolled"].shape == namespace["targets"].shape == (rolls, 24, 1)
    assert np.array_equal(namespace["targets"][0], namespace["test_s"][0].target)
    assert np.allclose(namespace["rolled"][0], namespace["pred"], rtol=0.0, atol=1e-12)


def _cli_block() -> str:
    """The "Command line" block, its continued lines joined."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    return re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1).replace("\\\n", " ")


def _cli_commands() -> list[list[str]]:
    """Each ``intervalcast`` command of the "Command line" block, as argv tokens."""
    lines = _cli_block().splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("intervalcast ")]


def _stated_defaults(command: str) -> str:
    """What the block's first comment that states defaults above a ``command`` line states.

    That is the comment's text from "defaults:" to the next ")" or its end,
    on one line.
    """
    for paragraph in _cli_block().split("\n\n"):
        lines = paragraph.splitlines()
        comment = " ".join(line[1:].strip() for line in lines if line.startswith("#"))
        if "defaults:" in comment and any(line.startswith(f"intervalcast {command} ")
                                          for line in lines):
            return re.search(r"defaults:([^)]*)", comment).group(1).strip()
    raise AssertionError(f"the block states no defaults for {command}")


def test_readme_commands_parse():
    # parsed, not run: a flag the parser does not know exits with status 2
    commands = _cli_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_readme_stated_defaults_are_the_parsers():
    # the block's three "defaults:" comments, each read whole: a statement
    # dropped, added or changed fails to match, and each value stated is
    # the default that its command parses with no flags
    parser = build_parser()
    generate, train, energy = (vars(parser.parse_args([command]))
                               for command in ("generate", "train", "energy"))
    stated = _stated_defaults("generate")
    match = re.fullmatch(r"seed (\d+), Gaussian noise (\S+)", stated)
    assert match, stated
    seed, noise = match.groups()
    assert (int(seed), float(noise)) == (generate["seed"], generate["noise_sd"]), stated
    stated = _stated_defaults("train")
    match = re.fullmatch(r"(\w+) data, w=(\d+), tau=(\d+), (\d+)/(\d+)/(\d+) chronological "
                         r"split, (\w+), batch (\d+), (\d+) epochs", stated)
    assert match, stated
    data, w, tau, *split, model, batch, epochs = match.groups()
    assert (data, int(w), int(tau), model, int(batch), int(epochs)) == (
        train["data"], train["w"], train["tau"], train["model"], train["batch"], train["epochs"]
    ), stated
    assert SplitSpec(*(int(p) / 100 for p in split)) == train["split"], stated
    stated = _stated_defaults("energy")
    match = re.fullmatch(r"c_cap=(\S+) Mbps, c_cov=(\S+) Mbps, alpha=(\S+), e_on=(\S+) Wh, "
                         r"e_off=(\S+) Wh, (\d+) thresholds over \[(\S+), (\S+)\]", stated)
    assert match, stated
    *point, count, lo, hi = match.groups()
    names = ("c_cap", "c_cov", "alpha", "e_on", "e_off")
    assert [float(v) for v in point] == [energy[name] for name in names], stated
    grid = np.linspace(float(lo), float(hi), int(count))
    assert np.array_equal(grid, energy["thresholds"]), stated


def test_readme_energy_commands_run(tmp_path, monkeypatch):
    # every generate and energy line of the block, run in order, writes the
    # traces that the energy lines read
    monkeypatch.chdir(tmp_path)
    commands = [argv for argv in _cli_commands() if argv[0] in ("generate", "energy")]
    assert [argv[0] for argv in commands].count("energy") == 2
    for argv in commands:
        assert main(argv) == 0, argv
    thresholds = (tmp_path / "runs/th/thresholds.csv").read_text().splitlines()
    decisions = (tmp_path / "runs/cmp/decision_errors.csv").read_text().splitlines()
    assert len(thresholds) == 1 + 26 + 1  # header, one row per threshold, footer
    assert thresholds[-1].startswith("# best_threshold=")
    assert len(decisions) == 1 + 26


def test_readme_checkpoint_layout_equals_the_models_layout():
    # each kind's line of the "File formats" checkpoint entry lists the
    # parameters in flat-vector order; read with small dims, each written
    # shape equals the one the models module lays out
    entry = README.read_text(encoding="utf-8").split("* **Checkpoint**", 1)[1]
    dims = {"w": 5, "tau": 3, "n": 2, "hidden": 7}
    for kind in KINDS:
        line = re.search(rf"^  - {kind}: (.*)$", entry, re.MULTILINE).group(1)
        listed = {name: eval(f"({shape},)", {}, dims)
                  for name, shape in re.findall(r"`(\w+)` \(([^)]*)\)", line.replace("·", "*"))}
        assert list(listed.items()) == list(_layout(ModelArch(kind, **dims)).items())
