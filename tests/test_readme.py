"""The README's library example runs as written, and its commands parse."""

import re
import shlex
from pathlib import Path

import numpy as np

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


def _cli_commands() -> list[list[str]]:
    """Each ``intervalcast`` command of the "Command line" block, as argv tokens."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("intervalcast ")]


def test_readme_commands_parse():
    # parsed, not run: a flag the parser does not know exits with status 2
    commands = _cli_commands()
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


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
