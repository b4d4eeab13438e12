"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

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
