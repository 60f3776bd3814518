"""Every walkthrough in ``demos/`` runs to completion against the library."""

import runpy
from pathlib import Path

import numpy as np
import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[path.name for path in DEMOS])
def test_demo_runs(path, capsys):
    # In-process keeps the suite fast; the demos set print options globally.
    with np.printoptions():
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quickstart_runs(capsys):
    """The README's quickstart block runs as written, so the call pattern it
    documents cannot drift from the API."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quickstart\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    with np.printoptions():
        exec(compile(code, "README.md#quickstart", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out.rstrip().endswith("True")
