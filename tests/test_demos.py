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
