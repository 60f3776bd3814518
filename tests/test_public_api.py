"""Every public name has a user besides the tests."""

import dataclasses
import re
from pathlib import Path

import clustersqueeze
from clustersqueeze.tolerances import Tolerances

ROOT = Path(__file__).resolve().parent.parent

# Public reference implementations: the library does not call them, and
# tests compare the derivations and the library's results against them.
REFERENCE_IMPLEMENTATIONS = {
    "squeezing_generator": "mode-basis generator G that the real quadrature generator K derives from",
    "bogoliubov_oracle": "X and Y read off the brute-force flow, against the closed-form blocks",
    "covariance_from_pair": "covariance of an explicit pair, which shows the reality condition is necessary",
    "k_matrix_form": "angle-matrix form K of a structure factor, the alternative route to A",
    "adjacency_from_k": "A = -cos(K) / (1 + sin(K)), against adjacency_from_unitary",
    "unitary_from_interferometer": "U = i V V^T, the interferometer identity of the decomposition",
}


def _sources():
    src = ROOT / "src" / "clustersqueeze"
    files = [f for f in src.glob("*.py") if f.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + [ROOT / "README.md"]
    return [f.read_text(encoding="utf-8") for f in files]


def _used_outside_tests(name, texts):
    word = re.compile(rf"\b{re.escape(name)}\b")
    own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    return any(
        word.search(line) and not own.match(line)
        for text in texts
        for line in text.splitlines()
    )


def test_no_test_only_public_names():
    texts = _sources()
    unused = [
        name
        for name in clustersqueeze.__all__
        if name not in REFERENCE_IMPLEMENTATIONS and not _used_outside_tests(name, texts)
    ]
    assert unused == []


def test_reference_implementations_are_public():
    assert set(REFERENCE_IMPLEMENTATIONS) <= set(clustersqueeze.__all__)


def test_every_tolerance_is_read():
    """A threshold whose uses all moved into the check table is not left behind."""
    src = ROOT / "src" / "clustersqueeze"
    texts = [f.read_text(encoding="utf-8") for f in src.glob("*.py") if f.name != "tolerances.py"]
    unread = [
        field.name
        for field in dataclasses.fields(Tolerances)
        if not any(re.search(rf"\bDEFAULT_TOLERANCES\.{field.name}\b", text) for text in texts)
    ]
    assert unread == []
