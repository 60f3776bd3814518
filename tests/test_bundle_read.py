"""The bundle read path: the writer-layout fast path against ``json.loads``.

``cli._top_level_fields`` may return fields only when ``json.loads`` of the
same text succeeds with the same top-level keys and equal values for every
field read; otherwise it returns None and the text is decoded whole.  The
commands' outputs are compared with the fast path forced off, which is the
whole-text read.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clustersqueeze import cli, format_graph
from clustersqueeze.cli import EXIT_OK, main

from conftest import matrix_to_json, random_adjacency, random_phases

INTERACTION_FIELDS = ("Z", "rows", "cols", "re", "im")
VERIFY_FIELDS = ("adjacency", "theta", "P", "z", "gauge", "Z", "U", "X", "Y", "C")
FIELD_SETS = pytest.mark.parametrize("fields", [INTERACTION_FIELDS, VERIFY_FIELDS], ids=["interaction", "verify"])
SIZES = (1, 2, 8, 64)


def emitted(obj) -> str:
    """The text ``cli._emit_json`` writes for ``obj``."""
    return json.dumps(obj, indent=2) + "\n"


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """(path, text) of synthesize bundles at each size and built-in gauge."""
    tmp = tmp_path_factory.mktemp("bundles")
    rng = np.random.default_rng(16)
    built = []
    for n in SIZES:
        graph = tmp / f"g{n}.graph"
        graph.write_text(format_graph(random_adjacency(rng, n, weight=1.0, density=0.5)), encoding="utf-8")
        phases = tmp / f"p{n}.txt"
        phases.write_text("".join(f"{float(t)!r}\n" for t in random_phases(rng, n)), encoding="utf-8")
        for gauge in ("identity", "faithful"):
            out = tmp / f"b{n}-{gauge}.json"
            args = ["synthesize", "--graph", str(graph), "--phases", str(phases), "--gauge", gauge,
                    "-z", "0.7", "--out", str(out)]
            assert main(args) == EXIT_OK
            built.append((str(out), out.read_text(encoding="utf-8")))
    return built


def same_value(a, b) -> bool:
    """Equal values, NaN equal to NaN and 0.0 apart from -0.0."""
    return json.dumps(a) == json.dumps(b)


def assert_sound(text, fields):
    """The fast path's dict agrees with ``json.loads`` on the keys and the
    fields read, or the fast path declined; returns its result."""
    got = cli._top_level_fields(text, fields)
    if got is not None:
        want = json.loads(text)  # must not raise when the fast path answered
        assert isinstance(want, dict) and list(got) == list(want)
        for key in set(fields) & set(want):
            assert same_value(got[key], want[key]), key
    return got


class TestWriterLayout:
    @FIELD_SETS
    def test_bundles_take_the_fast_path(self, bundles, fields):
        for path, text in bundles:
            assert assert_sound(text, fields) is not None, path

    @FIELD_SETS
    @pytest.mark.parametrize("n", SIZES)
    def test_bare_matrices_take_the_fast_path(self, n, fields):
        rng = np.random.default_rng(n)
        real = rng.normal(size=(n, n))
        for m in (real, real + 1j * rng.normal(size=(n, n)), 1e300 * real, 1e-300 * real):
            assert assert_sound(emitted(matrix_to_json(m)), fields) is not None

    @pytest.mark.parametrize("command", ["analyze", "decompose", "verify"])
    def test_output_is_that_of_the_whole_text_read(self, command, bundles, monkeypatch, capsys):
        results = []
        fast = cli._top_level_fields

        def spy(text, fields):
            results.append(fast(text, fields))
            return results[-1]

        for path, _ in bundles:
            monkeypatch.setattr(cli, "_top_level_fields", spy)
            got = main([command, "--interaction", path]), capsys.readouterr()
            monkeypatch.setattr(cli, "_top_level_fields", lambda text, fields: None)
            assert got == (main([command, "--interaction", path]), capsys.readouterr()), path
        assert len(results) == len(bundles) and all(r is not None for r in results)


def _first_e_number(text):
    """The span of the first number of the skipped matrix ``E``."""
    return re.compile(r"-?[0-9][-+.eE0-9]*").search(text, text.index('"re": [', text.index('"E": {'))).span()


def _replace_first_e_number(token):
    def mutate(text):
        i, j = _first_e_number(text)
        return text[:i] + token + text[j:]
    return mutate


def _edit_first_e_row_end(new):
    def mutate(text):
        i = text.index("\n      ]", text.index('"E": {'))
        return text[:i] + new + text[i + len("\n      ]"):]
    return mutate


def _e_rows(count):
    def mutate(text):
        i = text.index('"rows": ', text.index('"E": {')) + len('"rows": ')
        return text[:i] + count + text[text.index(",", i):]
    return mutate


def _duplicate_z(text):
    start = text.index('\n  "Z": ')
    end = text.index('\n  "', start + 1)
    return text[:end] + text[start:end] + text[end:]


# case -> (mutation of a writer-layout bundle, whether the fast path answers);
# every case it declines but "duplicate-Z", "crlf", "not-an-object",
# "space-before-comma" and "nested-too-deep" is invalid JSON
SKIPPED_FIELD_CASES = {
    "leading-zero": (_replace_first_e_number("03"), False),
    "leading-zero-fraction": (_replace_first_e_number("-03.25"), False),
    "no-fraction-digits": (_replace_first_e_number("1."), False),
    "no-integer-digits": (_replace_first_e_number(".5"), False),
    "no-exponent-digits": (_replace_first_e_number("1e"), False),
    "bare-minus": (_replace_first_e_number("-"), False),
    "over-digit-limit": (_replace_first_e_number("1" * 5000), False),
    "count-over-digit-limit": (_e_rows("1" * 5000), False),
    "text-after-a-scalar": (lambda text: text.replace('"synthesize",', '"synthesize" 1,', 1), False),
    "space-before-comma": (lambda text: text.replace('"synthesize",', '"synthesize" ,', 1), False),
    "nested-too-deep": (_replace_first_e_number("[" * 5000 + "]" * 5000), False),
    "nan": (_replace_first_e_number("NaN"), True),
    "infinity": (_replace_first_e_number("-Infinity"), True),
    "trailing-comma": (_edit_first_e_row_end(",\n      ]"), False),
    "missing-bracket": (_edit_first_e_row_end("\n      "), False),
    "duplicate-Z": (_duplicate_z, False),
    "bom": (lambda text: "\ufeff" + text, False),
    "crlf": (lambda text: text.replace("\n", "\r\n"), False),
    "trailing-garbage": (lambda text: text + "x", False),
    "not-an-object": (lambda text: "[" + text + "]", False),
}


class TestMutatedBundles:
    @FIELD_SETS
    @pytest.mark.parametrize("case", SKIPPED_FIELD_CASES)
    def test_skipped_field_cases(self, case, fields, bundles):
        mutate, answers = SKIPPED_FIELD_CASES[case]
        for path, text in bundles:
            assert (assert_sound(mutate(text), fields) is not None) == answers, path

    @pytest.mark.parametrize("case", SKIPPED_FIELD_CASES)
    @pytest.mark.parametrize("command", ["analyze", "decompose", "verify"])
    def test_commands_answer_as_for_the_whole_text(self, case, command, bundles, tmp_path, monkeypatch, capsys):
        mutate = SKIPPED_FIELD_CASES[case][0]
        path = tmp_path / "bad.json"
        path.write_text(mutate(bundles[2][1]), encoding="utf-8")
        got = main([command, "--interaction", str(path)]), capsys.readouterr()
        monkeypatch.setattr(cli, "_top_level_fields", lambda text, fields: None)
        assert got == (main([command, "--interaction", str(path)]), capsys.readouterr())

    @FIELD_SETS
    @given(data=st.data())
    def test_byte_mutations(self, fields, bundles, data):
        _, text = data.draw(st.sampled_from(bundles[:6]))
        at = data.draw(st.integers(0, len(text) - 1))
        # bias towards the structure and number characters the layout is made of
        char = data.draw(st.sampled_from([*'0123456789-+.eE,[]{}":\n \tNaIx', "\r", "\ufeff"]))
        edit = data.draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "replace":
            bad = text[:at] + char + text[at + 1:]
        elif edit == "insert":
            bad = text[:at] + char + text[at:]
        else:
            bad = text[:at] + text[at + 1:]
        assert_sound(bad, fields)


class TestCompactBundle:
    """A bundle in another layout, here compact JSON, is decoded whole by
    ``json.loads``; only the fields a command reads have their booleans
    read as text, so a boolean elsewhere is neither walked nor judged."""

    @staticmethod
    def compact(bundles, tmp_path, field, value):
        path, text = bundles[-1]  # N = 64, faithful
        bundle = json.loads(text)
        block = bundle[field]
        bundle[field] = {**block, "re": [[value, *row[1:]] if i == 0 else row for i, row in enumerate(block["re"])]}
        out = tmp_path / "compact.json"
        out.write_text(json.dumps(bundle, separators=(",", ":")), encoding="utf-8")
        return str(out)

    def test_a_boolean_in_an_unread_field_is_ignored(self, bundles, tmp_path, capsys):
        path = self.compact(bundles, tmp_path, "E", True)
        assert cli._top_level_fields(Path(path).read_text(encoding="utf-8"), VERIFY_FIELDS) is None
        loaded = cli._load_json(path, VERIFY_FIELDS)
        assert loaded["E"]["re"][0][0] is True  # left as decoded: not walked
        assert main(["verify", "--interaction", path]) == EXIT_OK
        capsys.readouterr()

    def test_a_boolean_in_a_read_field_exits_input(self, bundles, tmp_path, capsys):
        path = self.compact(bundles, tmp_path, "P", True)
        assert cli._load_json(path, VERIFY_FIELDS)["P"]["re"][0][0] == "true"
        assert main(["verify", "--interaction", path]) == cli.EXIT_INPUT
        assert "malformed matrix object" in capsys.readouterr().err
