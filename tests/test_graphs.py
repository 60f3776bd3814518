"""Tests for the cluster model and graph file I/O."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from clustersqueeze import (
    ClusterPlan,
    DimensionMismatch,
    DuplicateEdge,
    IndexOutOfRange,
    NotSymmetric,
    ParseError,
    adjacency_matrix,
    format_graph,
    parse_graph,
    phase_vector,
)
from clustersqueeze import graphs

from conftest import (
    nullifier_map,
    perfbench_graph_text,
    random_adjacency,
    random_phases,
    reference_format_graph,
    reference_parse_graph,
)


class TestAdjacencyMatrix:
    def test_symmetrizes_input(self):
        a = adjacency_matrix([[0.0, 1.0 + 1e-14], [1.0, 0.0]])
        assert np.array_equal(a, a.T)

    def test_rejects_asymmetry(self):
        with pytest.raises(NotSymmetric):
            adjacency_matrix([[0.0, 1.0], [2.0, 0.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            adjacency_matrix([[np.inf, 0.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            adjacency_matrix(np.zeros((2, 3)))

    def test_symmetrizes_without_overflow(self):
        # a + a.T overflows for a pair past half the float range: halving
        # first keeps the matrix finite, with no numpy warning, and an
        # exactly symmetric input, -0.0 included, keeps its bits
        exact = np.array([[-0.0, 1.5e308, 5e-324], [1.5e308, 1.0, -1.7e308], [5e-324, -1.7e308, -0.0]])
        near = np.array([[0.0, 1.5e308], [np.nextafter(1.5e308, 0.0), 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a, b = adjacency_matrix(exact), adjacency_matrix(near)
        assert np.array_equal(a.view(np.uint64), exact.view(np.uint64))
        assert np.isfinite(b).all() and np.array_equal(b, b.T)
        assert b[0, 1] == 1.5e308 / 2.0 + np.nextafter(1.5e308, 0.0) / 2.0


class TestPhaseVector:
    def test_principal_branch(self):
        th = phase_vector([3 * np.pi, -np.pi, np.pi / 2])
        assert np.allclose(th, [np.pi, np.pi, np.pi / 2])
        assert np.all((th > -np.pi) & (th <= np.pi))

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatch):
            phase_vector([0.0, 0.0], n=3)


class TestParseGraph:
    def test_single_node(self):
        assert np.array_equal(parse_graph("1\n"), np.zeros((1, 1)))

    def test_unit_edge(self):
        a = parse_graph("2\n0 1 1.0\n")
        assert np.array_equal(a, [[0.0, 1.0], [1.0, 0.0]])

    def test_triangle_with_negative_weight(self):
        a = parse_graph("3\n0 1 1\n1 2 1\n0 2 -0.5\n")
        expected = np.array(
            [[0.0, 1.0, -0.5], [1.0, 0.0, 1.0], [-0.5, 1.0, 0.0]]
        )
        assert np.array_equal(a, expected)

    def test_comments_and_blank_lines(self):
        a = parse_graph("# header\n\n2\n# edge list\n0 1 2.5\n")
        assert a[0, 1] == 2.5

    def test_self_loop(self):
        a = parse_graph("1\n0 0 -1.0\n")
        assert a[0, 0] == -1.0

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_graph("# c\n2\n0 1\n")

    def test_bad_mode_count(self):
        with pytest.raises(ParseError, match="not an integer"):
            parse_graph("x\n")
        with pytest.raises(ParseError, match="positive"):
            parse_graph("0\n")

    def test_bad_weight(self):
        with pytest.raises(ParseError, match="not a number"):
            parse_graph("2\n0 1 w\n")

    def test_duplicate_edge_unordered(self):
        with pytest.raises(DuplicateEdge, match="line 3"):
            parse_graph("2\n0 1 1.0\n1 0 2.0\n")

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange, match="line 2"):
            parse_graph("2\n0 2 1.0\n")

    def test_empty_file(self):
        with pytest.raises(ParseError, match="mode count"):
            parse_graph("# nothing\n")


def _outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


def assert_parses_as_reference(text):
    """Same matrix bit for bit, or the same exception type and message."""
    got = _outcome(parse_graph, text)
    want = _outcome(reference_parse_graph, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray), got
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


_INDEX = st.sampled_from(["0", "1", "2", "3", "007", "+1", "-0"])
_WEIGHT = st.sampled_from(["0.5", "-0.25", "1e-3", "-0.0", "+.5e1", "2."])
_NOISE = st.sampled_from(
    ["4", "-1", "1_0", "\u0661", "nan", "inf", "1e400", "x", "#", "1.0", "1e0"]
)
_EDGE_LINE = st.tuples(_INDEX, _INDEX, _WEIGHT).map(" ".join)
_NOISY_LINE = st.lists(
    st.one_of(_INDEX, _WEIGHT, _NOISE), min_size=2, max_size=4
).map(" ".join)
_SKIPPED_LINE = st.sampled_from(["", "  ", "# c", " # 1 2", "\t#"])


def _loop_forbidden(text):
    raise AssertionError("fell back to the per-line loop")


class TestBulkParser:
    """The bulk path against the per-line loop it replaced."""

    @pytest.mark.parametrize("n", [192, 320])
    def test_dense_benchmark_graph(self, n, monkeypatch):
        text = perfbench_graph_text(np.random.default_rng(n), n)
        expected = reference_parse_graph(text)
        monkeypatch.setattr(graphs, "_parse_lines", _loop_forbidden)
        a = parse_graph(text)
        assert np.array_equal(a, expected)
        assert a.tobytes() == expected.tobytes()

    def test_comments_blank_lines_and_crlf_stay_on_bulk_path(self, monkeypatch):
        head, *edges = perfbench_graph_text(np.random.default_rng(7), 9).splitlines()
        text = (
            "# header\n\n \t\n" + head + "\n  # edges\n\t\n"
            + "\r\n".join(edges[:20]) + "\n#\n" + "\n".join(edges[20:]) + "\n# end"
        )
        expected = reference_parse_graph(text)
        monkeypatch.setattr(graphs, "_parse_lines", _loop_forbidden)
        assert parse_graph(text).tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "text",
        [
            "2\n0 1\x0c0.5\n",       # str.splitlines breaks at \f; numpy would not
            "2\n0 1 0.5\x1c1 1 2\n",
            "2\n0 1 0.5\u20281 1 2\n",
            "2\n0 1 0.5\r1 1 2\n",
            "# c\x0c2\n0 1 0.5\n",   # the break ends the comment for the loop
            "2\n# c\x0c1 1 0.5\n0 1 0.5\n",
            "2\n0 1 0.5 # c\n",       # trailing comments stay an error
            "2\n0 1 0.5\n 1 1 2 #\n",
            "2\n\xa0# c\n0 1 0.5\n",  # loop: a comment; numpy: tokens "#", "c"
            "2\n0 1 1_0\n",           # the loop reads these; the bulk path does not
            "\u0662\n\u0660 \u0661 0.5\n",
            "2\n0\u20031 0.5\n",
            "+2\n+0 +1 +.5e-1\n",
            "2\n0 1 0x1\n",
            "2\n0 1.0 0.5\n",
            "2\n0 1e0 0.5\n",
            "2\n0 1 nan\n",
            "2\n0 1 -inf\n",
            "2\n0 1 1e400\n",
            "2\n0 1 0.5\n1 0 0.5\n",
            "2\n0 -1 0.5\n",
            "2\n0 99999999999999999999 0.5\n",
            "2\n0 1\n",
            "2\n0 1 2 3\n",
            "2\n",
            "2",
            "0\n",
            "-1\n0 0 1\n",
            "x\n0 0 1\n",
            "2 2\n",
            "",
            "# only\n\n",
        ],
    )
    def test_matches_reference(self, text):
        assert_parses_as_reference(text)

    @pytest.mark.parametrize(
        "char",
        [chr(c) for c in [*range(0x20), 0x7F, 0x85, 0xA0, 0x1680, 0x2003, 0x200B,
                          0x2028, 0x2029, 0x202F, 0x3000, 0xFEFF]]
        + ["_", "#", "x", "\u0661", "\uff11", "\U0001d7ce"],
        ids=lambda c: f"U+{ord(c):04X}",
    )
    def test_one_odd_character_anywhere(self, char):
        for text in [
            f"3\n0 1{char}0.5\n",
            f"3\n0 1 0.5{char}\n",
            f"3\n{char}0 1 0.5\n",
            f"3\n0 1 0.{char}5\n",
            f"3\n0 {char} 0.5\n",
            f"3\n0 1 0.5{char}1 1 1\n",
            f"3{char}\n0 1 0.5\n",
            f"3\n# c{char}1 1 0.5\n0 1 0.5\n",
        ]:
            assert_parses_as_reference(text)

    def test_every_short_token_parses_as_in_the_loop(self):
        # All tokens of up to three characters of the bulk path's alphabet,
        # as an index and as a weight: numpy and int()/float() agree.
        alphabet = "09+-.eE"
        for size in (1, 2, 3):
            for chars in itertools.product(alphabet, repeat=size):
                token = "".join(chars)
                assert_parses_as_reference(f"3\n{token} 1 0.5\n")
                assert_parses_as_reference(f"3\n0 1 {token}\n")

    @given(
        st.lists(st.one_of(*[_EDGE_LINE] * 4, _NOISY_LINE, _SKIPPED_LINE), max_size=6),
        st.sampled_from(["4", "4", "4", " 4\t", "+4", "\u0664", "0", "x", "4 4"]),
        st.lists(st.sampled_from(["\n"] * 6 + ["\r\n", "\x0c", "\x1c", "\u2028"]), max_size=3),
        st.sampled_from(["", "# head\n", "\n \n"]),
    )
    def test_token_soup(self, lines, header, breaks, preamble):
        breaks = breaks or ["\n"]
        body = "".join(
            line + breaks[k % len(breaks)] for k, line in enumerate([header, *lines])
        )
        assert_parses_as_reference(preamble + body)


class TestFormatGraph:
    def test_matches_double_loop(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 7, 40):
            a = random_adjacency(rng, n, density=0.5)
            a[0, 0] = -0.0
            a[-1, 0] = a[0, -1] = -0.0
            assert format_graph(a) == reference_format_graph(a)
        assert format_graph(np.zeros((3, 3))) == "3\n"


class TestRoundTrip:
    def test_parse_format_parse_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            a = random_adjacency(rng, n, density=0.6)
            text = format_graph(a)
            b = parse_graph(text)
            assert np.max(np.abs(b - a)) <= 1e-15
            assert np.array_equal(parse_graph(format_graph(b)), b)


class TestNullifierMap:
    def test_single_mode_zero_graph(self):
        q = nullifier_map(ClusterPlan.of(np.zeros((1, 1)), [0.0]))
        assert np.allclose(q, [[-1j, 1j]], atol=1e-15)

    def test_unit_edge_blocks(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        q = nullifier_map(ClusterPlan.of(a, [0.0, 0.0]))
        left = -np.array([[1j, 1.0], [1.0, 1j]])
        right = -np.array([[-1j, 1.0], [1.0, -1j]])
        assert np.allclose(q[:, :2], left, atol=1e-15)
        assert np.allclose(q[:, 2:], right, atol=1e-15)

    def test_quarter_phase(self):
        q = nullifier_map(ClusterPlan.of(np.zeros((1, 1)), [np.pi / 2]))
        assert np.allclose(q, [[1.0, 1.0]], atol=1e-15)

    def test_right_block_is_conjugate_of_left(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            a = random_adjacency(rng, n)
            th = random_phases(rng, n)
            q = nullifier_map(ClusterPlan.of(a, th))
            assert np.max(np.abs(q[:, n:] - q[:, :n].conj())) <= 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            nullifier_map(ClusterPlan.of(np.zeros((2, 2)), [0.0]))
