import io
import re

import pytest
from hypothesis import given, strategies as st

from geodex import (
    Digraph,
    DigraphFormatError,
    SearchParams,
    catalog_a,
    catalog_b,
    read_digraph,
    verify,
    write_digraph,
)
from geodex.catalog import MAX_ORDER
from strategies import digraphs

A_ARCS = {
    0: (1, 2), 1: (3, 4), 2: (5, 6), 3: (0, 8), 4: (5, 7),
    5: (1, 8), 6: (0, 4), 7: (2, 3), 8: (6, 7),
}
B_ARCS = {
    0: (1, 2), 1: (3, 4), 2: (5, 6), 3: (2, 7), 4: (5, 6),
    5: (0, 8), 6: (1, 7), 7: (0, 8), 8: (3, 4),
}


class TestEntries:
    def test_a_arc_set(self, cat_a):
        assert {v: cat_a.out[v] for v in range(9)} == A_ARCS

    def test_b_arc_set(self, cat_b):
        assert {v: cat_b.out[v] for v in range(9)} == B_ARCS

    def test_ids(self):
        assert catalog_a().id == "A"
        assert catalog_b().id == "B"

    def test_names_are_bijections(self):
        for entry in (catalog_a(), catalog_b()):
            assert len(entry.names) == 9
            assert len(set(entry.names)) == 9

    def test_a_names(self):
        assert catalog_a().names == ("u", "u1", "u2", "v1", "u4", "u5", "u6", "v", "v4")

    def test_b_names(self):
        assert catalog_b().names == ("u", "u1", "u2", "v", "u4", "u5", "u6", "v1", "v4")

    def test_b_twin_out_lists(self, cat_b):
        assert cat_b.out[2] == cat_b.out[4] == (5, 6)
        assert cat_b.out[5] == cat_b.out[7] == (0, 8)

    def test_both_verify(self, cat_a, cat_b):
        params = SearchParams(d=2, k=2, epsilon=2, diregular=True)
        assert verify(cat_a, params).ok
        assert verify(cat_b, params).ok

    def test_in_degrees_all_two(self, cat_a, cat_b):
        for g in (cat_a, cat_b):
            assert all(g.in_degree(v) == 2 for v in range(9))

    def test_provenance_present(self):
        assert catalog_a().provenance
        assert catalog_b().provenance


class TestWrite:
    def test_catalog_a_text(self, cat_a):
        text = write_digraph(cat_a)
        assert text.startswith("n 9\n0: 1 2\n")
        lines = text.splitlines()
        assert len(lines) == 10
        assert lines[9] == "8: 6 7"
        assert text.endswith("\n")
        assert all(line == line.rstrip() for line in lines)

    def test_empty_out_list_has_no_trailing_space(self):
        text = write_digraph(Digraph(2, [(1,), ()]))
        assert text == "n 2\n0: 1\n1:\n"


class TestRead:
    def test_round_trips_catalogs(self, cat_a, cat_b):
        assert read_digraph(write_digraph(cat_a)) == cat_a
        assert read_digraph(write_digraph(cat_b)) == cat_b

    def test_accepts_stream(self, cat_a):
        assert read_digraph(io.StringIO(write_digraph(cat_a))) == cat_a

    def test_single_isolated_vertex(self):
        assert read_digraph("n 1\n") == Digraph(1, [()])

    def test_missing_lines_mean_isolated(self):
        assert read_digraph("n 3\n1: 0\n") == Digraph(3, [(), (0,), ()])

    def test_comments_and_blanks_ignored(self):
        text = "# fixture\n\nn 2\n# arcs\n0: 1\n\n1: 0\n"
        assert read_digraph(text) == Digraph(2, [(1,), (0,)])

    def test_out_of_range_target(self):
        with pytest.raises(DigraphFormatError, match="out of range"):
            read_digraph("n 9\n0: 0 9\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(DigraphFormatError, match="vertex 4"):
            read_digraph("n 3\n4: 0\n")

    def test_duplicate_vertex_line(self):
        with pytest.raises(DigraphFormatError, match="listed twice"):
            read_digraph("n 2\n0: 1\n0: 1\n")

    def test_repeated_out_neighbour(self):
        with pytest.raises(DigraphFormatError, match="repeated"):
            read_digraph("n 3\n0: 1 1\n")

    def test_missing_header(self):
        with pytest.raises(DigraphFormatError, match="header"):
            read_digraph("0: 1\n")

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: missing header 'n <order>'"),
        ("\n# no header\n\n", "line 1: missing header 'n <order>'"),
        ("n -1\n", "line 1: order must be non-negative, got -1"),
        ("n 2\nx: 1\n", "line 2: vertex index is not an integer: 'x'"),
        # a number is an optional '-' and ASCII digits, as write_digraph
        # writes it; int() alone would read each of these
        ("n 1_0\n", "line 1: order is not an integer: '1_0'"),
        ("n +2\n", "line 1: order is not an integer: '+2'"),
        ("n \u0662\n", "line 1: order is not an integer: '\u0662'"),
        ("n -\n", "line 1: order is not an integer: '-'"),
        ("n 2\n+1: 0\n", "line 2: vertex index is not an integer: '+1'"),
        ("n 12\n1_1: 0\n", "line 2: vertex index is not an integer: '1_1'"),
        ("n 2\n0: +1\n", "line 2: vertex 0 has a non-integer out-neighbour"),
        ("n 2\n0: \uff11\n", "line 2: vertex 0 has a non-integer out-neighbour"),
        ("n 2\n0: --1\n", "line 2: vertex 0 has a non-integer out-neighbour"),
        # a '-' sign still parses, so these keep their range messages
        ("n 2\n-1: 0\n", "line 2: vertex -1 out of range 0..1"),
        ("n 2\n0: -1\n", "line 2: vertex 0 has out-neighbour -1 out of range 0..1"),
    ], ids=["empty", "comment-only", "negative-order", "non-integer-vertex", "underscore-order",
            "plus-order", "arabic-indic-order", "bare-minus-order", "plus-vertex",
            "underscore-vertex", "plus-target", "fullwidth-target", "double-minus-target",
            "negative-vertex", "negative-target"])
    def test_rejects_with_its_message(self, text, message):
        with pytest.raises(DigraphFormatError) as exc:
            read_digraph(text)
        assert str(exc.value) == message

    # int() refuses over 4,300 digits, and no message repeats more than
    # the first 40 characters of what it quotes
    LONG = "9" * 5000
    CUT = "9" * 40 + "... (5000 characters)"

    @pytest.mark.parametrize("text, message", [
        (f"n {LONG}\n", f"line 1: order {CUT} exceeds the limit of {MAX_ORDER}"),
        (f"n -{LONG}\n", f"line 1: order must be non-negative, got -{'9' * 39}... (5001 characters)"),
        (f"n 3\n{LONG}: 0\n", f"line 2: vertex {CUT} out of range 0..2"),
        (f"n 3\n0: 1 {LONG}\n", f"line 2: vertex 0 has out-neighbour {CUT} out of range 0..2"),
        (f"n 5 {'x' * 5000}\n",
         f"line 1: expected header 'n <order>', got {'n 5 ' + 'x' * 36!r}... (5004 characters)"),
        (f"n 3\n{'x' * 5000}\n",
         f"line 2: expected '<vertex>: <out-list>', got {'x' * 40!r}... (5000 characters)"),
        (f"n {'x' * 5000}\n", f"line 1: order is not an integer: {'x' * 40!r}... (5000 characters)"),
        (f"n 3\n{'x' * 5000}: 0\n",
         f"line 2: vertex index is not an integer: {'x' * 40!r}... (5000 characters)"),
    ], ids=["long-order", "long-negative-order", "long-vertex", "long-target", "long-header",
            "long-body-line", "long-non-integer-order", "long-non-integer-vertex"])
    def test_long_input_is_cut_short(self, text, message):
        with pytest.raises(DigraphFormatError) as exc:
            read_digraph(text)
        assert str(exc.value) == message

    def test_leading_zeros_past_the_digit_limit(self):
        zeros = "0" * 5000
        assert read_digraph(f"n {zeros}3\n{zeros}1: {zeros}2\n") == Digraph(3, [(), (2,), ()])

    def test_bad_header_order(self):
        with pytest.raises(DigraphFormatError, match="line 1"):
            read_digraph("n x\n")

    def test_order_limit(self):
        assert read_digraph(f"n {MAX_ORDER}\n").n == MAX_ORDER
        with pytest.raises(DigraphFormatError, match="exceeds the limit"):
            read_digraph(f"n {MAX_ORDER + 1}\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(DigraphFormatError, match="line 3"):
            read_digraph("n 2\n0: 1\nbogus\n")

    def test_non_integer_target(self):
        with pytest.raises(DigraphFormatError, match="non-integer"):
            read_digraph("n 2\n0: x\n")

    # digits, signs, '_', an Arabic-Indic and a fullwidth digit and a letter
    @given(st.text("019-+_\u0663\uff11x", min_size=1, max_size=4),
           st.sampled_from(["n {}\n", "n 3\n{}: 1\n", "n 3\n0: 1 {}\n", "n 3\n0: {} 1\n"]))
    def test_a_number_is_a_minus_and_ascii_digits(self, token, template):
        # anything else is refused as not an integer wherever it stands, on
        # a line with no other fault; such a number may still be out of range
        plain = re.fullmatch("-?[0-9]+", token) is not None
        try:
            read_digraph(template.format(token))
            refused = False
        except DigraphFormatError as exc:
            refused = "not an integer" in str(exc) or "non-integer" in str(exc)
        assert refused == (not plain)

    @given(digraphs(max_n=8, loops=True))
    def test_round_trip_any_digraph(self, g):
        assert read_digraph(write_digraph(g)) == g
