"""Instance file parsing and emission."""

import pytest

from colorsteinitz.errors import ParseError
from colorsteinitz.instancefile import InstanceFile, emit_instance, parse_instance

from conftest import pt as P

BCASE2 = """\
dim 2
set blue
1 0
-1 0
0 1
0 -1
set red
1 0
-1 0
0 1
0 -1
set green
1 0
-1 0
0 1
0 -1
set orange
1 0
-1 0
0 1
0 -1
"""


class TestParse:
    def test_colour_system(self):
        inst = parse_instance(BCASE2)
        assert inst.dim == 2
        assert len(inst.sets) == 4
        assert all(len(s) == 4 for s in inst.sets)
        assert inst.labels == ("blue", "red", "green", "orange")

    def test_single_set_mode(self):
        inst = parse_instance("dim 2\nset\n1 0\n0 1\n-1 -1\n")
        assert len(inst.sets) == 1
        assert inst.sets[0] == (P(1, 0), P(0, 1), P(-1, -1))

    def test_comments_and_blank_lines(self):
        inst = parse_instance("# header\ndim 1\n\nset a # trailing\n1\nset b\n-2\n")
        assert inst.sets == ((P(1),), (P(-2),))

    def test_rational_coordinates(self):
        inst = parse_instance("dim 2\nset\n1/2 -3/4\n0 1\n-1 -1\n")
        assert inst.sets[0][0] == P("1/2", "-3/4")

    def test_zero_point_error(self):
        with pytest.raises(ParseError, match="zero point at set 1 index 3"):
            parse_instance("dim 2\nset\n1 0\n0 1\n0 0\n")

    def test_malformed_rational(self):
        with pytest.raises(ParseError, match="malformed rational"):
            parse_instance("dim 2\nset\n1/0 1\n")

    def test_dimension_mismatch(self):
        with pytest.raises(ParseError, match="coordinates"):
            parse_instance("dim 2\nset\n1 0 0\n")

    def test_wrong_set_count(self):
        with pytest.raises(ParseError, match="expected 1 or 4"):
            parse_instance("dim 2\nset\n1 0\nset\n0 1\n")

    def test_missing_dim(self):
        with pytest.raises(ParseError):
            parse_instance("set\n1 0\n")
        with pytest.raises(ParseError, match="missing dim header"):
            parse_instance("# no header\n")

    @pytest.mark.parametrize("header", ["dim 0", "dim", "dim -1", "dim 2 3", "dim \u00b2"])
    def test_dim_needs_a_positive_integer(self, header):
        # "\u00b2" passes str.isdigit but not int(): it must still be a ParseError
        with pytest.raises(ParseError, match="line 1: dim header needs a positive integer"):
            parse_instance(header + "\nset\n1\n")

    def test_point_before_dim(self):
        with pytest.raises(ParseError, match="line 1: point before dim header"):
            parse_instance("1 0\ndim 2\n")

    def test_no_sets(self):
        with pytest.raises(ParseError, match="no sets in instance"):
            parse_instance("dim 2\n")

    def test_point_before_set(self):
        with pytest.raises(ParseError, match="before any set"):
            parse_instance("dim 2\n1 0\n")

    def test_duplicate_dim(self):
        with pytest.raises(ParseError, match="duplicate dim"):
            parse_instance("dim 2\ndim 2\nset\n1 0\n")

    def test_empty_set(self):
        with pytest.raises(ParseError, match="empty"):
            parse_instance("dim 2\nset\n")


class TestRoundTrip:
    def test_parse_emit_parse(self):
        inst = parse_instance(BCASE2)
        assert parse_instance(emit_instance(inst)) == inst

    def test_emit_deterministic(self):
        inst = InstanceFile(1, ((P(1), P(-1)),), ("only",))
        assert emit_instance(inst) == emit_instance(inst)
        assert emit_instance(inst) == "dim 1\nset only\n1\n-1\n"
