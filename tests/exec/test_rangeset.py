"""RangeSet: parsing, folding round-trips, padding, set algebra."""

import pytest

from repro.exec import RangeSet, RangeSetParseError


class TestParsing:
    def test_single_value(self):
        rs = RangeSet("5")
        assert list(rs) == [5]
        assert rs.fold() == "5"

    def test_simple_range(self):
        assert list(RangeSet("0-4")) == [0, 1, 2, 3, 4]

    def test_comma_list_merges(self):
        assert RangeSet("0-4,2-8").fold() == "0-8"

    def test_step(self):
        assert list(RangeSet("0-10/2")) == [0, 2, 4, 6, 8, 10]

    def test_reversed_bounds_rejected(self):
        with pytest.raises(RangeSetParseError):
            RangeSet("9-3")

    @pytest.mark.parametrize("bad", ["a-b", "1-", "-3", "1-2-3", "0-4/0", ","])
    def test_malformed_rejected(self, bad):
        with pytest.raises(RangeSetParseError):
            RangeSet(bad)

    def test_empty_text_is_empty_set(self):
        rs = RangeSet("")
        assert len(rs) == 0 and not rs and rs.fold() == ""


class TestFoldRoundTrip:
    @pytest.mark.parametrize(
        "text",
        ["0-1023", "0-38,40,42-99", "5", "0,2,4,6,8", "1-3,7-9,100"],
    )
    def test_parse_fold_parse_identity(self, text):
        once = RangeSet(text)
        again = RangeSet(once.fold())
        assert once == again
        assert again.fold() == once.fold()

    def test_fold_is_canonical_for_scrambled_input(self):
        assert RangeSet("42,0-10,5-20,41").fold() == "0-20,41-42"

    def test_overlapping_merge_roundtrip(self):
        rs = RangeSet("0-10")
        rs.update(RangeSet("5-15"))
        rs.update(RangeSet("20"))
        assert rs.fold() == "0-15,20"
        assert RangeSet(rs.fold()) == rs


class TestZeroPadding:
    def test_padding_detected(self):
        rs = RangeSet("001-003")
        assert rs.padding == 3
        assert list(rs.strings()) == ["001", "002", "003"]

    def test_padding_round_trips(self):
        rs = RangeSet("007-010")
        assert rs.fold() == "007-010"
        assert RangeSet(rs.fold()) == rs

    def test_unpadded_has_no_padding(self):
        assert RangeSet("7-10").padding == 0

    def test_padded_and_unpadded_are_distinct(self):
        assert RangeSet("007") != RangeSet("7")


class TestSetAlgebra:
    def test_union(self):
        rs = RangeSet("0-4")
        rs.update(RangeSet("3-8"))
        assert rs.fold() == "0-8"

    def test_contains_and_len(self):
        rs = RangeSet("0-9,20")
        assert 5 in rs and 20 in rs and 15 not in rs
        assert len(rs) == 11
