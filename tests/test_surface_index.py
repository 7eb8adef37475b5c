"""Segment-based fuzzy index tests, including a brute-force hypothesis check."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kb.surface_index import SegmentIndex, _segments
from repro.text.edit_distance import within_edit_distance

words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=10)


class TestSegments:
    def test_partition_covers_string(self):
        for pieces in (1, 2, 3):
            parts = _segments("abcdefg", pieces)
            assert "".join(seg for _, seg in parts) == "abcdefg"
            assert len(parts) == pieces

    def test_positions_consistent(self):
        text = "abcdefgh"
        for start, seg in _segments(text, 3):
            assert text[start : start + len(seg)] == seg


class TestLookup:
    def test_exact_match(self):
        index = SegmentIndex(["jordan", "bulls"], max_edits=1)
        assert "jordan" in index.lookup("jordan")

    def test_one_substitution(self):
        index = SegmentIndex(["jordan"], max_edits=1)
        assert index.lookup("jordon") == ["jordan"]

    def test_insertion_and_deletion(self):
        index = SegmentIndex(["jordan"], max_edits=1)
        assert index.lookup("jordaan") == ["jordan"]
        assert index.lookup("jordn") == ["jordan"]

    def test_beyond_threshold_misses(self):
        index = SegmentIndex(["jordan"], max_edits=1)
        assert index.lookup("jrdn") == []

    def test_zero_edits_is_exact_only(self):
        index = SegmentIndex(["jordan"], max_edits=0)
        assert index.lookup("jordan") == ["jordan"]
        assert index.lookup("jordon") == []

    def test_multi_word_surfaces(self):
        index = SegmentIndex(["michael jordan"], max_edits=1)
        assert index.lookup("michael jordon") == ["michael jordan"]

    def test_short_strings_bucket(self):
        index = SegmentIndex(["a", "ab"], max_edits=1)
        assert set(index.lookup("b")) == {"a", "ab"}

    def test_empty_query(self):
        index = SegmentIndex(["abc"], max_edits=1)
        assert index.lookup("") == []

    def test_add_after_construction(self):
        index = SegmentIndex([], max_edits=1)
        index.add("bulls")
        assert index.lookup("bulle") == ["bulls"]

    def test_duplicate_add_idempotent(self):
        index = SegmentIndex(["x y"], max_edits=1)
        index.add("x y")
        assert len(index) == 1

    def test_case_and_whitespace_normalised(self):
        index = SegmentIndex(["  Jordan "], max_edits=1)
        index.add("JORDAN")
        index.add("   ")
        assert len(index) == 1
        assert index.lookup(" JORDON") == ["jordan"]

    @pytest.mark.parametrize("k, entries", [(0, 3), (1, 6), (2, 7)])
    def test_one_inverted_entry_per_segment(self, k, entries):
        """A surface of at least ``k + 1`` characters is filed under its
        ``k + 1`` segments; a shorter one sits once in the short bucket."""
        index = SegmentIndex(["jordan", "bulls", "ab"], max_edits=k)
        assert index.num_index_entries() == entries

    def test_negative_max_edits_rejected(self):
        with pytest.raises(ValueError):
            SegmentIndex([], max_edits=-1)

    @given(
        st.lists(words, min_size=1, max_size=15, unique=True),
        words,
        st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, surfaces, query, k):
        """Index lookup must return exactly the within-k surfaces."""
        index = SegmentIndex(surfaces, max_edits=k)
        expected = {s for s in surfaces if within_edit_distance(query, s, k)}
        assert set(index.lookup(query)) == expected
