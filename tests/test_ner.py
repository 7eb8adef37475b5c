"""Gazetteer NER (longest-cover) tests."""

from repro.text.ner import GazetteerNER


class TestLongestCover:
    def test_prefers_longest_match(self):
        ner = GazetteerNER(["jordan", "michael jordan"])
        found = ner.recognize("michael jordan scores")
        assert [m.surface for m in found] == ["michael jordan"]

    def test_multiple_mentions(self):
        ner = GazetteerNER(["jordan", "chicago bulls"])
        found = ner.recognize("jordan joins the chicago bulls")
        assert [m.surface for m in found] == ["jordan", "chicago bulls"]

    def test_no_overlapping_matches(self):
        # after consuming "michael jordan", "jordan" alone is not re-emitted
        ner = GazetteerNER(["michael jordan", "jordan"])
        found = ner.recognize("michael jordan")
        assert len(found) == 1

    def test_case_insensitive(self):
        ner = GazetteerNER(["Jordan"])
        assert [m.surface for m in ner.recognize("JORDAN wins")] == ["jordan"]

    def test_char_offsets(self):
        ner = GazetteerNER(["chicago bulls"])
        text = "go Chicago Bulls go"
        mention = ner.recognize(text)[0]
        assert text[mention.char_start : mention.char_end] == "Chicago Bulls"

    def test_token_offsets(self):
        ner = GazetteerNER(["bulls"])
        mention = ner.recognize("the bulls win")[0]
        assert (mention.token_start, mention.token_end) == (1, 2)

    def test_unknown_text_yields_nothing(self):
        ner = GazetteerNER(["jordan"])
        assert ner.recognize("nothing to see here") == []

    def test_max_phrase_len_respected(self):
        ner = GazetteerNER(["a b c"], max_phrase_len=2)
        assert ner.recognize("a b c") == []

    def test_handles_and_urls_break_phrases(self):
        ner = GazetteerNER(["michael jordan"])
        # the @handle sits between the words at the token level
        assert ner.recognize("michael @bob jordan") == []


class TestVocabulary:
    def test_len_and_contains(self):
        ner = GazetteerNER(["Jordan", "NBA"])
        assert len(ner) == 2
        assert "jordan" in ner
        assert "JORDAN" in ner
        assert "bulls" not in ner

    def test_blank_entries_ignored(self):
        ner = GazetteerNER(["", "  ", "jordan"])
        assert len(ner) == 1

    def test_invalid_max_phrase_len(self):
        import pytest

        with pytest.raises(ValueError):
            GazetteerNER([], max_phrase_len=0)
