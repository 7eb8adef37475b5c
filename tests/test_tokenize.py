"""Tweet tokenizer tests."""

from repro.text.tokenize import tokenize, tokenize_words


class TestTokenize:
    def test_simple_words_are_lowercased(self):
        assert [t.text for t in tokenize("Michael Jordan DUNKS")] == [
            "michael",
            "jordan",
            "dunks",
        ]

    def test_usernames_keep_case(self):
        tokens = tokenize("follow @NBAOfficial now")
        assert tokens[1].text == "@NBAOfficial"
        assert tokens[1].kind == "user"

    def test_hashtags_lowercased_and_tagged(self):
        tokens = tokenize("game night #NBA")
        assert tokens[-1].text == "#nba"
        assert tokens[-1].kind == "hashtag"

    def test_urls_kept_whole(self):
        tokens = tokenize("see https://t.co/Ab1 wow")
        assert tokens[1].kind == "url"
        assert tokens[1].text == "https://t.co/Ab1"

    def test_offsets_point_into_source(self):
        text = "RT @bob: Jordan!"
        for token in tokenize(text):
            if token.kind in ("word", "hashtag"):
                assert text[token.start : token.end].lower() == token.text
            else:
                assert text[token.start : token.end] == token.text

    def test_empty_text(self):
        assert tokenize("") == []

    def test_contractions_survive(self):
        assert "don't" in [t.text for t in tokenize("I don't care")]


class TestTokenizeWords:
    def test_filters_non_words(self):
        words = tokenize_words("RT @bob check https://x.y #tag word")
        assert "@bob" not in words
        assert "https://x.y" not in words
        assert "word" in words

    def test_hashtag_excluded_from_words(self):
        assert tokenize_words("#nba rules") == ["rules"]
