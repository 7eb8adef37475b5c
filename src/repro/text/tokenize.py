"""Tweet-aware tokenizer.

Tweets are short, informal and full of microblog-specific tokens (hashtags,
@usernames, URLs).  The tokenizer keeps those intact, lower-cases everything
else, and records character offsets so recognized mentions can be mapped back
to the original text.
"""

from __future__ import annotations

import dataclasses
import re
from typing import List

# Order matters: URLs before words so "http://t.co/x" is not split.
_TOKEN_RE = re.compile(
    r"""
    (?P<url>https?://\S+)        # URLs
    | (?P<user>@\w+)             # @usernames
    | (?P<hashtag>\#\w+)         # hashtags
    | (?P<word>[\w']+)           # words (incl. contractions)
    """,
    re.VERBOSE,
)


@dataclasses.dataclass(frozen=True)
class Token:
    """One token with its position in the source text."""

    text: str
    start: int
    end: int
    kind: str  # "word" | "hashtag" | "user" | "url"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.text


def tokenize(text: str) -> List[Token]:
    """Split ``text`` into :class:`Token` objects.

    Words and hashtag bodies are lower-cased; @usernames and URLs are kept
    verbatim (their case is significant for lookups against user handles).

    >>> [t.text for t in tokenize("RT @NBAOfficial: Jordan wins! #NBA")]
    ['rt', '@NBAOfficial', 'jordan', 'wins', '#nba']
    """
    tokens: List[Token] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup or "word"
        raw = match.group()
        if kind in ("word", "hashtag"):
            raw = raw.lower()
        tokens.append(Token(text=raw, start=match.start(), end=match.end(), kind=kind))
    return tokens


def tokenize_words(text: str) -> List[str]:
    """Return only the lower-cased word tokens of ``text`` (no URLs/handles).

    This is the form consumed by bag-of-words context similarity.
    """
    return [t.text for t in tokenize(text) if t.kind == "word"]
