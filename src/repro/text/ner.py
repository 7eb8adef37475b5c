"""Knowledge-based Named Entity Recognition (Appendix A of the paper).

The paper adopts the unsupervised, gazetteer-driven *Longest-Cover* method:
scan the text left to right and greedily emit the longest phrase that exists
in the knowledgebase's mention vocabulary.  This keeps NER streaming-friendly
(no trained model, no labeled data) which is what makes the whole framework
feasible online.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, List, Set

from repro.text.tokenize import tokenize


@dataclasses.dataclass(frozen=True)
class RecognizedMention:
    """A mention surface detected in a text, with token-level position."""

    surface: str
    token_start: int
    token_end: int  # exclusive
    char_start: int
    char_end: int


class GazetteerNER:
    """Longest-cover gazetteer scanner over a mention vocabulary.

    Parameters
    ----------
    vocabulary:
        Iterable of known mention surfaces (already lower-cased or not —
        they are normalized here).  Typically ``knowledgebase.mentions()``.
    max_phrase_len:
        Upper bound on mention length in tokens; phrases longer than this
        are never attempted (tweets rarely contain >4-word entity names).
    """

    def __init__(self, vocabulary: Iterable[str], max_phrase_len: int = 4) -> None:
        if max_phrase_len < 1:
            raise ValueError("max_phrase_len must be at least 1")
        self._max_phrase_len = max_phrase_len
        self._phrases: Set[str] = set()
        # First tokens of known phrases; lets the scanner skip positions
        # that cannot start any mention without building n-grams.
        self._starts: Set[str] = set()
        for phrase in vocabulary:
            normalized = phrase.lower().strip()
            if not normalized:
                continue
            self._phrases.add(normalized)
            self._starts.add(normalized.split(" ", 1)[0])

    def __len__(self) -> int:
        return len(self._phrases)

    def __contains__(self, phrase: str) -> bool:
        return phrase.lower().strip() in self._phrases

    def recognize(self, text: str) -> List[RecognizedMention]:
        """Extract mentions with the longest-cover scan.

        >>> ner = GazetteerNER(["jordan", "michael jordan", "chicago bulls"])
        >>> [m.surface for m in ner.recognize("Michael Jordan joins the Chicago Bulls")]
        ['michael jordan', 'chicago bulls']
        """
        all_tokens = tokenize(text)
        tokens = [t for t in all_tokens if t.kind == "word"]
        words = [t.text for t in tokens]
        # Position of each word in the full token stream: a phrase must be
        # contiguous there — "@bob" between two words breaks the phrase.
        stream_pos = [i for i, t in enumerate(all_tokens) if t.kind == "word"]
        found: List[RecognizedMention] = []
        i = 0
        n = len(words)
        while i < n:
            if words[i] not in self._starts:
                i += 1
                continue
            matched_len = 0
            # Longest cover: try the longest phrase starting at i first.
            for length in range(min(self._max_phrase_len, n - i), 0, -1):
                if stream_pos[i + length - 1] - stream_pos[i] != length - 1:
                    continue  # interrupted by a handle/URL/hashtag
                phrase = " ".join(words[i : i + length])
                if phrase in self._phrases:
                    matched_len = length
                    found.append(
                        RecognizedMention(
                            surface=phrase,
                            token_start=i,
                            token_end=i + length,
                            char_start=tokens[i].start,
                            char_end=tokens[i + length - 1].end,
                        )
                    )
                    break
            i += matched_len if matched_len else 1
        return found
