"""End-to-end text linking: raw text → recognized, linked entities.

The evaluation harness replays *planted* mentions (the paper's inputs are
"an entity mention along with its author"); a downstream consumer has only
raw text — a tweet, or a keyword query (:mod:`repro.search`, Sec. 3.2.2).
:class:`TextLinkingPipeline` chains the knowledge-based NER of Appendix A
(longest-cover gazetteer over the KB mention vocabulary) with candidate
generation and the social-temporal linker.  It only reads: each
span carries the linker's full ranking, and writing a link back is the
caller's :meth:`~repro.core.linker.SocialTemporalLinker.confirm_link`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.core.linker import LinkResult, SocialTemporalLinker
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACE
from repro.text.ner import GazetteerNER, RecognizedMention


@dataclasses.dataclass(frozen=True)
class LinkedSpan:
    """A recognized mention with its linking outcome and text offsets."""

    mention: RecognizedMention
    result: LinkResult

    @property
    def surface(self) -> str:
        return self.mention.surface

    @property
    def entity_id(self) -> Optional[int]:
        best = self.result.best
        return best.entity_id if best else None

    @property
    def degraded(self) -> bool:
        return self.result.degraded


@dataclasses.dataclass(frozen=True)
class AnnotatedText:
    """A text with all its linked spans."""

    text: str
    user: int
    timestamp: float
    spans: List[LinkedSpan]

    def entities(self) -> List[int]:
        """Linked entity ids in reading order (skipping spans with no candidate)."""
        return [span.entity_id for span in self.spans if span.entity_id is not None]

    @property
    def degraded(self) -> bool:
        """Whether any span was linked under degraded (no-interest) scoring."""
        return any(span.degraded for span in self.spans)

    def render(self, kb) -> str:
        """Human-readable annotation, e.g. for demos and logs."""
        parts = []
        for span in self.spans:
            title = (
                kb.entity(span.entity_id).title
                if span.entity_id is not None
                else "?"
            )
            parts.append(f"[{span.surface} -> {title}]")
        return " ".join(parts) if parts else "(no entities)"


class TextLinkingPipeline:
    """NER + candidate generation + social-temporal linking over raw text."""

    def __init__(self, linker: SocialTemporalLinker) -> None:
        self._linker = linker
        self._ner = GazetteerNER(linker.ckb.kb.mentions())

    def annotate(self, text: str, user: int, now: float) -> AnnotatedText:
        """Recognize and link every mention in ``text``."""
        spans: List[LinkedSpan] = []
        METRICS.incr("pipeline.texts")
        with TRACE.span("pipeline.annotate", user=user) as root:
            for mention in self._ner.recognize(text):
                METRICS.incr("pipeline.mentions")
                result = self._linker.link(mention.surface, user=user, now=now)
                spans.append(LinkedSpan(mention=mention, result=result))
            if root.recording:
                root.set_attribute("mentions", len(spans))
        return AnnotatedText(text=text, user=user, timestamp=now, spans=spans)
