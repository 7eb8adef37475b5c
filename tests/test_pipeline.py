"""Raw-text linking pipeline tests."""

import pytest

from repro.config import DAY, LinkerConfig
from repro.core.linker import SocialTemporalLinker
from repro.core.pipeline import TextLinkingPipeline
from repro.graph.digraph import DiGraph
from repro.testing.faults import FaultSchedule, FlakyReachabilityProvider


@pytest.fixture
def linker(tiny_ckb):
    graph = DiGraph(
        13,
        [
            (0, 10),  # Alice follows @NBAOfficial
            (5, 11),  # Bob follows the ML expert
        ],
    )
    return SocialTemporalLinker(
        tiny_ckb, graph, config=LinkerConfig(burst_threshold=2, influential_users=2)
    )


class TestAnnotate:
    def test_recognizes_and_links(self, linker, tiny_ckb):
        pipeline = TextLinkingPipeline(linker)
        before = tiny_ckb.total_links
        annotated = pipeline.annotate(
            "watching jordan with the chicago bulls tonight", user=0, now=100 * DAY
        )
        assert tiny_ckb.total_links == before  # annotating writes nothing back
        surfaces = [span.surface for span in annotated.spans]
        assert surfaces == ["jordan", "chicago bulls"]
        assert annotated.spans[0].entity_id == 0  # basketball Jordan for Alice
        assert annotated.spans[1].entity_id == 3
        assert annotated.entities() == [0, 3]

    @pytest.mark.parametrize(
        "user, outage",
        [(0, False), (5, False), (6, False), (6, True)],
        ids=["alice", "bob", "below-bound", "degraded"],
    )
    def test_spans_name_the_linkers_best(self, linker, tiny_ckb, user, outage):
        """The pipeline never abstains: every span names the top of the
        ranking ``link()`` returns, also when every score is ≤ β + γ."""
        if outage:
            failing = FlakyReachabilityProvider(
                linker.reachability_provider, FaultSchedule(error_rate=1.0)
            )
            linker = SocialTemporalLinker(
                tiny_ckb, linker.graph, config=linker.config, reachability=failing
            )
        annotated = TextLinkingPipeline(linker).annotate(
            "jordan dunks again", user=user, now=100 * DAY
        )
        result = linker.link("jordan", user=user, now=100 * DAY)
        assert annotated.degraded is outage
        assert [span.entity_id for span in annotated.spans] == [result.best.entity_id]

    def test_user_context_changes_annotation(self, linker):
        pipeline = TextLinkingPipeline(linker)
        alice = pipeline.annotate("jordan gave a talk", user=0, now=100 * DAY)
        bob = pipeline.annotate("jordan gave a talk", user=5, now=100 * DAY)
        assert alice.spans[0].entity_id == 0
        assert bob.spans[0].entity_id == 1

    def test_no_mentions(self, linker):
        pipeline = TextLinkingPipeline(linker)
        annotated = pipeline.annotate("nothing relevant here", user=0, now=0.0)
        assert annotated.spans == []
        assert annotated.entities() == []

    def test_char_offsets_preserved(self, linker):
        pipeline = TextLinkingPipeline(linker)
        text = "go Jordan go"
        annotated = pipeline.annotate(text, user=0, now=100 * DAY)
        span = annotated.spans[0]
        assert text[span.mention.char_start : span.mention.char_end] == "Jordan"

    def test_render(self, linker, tiny_kb):
        pipeline = TextLinkingPipeline(linker)
        annotated = pipeline.annotate("jordan", user=0, now=100 * DAY)
        rendered = annotated.render(tiny_kb)
        assert "jordan ->" in rendered
        empty = pipeline.annotate("zzz", user=0, now=0.0)
        assert empty.render(tiny_kb) == "(no entities)"


class TestStream:
    def test_annotate_stream_on_world(self, small_context):
        linker = small_context.social_temporal()
        pipeline = TextLinkingPipeline(linker)
        tweets = small_context.test_dataset.tweets[:40]
        annotated = [pipeline.annotate(t.text, t.user, t.timestamp) for t in tweets]
        assert len(annotated) == 40
        # NER over generated text recovers most planted mentions and the
        # linker resolves a solid share of them to the true entity
        total = correct = 0
        for tweet, annotation in zip(tweets, annotated):
            truths = {m.surface: m.true_entity for m in tweet.mentions}
            for span in annotation.spans:
                if span.surface in truths:
                    total += 1
                    if span.entity_id == truths[span.surface]:
                        correct += 1
        assert total > 0
        assert correct / total > 0.45
