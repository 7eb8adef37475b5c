"""Timed replay and experiment-context tests (uses the small world)."""

import pytest

from repro.core.linker import SocialTemporalLinker
from repro.eval.context import build_experiment, complement_knowledgebase
from repro.eval.harness import replay
from repro.graph.transitive_closure import TransitiveClosure
from repro.eval.metrics import mention_and_tweet_accuracy
from repro.eval.reporting import format_table
from repro.testing.oracles import OnlineReachability


class TestReplay:
    def test_social_temporal_run_covers_dataset(self, small_context):
        run = small_context.run("ours")
        assert run.num_tweets == small_context.test_dataset.num_tweets
        # one tweet a step, in test-set order
        assert list(run.predictions) == [
            t.tweet_id for t in small_context.test_dataset.tweets
        ]
        assert run.total_seconds > 0.0

    def test_prediction_alignment(self, small_context):
        run = small_context.run("onthefly")
        for tweet in small_context.test_dataset.tweets:
            assert len(run.predictions[tweet.tweet_id]) == tweet.num_mentions

    def test_collective_links_one_author_a_step(self, small_context):
        tweets = small_context.test_dataset.tweets
        linker = small_context.collective()
        steps = []
        link_user = linker.link_user

        def recording_link_user(batch):
            steps.append(batch)
            return link_user(batch)

        linker.link_user = recording_link_user
        run = replay(linker, tweets)
        assert set(run.predictions) == {t.tweet_id for t in tweets}
        authors = list(dict.fromkeys(t.user for t in tweets))
        assert [batch[0].user for batch in steps] == authors
        for batch in steps:
            assert batch == [t for t in tweets if t.user == batch[0].user]
        assert run.predictions == small_context.run("collective").predictions

    def test_unknown_method_rejected(self, small_context):
        with pytest.raises(ValueError, match="unknown method"):
            small_context.run("tagme")
        with pytest.raises(ValueError, match="configures 'ours'"):
            small_context.run("collective", small_context.config)

    def test_default_and_online_providers_decide_like_the_context(
        self, small_context
    ):
        """No ``reachability=``: the linker builds the dispatched index (the
        closure at this size); given the cached online BFS oracle, it
        decides exactly what the context's index-backed linker does."""
        graph, config = small_context.world.graph, small_context.config
        default, online = (
            SocialTemporalLinker(
                small_context.ckb,
                graph,
                config=config,
                reachability=provider,
                propagation_network=small_context.propagation_network,
            )
            for provider in (None, OnlineReachability(graph))
        )
        assert isinstance(default.reachability_provider, TransitiveClosure)
        indexed = small_context.run("ours")
        for linker in (default, online):
            run = replay(linker, small_context.test_dataset.tweets)
            assert run.num_tweets == small_context.test_dataset.num_tweets
            assert run.predictions == indexed.predictions


class TestContext:
    def test_truth_complementation_links_everything(self, small_world):
        context = build_experiment(world=small_world, complement_method="truth")
        expected = sum(
            len(t.mentions)
            for t in context.catalog.dataset(10).tweets
        )
        assert context.ckb.total_links == expected

    def test_collective_complementation_is_noisy(self, small_world):
        truth = build_experiment(world=small_world, complement_method="truth")
        noisy = complement_knowledgebase(
            small_world, truth.catalog.dataset(10), method="collective"
        )
        # same number of links (every mention has candidates modulo typos)
        # but some linked to the wrong entity
        disagreements = 0
        for entity_id in noisy.linked_entities():
            if noisy.count(entity_id) != truth.ckb.count(entity_id):
                disagreements += 1
        assert disagreements > 0

    def test_unknown_complementation_rejected(self, small_world):
        with pytest.raises(ValueError):
            build_experiment(world=small_world, complement_method="oracle")

    def test_closure_shared_and_cached(self, small_context):
        """One index per context — the closure, at this world's size."""
        assert small_context.reachability_index is small_context.reachability_index
        assert isinstance(small_context.reachability_index, TransitiveClosure)

    def test_ours_beats_chance(self, small_context):
        """End-to-end sanity: with truth complementation our linker must be
        far above the ~1/ambiguity random baseline on the test set."""
        run = small_context.run("ours")
        report = mention_and_tweet_accuracy(
            small_context.test_dataset.tweets, run.predictions
        )
        assert report.mention_accuracy > 0.55


class TestReporting:
    def test_format_table_alignment(self):
        rows = [
            {"method": "ours", "mention": 0.72, "tweet": 0.66},
            {"method": "on-the-fly", "mention": 0.6, "tweet": 0.55},
        ]
        text = format_table(rows, title="Fig 4(a)")
        lines = text.splitlines()
        assert lines[0] == "Fig 4(a)"
        assert "method" in lines[1]
        assert len(lines) == 5

    def test_format_empty(self):
        assert "(no rows)" in format_table([])

    def test_floats_rounded(self):
        text = format_table([{"x": 0.123456789}])
        assert "0.1235" in text
