"""Cross-module integration tests: the full pipeline on a small world."""

from repro.core.batch import MicroBatchLinker
from repro.eval.context import build_experiment
from repro.eval.metrics import mention_and_tweet_accuracy
from repro.search import PersonalizedSearchEngine, TweetStore
from repro.stream.generator import SyntheticWorld
from repro.stream.profiles import quick_profiles
from repro.text.ner import GazetteerNER


class TestFullPipeline:
    def test_ours_beats_random_guessing(self, small_context):
        run = small_context.run("ours")
        report = mention_and_tweet_accuracy(
            small_context.test_dataset.tweets, run.predictions
        )
        # candidate sets have ~3 entities; random guessing sits near 1/3
        assert report.mention_accuracy > 0.5

    def test_all_methods_complete_end_to_end(self, small_context):
        for method in ("onthefly", "collective", "ours"):
            run = small_context.run(method)
            assert run.num_tweets == small_context.test_dataset.num_tweets

    def test_runs_are_deterministic(self, small_context):
        first = small_context.run("ours")
        second = small_context.run("ours")
        assert first.predictions == second.predictions

    def test_collective_complementation_hurts_vs_truth(self, small_world):
        """Complementation noise must cost accuracy — the Fig. 4(b) driver."""
        truth = build_experiment(world=small_world, complement_method="truth")
        noisy = build_experiment(world=small_world, complement_method="collective")
        run_truth = truth.run("ours")
        run_noisy = noisy.run("ours")
        acc_truth = mention_and_tweet_accuracy(
            truth.test_dataset.tweets, run_truth.predictions
        )
        acc_noisy = mention_and_tweet_accuracy(
            noisy.test_dataset.tweets, run_noisy.predictions
        )
        assert acc_truth.mention_accuracy >= acc_noisy.mention_accuracy


class TestNerOnGeneratedStream:
    def test_gazetteer_recovers_planted_mentions(self, small_world):
        """NER over the KB vocabulary finds most planted (non-typo) surfaces."""
        ner = GazetteerNER(small_world.kb.mentions())
        found = total = 0
        for tweet in small_world.tweets[:300]:
            recognized = {m.surface for m in ner.recognize(tweet.text)}
            for mention in tweet.mentions:
                total += 1
                if mention.surface in recognized:
                    found += 1
        assert found / total > 0.85  # typos (5%) and overlaps cost a little


class TestLiveGraphLinking:
    def test_batch_linker_over_search_engine_tweets(self, small_context):
        """Batch linking + search store compose on the same world."""
        world = small_context.world
        linker = small_context.social_temporal()
        batch = MicroBatchLinker(linker)
        store = TweetStore(world.tweets)
        engine = PersonalizedSearchEngine(linker, store)
        tweets = list(small_context.test_dataset.tweets[:10])
        grouped = batch.link_tweets(tweets)
        assert len(grouped) == len(tweets)
        response = engine.search(
            tweets[0].mentions[0].surface,
            user=tweets[0].user,
            now=tweets[0].timestamp,
        )
        assert response.query.has_mention


class TestWorldInvariantsAtScale:
    def test_quick_profiles_build_consistent_world(self):
        kb_profile, stream_profile = quick_profiles(seed=17)
        world = SyntheticWorld.generate(kb_profile, stream_profile)
        # users referenced by tweets exist in the graph
        assert all(0 <= t.user < world.num_users for t in world.tweets)
        # every planted entity id is a valid KB entity
        for tweet in world.tweets:
            for mention in tweet.mentions:
                world.kb.entity(mention.true_entity)

    def test_complementation_only_uses_dataset_tweets(self, small_world):
        context = build_experiment(world=small_world, complement_method="truth")
        dataset_users = context.catalog.dataset(10).users
        for entity_id in context.ckb.linked_entities():
            assert context.ckb.community(entity_id) <= set(dataset_users)
