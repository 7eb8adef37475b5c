"""The in-process workloads: ``link_hot``, ``scale_compact``, ``stream_feedback``.

All three call the library the way ``repro evaluate`` / ``repro link`` /
``repro stream`` do.  The first two replay the test mentions read-only;
``stream_feedback`` runs the ingest → link → confirm loop, so the KB is
written beside being read.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import random
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import DEFAULT_CONFIG, LinkerConfig
from repro.core.batch import LinkRequest, MicroBatchLinker
from repro.core.linker import LinkResult, SocialTemporalLinker
from repro.eval.context import ExperimentContext
from repro.graph.dispatch import build_reachability_index
from repro.kb.checkpoint import save_checkpoint, snapshot
from repro.stream.generator import SyntheticWorld
from repro.stream.ingest import ResilientIngestor, TweetValidator

from perfbench import layers
from perfbench.result import Decisions, Result, peak_rss_mib
from perfbench.trace import (
    Tracer,
    beyond,
    mean,
    median_and_spread,
    percentile,
    quiet,
)
from perfbench.world import (
    BENCH_USERS,
    COMPACT_USERS,
    OUT_DIR,
    Mention,
    accuracy,
    build_context,
    generate_world,
    test_mentions,
)

#: Set-ups per untraced run: ``SETUP_REPEATS`` to ``SETUP_MOST``, as many
#: as fit in ``SETUP_BUDGET_S`` going by the first.  Each is released
#: before the next is built: with a second linker alive beside it the
#: same set-up takes 1.4 s instead of 0.9 s (the collector has twice the
#: objects to walk) and the peak RSS is not one set-up's any more.
SETUP_REPEATS = 3
SETUP_MOST = 5
SETUP_BUDGET_S = 6.0
COMPACT_CONFIG = LinkerConfig(index_backend="compact")
#: Timed passes replay every n-th mention, so a pass lasts well under a
#: second and a run holds twenty or more: on this shared VM slow spells
#: of one to three seconds cover about a quarter of the time, and each
#: mention needs a pass that met it outside one (see ``trace.quiet``).
#: The warm pass replays every mention.
TIMED_STRIDE = {"link_hot": 8, "scale_compact": 4}
#: ``stream_feedback`` replays this share of the test stream, for the same reason.
STREAM_SHARE = 0.25
#: Ingestor lateness bound, and the feed faults injected within it.
LATENESS_S = 3600.0
DUPLICATE_SHARE = 0.03
OUT_OF_ORDER_SHARE = 0.05
#: Mentions the traced run's side measurements (online BFS, score caches,
#: batching) replay: a prefix of the list, about a second each.
SIDE_MENTIONS = 1000

LinkCall = Callable[[str, int, float], LinkResult]


@dataclasses.dataclass
class Built:
    """One complete set-up and how long its parts took."""

    context: ExperimentContext
    linker: SocialTemporalLinker
    complement_s: float
    index_build_s: float
    setup_s: float


def build_linker(world: SyntheticWorld, config: LinkerConfig) -> Built:
    """Set up as a library user would: complement the KB, build the index
    ``config`` dispatches to (what ``with_scale_aware_index`` does), build
    the propagation network, wire the linker."""
    started = time.perf_counter()
    context = build_context(world)
    complemented = time.perf_counter()
    provider = build_reachability_index(world.graph, config)
    indexed = time.perf_counter()
    linker = SocialTemporalLinker(
        context.ckb,
        world.graph,
        config,
        reachability=provider,
        propagation_network=context.propagation_network,
    )
    return Built(
        context=context,
        linker=linker,
        complement_s=complemented - started,
        index_build_s=indexed - complemented,
        setup_s=time.perf_counter() - started,
    )


def _decision(result: LinkResult) -> Optional[int]:
    best = result.best
    return None if best is None else best.entity_id


@dataclasses.dataclass
class Pass:
    """One replay: ``decisions[k]`` is the top entity of mention ``order[k]``."""

    order: Sequence[int]
    #: Seconds inside each ``link()`` call.
    latencies_s: List[float]
    #: Seconds from the previous mention's result to this one's: the
    #: call plus everything the loop does between calls; sums to the wall.
    cycles_s: List[float]
    decisions: Decisions
    wall_s: float
    cpu_s: float

    def correct(self, expected: Decisions) -> int:
        """How many decisions equal the recorded ones."""
        return sum(
            decision == expected[index]
            for index, decision in zip(self.order, self.decisions)
        )

    def by_mention(self, mentions: int) -> Decisions:
        decisions: Decisions = [None] * mentions
        for index, decision in zip(self.order, self.decisions):
            decisions[index] = decision
        return decisions


def replay(link: LinkCall, mentions: Sequence[Mention], order: Sequence[int]) -> Pass:
    """Link the mentions at ``order``, one at a time."""
    latencies: List[float] = []
    cycles: List[float] = []
    decisions: Decisions = []
    clock = time.perf_counter
    cpu_started = time.process_time()
    started = previous = clock()
    for index in order:
        mention = mentions[index]
        before = clock()
        result = link(mention.surface, mention.user, mention.now)
        after = clock()
        latencies.append(after - before)
        cycles.append(after - previous)
        previous = after
        decisions.append(_decision(result))
    return Pass(
        order,
        latencies,
        cycles,
        decisions,
        clock() - started,
        time.process_time() - cpu_started,
    )


def _summarize(
    result: Result, passes: Sequence[Pass], expected: Decisions, setups_s: Sequence[float]
) -> None:
    """Add the timed passes to ``result``.

    Every pass replays the same mentions in the same order; the latency
    percentiles are taken over the mentions' ``quiet`` latencies, and
    throughput and CPU over their quiet cycle times.  ``setup_s`` is the
    median of the run's set-ups: a set-up lasts a second or more, so each
    already averages over slow spells and there are few of them.  Spreads
    are between whole passes.
    """
    mentions = len(passes[0].order)
    correct = [p.correct(expected) for p in passes]
    result.attempted += mentions * len(passes)
    result.failed += mentions * len(passes) - sum(correct)
    latencies = [quiet(column) for column in zip(*(p.latencies_s for p in passes))]
    quiet_wall_s = sum(quiet(column) for column in zip(*(p.cycles_s for p in passes)))
    cpu_share = sum(p.cpu_s for p in passes) / sum(p.wall_s for p in passes)
    result.values.update(
        {
            "setup_s": statistics.median(setups_s),
            "link_p50_ms": percentile(latencies, 0.50) * 1e3,
            "link_p95_ms": percentile(latencies, 0.95) * 1e3,
            "mentions_per_s": min(correct) / quiet_wall_s,
            "cpu_ms_per_mention": quiet_wall_s * cpu_share * 1e3 / mentions,
            "peak_rss_mib": peak_rss_mib(),
        }
    )
    between_passes = {
        "setup_s": setups_s,
        "link_p50_ms": [percentile(p.latencies_s, 0.50) for p in passes],
        "link_p95_ms": [percentile(p.latencies_s, 0.95) for p in passes],
        "mentions_per_s": [mentions / p.wall_s for p in passes],
        "cpu_ms_per_mention": [p.cpu_s for p in passes],
    }
    for name, values in between_passes.items():
        result.spreads[name] = median_and_spread(values)[1]
        result.samples[name] = mentions
    result.samples["setup_s"] = len(setups_s)
    result.samples["link_p95_ms"] = beyond(mentions, 0.95)
    result.samples["passes"] = len(passes)


# ---------------------------------------------------------------------- #
# link_hot / scale_compact
# ---------------------------------------------------------------------- #
def run_read_only(
    name: str,
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    expected: Optional[Decisions],
) -> Result:
    """Replay the test mentions through ``link()`` in timestamp order from
    a seeded starting offset: one warm pass over all of them, then timed
    passes over every n-th."""
    logging.getLogger("repro").setLevel(logging.ERROR)
    compact = name == "scale_compact"
    config = COMPACT_CONFIG if compact else DEFAULT_CONFIG
    world, _, world_sha256, gen_s = generate_world(
        COMPACT_USERS if compact else BENCH_USERS, name
    )
    built = build_linker(world, config)
    mentions = test_mentions(built.context)
    offset = random.Random(seed).randrange(len(mentions))
    order = list(range(offset, len(mentions))) + list(range(offset))

    warm = replay(built.linker.link, mentions, order)
    decisions = warm.by_mention(len(mentions))
    expected = expected or decisions
    result = Result(
        world_sha256=world_sha256,
        decisions=decisions,
        mention_accuracy=accuracy(decisions, mentions),
        attempted=len(mentions),
        failed=len(mentions) - warm.correct(expected),
        values={},
        world_gen_s=gen_s,
    )
    timed_order = [index for index in order if index % TIMED_STRIDE[name] == 0]
    if tracer is not None:
        result.values = _trace_read_only(tracer, world, built, mentions, timed_order)
        result.self_time_ms = layers.self_time_table(tracer)
        return result

    # Set-ups and timed passes take turns, so that neither sits wholly
    # inside one slow spell of the machine: a share of the passes, then the
    # linker is released and set up anew (and warmed for the timed mentions).
    setups_s = [built.setup_s]
    setups = max(SETUP_REPEATS, min(SETUP_MOST, int(SETUP_BUDGET_S / built.setup_s)))
    passes: List[Pass] = []
    measured = 0.0
    while not passes or measured < seconds:
        if measured >= len(setups_s) * seconds / setups:
            built = None  # release the previous set-up before the next
            built = build_linker(world, config)
            setups_s.append(built.setup_s)
            replay(built.linker.link, mentions, timed_order)
        passes.append(replay(built.linker.link, mentions, timed_order))
        measured += passes[-1].wall_s
    _summarize(result, passes, expected, setups_s)
    return result


def _stamping(tracer: Tracer, link: LinkCall, whole_span: bool) -> LinkCall:
    """``link`` with a fresh request id per mention on the spans beneath
    it, optionally under a ``link.whole`` span of its own."""

    def stamped(surface: str, user: int, now: float) -> LinkResult:
        tracer.request_id += 1
        if not whole_span:
            return link(surface, user, now)
        with tracer.span("link.whole"):
            return link(surface, user, now)

    return stamped


def _trace_read_only(
    tracer: Tracer,
    world: SyntheticWorld,
    built: Built,
    mentions: Sequence[Mention],
    order: Sequence[int],
) -> Dict[str, float]:
    """The per-layer numbers of a read-only workload over the timed
    mentions, caches warm: passes alternately without and under
    whole-``link()`` spans, a staged pass, and a pass through the
    reachability timing proxy."""
    linker, context = built.linker, built.context
    untraced: List[float] = []
    traced: List[float] = []
    for _ in range(3):
        untraced.append(replay(linker.link, mentions, order).wall_s)
        traced.append(replay(_stamping(tracer, linker.link, True), mentions, order).wall_s)
    whole_us = mean(tracer.durations_us("link.whole"))

    staged = layers.StagedLinker(linker, context.propagation_network, Tracer("warm"))
    replay(staged.link, mentions, order)
    staged.tracer = tracer
    replay(_stamping(tracer, staged.link, False), mentions, order)
    values = layers.stage_metrics(tracer, len(order))
    values["link.staged_unaccounted_share"] = (
        whole_us - layers.staged_sum_us(values)
    ) / whole_us

    proxy = layers.TimingProvider(linker.reachability_provider)
    probed = SocialTemporalLinker(
        context.ckb,
        world.graph,
        linker.config,
        reachability=proxy,
        propagation_network=context.propagation_network,
    )
    replay(probed.link, mentions, order)
    proxy.calls_ns.clear()
    probe_pass = replay(probed.link, mentions, order)
    calls_us = [ns / 1000.0 for ns in proxy.calls_ns]
    values.update(
        {
            "graph.reach_us_p50": percentile(calls_us, 0.50),
            "graph.reach_us_p99": percentile(calls_us, 0.99),
            "graph.reach_calls_per_mention": len(calls_us) / len(order),
            "graph.reach_share_of_link": sum(calls_us)
            / 1e6
            / sum(probe_pass.latencies_s),
            "graph.index_build_s": built.index_build_s,
            "graph.index_bytes": float(built.linker.reachability_provider.size_bytes()),
            "kb.complement_s": built.complement_s,
            "kb.links_total": float(context.ckb.total_links),
            "trace.overhead_share": statistics.median(traced)
            / statistics.median(untraced)
            - 1.0,
        }
    )
    values.update(_side_measurements(world, built, mentions))
    return values


def _side_measurements(
    world: SyntheticWorld, built: Built, mentions: Sequence[Mention]
) -> Dict[str, float]:
    """What ROADMAP items 2a, 3 and 4 choose between, on a prefix of the
    same list: the no-index default, the score caches, the micro-batcher.
    Each is warmed by one pass and timed on the next."""
    prefix = mentions[:SIDE_MENTIONS]
    order = range(len(prefix))
    context, config = built.context, built.linker.config
    network = context.propagation_network

    def warm_mean_us(linker: SocialTemporalLinker) -> float:
        replay(linker.link, prefix, order)
        return mean(replay(linker.link, prefix, order).latencies_s) * 1e6

    online = SocialTemporalLinker(
        context.ckb, world.graph, config, propagation_network=network
    )
    cached = SocialTemporalLinker(
        context.ckb,
        world.graph,
        dataclasses.replace(config, score_caching=True),
        reachability=built.linker.reachability_provider,
        propagation_network=network,
    )
    batcher = MicroBatchLinker(built.linker)
    requests = [LinkRequest(m.surface, m.user, m.now) for m in prefix]
    batcher.link_batch(requests)
    started = time.perf_counter()
    batcher.link_batch(requests)
    batch_s = time.perf_counter() - started
    return {
        "graph.online.link_us_mean": warm_mean_us(online),
        "cache.link_us_mean_warm": warm_mean_us(cached),
        "batch.mentions_per_s": len(requests) / batch_s,
    }


# ---------------------------------------------------------------------- #
# stream_feedback
# ---------------------------------------------------------------------- #
def faulty_feed(tweets: Sequence, seed: int) -> List[Dict[str, object]]:
    """The test tweets as raw provider records, with seeded re-deliveries
    and arrivals out of order by less than the ingestor's lateness bound."""
    rng = random.Random(seed)
    arrivals = []
    for tweet in tweets:
        record = {
            "tweet_id": tweet.tweet_id,
            "user": tweet.user,
            "timestamp": tweet.timestamp,
            "text": tweet.text,
            "mentions": [{"surface": m.surface} for m in tweet.mentions],
        }
        late = rng.random() < OUT_OF_ORDER_SHARE
        arrives = tweet.timestamp + (rng.uniform(0.0, 0.9 * LATENESS_S) if late else 0.0)
        arrivals.append((arrives, tweet.tweet_id, record))
        if rng.random() < DUPLICATE_SHARE:
            again = arrives + rng.uniform(1.0, LATENESS_S)
            arrivals.append((again, tweet.tweet_id, record))
    arrivals.sort(key=lambda item: item[:2])
    return [record for _, _, record in arrivals]


@dataclasses.dataclass
class StreamPass(Pass):
    released: int
    received: int
    dead_letters: int


_NULL_SPAN = contextlib.nullcontext()


def stream_replay(
    linker: SocialTemporalLinker,
    feed: Sequence[Dict[str, object]],
    num_users: int,
    link: Optional[LinkCall] = None,
    span: Callable[[str], object] = lambda name: _NULL_SPAN,
    on_confirm: Optional[Callable[[int], None]] = None,
) -> StreamPass:
    """The ``repro stream`` loop from public parts: push → link → confirm.

    ``link`` stands in for ``linker.link`` (whole-span or staged replay),
    ``span`` wraps the push and confirm calls, and ``on_confirm`` tells a
    staged linker which entity's rankings went stale.
    """
    link = link or linker.link
    caches = linker.caches
    ingestor = ResilientIngestor(
        validator=TweetValidator(known_users=range(num_users)),
        lateness=LATENESS_S,
        advance_hook=caches.pre_advance if caches else None,
    )
    latencies: List[float] = []
    stamps: List[float] = []
    decisions: Decisions = []
    clock = time.perf_counter

    def consume(released: Sequence) -> None:
        for tweet in released:
            for mention in tweet.mentions:
                before = clock()
                result = link(mention.surface, tweet.user, tweet.timestamp)
                after = clock()
                latencies.append(after - before)
                stamps.append(after)
                entity = _decision(result)
                decisions.append(entity)
                if entity is None:
                    continue
                with span("kb.confirm"):
                    linker.confirm_link(
                        entity, tweet.user, tweet.timestamp, tweet.tweet_id
                    )
                if on_confirm is not None:
                    on_confirm(entity)

    cpu_started = time.process_time()
    started = clock()
    for record in feed:
        with span("ingest.push"):
            released = ingestor.push(record)
        consume(released)
    with span("ingest.flush"):
        released = ingestor.flush()
    consume(released)
    stats = ingestor.stats
    return StreamPass(
        range(len(decisions)),
        latencies,
        [after - before for before, after in zip([started] + stamps, stamps)],
        decisions,
        clock() - started,
        time.process_time() - cpu_started,
        released=stats.emitted,
        received=stats.received,
        dead_letters=stats.dead_lettered,
    )


def expected_dead_letters(feed: Sequence[Dict[str, object]]) -> int:
    """Every injected re-delivery must dead-letter, and nothing else may."""
    return len(feed) - len({record["tweet_id"] for record in feed})


def run_stream_feedback(
    seed: int,
    seconds: float,
    tracer: Optional[Tracer],
    expected: Optional[Decisions],
) -> Result:
    """Replays of the test stream's first quarter (the traced run: of all of
    it) until ``seconds`` are measured, each after a complete set-up of its
    own — a fresh complemented KB is the point; the rest of it is what
    ``setup_s`` times."""
    logging.getLogger("repro").setLevel(logging.ERROR)
    world, _, world_sha256, gen_s = generate_world(BENCH_USERS, "stream_feedback")
    built = build_linker(world, DEFAULT_CONFIG)
    mentions = test_mentions(built.context)
    tweets = built.context.test_dataset.tweets
    if tracer is None:
        # cut by event time, before the faults are injected: a late arrival
        # falling beyond a cut of the feed would shift every later mention
        tweets = tweets[: int(len(tweets) * STREAM_SHARE)]
    feed = faulty_feed(tweets, seed)
    result = Result(
        world_sha256=world_sha256,
        decisions=[],
        mention_accuracy=0.0,
        attempted=0,
        failed=0,
        values={},
        world_gen_s=gen_s,
    )
    if tracer is not None:
        result.values, traced = _trace_stream(tracer, world, built, feed)
        result.self_time_ms = layers.self_time_table(tracer)
        result.attempted = len(traced.decisions)
        result.failed = len(traced.decisions) - traced.correct(expected or traced.decisions)
        passes = [traced]
    else:
        setups_s: List[float] = []
        passes = []
        measured = 0.0
        while True:
            setups_s.append(built.setup_s)
            passes.append(stream_replay(built.linker, feed, world.num_users))
            measured += passes[-1].wall_s
            if measured >= seconds and len(setups_s) >= SETUP_REPEATS:
                break
            built = None  # release the previous set-up before the next
            built = build_linker(world, DEFAULT_CONFIG)
        _summarize(result, passes, expected or passes[0].decisions, setups_s)
    result.decisions = passes[0].decisions
    result.mention_accuracy = accuracy(result.decisions, mentions)
    injected = expected_dead_letters(feed)
    result.failed += sum(abs(p.dead_letters - injected) for p in passes)
    return result


def _trace_stream(
    tracer: Tracer,
    world: SyntheticWorld,
    built: Built,
    feed: Sequence[Dict[str, object]],
) -> tuple:
    """Per-layer numbers of ``stream_feedback``: an untraced replay, one
    with spans around push / link / confirm, a staged one, and one with
    the score caches on — each from a freshly complemented KB."""
    users = world.num_users
    untraced = stream_replay(built.linker, feed, users)

    built = build_linker(world, DEFAULT_CONFIG)
    traced = stream_replay(
        built.linker,
        feed,
        users,
        link=_stamping(tracer, built.linker.link, True),
        span=tracer.span,
    )
    mentions = len(traced.decisions)
    whole_us = mean(tracer.durations_us("link.whole"))
    with tracer.span("kb.checkpoint"):
        save_checkpoint(
            snapshot(built.context.ckb),
            str(OUT_DIR / "checkpoint-stream_feedback.json"),
        )
    values = {
        "kb.confirm_us_mean": mean(tracer.durations_us("kb.confirm")),
        "kb.complement_s": built.complement_s,
        "kb.links_total": float(built.context.ckb.total_links),
        "kb.checkpoint_ms": tracer.durations_us("kb.checkpoint")[0] / 1e3,
        "ingest.push_us_mean": mean(tracer.durations_us("ingest.push")),
        "ingest.released": float(traced.released),
        "ingest.dead_letter_share": traced.dead_letters / traced.received,
        "graph.index_build_s": built.index_build_s,
        "graph.index_bytes": float(built.linker.reachability_provider.size_bytes()),
        "trace.overhead_share": traced.wall_s / untraced.wall_s - 1.0,
    }

    built = build_linker(world, DEFAULT_CONFIG)
    staged = layers.StagedLinker(
        built.linker, built.context.propagation_network, tracer
    )
    stream_replay(
        built.linker,
        feed,
        users,
        link=_stamping(tracer, staged.link, False),
        on_confirm=staged.confirm,
    )
    values.update(layers.stage_metrics(tracer, mentions))
    values["link.staged_unaccounted_share"] = (
        whole_us - layers.staged_sum_us(values)
    ) / whole_us

    context = build_context(world)
    cached = SocialTemporalLinker(
        context.ckb,
        world.graph,
        dataclasses.replace(DEFAULT_CONFIG, score_caching=True),
        reachability=built.linker.reachability_provider,
        propagation_network=context.propagation_network,
    )
    cached_pass = stream_replay(cached, feed, users)
    values["cache.stream_mentions_per_s"] = mentions / cached_pass.wall_s
    # not in BENCHMARK.json: the same whole replay without the caches, to
    # hold the line above against (the untraced runs replay a quarter)
    values["cache.stream_uncached_mentions_per_s"] = mentions / untraced.wall_s
    return values, traced
