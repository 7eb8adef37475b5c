"""Command-line interface.

Subcommands::

    repro generate  --out world.json.gz [--seed N --users N --topics N ...]
    repro datasets  --world world.json.gz
    repro evaluate  --world world.json.gz [--method ours ...]
    repro link      --world world.json.gz --surface jordan --user 7 --day 90
    repro search    --world world.json.gz --query "jordan dunk" --user 7
    repro report    [--results benchmarks/results --out REPORT.md]
    repro validate  --world world.json.gz
    repro stream    --world world.json.gz [--checkpoint ckpt.json --resume]
    repro serve     --world world.json.gz [--port 8355 --tenants alpha,beta]
    repro load      --world world.json.gz [--url http://... --chaos
                    --requests 2000 --out LOAD_report.json]

``generate`` builds and persists a synthetic world; most other commands
load one and run the corresponding piece of the pipeline.  ``stream``
replays the test stream through the resilient online path (validation,
reordering, degradation, checkpointing); ``report`` consolidates the
archived benchmark tables; ``validate`` measures a world's structural
properties.  Primary output is plain aligned tables on stdout
(``repro.eval.reporting``); diagnostics go to the ``repro`` logger on
stderr (``--log-level``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.config import DAY, DEFAULT_CONFIG
from repro.errors import ReproError
from repro.eval.context import METHODS, activity_split, build_experiment
from repro.eval.metrics import mention_and_tweet_accuracy
from repro.eval.reporting import format_table
from repro.io import load_world, save_world
from repro.kb.builder import KBProfile
from repro.log import configure_logging, get_logger
from repro.search import PersonalizedSearchEngine, TweetStore
from repro.stream.generator import StreamProfile, SyntheticWorld

#: Rows ``repro link`` prints.
_LINK_TOP_K = 3

_log = get_logger(__name__)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Microblog entity linking with social temporal context "
        "(SIGMOD 2015 reproduction)",
    )
    parser.add_argument(
        "--log-level",
        default="WARNING",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        help="stderr diagnostics verbosity (tables stay on stdout)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a synthetic world")
    generate.add_argument("--out", required=True, help="output path (.json[.gz])")
    generate.add_argument("--seed", type=int, default=11)
    generate.add_argument("--users", type=int, default=400)
    generate.add_argument("--topics", type=int, default=8)
    generate.add_argument("--entities-per-topic", type=int, default=10)
    generate.add_argument("--horizon-days", type=float, default=120.0)

    datasets = commands.add_parser("datasets", help="print Table-2 statistics")
    datasets.add_argument("--world", required=True)

    evaluate = commands.add_parser("evaluate", help="accuracy on the test set")
    evaluate.add_argument("--world", required=True)
    evaluate.add_argument(
        "--method", choices=METHODS + ("all",), default="all"
    )
    evaluate.add_argument(
        "--complement", choices=("collective", "truth"), default="collective"
    )
    evaluate.add_argument(
        "--metrics-out", default=None,
        help="write the run's metrics document (repro.obs) to this path",
    )

    link = commands.add_parser("link", help="link one mention")
    link.add_argument("--world", required=True)
    link.add_argument("--surface", required=True)
    link.add_argument("--user", type=int, required=True)
    link.add_argument("--day", type=float, required=True, help="query time (days)")

    search = commands.add_parser("search", help="personalized tweet search")
    search.add_argument("--world", required=True)
    search.add_argument("--query", required=True)
    search.add_argument("--user", type=int, required=True)
    search.add_argument("--day", type=float, default=None,
                        help="query time in days (default: end of horizon)")
    search.add_argument("--limit", type=int, default=5)

    report = commands.add_parser(
        "report", help="consolidate benchmark result tables into one report"
    )
    report.add_argument(
        "--results", default="benchmarks/results",
        help="directory of archived benchmark tables",
    )
    report.add_argument("--out", default="REPORT.md")

    validate = commands.add_parser(
        "validate", help="measure a world's structural properties"
    )
    validate.add_argument("--world", required=True)

    stream = commands.add_parser(
        "stream",
        help="replay the test stream through the resilient online path",
    )
    stream.add_argument("--world", required=True)
    stream.add_argument(
        "--limit", type=int, default=None, help="max tweets to replay"
    )
    stream.add_argument(
        "--lateness", type=float, default=0.0,
        help="allowed out-of-orderness in seconds (watermark lag)",
    )
    stream.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-mention latency budget; over-budget mentions degrade",
    )
    stream.add_argument(
        "--checkpoint", default=None, help="checkpoint file path (.json[.gz])"
    )
    stream.add_argument(
        "--checkpoint-every", type=int, default=500,
        help="tweets between checkpoints",
    )
    stream.add_argument(
        "--resume", action="store_true",
        help="restore KB state and applied ids from --checkpoint first",
    )
    stream.add_argument(
        "--fault-rate", type=float, default=0.0,
        help="inject reachability faults at this probability (demo/testing)",
    )
    stream.add_argument(
        "--metrics-out", default=None,
        help="write the run's metrics document (repro.obs) to this path",
    )

    serve = commands.add_parser(
        "serve",
        help="serve the linker over HTTP/JSON with per-tenant rate limits "
        "and load-shedding admission control (docs/serving.md)",
    )
    serve.add_argument("--world", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8355)
    serve.add_argument(
        "--admin-token", default=None,
        help="bearer token enabling the tenant admin endpoint "
        "(POST/DELETE /admin/v1/tenants); without it admin routes 404",
    )
    _add_tenant_arguments(serve)
    _add_chaos_arguments(serve)

    load = commands.add_parser(
        "load",
        help="replay seeded bursty traffic and emit a schema-stable "
        "latency/error/shed report (deterministic unless --url)",
    )
    load.add_argument("--world", required=True)
    load.add_argument(
        "--url", default=None,
        help="base url of a live `repro serve` (e.g. http://127.0.0.1:8355); "
        "without it the harness runs in-process, fully deterministically",
    )
    load.add_argument("--requests", type=int, default=2000)
    load.add_argument("--seed", type=int, default=11)
    load.add_argument(
        "--base-rate", type=float, default=200.0,
        help="mean arrival rate (req/s) before diurnal/spike modulation",
    )
    load.add_argument(
        "--out", default="LOAD_report.json",
        help="report document path (schema-stable JSON)",
    )
    load.add_argument(
        "--pool", type=int, default=8,
        help="with --url: worker connections of the concurrent open-loop "
        "client (arrivals are never gated on responses)",
    )
    _add_tenant_arguments(load)
    _add_chaos_arguments(load)
    return parser


def _add_tenant_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--tenants", default="alpha,beta",
        help="comma-separated tenants to host, each `name` or "
        "`name:admission-class` (classes from --admission-classes)",
    )
    parser.add_argument(
        "--tenant-rate", type=float, default=50.0,
        help="per-tenant sustained admission rate (req/s)",
    )
    parser.add_argument(
        "--tenant-burst", type=float, default=100.0,
        help="per-tenant token-bucket burst capacity",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=50.0,
        help="per-mention latency budget (degrades, never errors)",
    )
    parser.add_argument(
        "--admission-classes", default="default=4:8",
        help="named admission classes `name=capacity:queue[,...]` "
        "(e.g. 'gold=8:16,bronze=2:2'): concurrent requests allowed, then "
        "bounded queue positions before shedding",
    )


def _add_chaos_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--chaos", action="store_true",
        help="seeded faults on every tenant's reachability provider: 5%% of "
        "calls fail (trips breakers), 10%% take 40 ms (exhausts deadlines)",
    )


# ---------------------------------------------------------------------- #
# metrics export (shared by evaluate / stream)
# ---------------------------------------------------------------------- #
def _metrics_begin(path: Optional[str]) -> None:
    """Reset the metrics registry and time stages for a ``--metrics-out``
    run.

    A written document should describe exactly one command invocation;
    without the flag the registry keeps its (cheap, always-on) state,
    records no durations, and nothing changes.
    """
    if not path:
        return
    from repro.obs.metrics import METRICS

    METRICS.reset()
    METRICS.timing = True


def _metrics_write(path: Optional[str], tool: str) -> None:
    """Render and write the global registry's metrics document,
    schema-checked; ends the timing ``_metrics_begin`` started."""
    if not path:
        return
    import json as _json

    from repro.obs.metrics import (
        METRICS,
        render_metrics_document,
        validate_metrics_document,
    )

    METRICS.timing = False
    document = render_metrics_document(METRICS, tool=tool)
    problems = validate_metrics_document(document)
    if problems:  # pragma: no cover - the renderer emits its own schema
        raise ValueError(f"invalid metrics document: {problems}")
    with open(path, "w", encoding="utf-8") as handle:
        _json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"metrics written to {path}")


# ---------------------------------------------------------------------- #
# subcommands
# ---------------------------------------------------------------------- #
def _cmd_generate(args: argparse.Namespace) -> int:
    world = SyntheticWorld.generate(
        kb_profile=KBProfile(
            num_topics=args.topics,
            entities_per_topic=args.entities_per_topic,
            # ambiguous surfaces draw one candidate per topic; clamp to the
            # requested topic count for small worlds
            ambiguity=max(2, min(4, args.topics)),
            seed=args.seed,
        ),
        stream_profile=StreamProfile(
            num_users=args.users,
            horizon=args.horizon_days * DAY,
            seed=args.seed,
        ),
    )
    save_world(world, args.out)
    print(
        f"world written to {args.out}: {world.num_users} users, "
        f"{len(world.tweets)} tweets, {world.kb.num_entities} entities"
    )
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    context = build_experiment(
        world=load_world(args.world), complement_method="truth"
    )
    print(format_table(context.catalog.table2_rows(), title="tweet datasets"))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    _metrics_begin(args.metrics_out)
    context = build_experiment(
        world=load_world(args.world), complement_method=args.complement
    )
    selected = METHODS if args.method == "all" else (args.method,)
    rows = []
    for name in selected:
        run = context.run(name)
        accuracy = mention_and_tweet_accuracy(
            context.test_dataset.tweets, run.predictions
        )
        rows.append(
            {
                "method": name,
                "mention": round(accuracy.mention_accuracy, 4),
                "tweet": round(accuracy.tweet_accuracy, 4),
                "ms/tweet": round(run.seconds_per_tweet * 1e3, 4),
            }
        )
    print(format_table(rows, title=f"test-set accuracy (D{context.threshold}, "
                                   f"{args.complement} complementation)"))
    _metrics_write(args.metrics_out, tool="repro evaluate")
    return 0


def _cmd_link(args: argparse.Namespace) -> int:
    world = load_world(args.world)
    context = build_experiment(world=world, complement_method="truth")
    result = context.social_temporal().link(
        args.surface, user=args.user, now=args.day * DAY
    )
    if not result.ranked:
        _log.error("no candidates for surface %r", args.surface)
        return 1
    rows = [
        {
            "entity": world.kb.entity(c.entity_id).title,
            "score": round(c.score, 4),
            "interest": round(c.interest, 4),
            "recency": round(c.recency, 4),
            "popularity": round(c.popularity, 4),
        }
        for c in result.ranked[:_LINK_TOP_K]
    ]
    print(format_table(rows, title=f"{args.surface!r} by user {args.user} "
                                   f"at day {args.day:g}"))
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    world = load_world(args.world)
    context = build_experiment(world=world, complement_method="truth")
    engine = PersonalizedSearchEngine(
        context.social_temporal(), TweetStore(world.tweets)
    )
    now = (args.day * DAY) if args.day is not None else world.timeline.horizon
    response = engine.search(args.query, user=args.user, now=now, limit=args.limit)
    if response.used_fallback:
        print("(no linkable mention — keyword fallback)")
    for candidate in response.linked_entities:
        print(f"linked: {world.kb.entity(candidate.entity_id).title} "
              f"(score {candidate.score:.3f})")
    rows = [
        {
            "score": round(hit.score, 3),
            "day": round(hit.tweet.timestamp / DAY, 1),
            "user": hit.tweet.user,
            "text": hit.tweet.text[:60],
        }
        for hit in response.hits
    ]
    print(format_table(rows, title=f"results for {args.query!r}"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.report_builder import collect_results, write_report

    if not collect_results(args.results):
        _log.error(
            "no result tables under %r; "
            "run `pytest benchmarks/ --benchmark-only` first",
            args.results,
        )
        return 1
    path = write_report(args.results, args.out)
    print(f"report written to {path}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.stream.validation import validate_world

    report = validate_world(load_world(args.world))
    print(format_table(report.as_rows(), title="world structural properties"))
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    """Replay the test stream through the resilient online path.

    Exercises the full degradation ladder: validation + reordering in
    :class:`~repro.stream.ingest.ResilientIngestor`, per-mention deadline
    budgets and circuit-broken reachability in the linker, and periodic
    complemented-KB checkpoints for crash recovery.
    """
    import dataclasses as _dc

    from repro.core.linker import SocialTemporalLinker
    from repro.kb.checkpoint import load_checkpoint, restore, save_checkpoint, snapshot
    from repro.resilience.breaker import CircuitBreaker
    from repro.stream.ingest import ResilientIngestor, TweetValidator

    _metrics_begin(args.metrics_out)
    world = load_world(args.world)
    context = build_experiment(world=world, complement_method="truth")
    ckb = context.ckb
    seen_ids = []
    if args.resume and args.checkpoint:
        checkpoint = load_checkpoint(args.checkpoint)
        ckb = restore(world.kb, checkpoint, world.graph.num_nodes)
        seen_ids = sorted(checkpoint.applied_ids)
        _log.info(
            "resumed from %s: %d links, %d applied tweets",
            args.checkpoint, checkpoint.total_links, len(seen_ids),
        )

    config = context.config
    if args.deadline_ms is not None:
        config = _dc.replace(config, deadline_ms=args.deadline_ms)
    provider = context.reachability_index
    if args.fault_rate > 0.0:
        from repro.testing.faults import FaultSchedule, FlakyReachabilityProvider

        provider = FlakyReachabilityProvider(
            provider, FaultSchedule(error_rate=args.fault_rate)
        )
    linker = SocialTemporalLinker(
        ckb,
        world.graph,
        config=config,
        reachability=provider,
        propagation_network=context.propagation_network,
        breaker=CircuitBreaker(),
    )
    ingestor = ResilientIngestor(
        validator=TweetValidator(known_users=range(world.num_users)),
        lateness=args.lateness,
        seen_ids=seen_ids,
    )

    tweets = context.test_dataset.tweets
    if args.limit is not None:
        tweets = tweets[: args.limit]
    degraded = confirmed = checkpoints = 0
    # Checkpoints record *applied* tweet ids (not merely admitted ones):
    # tweets still sitting in the reordering buffer at checkpoint time must
    # be re-admitted on recovery, or their links would be lost.
    applied = set(seen_ids)

    def _apply(tweet, results) -> None:
        nonlocal degraded, confirmed
        for result in results:
            degraded += int(result.degraded)
            if result.best is not None:
                linker.confirm_link(
                    result.best.entity_id, tweet.user, tweet.timestamp,
                    tweet.tweet_id,
                )
                confirmed += 1
        applied.add(tweet.tweet_id)

    def _consume(released) -> None:
        for tweet in released:
            _apply(tweet, linker.link_tweet(tweet))

    for index, tweet in enumerate(tweets, start=1):
        _consume(ingestor.push(tweet))
        if index % args.checkpoint_every == 0 and args.checkpoint:
            save_checkpoint(
                snapshot(ckb, ingestor.watermark, applied),
                args.checkpoint,
            )
            checkpoints += 1
    _consume(ingestor.flush())
    if args.checkpoint:
        save_checkpoint(
            snapshot(ckb, ingestor.watermark, applied), args.checkpoint
        )
        checkpoints += 1

    stats = ingestor.stats
    rows = [
        {
            "received": stats.received,
            "emitted": stats.emitted,
            "dead_lettered": stats.dead_lettered,
            "degraded_mentions": degraded,
            "confirmed_links": confirmed,
            "kb_links": ckb.total_links,
            "checkpoints": checkpoints,
        }
    ]
    print(format_table(rows, title="resilient stream replay"))
    _metrics_write(args.metrics_out, tool="repro stream")
    return 0


# ---------------------------------------------------------------------- #
# serving front end (docs/serving.md)
# ---------------------------------------------------------------------- #
def _tenant_specs(args: argparse.Namespace):
    from repro.serve.admission import DEFAULT_CLASS
    from repro.serve.tenants import TenantSpec

    specs = []
    for entry in (piece.strip() for piece in args.tenants.split(",")):
        if not entry:
            continue
        name, _, admission_class = entry.partition(":")
        specs.append(
            TenantSpec(
                name=name,
                rate=args.tenant_rate,
                burst=args.tenant_burst,
                deadline_ms=args.deadline_ms,
                admission_class=admission_class or DEFAULT_CLASS,
            )
        )
    if not specs:
        raise ValueError("a server needs at least one tenant")
    return specs


def _admission_from_args(args: argparse.Namespace):
    """Build the classed admission controller the flags describe.

    ``--admission-classes 'gold=8:16,bronze=2:2'`` declares named classes
    (capacity:queue each); the default is the single class ``default=4:8``.
    """
    from repro.serve.admission import AdmissionClass, AdmissionController

    classes = []
    for entry in (piece.strip() for piece in args.admission_classes.split(",")):
        if not entry:
            continue
        name, eq, sizing = entry.partition("=")
        capacity, colon, queue_limit = sizing.partition(":")
        if not (eq and colon):
            raise SystemExit(
                f"--admission-classes entry {entry!r} is not name=capacity:queue"
            )
        try:
            classes.append(
                AdmissionClass(
                    name=name, capacity=int(capacity), queue_limit=int(queue_limit)
                )
            )
        except ValueError as error:
            raise SystemExit(f"--admission-classes entry {entry!r}: {error}")
    return AdmissionController(classes)


def _build_serve_app(args: argparse.Namespace, clock, sleep, defer_release: bool):
    """Shared wiring of ``repro serve`` and in-process ``repro load``.

    Only the KB with its ``D_e`` (complemented from ``D10``) and the
    follow graph outlive the world; one full collection returns the
    corpus's memory before the index, network and tenants are built,
    so they reuse it instead of raising the peak.
    """
    import gc

    from repro.eval.context import DEFAULT_THRESHOLD, complement_knowledgebase
    from repro.serve.handlers import ServeApp
    from repro.serve.tenants import TenantRegistry

    specs = _tenant_specs(args)
    world = load_world(args.world)
    threshold = DEFAULT_THRESHOLD
    active = activity_split(world, thresholds=(threshold,)).dataset(threshold)
    ckb = complement_knowledgebase(world, active, method="truth")
    graph = world.graph
    del world, active
    gc.collect()
    registry = TenantRegistry(
        ckb, graph, DEFAULT_CONFIG, clock=clock, chaos=args.chaos, sleep=sleep
    )
    for spec in specs:
        registry.add(spec)
    return ServeApp(
        registry,
        admission=_admission_from_args(args),
        clock=clock,
        defer_release=defer_release,
        admin_token=getattr(args, "admin_token", None),
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    import gc
    import time as _time

    from repro.serve.server import serve_forever

    # What the boot keeps (KB, graph, index, network, tenants) is
    # long-lived and acyclic: build it with the cyclic collector off
    # (the boot collects once itself, after dropping the corpus), then
    # freeze it so no later collection rescans it.  A boot that raises
    # must not leave the collector off.
    collecting = gc.isenabled()
    gc.disable()
    try:
        app = _build_serve_app(
            args, clock=_time.monotonic, sleep=_time.sleep if args.chaos else None,
            defer_release=False,
        )
        gc.freeze()
    finally:
        if collecting:
            gc.enable()
    print(
        f"serving tenants {', '.join(app.registry.names())} "
        f"on http://{args.host}:{args.port} (chaos={'on' if args.chaos else 'off'}"
        f"{', admin' if args.admin_token else ''})"
    )
    serve_forever(app, host=args.host, port=args.port)
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.client import run_http
    from repro.serve.load import (
        generate_requests,
        queries_from_dataset,
        run_inprocess,
    )
    from repro.serve.report import validate_load_document
    from repro.serve.tenants import chaos_meta
    from repro.testing.faults import FakeClock

    chaos = chaos_meta(args.chaos)
    specs = _tenant_specs(args)
    queries = queries_from_dataset(activity_split(load_world(args.world)).test)
    planned = generate_requests(
        args.seed, args.requests, args.base_rate, [s.name for s in specs], queries
    )
    if args.url:
        document = run_http(args.url, planned, args.seed, chaos, pool_size=args.pool)
    else:
        clock = FakeClock()
        app = _build_serve_app(args, clock=clock, sleep=None, defer_release=True)
        document = run_inprocess(app, clock, planned, args.seed, chaos)
    problems = validate_load_document(document)
    with open(args.out, "w", encoding="utf-8") as handle:
        _json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    outcomes, meta = document["outcomes"], document["meta"]
    print(format_table(
        [{"outcome": name, "count": count}
         for name, count in outcomes.items() if count],
        title=f"{meta['requests']} requests ({meta['mode']}, profile "
              f"{meta['profile']}, shed_rate {document['shed_rate']})",
    ))
    print(f"report written to {args.out}")
    if problems:
        for problem in problems:
            _log.error("load report schema: %s", problem)
        return 1
    if document["unhandled"]:
        _log.error(
            "%d unhandled responses (internal or connection errors) — "
            "the serving layer must degrade, never crash", document["unhandled"],
        )
        return 1
    if document["invalid_error_bodies"]:
        _log.error(
            "%d rejection bodies failed the error schema — every 4xx/5xx "
            "must stay typed under load", document["invalid_error_bodies"],
        )
        return 1
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "datasets": _cmd_datasets,
    "evaluate": _cmd_evaluate,
    "link": _cmd_link,
    "search": _cmd_search,
    "report": _cmd_report,
    "validate": _cmd_validate,
    "stream": _cmd_stream,
    "serve": _cmd_serve,
    "load": _cmd_load,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.log_level)
    try:
        return _HANDLERS[args.command](args)
    except (ReproError, ValueError) as exc:
        # domain failures (corrupt checkpoint, bad config, ...) get one
        # clean diagnostic line, not a traceback
        _log.error("%s: %s", type(exc).__name__, exc)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
