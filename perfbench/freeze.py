"""Rewrite ``expected.json``: the world digests and every mention's
decision on each path, as the code produces them now.

Run it (``python -m perfbench.run --freeze``) only when a change is
*meant* to move the workload's inputs or decisions, and say so in the PR:
the baseline has to be measured again afterwards.
"""

from __future__ import annotations

import json

from repro.config import DEFAULT_CONFIG

from perfbench import inprocess
from perfbench.serving import in_process_app, link_bodies
from perfbench.world import (
    BENCH_USERS,
    EXPECTED_PATH,
    WORLD_SEED,
    build_context,
    generate_world,
    test_mentions,
)


def serve_decisions() -> list:
    """The ``entity`` field ``POST /v1/link`` answers per test mention (the
    handler drops a top entity at or under the no-interest bound)."""
    world, _, _, _ = generate_world(BENCH_USERS, "freeze")
    mentions = test_mentions(build_context(world))
    app, _, _ = in_process_app(world)
    order, bodies = link_bodies(mentions, seed=0)
    decisions = [None] * len(mentions)
    for index, body in zip(order, bodies):
        status, document = app.handle("POST", "/v1/link", body)
        if status != 200 or document["outcome"] == "degraded":
            raise RuntimeError(f"reference request failed: {document}")
        decisions[index] = document["entity"]
    return decisions


def stream_decisions() -> list:
    """Decisions of one whole ``stream_feedback`` replay (they do not
    depend on the seed: the ingestor re-serializes the injected faults)."""
    world, _, _, _ = generate_world(BENCH_USERS, "freeze")
    built = inprocess.build_linker(world, DEFAULT_CONFIG)
    feed = inprocess.faulty_feed(built.context.test_dataset.tweets, seed=0)
    return inprocess.stream_replay(built.linker, feed, world.num_users).decisions


def freeze() -> None:
    hot = inprocess.run_read_only("link_hot", 0, 0.0, None, None)
    compact = inprocess.run_read_only("scale_compact", 0, 0.0, None, None)
    document = {
        "world_seed": WORLD_SEED,
        "world_sha256": {"bench": hot.world_sha256, "compact": compact.world_sha256},
        "decisions": {
            "link_hot": hot.decisions,
            "scale_compact": compact.decisions,
            "stream_feedback": stream_decisions(),
            "serve": serve_decisions(),
        },
    }
    lines = [
        f' "{key}": {json.dumps(value, separators=(",", ":"))}'
        for key, value in document.items()
    ]
    EXPECTED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH}")
