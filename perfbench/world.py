"""The frozen bench world and the inputs every workload derives from it.

The world is a fixed part of each workload's definition, not a function
of ``--seed``: per-mention cost depends on the generated ambiguity
structure (p50 of one ``link()`` spans 0.39–1.08 ms across world seeds
1–10), so worlds drawn per run could not hold a 10 % regression bound.
``--seed`` instead drives the request order, the tenant assignment and
the injected stream faults; ``expected.json`` pins the world's digest
and every mention's decision so a change to the generator or to a
tie-break cannot silently change the workload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.eval.context import ExperimentContext, build_experiment
from repro.io import save_world
from repro.kb.builder import KBProfile
from repro.stream.generator import StreamProfile, SyntheticWorld

#: Generator seed of the bench world (KB and stream profile alike).
WORLD_SEED = 11
#: Users of the bench world — exactly ``LinkerConfig.closure_max_nodes``.
BENCH_USERS = 2000
#: Users of the ``scale_compact`` world.  The compact cover is forced at
#: this size because its build is 2.6 s here, 6.4 s at 1,200 users and
#: over 40 s where ``auto`` dispatch would pick it; the code path is the
#: same and set-up is measured three times in every run.
COMPACT_USERS = 800

PERFBENCH_DIR = pathlib.Path(__file__).resolve().parent
OUT_DIR = PERFBENCH_DIR / "out"
EXPECTED_PATH = PERFBENCH_DIR / "expected.json"


@dataclasses.dataclass(frozen=True)
class Mention:
    """One test mention: what ``link()`` is asked, and the generator truth."""

    surface: str
    user: int
    now: float
    truth: Optional[int]


def generate_world(num_users: int, tag: str) -> Tuple[SyntheticWorld, pathlib.Path, str, float]:
    """Generate the world, save it under ``out/`` and hash the saved file.

    Returns ``(world, path, sha256, generation seconds)``.  The file is
    what ``repro serve --world`` loads; its digest is what
    ``expected.json`` pins.
    """
    started = time.perf_counter()
    world = SyntheticWorld.generate(
        KBProfile(
            num_topics=16, entities_per_topic=20, ambiguous_groups=48, seed=WORLD_SEED
        ),
        StreamProfile(num_users=num_users, seed=WORLD_SEED),
    )
    gen_s = time.perf_counter() - started
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"world-{tag}.json"
    save_world(world, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return world, path, digest, gen_s


def build_context(world: SyntheticWorld) -> ExperimentContext:
    """Split the stream and complement the KB from the generator truth."""
    return build_experiment(
        world=world, test_user_cap=1000, complement_method="truth"
    )


def test_mentions(context: ExperimentContext) -> List[Mention]:
    """Every mention of the test split, in ``(timestamp, tweet_id)`` order."""
    return [
        Mention(mention.surface, tweet.user, tweet.timestamp, mention.true_entity)
        for tweet in context.test_dataset.tweets
        for mention in tweet.mentions
    ]


def decisions_digest(decisions: Sequence[Optional[int]]) -> str:
    """sha256 of a top-entity decision sequence (for parent-vs-change diffs)."""
    return hashlib.sha256(json.dumps(list(decisions)).encode("ascii")).hexdigest()


def accuracy(decisions: Sequence[Optional[int]], mentions: Sequence[Mention]) -> float:
    """The paper's mention accuracy — top entity equals the generator
    truth — over the mentions decided (a prefix of ``mentions``)."""
    hits = sum(d is not None and d == m.truth for d, m in zip(decisions, mentions))
    return hits / len(decisions)


def load_expected() -> Dict[str, object]:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)
