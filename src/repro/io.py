"""JSON (de)serialization of worlds, knowledgebases, and graphs.

Generated worlds are the experiments' datasets; persisting them lets a
measurement be re-run on the *identical* world later (or shared with
another machine) without trusting generator-version stability.  Plain JSON
(optionally gzipped by filename suffix) keeps artifacts inspectable.
"""

from __future__ import annotations

import gzip
import json
import pathlib
from typing import Any, Dict, IO, Union

import numpy as np

from repro.graph.digraph import DiGraph
from repro.kb.builder import KBProfile, SyntheticKB
from repro.kb.entity import EntityCategory
from repro.kb.knowledgebase import Knowledgebase
from repro.stream.events import Event, EventTimeline
from repro.stream.generator import StreamProfile, SyntheticWorld
from repro.stream.tweet import MentionSpan, Tweet

PathLike = Union[str, pathlib.Path]

#: Format marker written into every artifact.
FORMAT_VERSION = 1


# ---------------------------------------------------------------------- #
# dict codecs
# ---------------------------------------------------------------------- #
def graph_to_dict(graph: DiGraph) -> Dict[str, Any]:
    return {"nodes": graph.num_nodes, "edges": list(graph.edges())}


def graph_from_dict(payload: Dict[str, Any]) -> DiGraph:
    return DiGraph.from_edges(
        payload["nodes"], ((u, v) for u, v in payload["edges"])
    )


def kb_to_dict(kb: Knowledgebase) -> Dict[str, Any]:
    entities = []
    for entity in kb.entities():
        entities.append(
            {
                "title": entity.title,
                "category": entity.category.value,
                "topic": entity.topic,
                "description": kb.description(entity.entity_id),
                "surfaces": list(kb.surfaces_of(entity.entity_id)),
                "inlinks": sorted(kb.inlinks(entity.entity_id)),
            }
        )
    return {"entities": entities}


def kb_from_dict(payload: Dict[str, Any]) -> Knowledgebase:
    kb = Knowledgebase()
    for record in payload["entities"]:
        entity = kb.add_entity(
            title=record["title"],
            category=EntityCategory(record["category"]),
            topic=record["topic"],
            description=record["description"],
        )
        for surface in record["surfaces"]:
            kb.add_surface_form(surface, entity.entity_id)
    for target_id, record in enumerate(payload["entities"]):
        for source_id in record["inlinks"]:
            kb.add_hyperlink(source_id, target_id)
    return kb


def tweet_to_dict(tweet: Tweet) -> Dict[str, Any]:
    return {
        "id": tweet.tweet_id,
        "user": tweet.user,
        "t": tweet.timestamp,
        "text": tweet.text,
        "mentions": [[m.surface, m.true_entity] for m in tweet.mentions],
    }


def tweet_from_dict(payload: Dict[str, Any]) -> Tweet:
    return Tweet(
        tweet_id=payload["id"],
        user=payload["user"],
        timestamp=payload["t"],
        text=payload["text"],
        mentions=tuple(
            MentionSpan(surface=s, true_entity=e) for s, e in payload["mentions"]
        ),
    )


def world_to_dict(world: SyntheticWorld) -> Dict[str, Any]:
    synthetic_kb = world.synthetic_kb
    return {
        "version": FORMAT_VERSION,
        "kb": kb_to_dict(world.kb),
        "kb_profile": _dataclass_to_dict(synthetic_kb.profile),
        "topic_entities": synthetic_kb.topic_entities,
        "topic_vocab": synthetic_kb.topic_vocab,
        "common_vocab": synthetic_kb.common_vocab,
        "ambiguous_surfaces": synthetic_kb.ambiguous_surfaces,
        "graph": graph_to_dict(world.graph),
        "interests": world.interests.tolist(),
        "hubs": world.hubs,
        "events": [
            [e.topic, e.start, e.end, e.intensity] for e in world.timeline.events
        ],
        "horizon": world.timeline.horizon,
        "tweets": [tweet_to_dict(t) for t in world.tweets],
        "stream_profile": _dataclass_to_dict(world.stream_profile),
    }


def world_from_dict(payload: Dict[str, Any]) -> SyntheticWorld:
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"unsupported world format version {payload.get('version')!r}"
        )
    synthetic_kb = SyntheticKB(
        kb=kb_from_dict(payload["kb"]),
        profile=KBProfile(**payload["kb_profile"]),
        topic_entities=[list(ids) for ids in payload["topic_entities"]],
        topic_vocab=[list(words) for words in payload["topic_vocab"]],
        common_vocab=list(payload["common_vocab"]),
        ambiguous_surfaces={
            surface: list(members)
            for surface, members in payload["ambiguous_surfaces"].items()
        },
    )
    timeline = EventTimeline(
        [
            Event(topic=topic, start=start, end=end, intensity=intensity)
            for topic, start, end, intensity in payload["events"]
        ],
        horizon=payload["horizon"],
    )
    return SyntheticWorld(
        synthetic_kb=synthetic_kb,
        graph=graph_from_dict(payload["graph"]),
        interests=np.array(payload["interests"], dtype=np.float64),
        hubs=[list(h) for h in payload["hubs"]],
        timeline=timeline,
        tweets=[tweet_from_dict(t) for t in payload["tweets"]],
        stream_profile=StreamProfile(**payload["stream_profile"]),
    )


def _dataclass_to_dict(instance) -> Dict[str, Any]:
    import dataclasses

    return dataclasses.asdict(instance)


# ---------------------------------------------------------------------- #
# file I/O
# ---------------------------------------------------------------------- #
def _open(path: PathLike, mode: str) -> IO:
    path = pathlib.Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def save_world(world: SyntheticWorld, path: PathLike) -> None:
    """Write a world to ``path`` (gzip-compressed when it ends in .gz)."""
    with _open(path, "w") as handle:
        json.dump(world_to_dict(world), handle)


def load_world(path: PathLike) -> SyntheticWorld:
    """Read a world written by :func:`save_world`."""
    with _open(path, "r") as handle:
        return world_from_dict(json.load(handle))
