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
import zlib
from typing import Any, Dict, IO, Optional, Union

import numpy as np

from repro.errors import WorldFileError
from repro.graph.digraph import DiGraph
from repro.kb.builder import KBProfile, SyntheticKB
from repro.kb.entity import EntityCategory
from repro.kb.knowledgebase import Knowledgebase
from repro.stream.events import Event, EventTimeline
from repro.stream.generator import StreamProfile, SyntheticWorld
from repro.stream.tweet import MentionIntern, Tweet

PathLike = Union[str, pathlib.Path]

#: Format marker written into every artifact.
FORMAT_VERSION = 1


# ---------------------------------------------------------------------- #
# dict codecs
# ---------------------------------------------------------------------- #
def graph_to_dict(graph: DiGraph) -> Dict[str, Any]:
    return {"nodes": graph.num_nodes, "edges": list(graph.edges())}


def graph_from_dict(payload: Dict[str, Any]) -> DiGraph:
    """Decode a graph; the constructor refuses a count or end that is not
    an ``int``, and a repeated edge is refused here: a save after the load
    would write other bytes."""
    edges = payload["edges"]
    graph = DiGraph(payload["nodes"], ((u, v) for u, v in edges))
    if graph.num_edges != len(edges):
        raise ValueError(
            f"{len(edges) - graph.num_edges} repeated edge(s) in the graph"
        )
    return graph


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


#: The keys of a tweet record, and of no other object in a world file.
_TWEET_KEYS = frozenset(("id", "user", "t", "text", "mentions"))

_NUMBER_FIELDS = (
    ("id", int, "an int"),
    ("user", int, "an int"),
    ("t", (int, float), "a real number"),
)


def tweet_from_dict(
    payload: Dict[str, Any], interned: Optional[MentionIntern] = None
) -> Tweet:
    """Decode one tweet.  ``interned`` shares author ids, mention spans and
    mention tuples across calls (:class:`~repro.stream.tweet.MentionIntern`).

    ``id`` and ``user`` must be ints and ``t`` a real number, never a
    bool: ``true`` would otherwise load as user 1."""
    if interned is None:
        interned = MentionIntern()
    tweet_id, user, timestamp = payload["id"], payload["user"], payload["t"]
    if not (type(tweet_id) is type(user) is int and type(timestamp) is float):
        _check_numbers(payload)  # the slow path: judge each field
    return Tweet(
        tweet_id=tweet_id,
        user=interned.user(user),
        timestamp=timestamp,
        text=payload["text"],
        mentions=interned.mentions(payload["mentions"]),
    )


def _check_numbers(payload: Dict[str, Any]) -> None:
    for field, kinds, noun in _NUMBER_FIELDS:
        value = payload[field]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise TypeError(f"tweet {field!r} must be {noun}, got {value!r}")


def world_to_dict(world: SyntheticWorld) -> Dict[str, Any]:
    payload = _world_fields(world)
    payload["tweets"] = [tweet_to_dict(t) for t in world.tweets]
    return payload


def _world_fields(world: SyntheticWorld) -> Dict[str, Any]:
    """:func:`world_to_dict` with ``"tweets"`` held in its place as ``None``."""
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
        "tweets": None,
        "stream_profile": _dataclass_to_dict(world.stream_profile),
    }


def world_from_dict(payload: Dict[str, Any]) -> SyntheticWorld:
    return _world_from_dict(payload, MentionIntern())


def _world_from_dict(
    payload: Dict[str, Any], interned: MentionIntern
) -> SyntheticWorld:
    """Build the world; a tweet :func:`load_world` already decoded while
    parsing is kept, any other record goes through :func:`tweet_from_dict`."""
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
    graph = graph_from_dict(payload["graph"])
    # the bench world's 74,791 tweets hold 18,119 distinct mention tuples
    # of 5,360 distinct spans
    tweets = [
        t if isinstance(t, Tweet) else tweet_from_dict(t, interned)
        for t in payload["tweets"]
    ]
    users = graph.num_nodes
    stray = next((t for t in tweets if t.user >= users), None)
    if stray is not None:
        raise ValueError(
            f"tweet {stray.tweet_id} is by user {stray.user}, not a node of "
            f"the {users}-user graph"
        )
    # every span is interned (an unhashable one raised), so this is each once
    entities = range(synthetic_kb.kb.num_entities)
    for span in interned.spans:
        entity = span.true_entity
        if entity is not None and (isinstance(entity, bool) or entity not in entities):
            raise ValueError(
                f"mention {span.surface!r} names entity {entity!r}, not one of "
                f"the KB's {len(entities)}"
            )
    return SyntheticWorld(
        synthetic_kb=synthetic_kb,
        graph=graph,
        interests=np.array(payload["interests"], dtype=np.float64),
        hubs=[list(h) for h in payload["hubs"]],
        timeline=timeline,
        tweets=tweets,
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
    """Write a world to ``path`` (gzip-compressed when it ends in .gz).

    The bytes are ``json.dump(world_to_dict(world))``'s, but the tweets
    are encoded one record at a time, so their dicts never all exist."""
    with _open(path, "w") as handle:
        separator = "{"
        for key, value in _world_fields(world).items():
            handle.write(f"{separator}{json.dumps(key)}: ")
            separator = ", "
            if key != "tweets":
                handle.write(json.dumps(value))
                continue
            handle.write("[")
            for i, tweet in enumerate(world.tweets):
                handle.write((", " if i else "") + json.dumps(tweet_to_dict(tweet)))
            handle.write("]")
        handle.write("}")


_DECODE_ERRORS = (KeyError, TypeError, ValueError, IndexError, AttributeError)


def load_world(path: PathLike) -> SyntheticWorld:
    """Read a world written by :func:`save_world`; anything else raises
    :class:`~repro.errors.WorldFileError` naming ``path``.

    Each tweet record becomes its :class:`Tweet` as soon as the parser
    has it, so the file's tweet dicts never all exist at once."""
    interned = MentionIntern()

    def decode_tweet(record: Dict[str, Any]) -> Any:
        if record.keys() != _TWEET_KEYS:
            return record
        try:
            return tweet_from_dict(record, interned)
        except _DECODE_ERRORS as exc:
            # a WorldFileError is no ValueError: it leaves json.load and
            # passes the ``unreadable`` handler below untouched
            raise _malformed(path, exc) from exc

    try:
        with _open(path, "r") as handle:
            payload = json.load(handle, object_hook=decode_tweet)
    except (OSError, EOFError, zlib.error, ValueError) as exc:
        # EOFError / zlib.error: a truncated or bit-flipped gzip member
        raise WorldFileError(
            f"unreadable world {str(path)!r}: {type(exc).__name__}: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise WorldFileError(f"{str(path)!r} is not a repro world")
    try:
        return _world_from_dict(payload, interned)
    except _DECODE_ERRORS as exc:
        raise _malformed(path, exc) from exc


def _malformed(path: PathLike, exc: Exception) -> WorldFileError:
    return WorldFileError(
        f"malformed world {str(path)!r}: {type(exc).__name__}: {exc}"
    )
