"""Checkpoint/recovery for the complemented knowledgebase (Definition 5).

The complemented KB is the only state the online path accumulates: the
per-entity linked tweets that Eq. 2 (popularity), Eq. 9 (recency) and the
influence estimators all read.  A process crash without a snapshot loses
every link confirmed since start-up; a naive snapshot without dedup
information double-counts links replayed after recovery.

A checkpoint therefore captures three things:

* the full link table ``(entity, user, timestamp, tweet_id)`` in storage
  order — bulk-loading it rebuilds :math:`D_e`, :math:`U_e` and the
  per-user counts exactly;
* the ingestor *watermark* — where the re-serialized stream was complete;
* the *applied tweet ids* — so a resumed
  :class:`~repro.stream.ingest.ResilientIngestor` dead-letters re-deliveries
  as duplicates instead of double-counting them.

The on-disk format is versioned JSON (gzipped when the path ends in
``.gz``) with a SHA-256 checksum over the canonical payload encoding;
any structural, version, or checksum mismatch raises
:class:`~repro.errors.CheckpointCorruptError` rather than restoring a
silently wrong KB.
"""

from __future__ import annotations

import dataclasses
import gzip
import hashlib
import json
import math
import os
import zlib
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.errors import CheckpointCorruptError
from repro.kb.complemented import ComplementedKnowledgebase
from repro.kb.knowledgebase import Knowledgebase
from repro.log import get_logger

_log = get_logger(__name__)

#: File-format magic; rejects accidental loads of unrelated JSON.
MAGIC = "repro-ckb-checkpoint"

#: Current checkpoint format version.
CHECKPOINT_VERSION = 1


@dataclasses.dataclass(frozen=True)
class StreamCheckpoint:
    """A restorable snapshot of KB links plus stream progress."""

    links: Tuple[Tuple[int, int, float, int], ...]
    watermark: Optional[float] = None
    applied_ids: FrozenSet[int] = frozenset()
    version: int = CHECKPOINT_VERSION

    @property
    def total_links(self) -> int:
        return len(self.links)


def snapshot(
    ckb: ComplementedKnowledgebase,
    watermark: Optional[float] = None,
    applied_ids: Iterable[int] = (),
) -> StreamCheckpoint:
    """Capture the current KB link table and stream progress."""
    links = tuple(ckb.iter_links())
    if watermark is not None and not math.isfinite(watermark):
        watermark = None  # nothing ingested yet; JSON has no -inf
    return StreamCheckpoint(
        links=links, watermark=watermark, applied_ids=frozenset(applied_ids)
    )


def restore(
    kb: Knowledgebase, checkpoint: StreamCheckpoint, num_nodes: int
) -> ComplementedKnowledgebase:
    """Rebuild a complemented KB over ``kb`` by bulk-loading the link table.

    Load order equals storage order, so per-entity columns (and hence
    every derived structure) match the pre-crash instance exactly.  A link
    whose user is outside the follow graph's ``[0, num_nodes)`` raises
    :class:`~repro.errors.CheckpointCorruptError` naming the first such
    link, and so, after that check, does one naming an entity ``kb``
    lacks or a non-finite timestamp (JSON admits ``NaN``).
    """
    for position, link in enumerate(checkpoint.links):
        if not 0 <= link[1] < num_nodes:
            raise CheckpointCorruptError(
                f"checkpoint link {position} {link}: user {link[1]} outside "
                f"the follow graph [0, {num_nodes})"
            )
    ckb = ComplementedKnowledgebase(kb)
    try:
        ckb.bulk_link(checkpoint.links)
    except (KeyError, ValueError) as exc:
        raise CheckpointCorruptError(f"checkpoint {exc.args[0]}") from exc
    return ckb


# ---------------------------------------------------------------------- #
# on-disk format
# ---------------------------------------------------------------------- #
def _canonical(payload: Dict[str, object]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _checksum(payload: Dict[str, object]) -> str:
    return hashlib.sha256(_canonical(payload)).hexdigest()


def save_checkpoint(checkpoint: StreamCheckpoint, path: str) -> str:
    """Atomically write a checkpoint; returns its checksum.

    The write goes to a sibling temp file first and is renamed into
    place, so a crash mid-write leaves the previous checkpoint intact.
    """
    payload: Dict[str, object] = {
        "links": [list(link) for link in checkpoint.links],
        "watermark": checkpoint.watermark,
        "applied_ids": sorted(checkpoint.applied_ids),
    }
    document = {
        "magic": MAGIC,
        "version": checkpoint.version,
        "checksum": _checksum(payload),
        "payload": payload,
    }
    data = json.dumps(document).encode("utf-8")
    tmp_path = f"{path}.tmp"
    if path.endswith(".gz"):
        with gzip.open(tmp_path, "wb") as handle:
            handle.write(data)
    else:
        with open(tmp_path, "wb") as handle:
            handle.write(data)
    os.replace(tmp_path, path)
    _log.info(
        "checkpoint written to %s (%d links, watermark=%s)",
        path,
        checkpoint.total_links,
        checkpoint.watermark,
    )
    return document["checksum"]  # type: ignore[return-value]


def load_checkpoint(path: str) -> StreamCheckpoint:
    """Read and verify a checkpoint; raises
    :class:`~repro.errors.CheckpointCorruptError` on any mismatch."""
    try:
        opener = gzip.open if path.endswith(".gz") else open
        with opener(path, "rb") as handle:  # type: ignore[operator]
            document = json.loads(handle.read().decode("utf-8"))
    except (OSError, ValueError, UnicodeDecodeError, EOFError, zlib.error) as exc:
        # EOFError/zlib.error: a truncated or bit-flipped gzip member ends
        # before its end-of-stream marker or fails CRC mid-decompress.
        raise CheckpointCorruptError(f"unreadable checkpoint {path!r}: {exc}") from exc
    if not isinstance(document, dict) or document.get("magic") != MAGIC:
        raise CheckpointCorruptError(f"{path!r} is not a repro checkpoint")
    version = document.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointCorruptError(
            f"unsupported checkpoint version {version!r} "
            f"(supported: {CHECKPOINT_VERSION})"
        )
    payload = document.get("payload")
    if not isinstance(payload, dict):
        raise CheckpointCorruptError(f"{path!r} has no payload")
    if _checksum(payload) != document.get("checksum"):
        raise CheckpointCorruptError(f"checksum mismatch in {path!r}")
    try:
        links = tuple(
            (int(entity), int(user), float(timestamp), int(tweet_id))
            for entity, user, timestamp, tweet_id in payload["links"]
        )
        watermark = payload["watermark"]
        if watermark is not None:
            watermark = float(watermark)
        applied = frozenset(int(i) for i in payload["applied_ids"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorruptError(f"malformed payload in {path!r}: {exc}") from exc
    return StreamCheckpoint(
        links=links, watermark=watermark, applied_ids=applied, version=version
    )
