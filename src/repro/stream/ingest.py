"""Resilient stream ingestion for the online linker (Sec. 3.2.2).

The eval harness replays clean, chronologically sorted synthetic streams.
A live microblog feed is neither: records arrive late and out of order,
carry empty text or NaN timestamps, and repeat tweet ids on provider
retries.  This module is the admission control in front of
:class:`~repro.kb.complemented.ComplementedKnowledgebase` and the linker:

* :class:`TweetValidator` — repairs what is safely repairable (whitespace,
  numeric strings) and rejects the rest with a typed reason;
* :class:`ResilientIngestor` — watermark-based reordering buffer that
  re-serializes out-of-order arrivals within a configurable lateness
  bound, with a dead-letter queue so nothing is silently dropped;
* :class:`DeadLetter` / :class:`IngestStats` — the observability surface.

Release order depends only on the records pushed, so a replay of the
same feed admits, releases and dead-letters exactly the same records.
"""

from __future__ import annotations

import collections
import dataclasses
import heapq
import math
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.errors import (
    DuplicateTweetError,
    MalformedTweetError,
    ReproError,
    StaleTimestampError,
    UnknownUserError,
)
from repro.log import get_logger
from repro.obs.metrics import METRICS
from repro.obs.trace import TRACE
from repro.stream.tweet import MentionSpan, Tweet

_log = get_logger(__name__)

#: Anything the validator accepts: an already-constructed tweet or a raw
#: provider record (field dict).
RawRecord = Union[Tweet, Dict[str, object]]

#: The largest id the complemented KB's signed 64-bit columns hold.
_MAX_ID = 2**63 - 1
#: Backpressure bound of :class:`ResilientIngestor`: past this many
#: buffered tweets the oldest are force-emitted even though the watermark
#: has not reached them.
MAX_BUFFER = 1024
#: Dead letters retained before the oldest is evicted (and counted).
MAX_DEAD_LETTERS = 10_000


@dataclasses.dataclass(frozen=True)
class DeadLetter:
    """One rejected record with a structured reason."""

    record: RawRecord
    reason: str
    error: str

    @classmethod
    def from_error(cls, record: RawRecord, error: ReproError) -> "DeadLetter":
        reason = {
            MalformedTweetError: "malformed",
            UnknownUserError: "unknown_user",
            StaleTimestampError: "stale",
            DuplicateTweetError: "duplicate",
        }.get(type(error), "error")
        return cls(record=record, reason=reason, error=str(error))


@dataclasses.dataclass
class IngestStats:
    """Counters describing one ingestor's lifetime."""

    received: int = 0
    admitted: int = 0
    repaired: int = 0
    emitted: int = 0
    dead_lettered: int = 0
    dead_letter_evictions: int = 0
    duplicates: int = 0
    stale: int = 0


class TweetValidator:
    """Validate (and conservatively repair) raw tweet records.

    Repairs are limited to changes that cannot alter linking semantics:
    stripping surrounding whitespace from text, and coercing numeric
    strings / ints to the declared field types.  Anything else — empty
    text, non-finite or negative timestamps, ids outside the signed
    64-bit range, unknown authors — raises the matching taxonomy error.
    """

    def __init__(self, known_users: Optional[Iterable[int]] = None) -> None:
        self._known_users = frozenset(known_users) if known_users is not None else None
        self.repairs = 0

    def validate(self, record: RawRecord) -> Tweet:
        """Return a clean :class:`Tweet` or raise a taxonomy error."""
        if isinstance(record, Tweet):
            tweet = record
        elif isinstance(record, dict):
            tweet = self._from_mapping(record)
        else:
            raise MalformedTweetError(
                f"unsupported record type {type(record).__name__}"
            )
        if not math.isfinite(tweet.timestamp) or tweet.timestamp < 0.0:
            raise MalformedTweetError(
                f"timestamp {tweet.timestamp!r} outside [0.0, inf)"
            )
        if tweet.tweet_id > _MAX_ID or tweet.user > _MAX_ID:
            raise MalformedTweetError(
                f"tweet id {tweet.tweet_id} or user {tweet.user} outside [0, 2**63)"
            )
        if self._known_users is not None and tweet.user not in self._known_users:
            raise UnknownUserError(f"author {tweet.user} not in the user universe")
        return tweet

    def _from_mapping(self, record: Dict[str, object]) -> Tweet:
        try:
            tweet_id = int(record["tweet_id"])  # type: ignore[arg-type]
            user = int(record["user"])  # type: ignore[arg-type]
            timestamp = float(record["timestamp"])  # type: ignore[arg-type]
            text = record["text"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedTweetError(f"unparseable record fields: {exc}") from exc
        if not isinstance(text, str):
            raise MalformedTweetError(f"text must be a string, got {type(text).__name__}")
        stripped = text.strip()
        if stripped != text:
            self.repairs += 1
        mentions = self._mentions(record.get("mentions", ()))
        try:
            return Tweet(
                tweet_id=tweet_id,
                user=user,
                timestamp=timestamp,
                text=stripped,
                mentions=mentions,
            )
        except ValueError as exc:
            raise MalformedTweetError(str(exc)) from exc

    @staticmethod
    def _mentions(raw: object) -> Tuple[MentionSpan, ...]:
        if not isinstance(raw, (list, tuple)):
            raise MalformedTweetError("mentions must be a sequence")
        spans: List[MentionSpan] = []
        for item in raw:
            try:
                if isinstance(item, MentionSpan):
                    spans.append(item)
                elif isinstance(item, str):
                    spans.append(MentionSpan(surface=item))
                elif isinstance(item, dict):
                    spans.append(
                        MentionSpan(
                            surface=str(item["surface"]),
                            true_entity=item.get("true_entity"),  # type: ignore[arg-type]
                        )
                    )
                else:
                    raise MalformedTweetError(
                        f"unsupported mention type {type(item).__name__}"
                    )
            except (KeyError, ValueError) as exc:
                raise MalformedTweetError(f"bad mention {item!r}: {exc}") from exc
        return tuple(spans)


class ResilientIngestor:
    """Watermark-ordered, validated stream admission.

    The ingestor re-serializes a disordered feed: arrivals are buffered
    until the *watermark* (latest event time seen minus ``lateness``)
    passes their timestamp, then released in ``(timestamp, tweet_id)``
    order.  A stream delivered out of order — within the lateness bound —
    therefore produces byte-identical downstream state to in-order
    delivery.  Arrivals older than the watermark or sorting before a tweet
    already released (which a :data:`MAX_BUFFER` forced release can do),
    duplicates, and unrepairable records go to :attr:`dead_letters` with
    a typed reason.

    Parameters
    ----------
    lateness:
        How far (seconds) event time may lag the newest arrival before a
        record counts as too late.  0 admits only monotone streams.
    seen_ids:
        Tweet ids already applied downstream (from a checkpoint); arrivals
        with these ids dead-letter as duplicates instead of double-counting.
    advance_hook:
        Optional callback invoked with the *earliest* timestamp of every
        non-empty release batch — a stream low-water mark: by release
        ordering it never exceeds any query time in the batch.  Nothing
        in ``src/`` passes one; ``perfbench/inprocess.py`` does.
    """

    def __init__(
        self,
        validator: Optional[TweetValidator] = None,
        lateness: float = 0.0,
        seen_ids: Iterable[int] = (),
        advance_hook: Optional[Callable[[float], None]] = None,
    ) -> None:
        if lateness < 0:
            raise ValueError("lateness must be non-negative")
        self._validator = validator or TweetValidator()
        self._lateness = lateness
        self._seen: Set[int] = set(seen_ids)
        self._buffer: List[Tuple[float, int, Tweet]] = []
        self._max_event_time = -math.inf
        #: ``(timestamp, tweet_id)`` of the last tweet released downstream.
        self._last_released: Tuple[float, int] = (-math.inf, -1)
        self._advance_hook = advance_hook
        self.dead_letters: Deque[DeadLetter] = collections.deque()
        self.stats = IngestStats()

    # ------------------------------------------------------------------ #
    # admission
    # ------------------------------------------------------------------ #
    @property
    def watermark(self) -> float:
        """Event time up to which the stream is considered complete."""
        return self._max_event_time - self._lateness

    @property
    def pending(self) -> int:
        """Tweets buffered awaiting the watermark."""
        return len(self._buffer)

    def push(self, record: RawRecord) -> List[Tweet]:
        """Admit one record; return the tweets released by its arrival.

        Invalid records are dead-lettered (never raised) so one poison
        record cannot stall the stream.
        """
        self.stats.received += 1
        METRICS.incr("ingest.received")
        repairs_before = self._validator.repairs
        try:
            tweet = self._validator.validate(record)
            if tweet.tweet_id in self._seen:
                raise DuplicateTweetError(f"tweet id {tweet.tweet_id} already ingested")
            if tweet.timestamp < self.watermark:
                raise StaleTimestampError(
                    f"tweet {tweet.tweet_id} at t={tweet.timestamp:.3f} is behind "
                    f"the watermark {self.watermark:.3f}"
                )
            if (tweet.timestamp, tweet.tweet_id) < self._last_released:
                raise StaleTimestampError(
                    f"tweet {tweet.tweet_id} at t={tweet.timestamp:.3f} sorts "
                    f"before the released tweet {self._last_released[1]}"
                )
        except ReproError as exc:
            self._dead_letter(record, exc)
            return []
        self.stats.admitted += 1
        METRICS.incr("ingest.admitted")
        self.stats.repaired += self._validator.repairs - repairs_before
        self._seen.add(tweet.tweet_id)
        heapq.heappush(self._buffer, (tweet.timestamp, tweet.tweet_id, tweet))
        self._max_event_time = max(self._max_event_time, tweet.timestamp)
        released = self._release()
        METRICS.gauge("ingest.pending", len(self._buffer))
        return released

    def flush(self) -> List[Tweet]:
        """Release every buffered tweet (end of stream / before checkpoint)."""
        released = [item[2] for item in sorted(self._buffer)]
        self._buffer.clear()
        METRICS.gauge("ingest.pending", 0)
        return self._emit(released)

    def _release(self) -> List[Tweet]:
        released: List[Tweet] = []
        watermark = self.watermark
        while self._buffer and (
            self._buffer[0][0] <= watermark or len(self._buffer) > MAX_BUFFER
        ):
            released.append(heapq.heappop(self._buffer)[2])
        return self._emit(released)

    def _emit(self, released: List[Tweet]) -> List[Tweet]:
        """Account for one release batch, in release order: the counters,
        the key later arrivals must not sort before, the advance hook."""
        self.stats.emitted += len(released)
        METRICS.incr("ingest.emitted", len(released))
        if released:
            self._last_released = (released[-1].timestamp, released[-1].tweet_id)
            if self._advance_hook is not None:
                self._advance_hook(released[0].timestamp)
        return released

    def drain(self) -> List[DeadLetter]:
        """Hand off (and clear) the retained dead letters, oldest first.

        This is the supported way to consume the queue — an operator's
        re-ingestion or archival job drains it periodically; letters that
        overflowed :data:`MAX_DEAD_LETTERS` before a drain are already
        gone (evicted oldest-first, counted in
        ``stats.dead_letter_evictions``).
        """
        letters = list(self.dead_letters)
        self.dead_letters.clear()
        return letters

    def _dead_letter(self, record: RawRecord, error: ReproError) -> None:
        letter = DeadLetter.from_error(record, error)
        self.stats.dead_lettered += 1
        METRICS.incr("ingest.dead_letters")
        METRICS.incr("ingest.dead_letters." + letter.reason)
        TRACE.event("ingest.dead_letter", reason=letter.reason)
        if letter.reason == "duplicate":
            self.stats.duplicates += 1
        elif letter.reason == "stale":
            self.stats.stale += 1
        # Bounded retention with *explicit* overflow: evict the oldest
        # letter (the one least likely to still matter) and say so in the
        # metrics, instead of silently refusing to record new failures.
        if len(self.dead_letters) >= MAX_DEAD_LETTERS:
            self.dead_letters.popleft()
            self.stats.dead_letter_evictions += 1
            METRICS.incr("ingest.dead_letters.evicted")
        self.dead_letters.append(letter)
        _log.warning("dead-lettered record (%s): %s", letter.reason, letter.error)

    def ingest(self, records: Iterable[RawRecord]) -> List[Tweet]:
        """Push a batch of records and return everything released, without
        flushing the reordering buffer."""
        released: List[Tweet] = []
        for record in records:
            released.extend(self.push(record))
        return released
