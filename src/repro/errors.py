"""Typed error taxonomy for the online serving path.

The batch/eval harness works on clean synthetic worlds and never raises;
the *online* path (Sec. 3.2.2) faces dirty streams, slow reachability
indexes, and process restarts.  Every failure the resilience layer knows
how to handle is a subclass of :class:`ReproError`, so callers can write
one ``except ReproError`` at the service boundary and still dispatch on
the precise kind when a handler cares.

The taxonomy distinguishes four axes:

* **input errors** (:class:`MalformedTweetError`, :class:`UnknownUserError`,
  :class:`StaleTimestampError`, :class:`DuplicateTweetError`) — the record
  is at fault; it goes to the dead-letter queue and the stream continues;
* **dependency errors** (:class:`IndexUnavailableError`,
  :class:`DeadlineExceededError`, :class:`CircuitOpenError`) — a provider
  is at fault; the linker degrades to the no-interest bound (Appendix D)
  and the circuit breaker decides when to probe again;
* **state errors** (:class:`CheckpointCorruptError`,
  :class:`WorldFileError`) — persisted state is at fault; recovery falls
  back to the previous checkpoint or a cold start, and a world that cannot
  be read stops the command with one line.
* **serving rejections** (:class:`ServeError` and subclasses) — the
  request was refused by the front end (bad input, unknown tenant, rate
  limit, load shed); each carries an HTTP ``status`` and a schema-stable
  ``kind`` so ``repro.serve`` renders typed error bodies, never bare 500s.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every handled failure in the serving path."""


# ---------------------------------------------------------------------- #
# input (per-record) errors — dead-letter the record, keep streaming
# ---------------------------------------------------------------------- #
class MalformedTweetError(ReproError):
    """A tweet record is structurally invalid (empty text, NaN/negative
    timestamp, negative ids, wrong field types) and cannot be repaired."""


class UnknownUserError(ReproError):
    """A tweet's author is not a node of the follow graph / user universe."""


class StaleTimestampError(ReproError):
    """A tweet arrived after the watermark had already passed its timestamp
    by more than the allowed lateness — admitting it would rewrite recency
    windows that were already served."""


class DuplicateTweetError(ReproError):
    """A tweet id was already ingested; re-admitting it would double-count
    links in the complemented knowledgebase."""


# ---------------------------------------------------------------------- #
# dependency errors — degrade, or trip the breaker
# ---------------------------------------------------------------------- #
class IndexUnavailableError(ReproError):
    """A reachability index (or other remote dependency) failed to answer."""


class DeadlineExceededError(ReproError):
    """A per-mention latency budget ran out mid-computation.

    Not an :class:`IndexUnavailableError`: the budget is gone for this
    mention, so the caller degrades rather than asking the index again.
    """


class CircuitOpenError(IndexUnavailableError):
    """The circuit breaker is open: the dependency is presumed down and the
    call was rejected without being attempted.

    Subclasses :class:`IndexUnavailableError` so linker code degrades the
    same way whether the provider failed or was never asked.
    """


# ---------------------------------------------------------------------- #
# state errors — recovery path
# ---------------------------------------------------------------------- #
class CheckpointCorruptError(ReproError):
    """A checkpoint failed structural, version, or checksum verification."""


class WorldFileError(ReproError):
    """A world file is not one :func:`repro.io.save_world` writes: a bad
    container, bad JSON, a missing key, a value of the wrong type, or a
    tweet by a user off the graph or naming an entity not in the KB."""


# ---------------------------------------------------------------------- #
# serving-front-end rejections (repro.serve) — every rejection the HTTP
# layer can emit maps to one of these, so error bodies are always typed:
# ``status`` is the HTTP status code, ``kind`` the schema-stable
# ``error.type`` discriminator clients switch on.
# ---------------------------------------------------------------------- #
class ServeError(ReproError):
    """Base class of typed request rejections in ``repro.serve``.

    Subclasses pin ``status``/``kind`` as class attributes; the handler
    layer renders them into the schema-stable error body without any
    per-site mapping table.
    """

    status: int = 503
    kind: str = "unavailable"


class BadRequestError(ServeError):
    """The request itself is malformed (bad JSON, missing or mistyped
    fields, out-of-universe user); retrying unchanged cannot succeed."""

    status = 400
    kind = "bad_request"


class UnknownTenantError(ServeError):
    """The request names a tenant namespace the server does not host."""

    status = 404
    kind = "unknown_tenant"


class NotFoundError(ServeError):
    """No route matches the request path/method."""

    status = 404
    kind = "not_found"


class UnauthorizedError(ServeError):
    """The request hit an authenticated endpoint (the tenant admin API)
    without a valid bearer token.  Deliberately message-stable: the body
    never echoes what credential was presented."""

    status = 401
    kind = "unauthorized"


class RateLimitedError(ServeError):
    """The tenant's token bucket is empty — per-tenant admission control
    rejected the request before any work was queued (HTTP 429)."""

    status = 429
    kind = "rate_limited"

    def __init__(self, message: str, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class OverloadedError(ServeError):
    """The bounded request queue is full — the admission controller shed
    the request to protect latency of already-admitted work (HTTP 503)."""

    status = 503
    kind = "shed"
