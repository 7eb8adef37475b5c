"""Concurrent open-loop socket client (``repro load --url``).

The pre-v2 ``--url`` path replayed the trace *sequentially*: each
request waited for the previous response, so the client could never
push the server past one in-flight request and the admission controller
never shed.  This client is **open-loop**: a dispatcher thread paces
arrivals against the wall clock along the seeded schedule and hands them
to a pool of workers — arrivals are never gated on responses, so when
the schedule outruns the server the bounded queues genuinely fill and
shedding genuinely fires.  That is the property the ``serve-load`` CI
job gates on.

Mechanics:

* ``pool_size`` worker threads each own one persistent keep-alive
  ``http.client.HTTPConnection`` (reconnect-once on a broken socket —
  keep-alive races with server-side close are retried, anything else is
  a counted ``connection_error``).
* Per-request latency is measured from the *scheduled hand-off* (the
  arrival instant) to response completion, so client-side queueing under
  overload is visible in the percentiles — the open-loop convention.
  Latency is recorded for serviced (200) responses only.
* Every non-200 body is checked with
  :func:`repro.serve.handlers.validate_error_body`; failures count as
  ``invalid_error_bodies`` in the report, and CI requires zero — typed
  shedding under socket concurrency is a checked claim, not an
  assumption.
* Results land in per-index slots and are aggregated in planned order
  through the same :class:`~repro.serve.load.OutcomeAccounting` and
  report writer as the in-process mode — one schema, one validator.

Wall-clock reads here are ``time.monotonic``/``time.sleep``; this is the
live measurement edge, not the deterministic replay, so its latencies
are real and its reports are not expected to be byte-stable across runs.
"""

from __future__ import annotations

import http.client
import json
import queue
import threading
import time
import urllib.parse
from typing import Dict, List, Optional, Tuple

from repro.log import get_logger
from repro.serve.load import OutcomeAccounting, PlannedRequest, classify_outcome

__all__ = ["run_http"]

_log = get_logger(__name__)

#: Socket timeout of each worker connection, seconds.
_TIMEOUT_S = 10.0

#: (outcome, latency_s or None, the body of a non-200 response or None)
_Result = Tuple[str, Optional[float], Optional[Dict[str, object]]]


def _send(
    connection: http.client.HTTPConnection, request: PlannedRequest
) -> Tuple[int, bytes]:
    connection.request(
        request.method,
        request.path,
        body=request.body,
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, response.read()


def run_http(
    url: str,
    planned: List[PlannedRequest],
    seed: int,
    chaos_meta: Dict[str, object],
    pool_size: int = 8,
) -> Dict[str, object]:
    """Replay the seeded trace over real sockets, open-loop.

    The dispatcher (this thread) sleeps until each request's scheduled
    arrival and enqueues it; ``pool_size`` workers send concurrently over
    persistent connections.  Returns the schema-v2 load document.
    """
    if pool_size < 1:
        raise ValueError("pool_size must be at least 1")
    parsed = urllib.parse.urlsplit(url)
    if parsed.scheme != "http" or not parsed.hostname:
        raise ValueError(f"expected an http://host:port url, got {url!r}")
    hostname, port = parsed.hostname, parsed.port or 80

    results: List[Optional[_Result]] = [None] * len(planned)
    work: "queue.Queue[Optional[Tuple[int, PlannedRequest, float]]]" = queue.Queue()

    def worker() -> None:
        connection: Optional[http.client.HTTPConnection] = None
        while True:
            item = work.get()
            if item is None:
                break
            index, request, arrived_at = item
            payload: Optional[bytes] = None
            status = 0
            # One reconnect per request: a keep-alive connection the
            # server closed between requests fails on first use; a fresh
            # socket failing too is a real connection error.
            for attempt in (0, 1):
                try:
                    if connection is None:
                        connection = http.client.HTTPConnection(
                            hostname, port, timeout=_TIMEOUT_S
                        )
                    status, payload = _send(connection, request)
                    break
                except (OSError, http.client.HTTPException) as error:
                    if connection is not None:
                        connection.close()
                        connection = None
                    if attempt:
                        _log.warning(
                            "connection error on %s: %s", request.path, error
                        )
            if payload is None:
                results[index] = ("connection_error", None, None)
                continue
            try:
                document = json.loads(payload.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as error:
                _log.warning("unparseable body on %s: %s", request.path, error)
                results[index] = ("connection_error", None, None)
                continue
            outcome = classify_outcome(status, document)
            if status == 200:
                results[index] = (outcome, time.monotonic() - arrived_at, None)
            else:
                results[index] = (outcome, None, document)
        if connection is not None:
            connection.close()

    workers = [
        threading.Thread(target=worker, name=f"repro-load-{i}", daemon=True)
        for i in range(pool_size)
    ]
    for thread in workers:
        thread.start()
    started_run = time.monotonic()
    for index, request in enumerate(planned):
        target = started_run + request.at
        while True:
            delay = target - time.monotonic()
            if delay <= 0:
                break
            time.sleep(delay)
        work.put((index, request, time.monotonic()))
    for _ in workers:
        work.put(None)
    for thread in workers:
        thread.join()
    duration = time.monotonic() - started_run

    accounting = OutcomeAccounting()
    for request, result in zip(planned, results):
        if result is None:  # pragma: no cover - a worker died mid-queue
            accounting.record(request, "connection_error", None)
            continue
        outcome, latency, rejection = result
        if rejection is not None:
            accounting.check_error_body(rejection)
        accounting.record(request, outcome, latency)
    return accounting.document(
        "http", seed, chaos_meta, duration,
        client={"pool": pool_size, "open_loop": True},
    )
