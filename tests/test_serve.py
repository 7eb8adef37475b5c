"""Serving front end: tenants, admission, dispatch, typed error bodies.

Everything except the final smoke test drives the transport-independent
:class:`~repro.serve.handlers.ServeApp` under a
:class:`~repro.testing.faults.FakeClock`, so rate-limit and breaker
behaviour is exact.  The smoke test binds a real
:class:`~repro.serve.server.ReproHTTPServer` on an ephemeral port to
prove the stdlib transport serializes the same bodies — including the
``internal`` body for a non-taxonomy bug planted via monkeypatching.
"""

import json

import pytest

from repro.errors import (
    BadRequestError,
    IndexUnavailableError,
    NotFoundError,
    OverloadedError,
    RateLimitedError,
    ReproError,
    ServeError,
    UnknownTenantError,
)
from repro.eval.context import activity_split
from repro.obs.metrics import validate_metrics_document
from repro.serve.admission import DEFAULT_CLASS, AdmissionClass, AdmissionController
from repro.serve.handlers import ServeApp, error_body, validate_error_body
from repro.serve.tenants import TenantSpec, TokenBucket, build_tenant_registry
from repro.testing.faults import FakeClock


# ---------------------------------------------------------------------- #
# token bucket
# ---------------------------------------------------------------------- #
class TestTokenBucket:
    def test_burst_then_empty(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, capacity=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [True, True, True, False]

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=2.0, clock=clock)
        bucket.try_acquire()
        bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(0.5)  # 1 token back at 2/s
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_retry_after_is_exact_under_fake_clock(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=4.0, capacity=1.0, clock=clock)
        bucket.try_acquire()
        assert bucket.retry_after() == pytest.approx(0.25)

    def test_never_exceeds_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, capacity=2.0, clock=clock)
        clock.advance(1000.0)
        assert bucket.snapshot()["tokens"] == 2.0

    @pytest.mark.parametrize("rate,capacity", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)])
    def test_invalid_parameters_rejected(self, rate, capacity):
        with pytest.raises(ValueError):
            TokenBucket(rate=rate, capacity=capacity)


# ---------------------------------------------------------------------- #
# admission controller
# ---------------------------------------------------------------------- #
def _one_class(capacity, queue_limit):
    return AdmissionController(
        [AdmissionClass(DEFAULT_CLASS, capacity=capacity, queue_limit=queue_limit)]
    )


class TestAdmissionController:
    def test_sheds_beyond_capacity_plus_queue(self):
        admission = _one_class(capacity=2, queue_limit=1)
        for _ in range(3):
            admission.admit(DEFAULT_CLASS)
        with pytest.raises(OverloadedError) as excinfo:
            admission.admit(DEFAULT_CLASS)
        assert excinfo.value.kind == "shed"
        assert excinfo.value.status == 503
        assert admission.snapshot()["shed"] == 1

    def test_release_reopens_admission(self):
        admission = _one_class(capacity=1, queue_limit=0)
        admission.admit(DEFAULT_CLASS)
        with pytest.raises(OverloadedError):
            admission.admit(DEFAULT_CLASS)
        admission.release(DEFAULT_CLASS)
        admission.admit(DEFAULT_CLASS)  # does not raise
        assert admission.snapshot()["admitted"] == 2

    def test_release_without_admit_is_a_bug(self):
        with pytest.raises(ValueError):
            AdmissionController().release(DEFAULT_CLASS)

    def test_peak_pending_tracks_high_water_mark(self):
        admission = _one_class(capacity=4, queue_limit=0)
        for _ in range(3):
            admission.admit(DEFAULT_CLASS)
        admission.release(DEFAULT_CLASS)
        admission.release(DEFAULT_CLASS)
        snap = admission.snapshot()
        assert snap["pending"] == 1
        assert snap["peak_pending"] == 3

    @pytest.mark.parametrize("capacity,queue_limit", [(0, 1), (1, -1)])
    def test_invalid_parameters_rejected(self, capacity, queue_limit):
        with pytest.raises(ValueError):
            AdmissionClass(DEFAULT_CLASS, capacity=capacity, queue_limit=queue_limit)


# ---------------------------------------------------------------------- #
# error bodies
# ---------------------------------------------------------------------- #
class TestErrorBodies:
    @pytest.mark.parametrize(
        "error,status,kind",
        [
            (BadRequestError("x"), 400, "bad_request"),
            (UnknownTenantError("x"), 404, "unknown_tenant"),
            (NotFoundError("x"), 404, "not_found"),
            (RateLimitedError("x", retry_after_s=1.5), 429, "rate_limited"),
            (OverloadedError("x"), 503, "shed"),
            (IndexUnavailableError("x"), 503, "unavailable"),
            (ReproError("x"), 503, "unavailable"),
        ],
    )
    def test_every_taxonomy_error_renders_typed(self, error, status, kind):
        got_status, body = error_body(error)
        assert got_status == status
        assert body["schema_version"] == 1
        assert body["error"]["type"] == kind
        assert body["error"]["status"] == status
        assert isinstance(body["error"]["message"], str)
        assert validate_error_body(body) == []

    def test_rate_limited_carries_retry_after(self):
        _, body = error_body(RateLimitedError("slow down", retry_after_s=0.75))
        assert body["error"]["retry_after_s"] == 0.75

    def test_serve_errors_are_repro_errors(self):
        for exc in (
            ServeError, BadRequestError, UnknownTenantError, NotFoundError,
            RateLimitedError, OverloadedError,
        ):
            assert issubclass(exc, ReproError)


# ---------------------------------------------------------------------- #
# app dispatch over a real (small) world
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def served(small_world):
    clock = FakeClock()
    registry, _ = build_tenant_registry(
        small_world,
        [TenantSpec(name="alpha", rate=10.0, burst=5.0, deadline_ms=None),
         TenantSpec(name="beta", rate=10.0, burst=5.0, deadline_ms=None)],
        clock=clock,
    )
    app = ServeApp(registry, admission=_one_class(capacity=2, queue_limit=1), clock=clock)
    mention = next(
        (tweet, m)
        for tweet in activity_split(small_world).test.tweets
        for m in tweet.mentions
    )
    return app, clock, mention


def _link_body(tenant, surface, user, now, **extra):
    payload = {"tenant": tenant, "surface": surface, "user": user, "now": now}
    payload.update(extra)
    return json.dumps(payload).encode()


class TestServeApp:
    def _fresh_bucket(self, app, clock):
        # module-scoped fixture: refill every tenant bucket between tests
        clock.advance(10.0)

    def test_link_happy_path_schema(self, served):
        app, clock, (tweet, mention) = served
        self._fresh_bucket(app, clock)
        status, doc = app.handle(
            "POST", "/v1/link",
            _link_body("alpha", mention.surface, tweet.user, tweet.timestamp),
        )
        assert status == 200
        assert doc["schema_version"] == 1
        assert doc["tenant"] == "alpha"
        assert doc["outcome"] in ("ok", "abstained", "degraded")
        assert doc["degradation"] is None
        for candidate in doc["candidates"]:
            assert set(candidate) == {"entity", "score"}

    @pytest.mark.parametrize(
        "body,expected_kind",
        [
            (None, "bad_request"),
            (b"", "bad_request"),
            (b"{not json", "bad_request"),
            (b'"just a string"', "bad_request"),
            (b'{"surface": "x", "user": 1}', "bad_request"),  # no tenant
            (b'{"tenant": "alpha", "user": 1}', "bad_request"),  # no surface
            (b'{"tenant": "alpha", "surface": " ", "user": 1}', "bad_request"),
            (b'{"tenant": "alpha", "surface": "x"}', "bad_request"),  # no user
            (b'{"tenant": "alpha", "surface": "x", "user": "seven"}',
             "bad_request"),
            (b'{"tenant": "alpha", "surface": "x", "user": 1, "now": "nope"}',
             "bad_request"),
            (b'{"tenant": "alpha", "surface": ["x"], "user": 1}', "bad_request"),
            (b'{"tenant": "alpha", "surface": 123, "user": 1}', "bad_request"),
            (b'{"tenant": "alpha", "surface": "x", "user": 1, "now": true}',
             "bad_request"),
            (b'{"tenant": "alpha", "surface": "x", "user": NaN}', "bad_request"),
            (b'{"tenant": "alpha", "surface": "x", "user": Infinity}',
             "bad_request"),
            (b'{"tenant": "ghost", "surface": "x", "user": 1}', "unknown_tenant"),
        ],
    )
    def test_malformed_requests_get_typed_bodies(self, served, body, expected_kind):
        app, clock, _ = served
        self._fresh_bucket(app, clock)
        status, doc = app.handle("POST", "/v1/link", body)
        assert status in (400, 404)
        assert doc["error"]["type"] == expected_kind

    def test_out_of_universe_user_is_bad_request(self, served):
        app, clock, (tweet, mention) = served
        self._fresh_bucket(app, clock)
        status, doc = app.handle(
            "POST", "/v1/link",
            _link_body("alpha", mention.surface, 10**9, tweet.timestamp),
        )
        assert (status, doc["error"]["type"]) == (400, "bad_request")

    def test_non_finite_now_is_bad_request(self, served):
        app, clock, (tweet, mention) = served
        self._fresh_bucket(app, clock)
        status, doc = app.handle(
            "POST", "/v1/link",
            json.dumps({"tenant": "alpha", "surface": mention.surface,
                        "user": tweet.user, "now": 1e999}).encode(),
        )
        assert (status, doc["error"]["type"]) == (400, "bad_request")

    def test_unknown_route_is_not_found(self, served):
        app, clock, _ = served
        status, doc = app.handle("GET", "/v2/nope", None)
        assert (status, doc["error"]["type"]) == (404, "not_found")

    def test_rate_limit_exhausts_to_429_with_retry_hint(self, served):
        app, clock, (tweet, mention) = served
        self._fresh_bucket(app, clock)
        body = _link_body("beta", mention.surface, tweet.user, tweet.timestamp)
        statuses = [app.handle("POST", "/v1/link", body)[0] for _ in range(6)]
        assert statuses[:5] == [200] * 5  # burst capacity
        assert statuses[5] == 429
        status, doc = app.handle("POST", "/v1/link", body)
        assert doc["error"]["type"] == "rate_limited"
        assert doc["error"]["retry_after_s"] > 0

    def test_full_queue_sheds_503(self, served):
        app, clock, (tweet, mention) = served
        self._fresh_bucket(app, clock)
        for _ in range(3):  # capacity 2 + queue 1
            app.admission.admit(DEFAULT_CLASS)
        try:
            status, doc = app.handle(
                "POST", "/v1/link",
                _link_body("alpha", mention.surface, tweet.user, tweet.timestamp),
            )
        finally:
            for _ in range(3):
                app.admission.release(DEFAULT_CLASS)
        assert (status, doc["error"]["type"]) == (503, "shed")

    def test_healthz_exposes_tenant_and_breaker_state(self, served):
        app, clock, _ = served
        status, doc = app.handle("GET", "/healthz", None)
        assert status == 200
        assert doc["status"] == "ok"
        assert set(doc["admission"]) == {
            "capacity", "queue_limit", "pending", "peak_pending",
            "admitted", "shed", "classes",
        }
        assert set(doc["admission"]["classes"]) == {"default"}
        names = [tenant["name"] for tenant in doc["tenants"]]
        assert names == ["alpha", "beta"]
        for tenant in doc["tenants"]:
            assert tenant["breaker"]["schema_version"] == 1
            assert tenant["breaker"]["state"] in ("closed", "open", "half_open")
            assert set(tenant["bucket"]) == {"rate_per_s", "capacity", "tokens"}

    def test_healthz_is_json_serializable(self, served):
        app, clock, _ = served
        _, doc = app.handle("GET", "/healthz", None)
        assert json.loads(json.dumps(doc, sort_keys=True)) == doc

    def test_metrics_endpoint_serves_standard_document(self, served):
        app, clock, _ = served
        status, doc = app.handle("GET", "/metrics", None)
        assert status == 200
        assert validate_metrics_document(doc) == []

    def test_tenants_endpoint_lists_names(self, served):
        app, clock, _ = served
        status, doc = app.handle("GET", "/v1/tenants", None)
        assert (status, doc["tenants"]) == (200, ["alpha", "beta"])

    def test_admission_slot_released_after_rejection(self, served):
        app, clock, (tweet, mention) = served
        self._fresh_bucket(app, clock)
        before = app.admission.pending
        app.handle(
            "POST", "/v1/link",
            _link_body("alpha", mention.surface, 10**9, tweet.timestamp),
        )
        assert app.admission.pending == before

    def test_per_tenant_isolation_of_rate_limits(self, served):
        app, clock, (tweet, mention) = served
        self._fresh_bucket(app, clock)
        body_a = _link_body("alpha", mention.surface, tweet.user, tweet.timestamp)
        body_b = _link_body("beta", mention.surface, tweet.user, tweet.timestamp)
        while app.handle("POST", "/v1/link", body_a)[0] == 200:
            pass
        # alpha exhausted; beta still serves
        assert app.handle("POST", "/v1/link", body_b)[0] == 200


# ---------------------------------------------------------------------- #
# the one serve path: handler threads call app.handle concurrently
# ---------------------------------------------------------------------- #
class TestConcurrentHandle:
    THREADS = 8

    def test_threaded_bodies_match_sequential_replay(self, small_world):
        """What ``ThreadingHTTPServer`` does — many handler threads inside
        ``ServeApp.handle`` at once — answers every read-only request with
        the body a sequential replay gives it."""
        import random
        import sys
        import threading

        clock = FakeClock()
        registry, _ = build_tenant_registry(
            small_world,
            [TenantSpec(name=name, rate=1e6, burst=1e6, deadline_ms=None)
             for name in ("alpha", "beta")],
            clock=clock,
        )
        # capacity above the thread count: nothing may be shed
        app = ServeApp(
            registry,
            admission=_one_class(capacity=2 * self.THREADS, queue_limit=0),
            clock=clock,
        )
        mentions = [
            (tweet, m)
            for tweet in activity_split(small_world).test.tweets
            for m in tweet.mentions
        ]
        rng = random.Random(23)
        bodies = [
            _link_body(rng.choice(("alpha", "beta")), m.surface, tweet.user, tweet.timestamp)
            for tweet, m in (rng.choice(mentions) for _ in range(240))
        ]

        def serve(body):
            status, document = app.handle("POST", "/v1/link", body)
            return status, json.dumps(document, sort_keys=True)

        sequential = [serve(body) for body in bodies]
        assert {status for status, _ in sequential} == {200}

        threaded = [None] * len(bodies)
        start = threading.Barrier(self.THREADS)

        def worker(offset):
            start.wait(timeout=30)
            for index in range(offset, len(bodies), self.THREADS):
                threaded[index] = serve(bodies[index])

        threads = [
            threading.Thread(target=worker, args=(offset,))
            for offset in range(self.THREADS)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave inside handle(), not between calls
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert threaded == sequential
        admission = app.admission.snapshot()
        assert (admission["pending"], admission["shed"]) == (0, 0)
        assert admission["admitted"] == 2 * len(bodies)


# ---------------------------------------------------------------------- #
# the boot of `repro serve`: the model, not the corpus
# ---------------------------------------------------------------------- #
#: Run in a fresh interpreter, where no fixture holds tweets: boot the
#: served app from a saved world, collect, list what is left of the
#: offline corpus, then answer the queries on stdin.
_BOOT_PROBE = """
import collections, gc, json, sys
from repro.cli import _build_serve_app, build_parser
from repro.eval.context import ExperimentContext
from repro.stream.tweet import Tweet
from repro.testing.faults import FakeClock

args = build_parser().parse_args([
    "serve", "--world", sys.argv[1], "--tenants", "alpha",
    "--tenant-rate", "1e6", "--tenant-burst", "1e6",
])
app = _build_serve_app(args, clock=FakeClock(), sleep=None, defer_release=False)
gc.collect()
held = collections.Counter(
    type(o).__name__
    for o in gc.get_objects()
    if isinstance(o, (Tweet, ExperimentContext))
)
replies = [
    app.handle("POST", "/v1/link", json.dumps(
        {"tenant": "alpha", "surface": surface, "user": user, "now": now}
    ).encode())
    for surface, user, now in json.load(sys.stdin)
]
json.dump({"held": held, "replies": replies}, sys.stdout)
"""


class TestServeBoot:
    def test_booted_app_holds_no_tweet_and_links_like_the_context(
        self, small_world, small_context, tmp_path
    ):
        import subprocess
        import sys

        from repro.io import save_world

        path = tmp_path / "world.json.gz"
        save_world(small_world, path)
        queries = [
            (m.surface, tweet.user, tweet.timestamp)
            for tweet in activity_split(small_world).test.tweets
            for m in tweet.mentions
        ]
        probe = subprocess.run(
            [sys.executable, "-c", _BOOT_PROBE, str(path)],
            input=json.dumps(queries), capture_output=True, text=True,
            check=True, timeout=120,
        )
        report = json.loads(probe.stdout)
        assert report["held"] == {}
        linker = small_context.social_temporal()
        bound = linker.config.no_interest_bound
        expected = [
            [(c.entity_id, round(c.score, 9))
             for c in linker.link(*query).top_k(3, threshold=bound)]
            for query in queries
        ]
        served = [
            [(c["entity"], c["score"]) for c in document["candidates"]]
            for status, document in report["replies"]
        ]
        assert {status for status, _ in report["replies"]} == {200}
        assert served == expected
        assert any(served) and not all(served)


# ---------------------------------------------------------------------- #
# real sockets (ephemeral port)
# ---------------------------------------------------------------------- #
class TestHTTPSmoke:
    @pytest.fixture
    def http_server(self, small_world):
        from repro.serve.server import ReproHTTPServer

        clock = FakeClock()
        registry, _ = build_tenant_registry(
            small_world, [TenantSpec(name="alpha", rate=1000.0, burst=1000.0,
                                     deadline_ms=None)],
            clock=clock,
        )
        app = ServeApp(registry, clock=clock)
        with ReproHTTPServer(app, port=0) as server:
            yield server, app, activity_split(small_world).test

    @staticmethod
    def request(server, method, path, body=None):
        import http.client

        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            connection.request(method, path, body=body)
            response = connection.getresponse()
            return response.status, json.loads(response.read().decode())
        finally:
            connection.close()

    def test_link_and_errors_over_real_sockets(self, http_server):
        server, app, test_split = http_server
        tweet, mention = next(
            (tweet, m) for tweet in test_split.tweets for m in tweet.mentions
        )
        status, doc = self.request(
            server, "POST", "/v1/link",
            _link_body("alpha", mention.surface, tweet.user, tweet.timestamp),
        )
        assert status == 200
        assert doc["outcome"] in ("ok", "abstained")

        status, doc = self.request(server, "GET", "/healthz")
        assert (status, doc["status"]) == (200, "ok")

        status, doc = self.request(server, "POST", "/v1/link", b"{broken")
        assert (status, doc["error"]["type"]) == (400, "bad_request")

        status, doc = self.request(server, "GET", "/nope")
        assert (status, doc["error"]["type"]) == (404, "not_found")

    def test_non_taxonomy_bug_becomes_typed_internal_body(self, http_server):
        server, app, _ = http_server

        def explode(method, path, body=None, headers=None):
            raise RuntimeError("planted bug")

        original = app.handle
        app.handle = explode
        try:
            status, doc = self.request(server, "GET", "/healthz")
        finally:
            app.handle = original
        assert status == 500
        assert doc["error"]["type"] == "internal"
        assert "planted bug" in doc["error"]["message"]

    def test_oversized_body_rejected_without_reading(self, http_server):
        server, app, _ = http_server
        import http.client

        connection = http.client.HTTPConnection(*server.address, timeout=10)
        try:
            connection.putrequest("POST", "/v1/link")
            connection.putheader("Content-Length", str(10**7))
            connection.endheaders()
            response = connection.getresponse()
            doc = json.loads(response.read().decode())
        finally:
            connection.close()
        assert response.status == 400
        assert doc["error"]["type"] == "bad_request"

    # -- Content-Length is outside input: every bad value is one typed
    # 400, and the connection closes so unread bytes are never parsed as
    # further requests ------------------------------------------------ #
    SMUGGLED = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"

    @staticmethod
    def raw_exchange(server, payload):
        """Send ``payload`` on one plain socket, half-close (so a
        keep-alive server sees EOF after the last framed request), read
        until the peer closes."""
        import socket

        with socket.create_connection(server.address, timeout=10) as sock:
            try:
                sock.sendall(payload)
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # the server may close before the whole body is out
            chunks = []
            while True:
                try:
                    chunk = sock.recv(65536)
                except ConnectionResetError:
                    break
                if not chunk:
                    break
                chunks.append(chunk)
        return b"".join(chunks)

    @pytest.mark.parametrize(
        "length, body",
        [
            ("abc", b""),
            ("-5", b""),
            (str(70_000), SMUGGLED + b"x" * (70_000 - len(SMUGGLED))),
        ],
        ids=["non-numeric", "negative", "oversize"],
    )
    def test_bad_content_length_is_one_typed_400_then_close(
        self, http_server, length, body
    ):
        from repro.serve.handlers import validate_error_body

        server, _, _ = http_server
        head = (
            "POST /v1/link HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode()
        # the trailing GET would be answered on a kept-alive connection
        received = self.raw_exchange(server, head + body + self.SMUGGLED)
        assert received.count(b"HTTP/1.1 ") == 1, received[:400]
        headers, _, payload = received.partition(b"\r\n\r\n")
        assert headers.startswith(b"HTTP/1.1 400 ")
        document = json.loads(payload.decode())
        assert validate_error_body(document) == []
        assert document["error"]["type"] == "bad_request"

    # -- a declared body belongs to its request whatever the verb, and a
    # framing this transport does not read is refused, not guessed ------ #
    @pytest.mark.parametrize(
        "request_line, status",
        [
            ("GET /healthz", b"200"),
            ("DELETE /admin/v1/tenants/alpha", b"404"),  # admin API is off
        ],
        ids=["GET", "DELETE"],
    )
    def test_declared_body_is_consumed_for_every_verb(
        self, http_server, request_line, status
    ):
        from repro.serve.handlers import validate_error_body

        server, _, _ = http_server
        head = (
            f"{request_line} HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {len(self.SMUGGLED)}\r\n\r\n"
        ).encode()
        # the body is a whole request: answered twice if left on the socket
        received = self.raw_exchange(server, head + self.SMUGGLED)
        assert received.count(b"HTTP/1.1 ") == 1, received[:400]
        headers, _, payload = received.partition(b"\r\n\r\n")
        assert headers.startswith(b"HTTP/1.1 " + status + b" ")
        document = json.loads(payload.decode())
        if status != b"200":
            assert validate_error_body(document) == []

    def test_transfer_encoding_is_one_typed_400_then_close(self, http_server):
        from repro.serve.handlers import validate_error_body

        server, _, _ = http_server
        body = b'{"tenant": "alpha", "surface": "x", "user": 0, "now": 1.0}'
        chunked = b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)
        head = (
            b"POST /v1/link HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
        received = self.raw_exchange(server, head + chunked)
        # on the parent: a typed 400, then http.server's HTML "Bad request
        # syntax" page for the chunk-size line
        assert received.count(b"HTTP/1.1 ") == 1, received[:600]
        assert b"<html" not in received.lower()
        headers, _, payload = received.partition(b"\r\n\r\n")
        assert headers.startswith(b"HTTP/1.1 400 ")
        document = json.loads(payload.decode())
        assert validate_error_body(document) == []
        assert document["error"]["type"] == "bad_request"

    def test_zero_length_get_keeps_the_connection_alive(self, http_server):
        """perfbench/loadgen sends ``Content-Length: 0`` on every /healthz."""
        server, _, _ = http_server
        request = b"GET /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
        received = self.raw_exchange(server, request + request)
        assert received.count(b"HTTP/1.1 200 ") == 2, received[:600]
