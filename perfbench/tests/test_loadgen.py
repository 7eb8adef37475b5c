"""The load generator against a stub server with a known fixed delay."""

import socketserver
import threading
import time

import pytest

from perfbench import loadgen
from perfbench.trace import percentile

DELAY_S = 0.02
#: What a busy two-core VM may add to one round trip.
SLACK_MS = 50.0


class _Stub(socketserver.BaseRequestHandler):
    """Keep-alive HTTP stub: waits ``DELAY_S``, answers 200 — or 503 to a
    body of ``fail`` — in one write."""

    def handle(self):
        buffer = b""
        while True:
            while b"\r\n\r\n" not in buffer:
                chunk = self.request.recv(65536)
                if not chunk:
                    return
                buffer += chunk
            head, _, rest = buffer.partition(b"\r\n\r\n")
            length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
            while len(rest) < length:
                rest += self.request.recv(65536)
            body, buffer = rest[:length], rest[length:]
            time.sleep(DELAY_S)
            status = b"503 Unavailable" if body == b"fail" else b"200 OK"
            reply = b'{"echo": %d}' % len(body)
            self.request.sendall(
                b"HTTP/1.1 " + status + b"\r\nContent-Length: %d\r\n\r\n" % len(reply) + reply
            )


@pytest.fixture()
def stub():
    class Server(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    server = Server(("127.0.0.1", 0), _Stub)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)
    assert not thread.is_alive()


def test_request_is_one_write_with_its_body():
    request = loadgen.build_request("POST", "/v1/link", b"{}")
    assert request.startswith(b"POST /v1/link HTTP/1.1\r\n")
    assert request.endswith(b"Content-Length: 2\r\n\r\n{}")


def test_closed_loop_sees_the_stub_delay(stub):
    requests = [loadgen.build_request("POST", "/", b"x" * n) for n in (1, 2, 3)]
    samples, reconnects = loadgen.run_closed(stub, requests, connections=2, seconds=0.6)
    assert reconnects == 0
    assert all(sample.status == 200 for sample in samples)
    assert sorted(s.index for s in samples) == list(range(len(samples)))
    # two connections, one request in flight each: about 2 / DELAY_S per second
    assert 0.6 * 2 / DELAY_S * 0.6 < len(samples) <= 0.6 * 2 / DELAY_S + 2
    p50 = percentile([s.latency_ms for s in samples], 0.5)
    assert DELAY_S * 1e3 <= p50 < DELAY_S * 1e3 + SLACK_MS
    for sample in samples:
        assert sample.start_ns <= sample.sent_ns <= sample.first_byte_ns <= sample.done_ns
        assert sample.body == b'{"echo": %d}' % (sample.index % 3 + 1)


def test_failures_are_timed_and_kept(stub):
    requests = [loadgen.build_request("POST", "/", b"fail")]
    samples, _ = loadgen.run_closed(stub, requests, connections=1, seconds=0.1)
    assert samples and all(sample.status == 503 for sample in samples)
    assert all(sample.latency_ms >= DELAY_S * 1e3 for sample in samples)


def test_open_loop_stamps_latency_from_the_due_time(stub):
    # three requests due together on one connection: they queue behind each
    # other, and the wait counts because latency starts at the due instant
    schedule = [loadgen.Arrival(0.05, 0)] * 3
    requests = [loadgen.build_request("POST", "/", b"x")]
    samples, overloaded, _ = loadgen.run_open(
        stub, requests, schedule, step_ends_s=[1.0], connections=1
    )
    assert not overloaded and len(samples) == 3
    latencies = sorted(sample.latency_ms for sample in samples)
    for position, latency in enumerate(latencies, start=1):
        assert position * DELAY_S * 1e3 <= latency < position * DELAY_S * 1e3 + SLACK_MS
    first = min(samples, key=lambda sample: sample.start_ns)
    assert first.slept and first.sched_lag_ms < SLACK_MS
    assert [sample.slept for sample in samples].count(True) == 1


def test_open_loop_gives_up_on_a_step_it_cannot_keep_up_with(stub):
    # 50 requests due at once take a second on one connection; with a 0.1 s
    # backlog limit the step is marked overloaded and the rest skipped, and
    # the next step still starts on time
    schedule = [loadgen.Arrival(0.0, 0)] * 50 + [loadgen.Arrival(0.5, 1)]
    requests = [loadgen.build_request("POST", "/", b"x")]
    started = time.perf_counter()
    samples, overloaded, _ = loadgen.run_open(
        stub, requests, schedule, step_ends_s=[0.4, 1.0], connections=1,
        backlog_limit_s=0.1,
    )
    assert time.perf_counter() - started < 0.9
    assert overloaded == {0}
    assert 2 <= sum(sample.step == 0 for sample in samples) <= 8
    last = [sample for sample in samples if sample.step == 1]
    assert len(last) == 1 and last[0].latency_ms < DELAY_S * 1e3 + SLACK_MS
