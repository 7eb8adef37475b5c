"""Raw-socket HTTP/1.1 load generator: closed and open loops.

Each connection is one keep-alive TCP socket with ``TCP_NODELAY`` and
one ``sendall`` per request (request line, headers and body in a single
write), so nothing the client does can add a Nagle/delayed-ACK stall of
its own.  Every response — 200 or not — is timed and kept for the
caller to classify.

* **closed**: each connection sends its next request only after the
  previous reply, for a fixed wall time.
* **open**: requests are due on a schedule regardless of replies.
  Latency is stamped from the *due* instant, so the wait a stall imposes
  on later requests is counted; how late the generator itself ran is
  reported as ``sched_lag``.  A request still unsent ``backlog_limit``
  seconds after it was due marks its step overloaded, and the rest of
  that step — like anything unsent when the step ends — is skipped, so
  the run length is the same however slow the server is.
"""

from __future__ import annotations

import dataclasses
import socket
import threading
import time
from typing import Callable, List, Optional, Sequence, Set, Tuple

Address = Tuple[str, int]


def build_request(method: str, path: str, body: bytes = b"") -> bytes:
    """One HTTP/1.1 keep-alive request as a single byte string."""
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        "Host: perfbench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    )
    return head.encode("ascii") + body


@dataclasses.dataclass
class Sample:
    """One request as the client saw it (all stamps ``perf_counter_ns``)."""

    index: int
    step: int
    #: When the request was due (open loop) or handed to the socket (closed).
    due_ns: int
    start_ns: int
    sent_ns: int
    first_byte_ns: int
    done_ns: int
    #: HTTP status, or 0 when the connection failed mid-request.
    status: int
    body: bytes
    #: Open loop: a connection was free before the due time and slept until
    #: it, so ``sched_lag_ms`` is the generator's own lateness, not queueing.
    slept: bool = False

    @property
    def latency_ms(self) -> float:
        return (self.done_ns - self.due_ns) / 1e6

    @property
    def sched_lag_ms(self) -> float:
        return (self.start_ns - self.due_ns) / 1e6


class Connection:
    """One keep-alive client socket; reconnects after a failure."""

    def __init__(self, address: Address, timeout: float = 10.0) -> None:
        self._address = address
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._buffer = b""
        self.reconnects = 0
        self._connect()

    def _connect(self) -> None:
        sock = socket.create_connection(self._address, timeout=self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._buffer = b""

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def exchange(self, request: bytes) -> Tuple[int, bytes, int, int, int]:
        """Send one request, read one reply.

        Returns ``(status, body, sent_ns, first_byte_ns, done_ns)``; on a
        connection failure the status is 0 and the socket is replaced.
        """
        try:
            self._sock.sendall(request)
            sent = time.perf_counter_ns()
            status, body, first_byte = self._read_response()
            return status, body, sent, first_byte, time.perf_counter_ns()
        except (OSError, ValueError):
            now = time.perf_counter_ns()
            self.close()
            self.reconnects += 1
            self._connect()
            return 0, b"", now, now, now

    def _read_response(self) -> Tuple[int, bytes, int]:
        buffer = self._buffer
        first_byte = 0
        while b"\r\n\r\n" not in buffer:
            chunk = self._sock.recv(65536)
            if not first_byte:
                first_byte = time.perf_counter_ns()
            if not chunk:
                raise ConnectionError("server closed the connection")
            buffer += chunk
        head, _, rest = buffer.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(rest) < length:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection mid-body")
            rest += chunk
        self._buffer = rest[length:]
        return status, rest[:length], first_byte or time.perf_counter_ns()


def _run_threads(address: Address, connections: int, loop: Callable) -> int:
    """Run ``loop(connection)`` on ``connections`` threads; re-raise the
    first error; return the reconnect count."""
    errors: List[Exception] = []
    clients = [Connection(address) for _ in range(connections)]

    def guarded(client: Connection) -> None:
        try:
            loop(client)
        except Exception as error:  # re-raised on the caller's thread below
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for client in clients:
        client.close()
    if errors:
        raise errors[0]
    return sum(client.reconnects for client in clients)


def run_closed(
    address: Address,
    requests: Sequence[bytes],
    connections: int,
    seconds: float,
) -> Tuple[List[Sample], int]:
    """Closed loop for ``seconds``: request ``i`` is ``requests[i % len]``.

    Returns the samples in completion order and the reconnect count.
    """
    samples: List[Sample] = []
    lock = threading.Lock()
    cursor = [0]
    deadline = time.perf_counter_ns() + int(seconds * 1e9)

    def loop(client: Connection) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            start = time.perf_counter_ns()
            if start >= deadline:
                return
            status, body, sent, first_byte, done = client.exchange(
                requests[index % len(requests)]
            )
            sample = Sample(index, 0, start, start, sent, first_byte, done, status, body)
            with lock:
                samples.append(sample)

    reconnects = _run_threads(address, connections, loop)
    return samples, reconnects


@dataclasses.dataclass(frozen=True)
class Arrival:
    """One scheduled request: due ``due_s`` after the run starts."""

    due_s: float
    step: int


def run_open(
    address: Address,
    requests: Sequence[bytes],
    schedule: Sequence[Arrival],
    step_ends_s: Sequence[float],
    connections: int,
    backlog_limit_s: float = 2.0,
) -> Tuple[List[Sample], Set[int], int]:
    """Open loop over ``schedule`` (sorted by due time).

    Returns ``(samples, overloaded steps, reconnects)``; arrivals that
    were skipped have no sample.
    """
    samples: List[Sample] = []
    overloaded: Set[int] = set()
    lock = threading.Lock()
    cursor = [0]
    origin = time.perf_counter_ns()

    def loop(client: Connection) -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= len(schedule):
                return
            arrival = schedule[index]
            due = origin + int(arrival.due_s * 1e9)
            step_end = origin + int(step_ends_s[arrival.step] * 1e9)
            now = time.perf_counter_ns()
            slept = now < due
            if slept:
                time.sleep((due - now) / 1e9)
                now = time.perf_counter_ns()
            if now - due > backlog_limit_s * 1e9:
                with lock:
                    overloaded.add(arrival.step)
            if arrival.step in overloaded or now >= step_end:
                continue
            status, body, sent, first_byte, done = client.exchange(
                requests[index % len(requests)]
            )
            sample = Sample(
                index, arrival.step, due, now, sent, first_byte, done, status, body, slept
            )
            with lock:
                samples.append(sample)

    reconnects = _run_threads(address, connections, loop)
    return samples, overloaded, reconnects
