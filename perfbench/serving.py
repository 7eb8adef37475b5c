"""The socket workloads: ``serve_closed`` and ``serve_open``.

The system under test is ``python -m repro.cli serve`` in a subprocess
of its own (default path: ``ThreadingHTTPServer`` → ``ServeApp`` →
``linker.link``, closure index, tenants ``alpha,beta``).  This process
is only the load generator: two keep-alive connections, read-only
``POST /v1/link`` over the test mentions in a seeded order, tenants
taking turns.
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import random
import socket
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.serve.handlers import ServeApp
from repro.serve.tenants import TenantSpec, build_tenant_registry
from repro.stream.generator import SyntheticWorld

from perfbench import layers, loadgen
from perfbench.result import Decisions, Result, peak_rss_mib
from perfbench.trace import Tracer, beyond, median_and_spread, percentile
from perfbench.world import (
    BENCH_USERS,
    PERFBENCH_DIR,
    Mention,
    build_context,
    generate_world,
    test_mentions,
)

TENANTS = ("alpha", "beta")
#: Per-mention deadline of the tenants.  The deadline guard stays on the
#: request path, but at the default 50 ms one reply in ≈ 8,000 came back
#: ``degraded`` here — a vCPU stall inside interest scoring — and a
#: degraded reply is a failed operation.
DEADLINE_MS = 5000.0
CONNECTIONS = 2
#: Server boots per untraced run; ``setup_s`` is their median.
BOOTS = 3
BOOT_TIMEOUT_S = 60.0
#: Closed loop: discarded warm-up, then the measured time in segments.
WARM_S = 0.5
SEGMENTS = 5
#: Open loop: offered rates, one equal step each.
LADDER_RPS = (10, 40, 160, 640)
#: A step is sustained when this share of the requests due in it complete
#: correctly within the limit of their due time and none is left unsent.
LATENCY_LIMIT_MS = 100.0
OK_SHARE = 0.95
#: The arrival schedule is part of the workload, not of ``--seed``: at
#: 10 rps a step holds 25 requests, and re-drawing the Poisson clumps per
#: run would move its p95 by a third whatever the server does.
SCHEDULE_SEED = 11
HEALTHZ_TRIPS = 50
#: Mention accuracy is taken over the first requests of the seeded order
#: (on the ladder: its two lowest steps), so that it does not depend on
#: how many requests a faster or slower server gets to answer.
ACCURACY_REQUESTS = 100
RESPONSE_KEYS = {
    "schema_version", "tenant", "surface", "outcome",
    "degradation", "entity", "score", "candidates",
}


class Server:
    """One ``repro serve`` subprocess over a saved world."""

    def __init__(self, world_path: pathlib.Path) -> None:
        self._world_path = world_path
        self._process: Optional[subprocess.Popen] = None
        self.address = ("127.0.0.1", 0)

    def boot(self) -> float:
        """Spawn the server; returns seconds until ``/healthz`` says 200."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        self.address = ("127.0.0.1", port)
        source = PERFBENCH_DIR.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(source), PYTHONHASHSEED="0")
        started = time.perf_counter()
        self._process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "--log-level", "ERROR", "serve",
                "--world", str(self._world_path), "--port", str(port),
                "--tenants", ",".join(TENANTS),
                "--tenant-rate", "100000", "--tenant-burst", "100000",
                "--deadline-ms", str(DEADLINE_MS),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
        )
        healthz = loadgen.build_request("GET", "/healthz")
        while time.perf_counter() - started < BOOT_TIMEOUT_S:
            if self._process.poll() is not None:
                raise RuntimeError(f"server exited with {self._process.returncode}")
            try:
                client = loadgen.Connection(self.address, timeout=5.0)
            except OSError:
                time.sleep(0.01)
                continue
            status = client.exchange(healthz)[0]
            client.close()
            if status == 200:
                return time.perf_counter() - started
        raise RuntimeError("server did not answer /healthz in time")

    @property
    def pid(self) -> int:
        return self._process.pid

    def cpu_ms(self) -> float:
        """User + system CPU the server process has used so far."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks * 1000.0 / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        if self._process is None:
            return
        self._process.terminate()
        try:
            self._process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def link_bodies(mentions: Sequence[Mention], seed: int):
    """``(mention indexes, JSON bodies)`` in the seeded request order."""
    order = list(range(len(mentions)))
    random.Random(seed).shuffle(order)
    bodies = [
        json.dumps(
            {
                "tenant": TENANTS[position % len(TENANTS)],
                "surface": mentions[index].surface,
                "user": mentions[index].user,
                "now": mentions[index].now,
            }
        ).encode("utf-8")
        for position, index in enumerate(order)
    ]
    return order, bodies


def classify(sample: loadgen.Sample):
    """``(problem or None, top entity)`` of one response."""
    if sample.status != 200:
        return f"status_{sample.status}", None
    try:
        document = json.loads(sample.body)
    except ValueError:
        return "invalid_json", None
    if not isinstance(document, dict) or set(document) != RESPONSE_KEYS:
        return "invalid_schema", None
    if document["outcome"] not in ("ok", "abstained"):
        return f"outcome_{document['outcome']}", None
    return None, document["entity"]


class Checked:
    """The samples of one run, classified against the recorded decisions."""

    def __init__(
        self,
        samples: Sequence[loadgen.Sample],
        order: Sequence[int],
        mentions: Sequence[Mention],
        expected: Optional[Decisions],
    ) -> None:
        self.samples = list(samples)
        self.ok: List[bool] = []
        self.problems: Dict[str, int] = {}
        hits = judged = 0
        for sample in self.samples:
            index = order[sample.index % len(order)]
            problem, entity = classify(sample)
            if problem is None and expected is not None and entity != expected[index]:
                problem = "decision"
            if problem is not None:
                self.problems[problem] = self.problems.get(problem, 0) + 1
            self.ok.append(problem is None)
            if sample.index < ACCURACY_REQUESTS:
                judged += 1
                hits += entity is not None and entity == mentions[index].truth
        self.accuracy = hits / judged
        self.failed = len(self.samples) - sum(self.ok)


def _healthz_trips(server: Server) -> List[float]:
    """Round trips of ``GET /healthz`` on one connection: the transport
    floor with no linking behind it."""
    client = loadgen.Connection(server.address)
    request = loadgen.build_request("GET", "/healthz")
    trips_ms = []
    for _ in range(HEALTHZ_TRIPS):
        started = time.perf_counter_ns()
        done = client.exchange(request)[4]
        trips_ms.append((done - started) / 1e6)
    client.close()
    return trips_ms


def _client_spans(tracer: Tracer, samples: Sequence[loadgen.Sample]) -> None:
    """Spans of each request from the stamps the load generator took."""
    for sample in samples:
        tracer.request_id = sample.index
        root = tracer.add("client.request", sample.due_ns, sample.done_ns)
        if sample.start_ns > sample.due_ns:
            tracer.add("client.queue", sample.due_ns, sample.start_ns, root)
        tracer.add("client.send", sample.start_ns, sample.sent_ns, root)
        tracer.add("client.wait", sample.sent_ns, sample.first_byte_ns, root)
        tracer.add("client.recv", sample.first_byte_ns, sample.done_ns, root)


def in_process_app(world: SyntheticWorld):
    """``(app, registry, context)``: the server's tenants and handler wired
    in this process, for what cannot be seen through the socket."""
    registry, context = build_tenant_registry(
        world,
        [
            TenantSpec(name, rate=1e5, burst=1e5, deadline_ms=DEADLINE_MS)
            for name in TENANTS
        ],
    )
    return ServeApp(registry), registry, context


def _inside_the_server(
    tracer: Tracer,
    world: SyntheticWorld,
    sent: Sequence[int],
    order: Sequence[int],
    bodies: Sequence[bytes],
    mentions: Sequence[Mention],
) -> Dict[str, float]:
    """Split the socket round trip from outside: the request bodies that
    were sent go through an in-process ``ServeApp.handle`` (handler and
    linker, no transport), and their mentions through a tenant's linker
    stage by stage."""
    app, registry, context = in_process_app(world)
    for index in sent:
        tracer.request_id = index
        with tracer.span("serve.handle"):
            app.handle("POST", "/v1/link", bodies[index % len(bodies)])
    staged = layers.StagedLinker(
        registry.get(TENANTS[0]).linker, context.propagation_network, tracer
    )
    for index in sent:
        tracer.request_id = index
        mention = mentions[order[index % len(order)]]
        staged.link(mention.surface, mention.user, mention.now)
    values = layers.stage_metrics(tracer, len(sent))
    handle_ms = [us / 1e3 for us in tracer.durations_us("serve.handle")]
    values["serve.handle_ms_p50"] = percentile(handle_ms, 0.50)
    values["serve.handle_ms_p95"] = percentile(handle_ms, 0.95)
    return values


def _run_served(
    name: str,
    seed: int,
    tracer: Optional[Tracer],
    expected: Optional[Decisions],
    drive: Callable,
    measure: Callable,
) -> Result:
    """What both socket workloads share: make the inputs, boot the server,
    ``drive`` the load, check every reply, ``measure`` the samples (which
    also returns the p50 of an unqueued round trip), and — traced — split
    that round trip from outside."""
    logging.getLogger("repro").setLevel(logging.ERROR)
    world, world_path, world_sha256, gen_s = generate_world(BENCH_USERS, name)
    mentions = test_mentions(build_context(world))
    order, bodies = link_bodies(mentions, seed)
    requests = [loadgen.build_request("POST", "/v1/link", body) for body in bodies]
    with Server(world_path) as server:
        boots_s = [server.boot()]
        # warm up from the far end of the list, which no run reaches
        loadgen.run_closed(server.address, requests[::-1], CONNECTIONS, WARM_S)
        cpu_before = server.cpu_ms()
        samples, reconnects, driven = drive(server.address, requests)
        cpu_ms = server.cpu_ms() - cpu_before
        healthz_ms = _healthz_trips(server) if tracer else [0.0]
        rss_mib = peak_rss_mib(server.pid)
    checked = Checked(samples, order, mentions, expected)
    result = Result(
        world_sha256=world_sha256,
        decisions=[],
        mention_accuracy=checked.accuracy,
        attempted=len(samples),
        failed=checked.failed,
        values={},
        world_gen_s=gen_s,
        problems=checked.problems,
    )
    round_trip_ms = measure(result, samples, checked, driven)
    result.values["cpu_ms_per_mention"] = cpu_ms / len(samples)
    result.values["peak_rss_mib"] = rss_mib
    if tracer is None:
        while len(boots_s) < BOOTS:  # further boots serve nothing
            with Server(world_path) as server:
                boots_s.append(server.boot())
        result.values["setup_s"], result.spreads["setup_s"] = median_and_spread(boots_s)
        result.samples["setup_s"] = len(boots_s)
        return result

    _client_spans(tracer, samples)
    sent = sorted(sample.index for sample in samples)
    inside = _inside_the_server(tracer, world, sent, order, bodies, mentions)
    result.values = {
        key: value for key, value in result.values.items() if key.startswith("serve.")
    }
    result.values.update(inside)
    result.values.update(
        {
            "serve.transport_ms_p50": round_trip_ms - inside["serve.handle_ms_p50"],
            "serve.healthz_ms_p50": percentile(healthz_ms, 0.50),
            "serve.server_cpu_ms_per_req": cpu_ms / len(samples),
            "serve.boot_s": boots_s[0],
            "serve.requests": float(len(samples)),
            "serve.non200": float(sum(s.status != 200 for s in samples)),
            "serve.reconnects": float(reconnects),
            # client spans are built after the run from stamps the untraced
            # run takes too: tracing adds nothing to the socket path
            "trace.overhead_share": 0.0,
        }
    )
    result.self_time_ms = layers.self_time_table(tracer)
    return result


# ---------------------------------------------------------------------- #
# serve_closed
# ---------------------------------------------------------------------- #
def run_serve_closed(
    seed: int, seconds: float, tracer: Optional[Tracer], expected: Optional[Decisions]
) -> Result:
    """Closed loop: each connection sends its next request on the reply.
    Metrics are medians over ``SEGMENTS`` equal slices of the run."""

    def drive(address: loadgen.Address, requests: Sequence[bytes]):
        started_ns = time.perf_counter_ns()
        samples, reconnects = loadgen.run_closed(address, requests, CONNECTIONS, seconds)
        return samples, reconnects, started_ns

    def measure(result: Result, samples, checked: Checked, started_ns: int) -> float:
        segment_ns = seconds * 1e9 / SEGMENTS
        segments: List[List[int]] = [[] for _ in range(SEGMENTS)]
        for position, sample in enumerate(samples):
            slot = min(SEGMENTS - 1, int((sample.done_ns - started_ns) / segment_ns))
            segments[slot].append(position)
        segments = [segment for segment in segments if len(segment) > 1]
        latencies = [[samples[i].latency_ms for i in segment] for segment in segments]
        per_segment = {
            "link_p50_ms": [percentile(values, 0.50) for values in latencies],
            "link_p95_ms": [percentile(values, 0.95) for values in latencies],
            # from first to last completion, so the rate is not quantised
            # to whole requests per fixed segment length
            "mentions_per_s": [
                (sum(checked.ok[i] for i in segment) - 1)
                / ((samples[segment[-1]].done_ns - samples[segment[0]].done_ns) / 1e9)
                for segment in segments
            ],
        }
        for name, values in per_segment.items():
            result.values[name], result.spreads[name] = median_and_spread(values)
            result.samples[name] = len(samples) // SEGMENTS
        result.samples["link_p95_ms"] = beyond(len(samples) // SEGMENTS, 0.95)
        return result.values["link_p50_ms"]

    return _run_served("serve_closed", seed, tracer, expected, drive, measure)


# ---------------------------------------------------------------------- #
# serve_open
# ---------------------------------------------------------------------- #
def ladder_schedule(seconds: float):
    """Poisson arrivals per ladder step, conditioned on the step's count
    (``rate × step length`` uniform order statistics), from ``SCHEDULE_SEED``."""
    rng = random.Random(SCHEDULE_SEED)
    step_s = seconds / len(LADDER_RPS)
    schedule: List[loadgen.Arrival] = []
    for step, rate in enumerate(LADDER_RPS):
        count = max(1, round(rate * step_s))
        offsets = sorted(rng.random() * step_s for _ in range(count))
        schedule.extend(loadgen.Arrival(step * step_s + o, step) for o in offsets)
    step_ends = [(step + 1) * step_s for step in range(len(LADDER_RPS))]
    return schedule, step_ends


def run_serve_open(
    seed: int, seconds: float, tracer: Optional[Tracer], expected: Optional[Decisions]
) -> Result:
    """Open loop: requests are due on the ladder's schedule whatever the
    server does, and latency counts from the due time."""
    schedule, step_ends = ladder_schedule(seconds)

    def drive(address: loadgen.Address, requests: Sequence[bytes]):
        samples, overloaded, reconnects = loadgen.run_open(
            address, requests, schedule, step_ends, CONNECTIONS
        )
        return samples, reconnects, overloaded

    def measure(result: Result, samples, checked: Checked, overloaded) -> float:
        sustained = 0
        for step, rate in enumerate(LADDER_RPS):
            due = sum(arrival.step == step for arrival in schedule)
            sent = [i for i, sample in enumerate(samples) if sample.step == step]
            latencies = [samples[i].latency_ms for i in sent]
            in_time = sum(
                checked.ok[i] and samples[i].latency_ms <= LATENCY_LIMIT_MS
                for i in sent
            )
            result.values[f"serve.open.r{rate}.ok_share"] = in_time / due
            result.values[f"serve.open.r{rate}.p50_ms"] = (
                percentile(latencies, 0.50) if latencies else 0.0
            )
            if in_time >= OK_SHARE * due and len(sent) == due and step not in overloaded:
                sustained = max(sustained, rate)
        on_time = [s.sched_lag_ms for s in samples if s.slept] or [0.0]
        result.values["serve.sched_lag_ms_p95"] = percentile(on_time, 0.95)
        result.values["serve.open.max_rate_ok_rps"] = float(sustained)
        # End to end, the ladder is taken whole, saturated steps included:
        # latency from the due time over every request that was sent (one
        # step's 20 to 80 requests cannot hold a percentile steady; theirs
        # are per-layer metrics), and completions over its length.
        latencies = [sample.latency_ms for sample in samples]
        result.values["link_p50_ms"] = percentile(latencies, 0.50)
        result.values["link_p95_ms"] = percentile(latencies, 0.95)
        result.values["mentions_per_s"] = sum(checked.ok) / seconds
        for name in ("link_p50_ms", "mentions_per_s"):
            result.samples[name] = len(samples)
        result.samples["link_p95_ms"] = beyond(len(samples), 0.95)
        return result.values[f"serve.open.r{LADDER_RPS[0]}.p50_ms"]

    return _run_served("serve_open", seed, tracer, expected, drive, measure)
