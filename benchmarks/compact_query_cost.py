"""Query cost of the compact 2-hop cover at Table 5's 50k tier.

Table 5 times random pairs only; the linker asks Eq. 8's pattern, one
author about every member of ``U*_e`` in a row.  This script times both
on a cover with empty memos:

- ``random``: Table 5's 2,000 seeded pairs (``test_table5_scale._pairs``),
  one query timed at a time: p50 / p99 in µs;
- ``eq8``: 300 authors drawn from all users, each asking about 7 of 1,000
  targets in a row: µs a query;
- ``recurring``: the same shape with 1,000 mentions by a pool of 300
  authors: µs a query.

It also reports the bytes the query state holds (every attribute but the
graph and the buffers) after ``random`` and after ``eq8``, and a digest
of every answer, which must agree across trees.

Build the tier's graph and buffers once (about 15 s at 50k users), then
compare two checkouts' ``src`` directories, one fresh process per rep
and sides alternating, so no rep inherits another's heap::

    python benchmarks/compact_query_cost.py build --cache cover50k.pkl
    python benchmarks/compact_query_cost.py compare --cache cover50k.pkl \\
        --reps 10 ../parent/src src

``run --src DIR`` is one rep, printed as one JSON line.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import pathlib
import pickle
import random
import statistics
import subprocess
import sys
import time

USERS = 50_000
MAX_HOPS = 4
BUFFERS = (
    "landmarks", "rank_of", "in_offsets", "in_pivots", "in_dists",
    "out_offsets", "out_pivots", "out_dists",
)
#: Reported fields, in table order, with their headings.
FIELDS = {
    "p50_us": "random-pair p50 (µs)",
    "p99_us": "random-pair p99 (µs)",
    "eq8_us": "Eq. 8 script (µs a query)",
    "recurring_us": "Eq. 8, recurring authors (µs a query)",
    "random_state_bytes": "query-state bytes after the random pairs",
    "eq8_state_bytes": "query-state bytes after the Eq. 8 script",
}
HERE = pathlib.Path(__file__).resolve().parent


def _import_from(src: str) -> None:
    sys.path[:0] = [str(pathlib.Path(src).resolve()), str(HERE)]


def build(cache: str, src: str) -> None:
    _import_from(src)
    from repro.graph.compact_labels import build_compact_two_hop_cover
    from repro.graph.generators import streaming_world_graph
    from test_table5_scale import _profile

    graph = streaming_world_graph(_profile(USERS))
    cover = build_compact_two_hop_cover(graph, MAX_HOPS)
    buffers = [getattr(cover, "_" + name) for name in BUFFERS]
    with open(cache, "wb") as out:
        pickle.dump((graph, buffers), out)


def _deep_size(obj, seen) -> int:
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(_deep_size(k, seen) + _deep_size(v, seen) for k, v in obj.items())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(_deep_size(x, seen) for x in obj)
    return size


def run(cache: str, src: str) -> dict:
    _import_from(src)
    from repro.graph.compact_labels import CompactTwoHopCover
    from test_table5_scale import SEED, _pairs

    with open(cache, "rb") as handle:
        graph, buffers = pickle.load(handle)
    kwargs = dict(zip(BUFFERS, buffers))
    static = {"_graph", "_max_hops", *("_" + name for name in BUFFERS)}
    gc.collect()

    def fresh():
        return CompactTwoHopCover(graph, MAX_HOPS, **kwargs)

    def state_bytes(cover) -> int:
        seen = set()
        return sum(
            _deep_size(value, seen)
            for name, value in vars(cover).items()
            if name not in static
        )

    def per_query_us(cover, script) -> float:
        reachability = cover.reachability
        begin = time.perf_counter()
        answers.extend(reachability(s, t) for s, t in script)
        return (time.perf_counter() - begin) / len(script) * 1e6

    answers, latencies = [], []
    cover = fresh()
    for s, t in _pairs(USERS):
        begin = time.perf_counter()
        answers.append(cover.reachability(s, t))
        latencies.append(time.perf_counter() - begin)
    latencies.sort()
    result = {
        "p50_us": latencies[len(latencies) // 2] * 1e6,
        "p99_us": latencies[int(len(latencies) * 0.99)] * 1e6,
        "random_state_bytes": state_bytes(cover),
    }

    rng = random.Random(SEED)
    targets = rng.sample(range(USERS), 1_000)
    eq8 = [
        (a, t) for a in rng.choices(range(USERS), k=300) for t in rng.sample(targets, 7)
    ]
    cover = fresh()
    result["eq8_us"] = per_query_us(cover, eq8)
    result["eq8_state_bytes"] = state_bytes(cover)

    rng = random.Random(SEED + 1)
    pool = rng.sample(range(USERS), 300)
    recurring = [
        (a, t) for a in rng.choices(pool, k=1_000) for t in rng.sample(targets, 7)
    ]
    result["recurring_us"] = per_query_us(fresh(), recurring)
    digest = hashlib.sha256(repr([a.hex() for a in answers]).encode())
    result["answers"] = digest.hexdigest()[:16]
    return result


def compare(cache: str, reps: int, before: str, after: str) -> None:
    runs = {before: [], after: []}
    for rep in range(reps):
        for src in (before, after) if rep % 2 == 0 else (after, before):
            line = subprocess.run(
                [sys.executable, __file__, "run", "--cache", cache, "--src", src],
                check=True, capture_output=True, text=True,
            ).stdout
            runs[src].append(json.loads(line))
    digests = {run["answers"] for side in runs.values() for run in side}
    print(f"| median of {reps} reps | before | after | after / before, per rep |")
    print("|---|---|---|---|")
    for field, heading in FIELDS.items():
        old, new = ([run[field] for run in runs[s]] for s in (before, after))
        ratio = "–"
        if all(old):
            q1, q2, q3 = statistics.quantiles([b / a for a, b in zip(old, new)], n=4)
            ratio = f"{q2:.3f} [{q1:.3f}–{q3:.3f}]"
        print(
            f"| {heading} | {statistics.median(old):,.2f} | "
            f"{statistics.median(new):,.2f} | {ratio} |"
        )
    print("answers identical" if len(digests) == 1 else f"ANSWERS DIFFER: {digests}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("build", "run", "compare"):
        command = sub.add_parser(name)
        command.add_argument("--cache", required=True, help="graph + buffers pickle")
        if name == "compare":
            command.add_argument("--reps", type=int, default=10)
            command.add_argument("before", help="the baseline checkout's src")
            command.add_argument("after", help="the changed checkout's src")
        else:
            command.add_argument("--src", default=str(HERE.parent / "src"))
    args = parser.parse_args()
    if args.command == "build":
        build(args.cache, args.src)
    elif args.command == "run":
        print(json.dumps(run(args.cache, args.src)))
    else:
        compare(args.cache, args.reps, args.before, args.after)


if __name__ == "__main__":
    main()
