"""Run the benchmark: one workload, or all five each in a fresh process.

    python3 perfbench/run.py --workload link_hot --seed 11 --seconds 10 --trace 0
    PYTHONPATH=src python -m perfbench.run --seed 11 --out perfbench/out/run.json
    PYTHONPATH=src python -m perfbench.run --seed 11 --trace --out perfbench/out/traced.json

Every metric is printed by name with its unit; the last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) that ``BENCHMARK.json`` names.  Exit status is non-zero
when an output was wrong or the inputs moved away from ``expected.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import platform
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

WORKLOADS = ("serve_closed", "serve_open", "link_hot", "stream_feedback", "scale_compact")


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Run one workload in this process and check it against ``expected.json``."""
    from perfbench import inprocess, serving
    from perfbench.trace import Tracer
    from perfbench.world import OUT_DIR, decisions_digest, load_expected

    benchmark = load_benchmark()
    expected = load_expected()
    tracer = Tracer(name) if traced else None
    runners = {
        "serve_closed": serving.run_serve_closed,
        "serve_open": serving.run_serve_open,
        "link_hot": functools.partial(inprocess.run_read_only, name),
        "stream_feedback": inprocess.run_stream_feedback,
        "scale_compact": functools.partial(inprocess.run_read_only, name),
    }
    decisions = expected["decisions"]["serve" if name.startswith("serve_") else name]
    result = runners[name](seed, seconds, tracer, decisions)
    if tracer is not None:
        tracer.write_jsonl(OUT_DIR / f"trace-{name}.jsonl")
        result.values.setdefault("world.gen_s", result.world_gen_s)

    moved = []
    world_key = "compact" if name == "scale_compact" else "bench"
    if result.world_sha256 != expected["world_sha256"][world_key]:
        moved.append("world digest")
    if result.failed:
        moved.append(f"outputs ({result.failed} of {result.attempted} operations failed)")

    kind = "per_layer" if traced else "end_to_end"
    metrics = {}
    for spec in benchmark[kind]:
        metric = {
            "value": result.values.get(spec["name"], 0.0) if traced
            else result.values[spec["name"]],
            "unit": spec["unit"],
        }
        if not traced:
            metric["spread"] = result.spreads.get(spec["name"], 0.0)
            metric["samples"] = result.samples.get(spec["name"], 1)
        metrics[spec["name"]] = metric
    extras = {key: value for key, value in result.values.items() if key not in metrics}
    extras["fail_share"] = result.failed / result.attempted
    extras["mention_accuracy"] = result.mention_accuracy
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "correct": not moved,
        "moved": moved,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
        "metrics": metrics,
        "extras": extras,
        "world_sha256": result.world_sha256,
        # the socket workloads reach a different subset of mentions each run
        "decisions_sha256": decisions_digest(result.decisions) if result.decisions else None,
        "self_time_ms": result.self_time_ms,
    }


def print_report(document: dict) -> None:
    mode = "traced, per-layer" if document["traced"] else "untraced, end-to-end"
    print(f"== {document['workload']} (seed {document['seed']}, {mode}) ==")
    for name, metric in document["metrics"].items():
        line = f"  {name:<36} {metric['value']:>14.4f} {metric['unit']}"
        if "samples" in metric:
            line += f"   n={metric['samples']} spread={metric['spread']:.1%}"
        print(line)
    for name, value in sorted(document["extras"].items()):
        print(f"  {name:<36} {value:>14.4f}")
    if document["self_time_ms"]:
        total = sum(document["self_time_ms"].values())
        print("  self time by span:")
        for name, own in sorted(document["self_time_ms"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:<34} {own:>12.1f} ms {own / total:>6.1%}")
    print(f"  world sha256      {document['world_sha256']}")
    if document["decisions_sha256"]:
        print(f"  decisions sha256  {document['decisions_sha256']}")
    for what in document["moved"]:
        print(f"  MOVED: {what}")
    for problem, count in sorted(document["problems"].items()):
        print(f"  problem: {problem} x{count}")


def driver_line(document: dict) -> str:
    return json.dumps(
        {
            "correct": document["correct"],
            "attempted": document["attempted"],
            "failed": document["failed"],
            "metrics": {
                name: {"value": metric["value"], "unit": metric["unit"]}
                for name, metric in document["metrics"].items()
            },
        }
    )


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh subprocess; their documents merged into one."""
    from perfbench.world import OUT_DIR

    OUT_DIR.mkdir(exist_ok=True)
    order = WORKLOADS[::-1] if args.reverse else WORKLOADS
    merged = {
        "benchmark": "perfbench",
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": {},
    }
    status = 0
    for name in order:
        part = OUT_DIR / f"part-{name}.json"
        child = subprocess.run(
            [
                sys.executable, str(pathlib.Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(part),
            ]
        )
        if child.returncode != 0:
            status = 1
        if part.exists():
            merged["workloads"][name] = json.loads(part.read_text(encoding="utf-8"))
            part.unlink()
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(merged, indent=1), encoding="utf-8")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all five")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write the full result document here")
    parser.add_argument("--reverse", action="store_true",
                        help="all workloads, in reverse order (for A/A run sets)")
    parser.add_argument("--freeze", action="store_true",
                        help="rewrite expected.json from what the code does now")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        # str hashes order set iteration; pin them so decisions repeat
        os.execve(
            sys.executable,
            [sys.executable, str(pathlib.Path(__file__).resolve())] + sys.argv[1:],
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    if args.freeze:
        from perfbench.freeze import freeze

        freeze()
        return 0
    if args.workload is None:
        return run_all(args)
    document = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(document, indent=1), encoding="utf-8")
    print_report(document)
    print(driver_line(document))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
