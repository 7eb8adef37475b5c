"""Compare two sets of result documents of ``perfbench.run --out``.

    python -m perfbench.compare A.json B.json
    python -m perfbench.compare a1.json,a2.json,a3.json b1.json,b2.json,b3.json

Each side is one document or a comma-separated set of documents of the
same commit; a set stands for its median.  Per workload × end-to-end
metric: both values, the ratio with A as its base, the bound from
``BENCHMARK.json`` and a verdict —

* ``ok``          B is no worse than A by more than the bound;
* ``worse``       it is;
* ``unresolved``  B reads worse than A at all, but a side's run-to-run
                  spread (inter-quartile, as a share of its median; needs
                  three runs a side) is wider than the bound, so the sets
                  cannot tell.

Outputs that must not move at all (failures, accuracy, the sustained
ladder rate) are compared exactly.  Exit status is 1 on any ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys
from typing import Dict, List, Optional, Sequence

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Extras compared exactly: name → how B may differ from A.
EXACT = {
    "fail_share": "lower",
    "mention_accuracy": "equal",
    "serve.open.max_rate_ok_rps": "higher",
}


def spread(values: Sequence[float]) -> Optional[float]:
    """Run-to-run spread of a set, or ``None`` when it is too small to say."""
    if len(values) < 3:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric of one workload."""
    base = statistics.median(a)
    worse_by = (statistics.median(b) - base) / base
    if better == "higher":
        worse_by = -worse_by
    if worse_by <= 0:
        return "ok"
    if max(spread(a) or 0.0, spread(b) or 0.0) > bound:
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def exact_verdict(a: float, b: float, allowed: str) -> str:
    if a == b or (allowed == "higher" and b > a) or (allowed == "lower" and b < a):
        return "ok"
    return "worse"


def _percent(value: Optional[float]) -> str:
    return "n/a" if value is None else f"{value:.1%}"


def compare(first: List[dict], second: List[dict], benchmark: dict) -> List[str]:
    """Report lines; the lines of a ``worse`` verdict end in that word."""
    lines: List[str] = []
    for name in first[0]["workloads"]:
        side_a = [document["workloads"][name] for document in first]
        side_b = [
            document["workloads"][name]
            for document in second
            if name in document["workloads"]
        ]
        if len(side_b) != len(second):
            lines.append(f"{name}: missing from the second set  worse")
            continue
        lines.append(f"== {name} ==")
        for spec in benchmark["end_to_end"]:
            metric = spec["name"]
            a = [run["metrics"][metric]["value"] for run in side_a]
            b = [run["metrics"][metric]["value"] for run in side_b]
            lines.append(
                f"  {metric:<28} {statistics.median(a):>12.4f} {statistics.median(b):>12.4f}"
                f" {spec['unit']:<4} x{statistics.median(b) / statistics.median(a):.3f} of A"
                f"  bound {spec['bound']:.0%} ({spec['better']} is better)"
                f"  spread A {_percent(spread(a))} B {_percent(spread(b))}"
                f"  {verdict(a, b, spec['better'], spec['bound'])}"
            )
        for metric, allowed in EXACT.items():
            if metric not in side_a[0]["extras"]:
                continue
            # the worst run of each side speaks for it
            pick = min if allowed == "higher" else max
            a = pick(run["extras"][metric] for run in side_a)
            b = pick(run["extras"][metric] for run in side_b)
            lines.append(
                f"  {metric:<28} {a:>12.4f} {b:>12.4f}"
                f"      exact ({allowed} allowed)  {exact_verdict(a, b, allowed)}"
            )
        if not all(run["correct"] for run in side_a + side_b):
            lines.append("  a run was not correct  worse")
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    sides: List[List[Dict]] = [
        [
            json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
            for path in side.split(",")
        ]
        for side in argv
    ]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    lines = compare(sides[0], sides[1], benchmark)
    print("\n".join(lines))
    return 1 if any(line.endswith("worse") for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
