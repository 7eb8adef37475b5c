"""What a workload run hands back to ``perfbench.run``."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

Decisions = List[Optional[int]]


@dataclasses.dataclass
class Result:
    """What one workload run hands back to ``perfbench.run``."""

    world_sha256: str
    #: Top entity per test mention (by mention index), first pass.
    decisions: Decisions
    mention_accuracy: float
    attempted: int
    failed: int
    #: Metric name → value; end-to-end names untraced, per-layer traced.
    values: Dict[str, float]
    #: Inter-quartile spread over the run's passes, as a share of the median.
    spreads: Dict[str, float] = dataclasses.field(default_factory=dict)
    samples: Dict[str, int] = dataclasses.field(default_factory=dict)
    world_gen_s: float = 0.0
    #: Failure kind → count (socket workloads).
    problems: Dict[str, int] = dataclasses.field(default_factory=dict)
    self_time_ms: Dict[str, float] = dataclasses.field(default_factory=dict)


def peak_rss_mib(pid: object = "self") -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")
