"""Consolidated results report.

Every benchmark archives its paper-style table under
``benchmarks/results/``; this module stitches them into one Markdown
report (``REPORT.md`` by default) ordered like the paper's evaluation
section, so a full reproduction run leaves a single reviewable artifact.
"""

from __future__ import annotations

import datetime
import pathlib
from typing import Dict, List, Optional, Tuple, Union

PathLike = Union[str, pathlib.Path]

#: Section order and human titles, keyed by the result-file stem.
SECTIONS: List[Tuple[str, str]] = [
    ("table2_datasets", "Table 2 — dataset statistics"),
    ("fig4a_accuracy", "Fig. 4(a) — accuracy vs state of the art"),
    ("fig4b_kb_size", "Fig. 4(b) — complementation dataset size"),
    ("fig4c_influence", "Fig. 4(c) — influence estimators"),
    ("fig4d_propagation", "Fig. 4(d) — recency propagation"),
    ("table4_features", "Table 4 — feature ablation"),
    ("fig5a_latency", "Fig. 5(a) — linking latency"),
    ("fig5b_tc_build", "Fig. 5(b) — closure construction"),
    ("fig5c_influential", "Fig. 5(c) — influential-user count"),
    ("fig5d_scalability", "Fig. 5(d) — knowledgebase scalability"),
    ("table5_indexes", "Table 5 — reachability indexes"),
    ("fig6ab_weibo", "Fig. 6(a,b) — Weibo generalizability"),
    ("fig6c_tweet_length", "Fig. 6(c) — tweet length"),
    ("fig6d_sensitivity", "Fig. 6(d) — weight sensitivity"),
    ("appxc_categories", "Appendix C.1 — entity categories"),
    ("appxd_abstention", "Appendix D — abstention threshold"),
    ("ablation_reachability", "Ablation — reachability providers"),
    ("ablation_window", "Ablation — recency window"),
    ("ablation_batching", "Ablation — micro-batching"),
    ("ablation_landmarks", "Ablation — landmark ordering"),
    ("ablation_ner", "Ablation — raw-text pipeline"),
]


def collect_results(results_dir: PathLike) -> Dict[str, str]:
    """Read every archived table, keyed by experiment stem."""
    directory = pathlib.Path(results_dir)
    found: Dict[str, str] = {}
    if not directory.is_dir():
        return found
    for path in sorted(directory.glob("*.txt")):
        found[path.stem] = path.read_text().rstrip()
    return found


def build_report(
    results_dir: PathLike,
    title: str = "Reproduction report — Microblog Entity Linking with "
    "Social Temporal Context (SIGMOD 2015)",
    generated_at: Optional[str] = None,
) -> str:
    """Render the consolidated Markdown report."""
    results = collect_results(results_dir)
    stamp = (
        generated_at
        # the one sanctioned wall-clock read in eval/: a CLI-boundary
        # report stamp; tests and reproducible runs inject generated_at
        or datetime.datetime.now().isoformat(timespec="seconds")  # repro: noqa[DET-003] -- CLI report stamp; callers inject generated_at
    )
    lines: List[str] = [f"# {title}", "", f"_Generated {stamp}_", ""]
    covered = set()
    for stem, section_title in SECTIONS:
        if stem not in results:
            continue
        covered.add(stem)
        lines.append(f"## {section_title}")
        lines.append("")
        lines.append("```")
        lines.append(results[stem])
        lines.append("```")
        lines.append("")
    extras = sorted(set(results) - covered)
    for stem in extras:
        lines.append(f"## {stem}")
        lines.append("")
        lines.append("```")
        lines.append(results[stem])
        lines.append("```")
        lines.append("")
    missing = [stem for stem, _ in SECTIONS if stem not in results]
    if missing:
        lines.append("## Missing experiments")
        lines.append("")
        for stem in missing:
            lines.append(f"* `{stem}` — run `pytest benchmarks/ --benchmark-only`")
        lines.append("")
    return "\n".join(lines)


def write_report(
    results_dir: PathLike, output: PathLike, generated_at: Optional[str] = None
) -> pathlib.Path:
    """Build and write the report; returns the output path."""
    path = pathlib.Path(output)
    path.write_text(build_report(results_dir, generated_at=generated_at))
    return path
