"""Every relative Markdown link in README, DESIGN and docs/ resolves: its
path names an existing file and its ``#anchor`` a heading of the target."""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINK = re.compile(r"\]\(([^)\s]+)\)")


def _prose(path: Path):
    """The lines of a Markdown file outside fenced code blocks."""
    fenced = False
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif not fenced:
            yield line


def _anchors(path: Path):
    """GitHub's heading slugs: lower case, punctuation dropped, spaces to
    hyphens, a repeated slug suffixed -1, -2, ..."""
    seen = {}
    for line in _prose(path):
        if line.startswith("#"):
            slug = re.sub(r"[^\w\- ]", "", line.lstrip("#").strip().lower())
            slug = slug.replace(" ", "-")
            count = seen.get(slug, 0)
            seen[slug] = count + 1
            yield f"{slug}-{count}" if count else slug


def test_relative_links_name_existing_files_and_headings():
    docs = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted(ROOT.glob("docs/*.md"))]
    broken = []
    for doc in docs:
        for line in _prose(doc):
            for target in LINK.findall(line):
                if re.match(r"[a-z]+:", target):
                    continue
                path, _, anchor = target.partition("#")
                resolved = (doc.parent / path).resolve() if path else doc
                if not resolved.exists():
                    broken.append(f"{doc.name}: {target} names no file")
                elif anchor and anchor not in set(_anchors(resolved)):
                    broken.append(f"{doc.name}: {target} names no heading")
    assert broken == []
