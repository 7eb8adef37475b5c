"""Names in README, DESIGN and docs/ prose exist: every relative Markdown
link names a file (and its ``#anchor`` a heading of the target), every
backticked file path a file of the repo, and every backticked
``repro <cmd> --flag`` a subcommand and flag of ``repro.cli.build_parser``."""

from __future__ import annotations

import argparse
import re
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINK = re.compile(r"\]\(([^)\s]+)\)")
DOCS = [ROOT / "README.md", ROOT / "DESIGN.md", *sorted(ROOT.glob("docs/*.md"))]


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
    broken = []
    for doc in DOCS:
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


SPAN = re.compile(r"`([^`]+)`")
#: A backticked file path, optionally followed by ``::node`` or ``:line``.
PATH = re.compile(r"([\w.-]+(?:/[\w.-]+)*\.(?:py|md|json|txt|yml|toml))(?:::\S*|:\d+\S*)?")


def _spans(doc: Path):
    for line in _prose(doc):
        yield from SPAN.findall(line)


def _repo_files():
    """Repo-relative paths of the tracked files."""
    return set(
        subprocess.run(
            ["git", "ls-files"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.split()
    )


def missing_paths(docs, files):
    """``doc: path`` for each backticked path that names no file: one with a
    ``/`` under the repo root or ``src/repro/``, a bare name anywhere."""
    names = {name.rsplit("/", 1)[-1] for name in files}
    missing = []
    for doc in docs:
        for span in _spans(doc):
            match = PATH.fullmatch(span.strip())
            if match is None:
                continue
            path = match.group(1)
            if "/" in path:
                found = path in files or f"src/repro/{path}" in files
            else:
                found = path in names
            if not found:
                missing.append(f"{doc.name}: {path}")
    return missing


def test_backticked_paths_name_files():
    assert missing_paths(DOCS, _repo_files()) == []


def test_a_deleted_module_is_caught(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`core/linker.py:223` and `tests/test_io.py::TestWorld` exist;\n"
        "`core/parallel.py` and `cache/burst.py` are gone, as is `nowhere.md`.\n"
        "```\n`core/snapshot.py` sits in a fence\n```\n",
        encoding="utf-8",
    )
    assert missing_paths([doc], _repo_files()) == [
        "doc.md: core/parallel.py", "doc.md: cache/burst.py", "doc.md: nowhere.md",
    ]


def _commands():
    """``{subcommand: its option strings}`` of ``repro``'s parser, plus the
    options taken before the subcommand under ``""``."""
    from repro.cli import build_parser

    parser = build_parser()
    commands = {"": set(parser._option_string_actions)}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                commands[name] = set(sub._option_string_actions)
    return commands


def unknown_invocations(docs, commands):
    """``doc: span`` for each backticked ``repro <cmd> …`` whose subcommand
    or ``--flag`` the parser does not have (``--log-level LEVEL`` may come
    first)."""
    unknown = []
    for doc in docs:
        for span in _spans(doc):
            words = span.split()
            if len(words) < 2 or words[0] != "repro":
                continue
            if words[1] == "--log-level":
                words[1:3] = []
            command = words[1].split("|")[0] if len(words) > 1 else ""
            flags = [w.split("=")[0] for w in words[2:] if w.startswith("--")]
            if command not in commands or not commands[command].issuperset(flags):
                unknown.append(f"{doc.name}: {span}")
    return unknown


def test_repro_invocations_name_real_commands_and_flags():
    assert unknown_invocations(DOCS, _commands()) == []


def test_an_unknown_command_or_flag_is_caught(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`repro serve --port 8391` and `repro --log-level ERROR stream` run;\n"
        "`repro bench --tiers 1000` and `repro serve --workers 2` do not.\n",
        encoding="utf-8",
    )
    assert unknown_invocations([doc], _commands()) == [
        "doc.md: repro bench --tiers 1000", "doc.md: repro serve --workers 2",
    ]
