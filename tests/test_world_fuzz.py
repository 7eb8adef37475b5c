"""A damaged world file loads or fails as one typed error.

Variants of a saved small world, plain and gzipped, are truncated,
bit-flipped or stripped of one key.  A variant may still be a valid world
(a flipped digit can name another user or another time), so the
properties ask only that nothing but :class:`WorldFileError` escapes
``load_world`` and that ``repro link`` ends as exit 0, or exit 1 with one
``ERROR`` line.
"""

import gzip
import json
import logging

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import WorldFileError
from repro.io import load_world, save_world

SUFFIXES = (".json", ".json.gz")

FUZZ = settings(
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.fixture(scope="module")
def saved(small_world, tmp_path_factory):
    """The saved bytes per suffix, the offsets of the plain file's
    digits, the directory variants go to and a surface to link."""
    folder = tmp_path_factory.mktemp("fuzz")
    files = {}
    for suffix in SUFFIXES:
        save_world(small_world, folder / f"world{suffix}")
        files[suffix] = (folder / f"world{suffix}").read_bytes()
    return {
        "files": files,
        "digits": [i for i, byte in enumerate(files[".json"]) if 48 <= byte <= 57],
        "folder": folder,
        "surface": sorted(small_world.synthetic_kb.ambiguous_surfaces)[0],
    }


def _objects(node):
    if isinstance(node, dict):
        if node:
            yield node
        for value in node.values():
            yield from _objects(value)
    elif isinstance(node, list):
        for value in node:
            yield from _objects(value)


def write_variant(saved, data) -> str:
    """Draw one damaged copy of the saved world and write it."""
    suffix = data.draw(st.sampled_from(SUFFIXES), label="suffix")
    raw = saved["files"][suffix]
    kind = data.draw(st.sampled_from(["truncate", "flip", "drop"]), label="kind")
    if kind == "truncate":
        content = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    elif kind == "flip":
        # a flipped digit tends to leave a valid world naming another
        # user, time or entity: the case a type check alone misses
        spots = range(len(raw))
        if suffix == ".json":
            spots = data.draw(st.sampled_from([spots, saved["digits"]]), label="spots")
        at = spots[data.draw(st.integers(0, len(spots) - 1), label="byte")]
        bit = data.draw(st.integers(0, 7), label="bit")
        content = raw[:at] + bytes([raw[at] ^ (1 << bit)]) + raw[at + 1 :]
    else:
        tree = json.loads(saved["files"][".json"])
        objects = list(_objects(tree))
        target = objects[data.draw(st.integers(0, len(objects) - 1), label="object")]
        del target[data.draw(st.sampled_from(sorted(target)), label="key")]
        content = json.dumps(tree).encode("utf-8")
        if suffix == ".json.gz":
            content = gzip.compress(content)
    path = saved["folder"] / f"variant{suffix}"
    path.write_bytes(content)
    return str(path)


@settings(FUZZ, max_examples=60)
@given(data=st.data())
def test_a_damaged_world_loads_or_raises_world_file_error(saved, data):
    path = write_variant(saved, data)
    try:
        load_world(path)
    except WorldFileError as exc:
        assert path in str(exc)


@settings(FUZZ, max_examples=30)
@given(data=st.data())
def test_link_on_a_damaged_world_exits_cleanly(saved, data, caplog, capsys):
    path = write_variant(saved, data)
    caplog.clear()
    code = main(
        ["link", "--world", path, "--surface", saved["surface"], "--user", "3", "--day", "20"]
    )
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert (code, len(errors)) in {(0, 0), (1, 1)}
    assert "Traceback" not in capsys.readouterr().err
