"""CLI tests (driving main(argv) directly)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.io import save_world
from repro.obs.metrics import METRICS, validate_metrics_document

from conftest import small_profiles


@pytest.fixture(scope="module")
def world_file(tmp_path_factory):
    """A persisted tiny world shared by the CLI tests."""
    from repro.stream.generator import SyntheticWorld

    kb_profile, stream_profile = small_profiles(seed=31)
    world = SyntheticWorld.generate(kb_profile, stream_profile)
    path = tmp_path_factory.mktemp("cli") / "world.json.gz"
    save_world(world, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])

    def test_check_subcommand_is_gone(self):
        """The source invariants are tests/test_invariants.py now."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["check", "src"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["evaluate", "--world", "w", "--workers", "2"],
            ["stream", "--world", "w", "--workers", "2"],
            ["bench", "--workers", "2"],
            ["serve", "--world", "w", "--microbatch"],
            ["serve", "--world", "w", "--batch-workers", "2"],
        ],
    )
    def test_second_concurrency_model_flags_are_gone(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--world", "w", "--chaos-error-rate", "0.05"],
            ["serve", "--world", "w", "--chaos-slow-rate", "0.1"],
            ["load", "--world", "w", "--chaos-slow-ms", "40"],
            ["load", "--world", "w", "--chaos-seed", "0"],
            ["serve", "--world", "w", "--capacity", "4"],
            ["load", "--world", "w", "--queue-limit", "8"],
            ["load", "--world", "w", "--arrivals", "uniform"],
            ["load", "--world", "w", "--service-tick-ms", "8"],
            ["stream", "--world", "w", "--fault-seed", "0"],
        ],
    )
    def test_single_valued_flags_are_gone(self, argv):
        """Each had one value in use; it is the constant behind ``--chaos``,
        ``--admission-classes``' default, or the load replay now."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert build_parser().parse_args(argv[:3]).command == argv[0]

    def test_trace_metrics_out_is_gone(self):
        """The trace table prints the scenarios' counters; ``evaluate`` and
        ``stream`` keep the flag."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["trace", "--metrics-out", "m.json"])
        assert exit_info.value.code == 2
        for command in ("evaluate", "stream"):
            args = build_parser().parse_args(
                [command, "--world", "w", "--metrics-out", "m.json"]
            )
            assert args.metrics_out == "m.json"


class TestGenerate:
    def test_generates_and_reports(self, tmp_path, capsys):
        out = tmp_path / "w.json.gz"
        code = main(
            [
                "generate", "--out", str(out), "--seed", "3", "--users", "60",
                "--topics", "3", "--entities-per-topic", "4",
                "--horizon-days", "20",
            ]
        )
        assert code == 0
        assert out.exists()
        assert "60 users" in capsys.readouterr().out


class TestDatasets:
    def test_table2_printed(self, world_file, capsys):
        assert main(["datasets", "--world", world_file]) == 0
        out = capsys.readouterr().out
        assert "Dtest" in out
        assert "D10" in out


class TestEvaluate:
    def test_single_method(self, world_file, capsys):
        code = main(
            [
                "evaluate", "--world", world_file, "--method", "ours",
                "--complement", "truth",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ours" in out
        assert "mention" in out

    def test_all_methods(self, world_file, capsys):
        code = main(
            ["evaluate", "--world", world_file, "--complement", "truth"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for name in ("ours", "onthefly", "collective"):
            assert name in out

    def test_metrics_out_document_validates(self, world_file, tmp_path):
        out = str(tmp_path / "metrics.json")
        code = main(
            [
                "evaluate", "--world", world_file, "--method", "ours",
                "--complement", "truth", "--metrics-out", out,
            ]
        )
        assert code == 0
        with open(out, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert validate_metrics_document(document) == []
        assert document["meta"] == {"schema_version": 2, "tool": "repro evaluate"}
        assert "perf" not in document
        metrics = document["metrics"]
        assert metrics["counters"]["link.requests"] > 0
        assert metrics["counters"]["influential_cache.miss"] > 0
        # the run had timing on, and ended it
        assert metrics["timers"]["link.request"]["count"] > 0
        assert not METRICS.timing


class TestLink:
    def test_links_known_surface(self, world_file, capsys):
        from repro.io import load_world

        world = load_world(world_file)
        surface = next(iter(world.synthetic_kb.ambiguous_surfaces))
        code = main(
            [
                "link", "--world", world_file, "--surface", surface,
                "--user", "20", "--day", "19",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "score" in out

    def test_unknown_surface_fails(self, world_file, caplog):
        code = main(
            [
                "link", "--world", world_file, "--surface", "zzzzzzzzz",
                "--user", "20", "--day", "19",
            ]
        )
        assert code == 1
        assert "no candidates" in caplog.text

    def test_user_outside_the_graph_fails(self, world_file, caplog):
        """``--user -1`` would wrap to the last user's row; it is refused."""
        code = main(
            [
                "link", "--world", world_file, "--surface", "jordan",
                "--user", "-1", "--day", "19",
            ]
        )
        assert code == 1
        assert "UnknownUserError" in caplog.text


class TestBadWorld:
    """A ``--world`` that is not a saved world is one ``ERROR`` line naming
    the file and exit 1, never a traceback."""

    @pytest.mark.parametrize(
        "name, content",
        [
            ("bad.json.gz", b"not a gzip file"),
            ("keyless.json", b'{"version": 1}'),
            ("truncated.json.gz", None),  # the first half of a saved world
        ],
        ids=["not_gzip", "missing_key", "truncated"],
    )
    def test_link_exits_1_with_one_error_line(
        self, world_file, tmp_path, caplog, capsys, name, content
    ):
        import logging
        import pathlib

        if content is None:
            whole = pathlib.Path(world_file).read_bytes()
            content = whole[: len(whole) // 2]
        path = tmp_path / name
        path.write_bytes(content)
        code = main(
            ["link", "--world", str(path), "--surface", "x", "--user", "0", "--day", "1"]
        )
        assert code == 1
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert errors[0].getMessage().startswith("WorldFileError: ")
        assert str(path) in errors[0].getMessage()
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "user", [3.5, 1_000_000, True], ids=["float", "outside_graph", "bool"]
    )
    def test_tweets_by_a_user_no_graph_holds(
        self, world_file, tmp_path, caplog, capsys, user
    ):
        """The most active user's tweets re-typed or moved off the graph:
        these loaded and then raised ``TypeError`` in ``bulk_link`` and
        ``IndexError`` in the closure, or linked as user 1."""
        import collections
        import gzip
        import json
        import logging

        with gzip.open(world_file, "rt", encoding="utf-8") as handle:
            payload = json.load(handle)
        active = collections.Counter(t["user"] for t in payload["tweets"])
        active = active.most_common(1)[0][0]
        surfaces = collections.Counter(
            m[0] for t in payload["tweets"] if t["user"] == active for m in t["mentions"]
        )
        for tweet in payload["tweets"]:
            if tweet["user"] == active:
                tweet["user"] = user
        path = tmp_path / "world.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        code = main(
            [
                "link", "--world", str(path), "--surface",
                surfaces.most_common(1)[0][0], "--user", "0", "--day", "20",
            ]
        )
        assert code == 1
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert errors[0].getMessage().startswith(
            f"WorldFileError: malformed world {str(path)!r}"
        )
        assert "Traceback" not in capsys.readouterr().err


class TestLoadUrl:
    def test_plan_is_the_test_split_and_nothing_is_complemented(
        self, world_file, tmp_path, monkeypatch
    ):
        """``--url`` replays the test split of the activity split that
        ``build_experiment`` makes, without complementing a KB it never
        reads."""
        import repro.eval.context
        import repro.serve.client
        from repro.eval.context import build_experiment
        from repro.io import load_world
        from repro.serve.load import generate_requests, queries_from_dataset

        dataset = build_experiment(
            world=load_world(world_file), complement_method="truth"
        ).test_dataset
        expected = generate_requests(
            17, 40, 50.0, ["alpha", "beta"], queries_from_dataset(dataset)
        )
        planned = []

        class Sent(Exception):
            pass

        def run_http(url, plan, seed, chaos, pool_size):
            planned.extend(plan)
            raise Sent

        def complement_knowledgebase(*args, **kwargs):
            raise AssertionError("complemented a KB the client never reads")

        monkeypatch.setattr(repro.serve.client, "run_http", run_http)
        monkeypatch.setattr(
            repro.eval.context, "complement_knowledgebase", complement_knowledgebase
        )
        with pytest.raises(Sent):
            main(
                [
                    "load", "--world", world_file, "--url", "http://127.0.0.1:1",
                    "--requests", "40", "--seed", "17", "--base-rate", "50",
                    "--out", str(tmp_path / "load.json"),
                ]
            )
        assert planned == expected and len(planned) == 40


class TestSearch:
    def test_search_prints_results(self, world_file, capsys):
        from repro.io import load_world

        world = load_world(world_file)
        surface = next(iter(world.synthetic_kb.ambiguous_surfaces))
        code = main(
            ["search", "--world", world_file, "--query", surface, "--user", "20"]
        )
        assert code == 0
        assert "results for" in capsys.readouterr().out


class TestValidate:
    def test_validate_prints_properties(self, world_file, capsys):
        code = main(["validate", "--world", world_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "homophily_lift" in out
        assert "activity_gini" in out


class TestStream:
    def test_resume_after_crash_matches_uninterrupted_run(
        self, world_file, tmp_path, capsys
    ):
        """The crash drill at the CLI: stop half way, ``--resume``, and the
        checkpoint equals the uninterrupted run's."""
        from repro.kb.checkpoint import load_checkpoint

        full, part = str(tmp_path / "full.json.gz"), str(tmp_path / "part.json.gz")
        limit = 200

        def stream(*extra):
            assert main(["stream", "--world", world_file, *extra]) == 0
            header, _rule, row = capsys.readouterr().out.splitlines()[-3:]
            return dict(zip(header.split(), map(int, row.split())))

        uninterrupted = stream("--limit", str(limit), "--checkpoint", full)
        assert uninterrupted["dead_lettered"] == 0
        stream("--limit", str(limit // 2), "--checkpoint", part)
        resumed = stream("--limit", str(limit), "--checkpoint", part, "--resume")
        # every already-applied tweet is re-delivered and dropped, none re-linked
        assert resumed["received"] == limit
        assert resumed["dead_lettered"] == limit // 2
        assert resumed["kb_links"] == uninterrupted["kb_links"]
        # links, watermark, applied_ids and version
        assert load_checkpoint(part) == load_checkpoint(full)

    def test_resume_from_a_link_the_kb_lacks_exits_typed(
        self, world_file, tmp_path, caplog
    ):
        """A checkpoint that loads (its checksum holds) but names an entity
        the world's KB lacks: one ``ERROR`` line and exit 1, no traceback."""
        from repro.kb.checkpoint import StreamCheckpoint, save_checkpoint

        path = str(tmp_path / "bad.json")
        save_checkpoint(StreamCheckpoint(links=((10**6, 0, 0.0, -1),)), path)
        code = main(["stream", "--world", world_file, "--checkpoint", path, "--resume"])
        assert code == 1
        assert "CheckpointCorruptError: checkpoint link 0" in caplog.text

    def test_resume_from_a_link_outside_the_graph_exits_typed(
        self, world_file, tmp_path, caplog
    ):
        """A link whose user is no node of the world's follow graph: one
        ``ERROR`` line and exit 1, not a traceback from Eq. 4."""
        from repro.kb.checkpoint import StreamCheckpoint, save_checkpoint

        path = str(tmp_path / "bad.json")
        save_checkpoint(StreamCheckpoint(links=((0, 10**6, 0.0, -1),)), path)
        code = main(["stream", "--world", world_file, "--checkpoint", path, "--resume"])
        assert code == 1
        assert (
            "CheckpointCorruptError: checkpoint link 0 (0, 1000000, 0.0, -1): "
            "user 1000000 outside the follow graph" in caplog.text
        )


class TestServe:
    def test_failed_boot_leaves_the_collector_on(self, tmp_path, caplog):
        """The boot runs with the cyclic collector paused; a ``--world``
        that fails to load exits 1 with one ``ERROR`` line and resumes it."""
        import gc

        path = tmp_path / "corrupt.json"
        path.write_text('{"version": 1, "kb": ', encoding="utf-8")
        assert gc.isenabled()
        assert main(["serve", "--world", str(path), "--port", "0"]) == 1
        assert gc.isenabled()
        assert "JSONDecodeError" in caplog.text
