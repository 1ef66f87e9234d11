"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graph import Graph, write_edgelist
from repro.topology import ASDataset


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory, tiny_dataset):
    path = tmp_path_factory.mktemp("data") / "bundle"
    tiny_dataset.save(path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for command in ("generate", "communities", "tree", "paper"):
            args = parser.parse_args(
                [command] + ([] if command == "paper" else ["x"])
            )
            assert args.command == command


class TestGenerate:
    def test_generates_and_saves(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["generate", str(out), "--profile", "tiny", "--seed", "5"]) == 0
        assert (out / "topology.edges").exists()
        loaded = ASDataset.load(out)
        assert loaded.n_ases > 100
        assert "wrote" in capsys.readouterr().out


class TestCommunities:
    def test_on_dataset_directory(self, saved_dataset, capsys):
        assert main(["communities", saved_dataset, "--max-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "maximal cliques:" in out
        assert "k=3:" in out

    def test_members_flag(self, saved_dataset, capsys):
        args = ["communities", saved_dataset, "--min-k", "4", "--max-k", "4", "--members"]
        assert main(args) == 0
        assert "k4id0" in capsys.readouterr().out

    def test_on_bare_edgelist(self, tmp_path, capsys):
        g = Graph([(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
        path = tmp_path / "graph.edges"
        write_edgelist(g, path)
        assert main(["communities", str(path)]) == 0
        # Two triangles sharing a single node stay separate at k = 3.
        assert "k=3: 2 communities" in capsys.readouterr().out


class TestTree:
    def test_ascii(self, saved_dataset, capsys):
        assert main(["tree", saved_dataset]) == 0
        out = capsys.readouterr().out
        assert "k2id0" in out

    def test_dot(self, saved_dataset, capsys):
        assert main(["tree", saved_dataset, "--format", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")


class TestPaper:
    def test_paper_on_saved_dataset(self, saved_dataset, capsys):
        assert main(["paper", "--dataset", saved_dataset]) == 0
        out = capsys.readouterr().out
        assert "Table 2.1" in out
        assert "Figure 4.1" in out


class TestStats:
    def test_stats_table(self, saved_dataset, capsys):
        assert main(["stats", saved_dataset]) == 0
        out = capsys.readouterr().out
        assert "power-law alpha" in out
        assert "assortativity" in out


class TestEvolve:
    def test_evolve_tiny(self, capsys):
        assert main(["evolve", "--profile", "tiny", "--seed", "7",
                     "--snapshots", "3", "-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "growth:" in out
        assert "birth:" in out


class TestExport:
    def test_export_and_reload(self, saved_dataset, tmp_path, capsys):
        out_path = tmp_path / "hierarchy.json"
        assert main(["export", saved_dataset, str(out_path), "--max-k", "5"]) == 0
        assert "communities" in capsys.readouterr().out
        from repro.core import load_hierarchy

        hierarchy = load_hierarchy(out_path)
        assert hierarchy.max_k == 5
        assert hierarchy.total_communities > 0


class TestGraphmlCommand:
    def test_export(self, saved_dataset, tmp_path, capsys):
        out = tmp_path / "topo.graphml"
        assert main(["graphml", saved_dataset, str(out), "-k", "4"]) == 0
        assert out.exists()
        import xml.etree.ElementTree as ET

        ET.fromstring(out.read_text())

    def test_tree_dot_with_bands(self, saved_dataset, capsys):
        assert main(["tree", saved_dataset, "--format", "dot", "--bands"]) == 0
        out = capsys.readouterr().out
        assert "rank=same" in out
        assert "fillcolor" in out


class TestErrorHandling:
    def test_missing_dataset_is_clean_error(self, capsys):
        assert main(["communities", "/no/such/place"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_is_clean_error(self, tmp_path, capsys):
        assert main(["generate", str(tmp_path / "x"), "--config", "/no/cfg.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_edgelist_is_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.edges"
        bad.write_text("not an edge list\n")
        assert main(["communities", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            lambda data, d: ["communities", data, "--max-k", "3", "--metrics", d],
            lambda data, d: ["communities", data, "--max-k", "3", "--trace", d],
            lambda data, d: ["export", data, d, "--max-k", "3"],
            lambda data, d: ["graphml", data, d],
        ],
        ids=["metrics", "trace", "export-out", "graphml-out"],
    )
    def test_unwritable_output_path_is_clean_error(self, saved_dataset, tmp_path, capsys, argv):
        assert main(argv(saved_dataset, str(tmp_path))) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err

    @pytest.mark.parametrize(
        "argv",
        [
            lambda data, d: ["communities", str(d / "missing")],
            lambda data, d: ["communities", data, "--resume"],
            lambda data, d: ["query", "build", data, str(d / "junk.rqa")],
        ],
        ids=["missing-dataset", "resume-without-checkpoint", "stale-artifact"],
    )
    def test_refused_inputs_write_no_trace_or_manifest(
        self, saved_dataset, tmp_path, capsys, argv
    ):
        (tmp_path / "junk.rqa").write_bytes(b"not an artifact")
        obs = ["--metrics", str(tmp_path / "run.json"), "--trace", str(tmp_path / "run.jsonl")]
        assert main(argv(saved_dataset, tmp_path) + obs) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "run.json").exists()
        assert not (tmp_path / "run.jsonl").exists()

    def test_failed_manifest_write_keeps_the_command_error(
        self, saved_dataset, tmp_path, capsys
    ):
        argv = ["communities", saved_dataset, "--kernel", "set", "--cache"]
        argv += ["--metrics", str(tmp_path)]
        assert main(argv) == 2
        assert "kernel 'set' is the serial reference oracle" in capsys.readouterr().err


class TestCheckpointFlags:
    def test_communities_with_checkpoint_dir(self, saved_dataset, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        args = ["communities", saved_dataset, "--max-k", "4", "--checkpoint-dir", str(ckpt)]
        assert main(args) == 0
        assert (ckpt / "percolate.pickle").exists()
        assert (ckpt / "META.json").exists()

    def test_resume_from_checkpoint(self, saved_dataset, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        base = ["communities", saved_dataset, "--max-k", "4", "--checkpoint-dir", str(ckpt)]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert main(base + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "resumed from checkpoint:" in second
        # Community output identical to the uninterrupted run.
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_resume_requires_checkpoint_dir(self, saved_dataset, capsys):
        assert main(["communities", saved_dataset, "--resume"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_resume_with_mismatched_checkpoint_is_clean_error(
        self, saved_dataset, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        base = ["communities", saved_dataset, "--max-k", "4", "--checkpoint-dir", str(ckpt)]
        assert main(base) == 0
        capsys.readouterr()
        # The directory as an earlier release's default kernel left it:
        # its META names 'bitset', which no longer runs.
        meta = json.loads((ckpt / "META.json").read_text(encoding="utf-8"))
        (ckpt / "META.json").write_text(json.dumps({**meta, "kernel": "bitset"}))
        assert main(base + ["--resume"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "refusing to resume" in err
        assert "kernel='bitset'" in err and "kernel='blocks'" in err

    @pytest.mark.parametrize(
        "flags, reason",
        [
            (["--workers", "2"], "workers=2"),
            (["--shards", "2"], "shards=2"),
            (["--cache"], "a cache"),
            (["--checkpoint-dir", "ckpt"], "a checkpoint"),
        ],
        ids=["workers", "shards", "cache", "checkpoint"],
    )
    def test_set_oracle_refuses_pipeline_options(
        self, saved_dataset, tmp_path, monkeypatch, capsys, flags, reason
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        args = ["communities", saved_dataset, "--max-k", "4", "--kernel", "set", *flags]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: kernel 'set' is the serial reference oracle")
        assert reason in err
        assert "Traceback" not in err

    def test_resume_with_corrupt_meta_is_clean_error(self, saved_dataset, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        base = ["communities", saved_dataset, "--max-k", "4", "--checkpoint-dir", str(ckpt)]
        assert main(base) == 0
        (ckpt / "META.json").write_text("{torn", encoding="utf-8")
        capsys.readouterr()
        assert main(base + ["--resume"]) == 2
        assert "unreadable" in capsys.readouterr().err

    def test_export_with_checkpoint_and_stats_block(self, saved_dataset, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        ckpt = tmp_path / "ckpt"
        args = ["export", saved_dataset, str(out_path), "--max-k", "4",
                "--checkpoint-dir", str(ckpt)]
        assert main(args) == 0
        from repro.api import load_result

        result = load_result(out_path)
        assert result.stats.n_cliques > 0
        assert result.hierarchy.max_k == 4

    def test_runner_policy_flags_parse(self, saved_dataset, capsys):
        args = ["communities", saved_dataset, "--max-k", "4",
                "--batch-timeout", "30", "--max-retries", "1"]
        assert main(args) == 0
        assert "total communities:" in capsys.readouterr().out


class TestAtlasCommand:
    def test_atlas_renders(self, saved_dataset, capsys):
        assert main(["atlas", saved_dataset, "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "IXP atlas" in out
        assert "Country atlas" in out
        assert "AMS-IX" in out


class TestOneGraphHash:
    """Each command that reads a graph fingerprints it once, cache or not:
    one hash is shared by the run's store key, the stale-artifact guard,
    the artifact, the session and the manifest.  ``session apply`` hashes
    twice: the load's integrity check and the applied graph."""

    #: command -> (data, out, cache flags, edge) -> (setup argvs, counted
    #: argv, expected hashes).  The session legs delete ``edge`` in setup
    #: and re-insert it, so every manifest fingerprints the dataset graph.
    ARGV = {
        "communities": lambda data, out, cache, edge: (
            [], ["communities", data, *cache], 1
        ),
        "export": lambda data, out, cache, edge: (
            [], ["export", data, str(out / "run.json.out"), *cache], 1
        ),
        "tree": lambda data, out, cache, edge: ([], ["tree", data, *cache], 1),
        "paper": lambda data, out, cache, edge: ([], ["paper", "--dataset", data, *cache], 1),
        "query-build": lambda data, out, cache, edge: (
            [], ["query", "build", data, str(out / "run.rqa"), *cache], 1
        ),
        "query-build-refresh": lambda data, out, cache, edge: (
            [["query", "build", data, str(out / "run.rqa")]],
            ["query", "build", data, str(out / "run.rqa"), *cache],
            1,
        ),
        "session-open": lambda data, out, cache, edge: (
            [], ["session", "open", data, str(out / "session"), *cache], 1
        ),
        "session-apply": lambda data, out, cache, edge: (
            [
                ["session", "open", data, str(out / "session"), *cache],
                ["session", "apply", str(out / "session"), "--delete", edge],
            ],
            ["session", "apply", str(out / "session"), "--insert", edge],
            2,
        ),
    }

    @pytest.mark.parametrize("cache", [False, True], ids=["no-cache", "cache"])
    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_hashes_once(
        self, saved_dataset, tiny_dataset, tmp_path, monkeypatch, capsys, command, cache
    ):
        import sys

        from repro.obs import manifest as manifest_module

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        u, v = next(iter(tiny_dataset.graph.edges()))
        setups, argv, expected = self.ARGV[command](
            saved_dataset, tmp_path, ["--cache"] if cache else [], f"{u},{v}"
        )
        for setup in setups:
            assert main(setup) == 0
        original = manifest_module.graph_fingerprint
        calls = []

        def counting(graph):
            calls.append(graph)
            return original(graph)

        for module in list(sys.modules.values()):
            if getattr(module, "graph_fingerprint", None) is original:
                monkeypatch.setattr(module, "graph_fingerprint", counting)
        trace = tmp_path / "run.jsonl"
        argv += ["--metrics", str(tmp_path / "run.json"), "--trace", str(trace)]
        assert main(argv) == 0
        capsys.readouterr()
        assert len(calls) == expected
        spans = [json.loads(line)["name"] for line in trace.read_text().splitlines()]
        assert spans.count("graph.fingerprint") <= 1
        manifest = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
        assert manifest["fingerprint"] == original(tiny_dataset.graph)
