"""CLI: every subcommand end-to-end through main(argv)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["easy-negatives", "--dataset", "fb15k"])

    def test_parser_lists_all_commands(self):
        parser = build_parser()
        actions = {
            action.dest: action
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
        }
        assert set(actions["command"].choices) == {
            "run",
            "datasets",
            "generate",
            "recommenders",
            "easy-negatives",
            "complexity",
            "analyze",
            "train",
            "evaluate",
            "serve",
            "ingest",
            "lint",
            "shard",
            "runs",
            "cache",
            "trace",
            "bench",
            "top",
        }


def _all_commands() -> list[str]:
    parser = build_parser()
    for action in parser._actions:
        if getattr(action, "choices", None) and action.dest == "command":
            return sorted(action.choices)
    raise AssertionError("no subcommands registered")


class TestHelpSmoke:
    """Every subcommand (and nested subcommand) parses --help, exit code 0."""

    @pytest.mark.parametrize("command", _all_commands())
    def test_command_help(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "path",
        [
            ("runs", "list"),
            ("runs", "show"),
            ("cache", "ls"),
            ("cache", "gc"),
            ("trace", "show"),
            ("trace", "export"),
            ("bench", "trend"),
            ("bench", "gate"),
        ],
    )
    def test_nested_command_help(self, path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*path, "--help"])
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for command in _all_commands():
            assert command in out


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "codex-s-lite" in out and "wikikg2-lite" in out
        assert "|E|" in out

    def test_generate_round_trips(self, tmp_path, capsys):
        assert main(["generate", "--dataset", "codex-s-lite", "--out", str(tmp_path / "kg")]) == 0
        assert (tmp_path / "kg" / "train.tsv").exists()
        assert (tmp_path / "kg" / "types.tsv").exists()
        from repro.kg.io import load_graph_dir

        graph = load_graph_dir(tmp_path / "kg")
        assert graph.num_entities == 400

    def test_recommenders_subset(self, capsys):
        assert main(["recommenders", "--dataset", "codex-s-lite", "--recommenders", "pt", "l-wd"]) == 0
        out = capsys.readouterr().out
        assert "pt" in out and "l-wd" in out
        assert "CR Unseen" in out

    def test_easy_negatives(self, capsys):
        assert main(["easy-negatives", "--dataset", "codex-s-lite"]) == 0
        out = capsys.readouterr().out
        assert "Easy negatives" in out
        assert "Table 10" in out

    def test_complexity(self, capsys):
        assert main(["complexity", "--dataset", "codex-s-lite", "--fraction", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Sampling reduction" in out

    def test_analyze(self, capsys):
        assert main(["analyze", "--dataset", "codex-s-lite"]) == 0
        out = capsys.readouterr().out
        assert "Cardinality classes" in out
        assert "Unseen test answers" in out
        assert "Connectivity" in out

    def test_evaluate_small_run(self, capsys, tmp_path):
        checkpoint = tmp_path / "model.npz"
        code = main(
            [
                "evaluate",
                "--dataset",
                "codex-s-lite",
                "--model",
                "distmult",
                "--epochs",
                "1",
                "--dim",
                "8",
                "--fraction",
                "0.1",
                "--save-model",
                str(checkpoint),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "full filtered ranking" in out
        assert "random @ 10%" in out
        assert "MRR error" in out
        from repro.models import load_model

        assert load_model(checkpoint).name == "distmult"

    def test_train_writes_checkpoint(self, capsys, tmp_path):
        checkpoint = tmp_path / "trained.npz"
        code = main(
            [
                "train",
                "--dataset",
                "codex-s-lite",
                "--model",
                "transe",
                "--epochs",
                "1",
                "--dim",
                "8",
                "--dtype",
                "float32",
                "--out",
                str(checkpoint),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "triples/s" in out
        from repro.models import load_model

        loaded = load_model(checkpoint)
        assert loaded.name == "transe"
        assert loaded.dtype == "float32"

    def test_train_rejects_removed_no_fused_flag(self, capsys):
        """The training path follows the model; there is no --no-fused knob."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["train", "--no-fused", "--out", "m.npz"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --no-fused" in capsys.readouterr().err

    def test_evaluate_save_alias_still_works(self, tmp_path):
        """--save (the pre-serve spelling) remains an alias of --save-model."""
        args = build_parser().parse_args(
            ["evaluate", "--save", str(tmp_path / "m.npz")]
        )
        assert args.save_model == str(tmp_path / "m.npz")

    def test_serve_dry_run_with_saved_checkpoint(self, capsys, tmp_path):
        """evaluate --save-model -> serve --model-path, no Python in between."""
        checkpoint = tmp_path / "dm.npz"
        assert (
            main(
                [
                    "evaluate",
                    "--dataset", "codex-s-lite",
                    "--model", "distmult",
                    "--epochs", "1",
                    "--dim", "8",
                    "--save-model", str(checkpoint),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "serve",
                "--dataset", "codex-s-lite",
                "--model-path", f"prod={checkpoint}",
                "--store", str(tmp_path / "store"),
                "--dry-run",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Serving codex-s-lite" in out
        assert "prod" in out and "distmult" in out
        assert "Dry run" in out

    def test_serve_model_path_with_equals_in_directory(self, capsys, tmp_path):
        """A bare path containing '=' in a directory name is one path."""
        from repro.datasets import load
        from repro.models import build_model, save_model

        weird_dir = tmp_path / "run=3"
        weird_dir.mkdir()
        graph = load("codex-s-lite").graph
        save_model(
            build_model("distmult", graph.num_entities, graph.num_relations, dim=8),
            weird_dir / "dm.npz",
        )
        code = main(
            [
                "serve",
                "--dataset", "codex-s-lite",
                "--model-path", str(weird_dir / "dm.npz"),
                "--store", str(tmp_path / "store"),
                "--dry-run",
            ]
        )
        assert code == 0
        assert "dm" in capsys.readouterr().out

    def test_serve_model_path_relative_with_equals(self, capsys, tmp_path, monkeypatch):
        """`run=3/dm.npz` relative to cwd is one bare path too."""
        from repro.datasets import load
        from repro.models import build_model, save_model

        (tmp_path / "run=3").mkdir()
        graph = load("codex-s-lite").graph
        save_model(
            build_model("distmult", graph.num_entities, graph.num_relations, dim=8),
            tmp_path / "run=3" / "dm.npz",
        )
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "serve",
                "--dataset", "codex-s-lite",
                "--model-path", "run=3/dm.npz",
                "--store", str(tmp_path / "store"),
                "--dry-run",
            ]
        )
        assert code == 0
        assert "dm" in capsys.readouterr().out

    def test_serve_dry_run_trains_ad_hoc_without_checkpoints(self, capsys, tmp_path):
        code = main(
            [
                "serve",
                "--dataset", "codex-s-lite",
                "--model", "distmult",
                "--epochs", "1",
                "--dim", "8",
                "--store", str(tmp_path / "store"),
                "--dry-run",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ad-hoc" in out
        assert "Serving codex-s-lite" in out
        # The ad-hoc model was persisted: a second serve discovers it.
        assert (tmp_path / "store" / "serve" / "distmult.npz").exists()


class TestRunCommand:
    """The declarative front door: `repro run <spec.json>`."""

    @staticmethod
    def _write_spec(path, payload):
        import json

        path.write_text(json.dumps(payload))
        return str(path)

    _TINY = {
        "task": "evaluate",
        "dataset": {"name": "codex-s-lite"},
        "model": {"name": "distmult", "dim": 8},
        "training": {"epochs": 1},
    }

    def test_dry_run_prints_resolved_spec(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path / "spec.json", self._TINY)
        assert main(["run", spec, "--dry-run"]) == 0
        out = capsys.readouterr().out
        import json

        resolved = json.loads(out[: out.rindex("}") + 1])
        # Every section is fully materialised with defaults.
        assert resolved["evaluation"]["recommender"] == "l-wd"
        assert resolved["training"]["lr"] == 0.05
        assert resolved["model"]["dim"] == 8
        assert "Spec key:" in out
        assert "Dry run" in out

    def test_set_overrides_resolve_before_validation(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path / "spec.json", self._TINY)
        code = main(
            ["run", spec, "--dry-run", "--set", "model.dim=16",
             "--set", "evaluation.strategy=random"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert '"dim": 16' in out
        assert '"strategy": "random"' in out

    def test_unknown_key_fails_with_suggestion(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path / "spec.json", self._TINY)
        assert main(["run", spec, "--set", "training.lrr=0.1"]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'lr'" in err

    def test_missing_spec_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_run_executes_and_journals(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path / "spec.json", self._TINY)
        store = str(tmp_path / "store")
        assert main(["run", spec, "--store", store]) == 0
        out = capsys.readouterr().out
        assert "full filtered ranking" in out
        assert "Journaled run" in out
        # The journal record carries the originating spec; `runs show`
        # prints it.
        from repro.store import ExperimentStore

        record = ExperimentStore(store).journal.records()[-1]
        assert record.kind == "cli:run"
        assert record.spec is not None
        capsys.readouterr()
        assert main(["runs", "show", record.run_id, "--store", store]) == 0
        detail = capsys.readouterr().out
        assert '"spec"' in detail and '"distmult"' in detail

    def test_train_task_writes_checkpoint(self, tmp_path, capsys):
        payload = dict(self._TINY, task="train", checkpoint=str(tmp_path / "m.npz"))
        spec = self._write_spec(tmp_path / "spec.json", payload)
        assert main(["run", spec]) == 0
        assert "triples/s" in capsys.readouterr().out
        from repro.models import load_model

        assert load_model(tmp_path / "m.npz").name == "distmult"

    def test_sweep_expands_and_summarises(self, tmp_path, capsys):
        payload = dict(self._TINY)
        payload["sweep"] = {"grid": {"model.dim": [4, 8]}}
        spec = self._write_spec(tmp_path / "spec.json", payload)
        assert main(["run", spec]) == 0
        out = capsys.readouterr().out
        assert "Sweep summary (2 variants)" in out
        assert "dim=4" in out and "dim=8" in out

    def test_set_can_override_the_sweep_section(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path / "spec.json", self._TINY)
        code = main(
            ["run", spec, "--dry-run",
             "--set", 'sweep={"grid": {"model.dim": [4, 8]}}']
        )
        assert code == 0
        assert "Sweep: 2 variants" in capsys.readouterr().out

    def test_serve_shim_preserves_margin_loss(self, tmp_path, monkeypatch):
        """The ad-hoc fallback keeps its historical training objective."""
        import repro.cli as cli

        captured = {}
        monkeypatch.setattr(
            cli,
            "_serve_from_spec",
            lambda spec, store, dry_run: captured.update(spec=spec) or 0,
        )
        assert main(["serve", "--store", str(tmp_path / "s"), "--dry-run"]) == 0
        assert captured["spec"].training.loss == "margin"

    def test_sweep_dry_run_lists_variants(self, tmp_path, capsys):
        payload = dict(self._TINY)
        payload["sweep"] = {"grid": {"training.lr": [0.01, 0.05, 0.1]}}
        spec = self._write_spec(tmp_path / "spec.json", payload)
        assert main(["run", spec, "--dry-run"]) == 0
        assert "Sweep: 3 variants" in capsys.readouterr().out

    def test_cli_parity_with_evaluate_flags(self, tmp_path, capsys):
        """Acceptance: flags and the equivalent spec produce identical
        metrics and identical store keys."""
        store_flags = tmp_path / "flags"
        store_spec = tmp_path / "spec"
        assert (
            main(
                [
                    "evaluate",
                    "--dataset", "codex-s-lite",
                    "--model", "distmult",
                    "--epochs", "1",
                    "--dim", "8",
                    "--fraction", "0.1",
                    "--store", str(store_flags),
                ]
            )
            == 0
        )
        spec = self._write_spec(
            tmp_path / "spec.json",
            {
                "task": "evaluate",
                "dataset": {"name": "codex-s-lite"},
                "model": {"name": "distmult", "dim": 8},
                "training": {"epochs": 1},
                "evaluation": {"sample_fraction": 0.1},
            },
        )
        assert main(["run", spec, "--store", str(store_spec)]) == 0
        capsys.readouterr()
        from repro.store import ExperimentStore

        flags_store = ExperimentStore(store_flags)
        spec_store = ExperimentStore(store_spec)
        flag_keys = {(e.kind, e.key) for e in flags_store.artifacts.entries()}
        spec_keys = {(e.kind, e.key) for e in spec_store.artifacts.entries()}
        assert flag_keys == spec_keys and flag_keys
        flag_record = flags_store.journal.records()[-1]
        spec_record = spec_store.journal.records()[-1]
        assert flag_record.metrics == spec_record.metrics
        # The shim itself is spec-driven: both journal the same spec.
        assert flag_record.spec == spec_record.spec


class TestStoreCommands:
    def test_runs_list_on_empty_store(self, tmp_path, capsys):
        assert main(["runs", "list", "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "Run journal (0 runs)" in out
        assert "(no rows)" in out

    def test_cache_ls_on_empty_store(self, tmp_path, capsys):
        assert main(["cache", "ls", "--store", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "Artifact cache (0 artifacts" in out

    def test_runs_show_unknown_id_fails(self, tmp_path, capsys):
        assert main(["runs", "show", "deadbeef", "--store", str(tmp_path / "s")]) == 1
        assert "no run matching" in capsys.readouterr().out

    def test_evaluate_with_store_then_inspect(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = [
            "evaluate",
            "--dataset", "codex-s-lite",
            "--model", "distmult",
            "--epochs", "1",
            "--dim", "8",
            "--store", store,
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Journaled run" in out

        assert main(["runs", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "cli:evaluate" in out and "miss" in out

        # The second run reuses the cached preparation and ground truth.
        assert main(args) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--store", store, "--format", "json"]) == 0
        import json

        rows = json.loads(capsys.readouterr().out)
        assert [row["Cache"] for row in rows] == ["miss", "hit"]

        run_id = rows[0]["Run"]
        assert main(["runs", "show", run_id, "--store", store]) == 0
        detail = capsys.readouterr().out
        assert '"kind": "cli:evaluate"' in detail and "codex-s-lite" in detail

        assert main(["cache", "ls", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "pools" in out and "truth" in out

        assert main(["cache", "gc", "--store", store]) == 0
        assert "Removed 0 orphaned files" in capsys.readouterr().out

    def test_runs_list_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "env-store"))
        assert main(["runs", "list"]) == 0
        assert "env-store" in capsys.readouterr().out


class TestIngestShard:
    """The out-of-core commands: ingest, shard, evaluate --backend mmap."""

    def test_ingest_directory(self, tmp_path, capsys):
        (tmp_path / "train.tsv").write_text("a\tr\tb\nb\tr\tc\na\tr\tb\n")
        (tmp_path / "valid.tsv").write_text("a\tr\tc\n")
        assert main(["ingest", str(tmp_path), "--out", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "3 entities" in out and "Compact store written" in out
        assert (tmp_path / "store" / "manifest.json").exists()

    def test_ingest_error_exits_2(self, tmp_path, capsys):
        (tmp_path / "train.tsv").write_text("broken line\n")
        code = main(["ingest", str(tmp_path), "--out", str(tmp_path / "store")])
        assert code == 2
        assert "ingest error" in capsys.readouterr().err

    def test_shard_checkpoint(self, tmp_path, capsys):
        from repro.models import build_model, save_model

        model = build_model("distmult", 10, 2, dim=4, seed=0)
        save_model(model, tmp_path / "ckpt.npz")
        assert main(
            ["shard", str(tmp_path / "ckpt.npz"), "--out", str(tmp_path / "shards")]
        ) == 0
        assert "Sharded distmult" in capsys.readouterr().out
        assert (tmp_path / "shards" / "manifest.json").exists()

    def test_shard_directory_opens_and_scores_like_the_checkpoint(self, tmp_path, capsys):
        import numpy as np

        from repro.kg.graph import SIDES
        from repro.models import build_model, load_model, save_model
        from repro.models.io import open_mmap

        save_model(build_model("complex", 10, 2, dim=4, seed=0), tmp_path / "ckpt.npz")
        out = tmp_path / "shards"
        assert main(["shard", str(tmp_path / "ckpt.npz"), "--out", str(out)]) == 0
        assert f"open_mmap({str(out)!r})" in capsys.readouterr().out
        mapped, loaded = open_mmap(out), load_model(tmp_path / "ckpt.npz")
        anchors = np.arange(10)
        for relation in range(2):
            for side in SIDES:
                assert np.array_equal(
                    mapped.score_candidates_batch(anchors, relation, side),
                    loaded.score_candidates_batch(anchors, relation, side),
                )

    def test_evaluate_backend_mmap(self, tmp_path, capsys):
        assert main(
            [
                "evaluate",
                "--dataset", "codex-s-lite",
                "--model", "distmult",
                "--epochs", "1",
                "--dim", "8",
                "--backend", "mmap",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "Sharded distmult" in out
        assert "full filtered ranking" in out
