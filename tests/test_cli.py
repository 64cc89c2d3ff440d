"""Tests for the command-line interface."""

import json
import time

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_insert_defaults(self):
        args = build_parser().parse_args(["insert"])
        assert args.circuit == "s9234"
        assert args.solver == "graph"
        assert args.sigma == 0.0
        assert args.cache_size is None

    def test_service_commands_registered(self):
        """The service trio parses alongside the batch commands."""
        parser = build_parser()
        serve = parser.parse_args(["serve", "--queue", "q.jsonl"])
        assert (serve.host, serve.port) == ("127.0.0.1", 8321)
        work = parser.parse_args(["work", "--queue", "q.jsonl"])
        assert (work.lease, work.poll) == (60.0, 2.0)
        assert work.executor == "processes"
        submit = parser.parse_args(
            ["submit", "--queue", "q.jsonl", "--name", "smoke"]
        )
        assert submit.wait is False


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["insert", "--samples", "0"],
            ["insert", "--samples", "-5"],
            ["insert", "--eval-samples", "0"],
            ["insert", "--jobs", "0"],
            ["insert", "--jobs", "-2"],
            ["insert", "--cache-size", "0"],
            ["characterize", "--samples", "-1"],
            ["bench", "run", "--jobs", "0"],
            ["bench", "run", "--repeat", "0"],
        ],
    )
    def test_non_positive_counts_rejected(self, argv, capsys):
        """Values < 1 exit with a clear argparse message, not a traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "must be >= 1" in err

    def test_non_integer_count_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["insert", "--samples", "lots"])
        assert excinfo.value.code == 2
        assert "expected an integer" in capsys.readouterr().err

    def test_cache_size_accepted(self):
        args = build_parser().parse_args(["insert", "--cache-size", "128"])
        assert args.cache_size == 128

    @pytest.mark.parametrize("command", ["insert", "characterize"])
    def test_seed_zero_accepted(self, command):
        assert build_parser().parse_args([command, "--seed", "0"]).seed == 0

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["insert", "--circuit", "nope"], "unknown circuit 'nope'"),
            (["characterize", "--circuit", "nope"], "unknown circuit 'nope'"),
            (["insert", "--scale", "0"], "must be > 0"),
            (["insert", "--scale", "-1"], "must be > 0"),
            (["insert", "--scale", "nan"], "must be finite"),
            (["characterize", "--scale", "0"], "must be > 0"),
            (["characterize", "--scale", "-1"], "must be > 0"),
            (["characterize", "--scale", "nan"], "must be finite"),
            (["insert", "--period", "0"], "must be > 0"),
            (["insert", "--period", "-3"], "must be > 0"),
            (["insert", "--max-buffers", "0"], "must be >= 1"),
            (["insert", "--max-buffers", "-2"], "must be >= 1"),
            (["insert", "--sigma", "nan"], "must be finite"),
            (["insert", "--sigma", "inf"], "must be finite"),
            (["work", "--queue", "sqlite:unused.sqlite", "--lease", "nan"], "must be finite"),
            (["insert", "--sigma", "-5"], "must be >= 0"),
            (["insert", "--sigma", "-0.5"], "must be >= 0"),
            (["serve", "--queue", "sqlite:unused.sqlite", "--port", "-1"],
             "must be in 0..65535, got -1"),
            (["serve", "--queue", "sqlite:unused.sqlite", "--port", "70000"],
             "must be in 0..65535, got 70000"),
            (["insert", "--seed", "-1"], "must be >= 0, got -1"),
            (["characterize", "--seed", "-1"], "must be >= 0, got -1"),
        ],
    )
    def test_bad_value_exits_2_with_a_message(self, argv, message, capsys):
        """Each bad value exits 2 from argparse, naming the argument."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["bench", "gate", "a.json", "b.json", "--threshold", "nan"], "must be finite"),
            (["bench", "gate", "a.json", "b.json", "--threshold", "0"], "must be > 0"),
            (["bench", "gate", "a.json", "b.json", "--phase-threshold", "nan"], "must be finite"),
            (["bench", "gate", "a.json", "b.json", "--min-seconds", "inf"], "must be finite"),
            (["bench", "gate", "a.json", "b.json", "--min-seconds", "-1"], "must be >= 0"),
            (["campaign", "compare", "a", "b", "--max-yield-drop", "nan"], "must be finite"),
            (["campaign", "compare", "a", "b", "--max-yield-drop", "-1"], "must be >= 0"),
            (["campaign", "compare", "a", "b", "--max-buffer-increase", "-1"], "must be >= 0"),
            (["pool", "gc", "--pool", "p.jsonl", "--max-age-days", "nan"], "must be finite"),
            (["pool", "gc", "--pool", "p.jsonl", "--max-age-days", "-2"], "must be >= 0"),
        ],
    )
    def test_bad_gate_threshold_exits_2_with_a_message(self, argv, message, capsys):
        """A NaN gate threshold compares false both ways and used to pass
        every regression; each bad value now exits 2 from argparse."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: {message}" in err
        assert "Traceback" not in err

    def test_unknown_circuit_lists_the_available_names(self, capsys):
        from repro.circuit.suite import list_suite_circuits

        with pytest.raises(SystemExit):
            main(["insert", "--circuit", "nope"])
        err = capsys.readouterr().err
        for name in list_suite_circuits():
            assert name in err


class TestListCircuits:
    def test_lists_all_eight(self, capsys):
        assert main(["list-circuits"]) == 0
        out = capsys.readouterr().out
        for name in ("s9234", "pci_bridge32", "usb_funct"):
            assert name in out


class TestCharacterize:
    def test_prints_targets(self, capsys):
        code = main(
            ["characterize", "--circuit", "s9234", "--scale", "0.05", "--samples", "200", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mu_T" in out
        assert "yield without buffers" in out


class TestInsert:
    def test_text_output(self, capsys):
        code = main(
            [
                "insert",
                "--circuit",
                "s9234",
                "--scale",
                "0.05",
                "--samples",
                "80",
                "--eval-samples",
                "120",
                "--seed",
                "3",
                "--sigma",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "buffers (Nb)" in out
        assert "yield" in out

    def test_json_output(self, capsys):
        code = main(
            [
                "insert",
                "--circuit",
                "s13207",
                "--scale",
                "0.03",
                "--samples",
                "60",
                "--eval-samples",
                "80",
                "--seed",
                "2",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["circuit"] == "s13207"
        assert "summary" in payload and "buffers" in payload
        assert payload["summary"]["improved_yield"] >= payload["summary"]["original_yield"] - 0.01

    def test_json_output_is_byte_stable(self, capsys):
        """--json output is canonical: keys sorted, indent 2, and two
        runs with the same seed produce identical bytes (modulo the
        runtime_seconds envelope field)."""
        argv = [
            "insert", "--circuit", "s9234", "--scale", "0.05",
            "--samples", "60", "--eval-samples", "80", "--seed", "2",
            "--json",
        ]

        def run():
            assert main(argv) == 0
            return capsys.readouterr().out

        first, second = run(), run()
        payload = json.loads(first)
        # Canonical form: stdout is exactly its own sorted re-serialisation.
        assert first == json.dumps(payload, indent=2, sort_keys=True) + "\n"

        def content(text):
            data = json.loads(text)
            data["summary"].pop("runtime_seconds")
            return json.dumps(data, indent=2, sort_keys=True)

        assert content(first) == content(second)

    def test_json_with_progress_keeps_stdout_pure(self, capsys):
        """--json output must stay machine-readable with --progress on:
        progress lines go to stderr only."""
        code = main(
            [
                "insert",
                "--circuit",
                "s9234",
                "--scale",
                "0.03",
                "--samples",
                "30",
                "--eval-samples",
                "40",
                "--seed",
                "3",
                "--sigma",
                "1",
                "--executor",
                "serial",
                "--json",
                "--progress",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["circuit"] == "s9234"
        assert "[engine]" in captured.err
        assert "[engine]" not in captured.out

    def test_max_buffers_cap(self, capsys):
        code = main(
            [
                "insert",
                "--circuit",
                "s9234",
                "--scale",
                "0.05",
                "--samples",
                "80",
                "--eval-samples",
                "80",
                "--seed",
                "3",
                "--max-buffers",
                "1",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["groups"]) <= 1


class TestBench:
    def _run_quick(self, tmp_path, label, extra=()):
        argv = [
            "bench",
            "run",
            "--suite",
            "quick",
            "--label",
            label,
            "--out-dir",
            str(tmp_path),
            "--warmup",
            "0",
            "--executor",
            "serial",
            "--jobs",
            "1",
            *extra,
        ]
        return main(argv)

    def test_run_writes_schema_valid_artifact(self, tmp_path, capsys):
        from repro.bench import load_artifact
        from repro.engine import PHASE_ORDER

        assert self._run_quick(tmp_path, "base") == 0
        capsys.readouterr()
        artifact = load_artifact(str(tmp_path / "BENCH_base.json"))
        assert artifact.suite == "quick"
        assert artifact.records
        kinds = {record.scenario.kind for record in artifact.records}
        assert kinds == {"flow", "campaign"}
        for record in artifact.records:
            # Campaign rows time a whole runner invocation; canonical
            # engine phases exist only for flow rows.
            if record.scenario.kind == "flow":
                assert set(PHASE_ORDER) <= set(record.phase_seconds)
            else:
                assert record.phase_seconds == {}
            assert record.best_seconds > 0.0

    def test_run_json_with_progress_keeps_stdout_pure(self, tmp_path, capsys):
        code = self._run_quick(tmp_path, "pure", extra=["--json", "--progress"])
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["label"] == "pure"
        assert "[bench]" in captured.err
        for marker in ("[engine]", "[bench]"):
            assert marker not in captured.out
        assert "[engine]" in captured.err

    def test_gate_passes_against_itself_and_fails_on_2x(self, tmp_path, capsys):
        assert self._run_quick(tmp_path, "base") == 0
        base_path = str(tmp_path / "BENCH_base.json")

        data = json.loads((tmp_path / "BENCH_base.json").read_text())
        data["label"] = "slow"
        for entry in data["scenarios"]:
            entry["total_seconds"] = [s * 2.0 for s in entry["total_seconds"]]
            entry["best_seconds"] = min(entry["total_seconds"])
            entry["phase_seconds"] = {
                k: v * 2.0 for k, v in entry["phase_seconds"].items()
            }
        slow_path = str(tmp_path / "BENCH_slow.json")
        (tmp_path / "BENCH_slow.json").write_text(json.dumps(data))

        assert main(["bench", "gate", base_path, base_path]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

        assert main(["bench", "gate", base_path, slow_path, "--threshold", "1.5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "2.00x" in out

    def test_gate_nan_threshold_is_a_usage_error(self, tmp_path, capsys):
        # NaN compares false both ways: the gate used to PASS a 10x slowdown.
        assert self._run_quick(tmp_path, "base") == 0
        base_path = str(tmp_path / "BENCH_base.json")
        data = json.loads((tmp_path / "BENCH_base.json").read_text())
        for entry in data["scenarios"]:
            entry["total_seconds"] = [s * 10.0 for s in entry["total_seconds"]]
            entry["best_seconds"] = min(entry["total_seconds"])
        slow_path = str(tmp_path / "BENCH_slow.json")
        (tmp_path / "BENCH_slow.json").write_text(json.dumps(data))
        assert main(["bench", "gate", base_path, slow_path, "--threshold", "1.5"]) == 1
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "gate", base_path, slow_path, "--threshold", "nan"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "argument --threshold: must be finite" in captured.err

    def test_gate_json_verdict(self, tmp_path, capsys):
        assert self._run_quick(tmp_path, "base") == 0
        capsys.readouterr()
        base_path = str(tmp_path / "BENCH_base.json")
        assert main(["bench", "gate", base_path, base_path, "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["passed"] is True
        assert verdict["comparison"]["scenarios"]

    def test_compare_text_output(self, tmp_path, capsys):
        assert self._run_quick(tmp_path, "base") == 0
        capsys.readouterr()
        base_path = str(tmp_path / "BENCH_base.json")
        assert main(["bench", "compare", base_path, base_path]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out and "1.00x" in out

    def test_gate_reports_artifact_errors_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json")
        code = main(["bench", "gate", str(bad), str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_gate_rejects_incomplete_params_cleanly(self, tmp_path, capsys):
        crafted = tmp_path / "BENCH_crafted.json"
        crafted.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "label": "x",
                    "suite": "x",
                    "scenarios": [{"params": {}, "total_seconds": [0.1]}],
                }
            )
        )
        code = main(["bench", "gate", str(crafted), str(crafted)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_gate_min_seconds_exempts_noise(self, tmp_path, capsys):
        assert self._run_quick(tmp_path, "base") == 0
        base_path = str(tmp_path / "BENCH_base.json")
        data = json.loads((tmp_path / "BENCH_base.json").read_text())
        data["label"] = "slow"
        for entry in data["scenarios"]:
            entry["total_seconds"] = [s * 3.0 for s in entry["total_seconds"]]
            entry["best_seconds"] = min(entry["total_seconds"])
        slow_path = str(tmp_path / "BENCH_slow.json")
        (tmp_path / "BENCH_slow.json").write_text(json.dumps(data))
        capsys.readouterr()
        # Every quick-suite scenario runs in well under 100 s, so a
        # 100 s noise floor must let a 3x "slowdown" through.
        code = main(
            ["bench", "gate", base_path, slow_path, "--threshold", "1.5",
             "--min-seconds", "100"]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_fails_fast_on_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not dir")
        code = main(
            ["bench", "run", "--suite", "quick", "--out-dir", str(blocker),
             "--warmup", "0", "--executor", "serial", "--jobs", "1"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_run_unknown_suite_exits_2_listing_choices(self, capsys):
        """An unknown --suite must exit 2 with the valid names, never a
        bare KeyError traceback."""
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "run", "--suite", "bogus"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        for name in ("quick", "default", "full"):
            assert name in err

    def test_get_suite_unknown_name_is_a_clear_valueerror(self):
        """The programmatic path mirrors the CLI: ValueError listing the
        valid suites, not a KeyError."""
        from repro.bench import SUITE_NAMES, get_suite

        with pytest.raises(ValueError) as excinfo:
            get_suite("bogus")
        message = str(excinfo.value)
        assert "unknown suite" in message
        for name in SUITE_NAMES:
            assert name in message


class TestCampaign:
    def _spec_args(self, tmp_path, extra=()):
        return [
            "campaign",
            *extra,
            "--name",
            "smoke",
            "--store",
            str(tmp_path / "store.jsonl"),
        ]

    def _run(self, tmp_path, extra=()):
        return main(
            self._spec_args(tmp_path, extra=["run"])
            + ["--executor", "serial", *extra]
        )

    def test_run_status_report_round_trip(self, tmp_path, capsys):
        assert self._run(tmp_path, extra=["--max-cells", "2", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_run"] == 2 and summary["n_remaining"] == 2

        assert main(self._spec_args(tmp_path, extra=["status"])) == 0
        out = capsys.readouterr().out
        assert "completed : 2/4 cells" in out and "pending" in out

        # Resume finishes the rest; a second resume is a no-op.
        assert self._run(tmp_path, extra=["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["n_remaining"] == 0
        assert self._run(tmp_path, extra=["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["n_run"] == 0

        assert main(self._spec_args(tmp_path, extra=["status"]) + ["--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["complete"] is True

        report_path = tmp_path / "report.md"
        assert main(
            self._spec_args(tmp_path, extra=["report"])
            + ["--format", "markdown", "--out", str(report_path)]
        ) == 0
        captured = capsys.readouterr()
        assert "# Campaign `smoke`" in captured.out
        assert report_path.read_text() == captured.out

    def test_run_json_with_progress_keeps_stdout_pure(self, tmp_path, capsys):
        code = self._run(tmp_path, extra=["--max-cells", "1", "--json", "--progress"])
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["n_run"] == 1
        assert "[campaign]" in captured.err
        assert "[campaign]" not in captured.out

    def test_spec_file_round_trip(self, tmp_path, capsys):
        from repro.campaign import get_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(get_spec("smoke").as_dict()))
        store = str(tmp_path / "s.jsonl")
        code = main(
            ["campaign", "run", "--spec", str(spec_path), "--store", store,
             "--executor", "serial", "--max-cells", "1"]
        )
        assert code == 0
        assert "executed  : 1" in capsys.readouterr().out

    def test_requires_spec_or_name(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "run"])
        assert excinfo.value.code == 2

    def test_unknown_builtin_name_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "run", "--name", "bogus"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_spec_file_exits_2(self, capsys):
        assert main(["campaign", "status", "--spec", "no-such.json"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("shard", ["0/2", "3/2", "x/2", "2"])
    def test_bad_shard_rejected(self, shard, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "run", "--name", "smoke", "--shard", shard])
        assert excinfo.value.code == 2

    def test_sharded_runs_partition(self, tmp_path, capsys):
        store = str(tmp_path / "s.jsonl")
        for shard in ("1/2", "2/2"):
            code = main(
                ["campaign", "run", "--name", "smoke", "--store", store,
                 "--executor", "serial", "--shard", shard]
            )
            assert code == 0
        capsys.readouterr()
        assert main(["campaign", "status", "--name", "smoke", "--store", store, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["complete"] is True and status["n_cells"] == 4

    def test_run_with_pool_reuses_cells(self, tmp_path, capsys):
        pool = str(tmp_path / "pool.jsonl")
        first = str(tmp_path / "a.jsonl")
        second = str(tmp_path / "b.jsonl")
        args = ["campaign", "run", "--name", "smoke", "--executor", "serial",
                "--pool", pool, "--json"]
        assert main(args + ["--store", first]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_pool_reused"] == 0 and summary["pool"] == pool
        # A second store over the same spec materializes everything from
        # the pool — nothing executes.
        assert main(args + ["--store", second]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_run"] == 0
        assert summary["n_pool_reused"] == summary["n_cells"]


class TestCampaignMergeCompare:
    """CLI-level exit-code contract: 0 pass, 1 gated regression, 2 errors."""

    def _shard_stores(self, tmp_path, capsys):
        paths = []
        for index, shard in enumerate(("1/2", "2/2")):
            store = str(tmp_path / f"shard{index}.jsonl")
            assert main(
                ["campaign", "run", "--name", "smoke", "--store", store,
                 "--executor", "serial", "--shard", shard]
            ) == 0
            paths.append(store)
        capsys.readouterr()
        return paths

    def test_merge_then_report_round_trip(self, tmp_path, capsys):
        shards = self._shard_stores(tmp_path, capsys)
        merged = str(tmp_path / "merged.jsonl")
        assert main(["campaign", "merge", merged, *shards, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_records"] == 4 and summary["n_inputs"] == 2

        # The merged store reports as complete...
        assert main(["campaign", "status", "--name", "smoke", "--store", merged,
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["complete"] is True
        # ...and compares clean against itself (exit 0, with and without --gate).
        assert main(["campaign", "compare", merged, merged]) == 0
        capsys.readouterr()
        assert main(["campaign", "compare", merged, merged, "--gate", "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["passed"] is True

    def test_merge_missing_input_exits_2(self, tmp_path, capsys):
        merged = str(tmp_path / "merged.jsonl")
        assert main(["campaign", "merge", merged, str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_merge_conflicting_inputs_exit_2(self, tmp_path, capsys):
        from repro.campaign import CampaignStore, get_spec, make_record

        cells = get_spec("smoke").cells()
        paths = []
        for index, value in enumerate((0.5, 0.9)):
            store = CampaignStore.open(str(tmp_path / f"c{index}.jsonl"))
            store.append(
                make_record(cells[0], {"improved_yield": value, "n_buffers": 1},
                            runtime_seconds=0.1, completed_unix=1.0)
            )
            paths.append(store.path)
        assert main(["campaign", "merge", str(tmp_path / "m.jsonl"), *paths]) == 2
        assert "conflicting" in capsys.readouterr().err

    def test_compare_gate_regression_exits_1(self, tmp_path, capsys):
        from repro.campaign import CampaignStore, get_spec, make_record

        cells = get_spec("smoke").cells()

        def build(path, improved_yield):
            store = CampaignStore.open(str(tmp_path / path))
            store.append(
                make_record(cells[0], {
                    "n_flip_flops": 10, "n_gates": 50, "target_period": 10.0,
                    "mu_period": 9.5, "sigma_period": 0.2, "n_buffers": 2,
                    "n_physical_buffers": 2, "average_range_steps": 2.0,
                    "original_yield": 0.5, "improved_yield": improved_yield,
                    "yield_improvement": improved_yield - 0.5, "plan": {},
                    "baselines": {},
                }, runtime_seconds=0.1, completed_unix=1.0)
            )
            return store.path

        old = build("old.jsonl", 0.95)
        new = build("new.jsonl", 0.80)
        # Without --gate the diff always exits 0.
        assert main(["campaign", "compare", old, new]) == 0
        capsys.readouterr()
        assert main(["campaign", "compare", old, new, "--gate"]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "regression" in out
        # A generous threshold turns the same diff into a pass.
        assert main(["campaign", "compare", old, new, "--gate",
                     "--max-yield-drop", "20"]) == 0

    def test_compare_missing_store_exits_2(self, tmp_path, capsys):
        assert main(["campaign", "compare", str(tmp_path / "a.jsonl"),
                     str(tmp_path / "b.jsonl")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_compare_corrupt_store_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        a.write_text('{"not": "a record"}\n')
        assert main(["campaign", "compare", str(a), str(a)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_compare_partial_result_payload_exits_2(self, tmp_path, capsys):
        # A structurally valid record whose result payload lacks the
        # report fields is an artifact error (exit 2, "error: ..."), not
        # a KeyError traceback that CI would misread as a gated
        # regression (exit 1).
        from repro.campaign import CampaignStore, get_spec, make_record

        cells = get_spec("smoke").cells()
        store = CampaignStore.open(str(tmp_path / "partial.jsonl"))
        store.append(
            make_record(cells[0], {"improved_yield": 0.9, "n_buffers": 1},
                        runtime_seconds=0.1, completed_unix=1.0)
        )
        assert main(["campaign", "compare", store.path, store.path, "--gate"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "missing result field" in err


class TestStoreUris:
    """--store/--pool URI addressing: drivers, parity, failure exits."""

    def _run(self, store, extra=()):
        return main(["campaign", "run", "--name", "smoke", "--executor", "serial",
                     "--store", store, *extra])

    def test_sqlite_run_report_matches_jsonl_byte_for_byte(self, tmp_path, capsys):
        jsonl_store = f"jsonl:{tmp_path / 's.jsonl'}"
        sqlite_store = f"sqlite:{tmp_path / 's.sqlite'}"
        reports = {}
        for store in (jsonl_store, sqlite_store):
            assert self._run(store) == 0
            capsys.readouterr()
            assert main(["campaign", "report", "--name", "smoke",
                         "--store", store, "--format", "json"]) == 0
            reports[store] = capsys.readouterr().out
        assert reports[jsonl_store] == reports[sqlite_store]

    def test_sqlite_run_survives_interrupt_and_resume(self, tmp_path, capsys):
        store = f"sqlite:{tmp_path / 's.sqlite'}"
        # "Interrupt": stop after 2 of the 4 smoke cells.
        assert self._run(store, ["--max-cells", "2", "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert (first["n_run"], first["n_remaining"]) == (2, 2)
        assert self._run(store, ["--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert (second["n_completed_before"], second["n_remaining"]) == (2, 0)
        assert main(["campaign", "status", "--name", "smoke", "--store", store,
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["complete"] is True

    def test_sqlite_pool_round_trip(self, tmp_path, capsys):
        pool = f"sqlite:{tmp_path / 'pool.sqlite'}"
        assert self._run(f"jsonl:{tmp_path / 'a.jsonl'}", ["--pool", pool]) == 0
        capsys.readouterr()
        assert self._run(f"jsonl:{tmp_path / 'b.jsonl'}",
                         ["--pool", pool, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_run"] == 0
        assert summary["n_pool_reused"] == summary["n_cells"]

    def test_unknown_driver_exits_2(self, tmp_path, capsys):
        assert self._run(f"bogus:{tmp_path / 's.bin'}") == 2
        assert "unknown store driver" in capsys.readouterr().err

    def test_empty_uri_path_exits_2(self, capsys):
        assert self._run("sqlite:") == 2
        assert "empty path" in capsys.readouterr().err

    def test_merge_mixes_drivers(self, tmp_path, capsys):
        for store, shard in ((f"jsonl:{tmp_path / 'a.jsonl'}", "1/2"),
                             (f"sqlite:{tmp_path / 'b.sqlite'}", "2/2")):
            assert self._run(store, ["--shard", shard]) == 0
        capsys.readouterr()
        merged = f"sqlite:{tmp_path / 'm.sqlite'}"
        assert main(["campaign", "merge", merged,
                     f"jsonl:{tmp_path / 'a.jsonl'}",
                     f"sqlite:{tmp_path / 'b.sqlite'}", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["n_records"] == 4


class TestCampaignTrend:
    def _seed_night(self, tmp_path, night):
        store = f"jsonl:{tmp_path / f'night{night}.jsonl'}"
        assert main(["campaign", "run", "--name", "smoke", "--executor", "serial",
                     "--store", store]) == 0
        return store

    def test_trend_ingests_and_reports_series(self, tmp_path, capsys):
        nights = [self._seed_night(tmp_path, n) for n in range(2)]
        capsys.readouterr()
        trend_store = f"sqlite:{tmp_path / 'trend.sqlite'}"
        args = ["campaign", "trend", "--store", trend_store]
        for night in nights:
            args += ["--ingest", night]
        assert main(args + ["--json"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["n_cells"] == 4
        # Deterministic cells: both nights carry identical deterministic
        # content, so the histories collapse per cell (envelope differs
        # only when wall-clock differs, which reruns usually do).
        assert payload["n_points"] >= 4
        assert "ingested" in captured.err

    def test_trend_text_output(self, tmp_path, capsys):
        night = self._seed_night(tmp_path, 0)
        capsys.readouterr()
        assert main(["campaign", "trend", "--store", night]) == 0
        out = capsys.readouterr().out
        assert "cells     : 4" in out and "run(s)" in out

    def test_trend_without_store_exits_2(self, capsys):
        assert main(["campaign", "trend"]) == 2
        assert "needs --store" in capsys.readouterr().err


class TestTrendGolden:
    """The exact bytes of `bench trend` and `campaign trend`.

    The nightly job reads these outputs, so they are pinned literally:
    three nights of two scenarios and of two cells, ingested out of
    order and then re-ingested, with a drifted plan, an unstable yield
    and a zero first runtime.  Temporary paths read as ``TMP``.
    """

    SCENARIO_IDS = (
        "s9234@0.05/sigma0/graph/serialxauto/n20e30s3",
        "s9234@0.05/sigma1/graph/serialxauto/n20e30s3",
    )
    CELL_IDS = ("s9234@0.05/sigma0/graph/n30e60/r0", "s9234@0.05/sigma1/graph/n30e60/r0")

    #: night -> (created_unix, {sigma: (total_seconds, plan_fingerprint)})
    BENCH_NIGHTS = {
        "night1": (100.0, {0.0: ([0.0], "aaa"), 1.0: ([2.0, 2.5], "bbb")}),
        "night2": (200.0, {0.0: ([1.5, 1.25], "aaa"), 1.0: ([2.5], "bbb")}),
        "night3": (300.0, {0.0: ([1.5], "aaa"), 1.0: ([1.0], "ccc")}),
    }
    #: night -> (completed_unix, per cell (improved_yield, n_buffers, runtime))
    CAMPAIGN_NIGHTS = {
        "night1": (1000.0, [(0.95, 3, 0.0), (0.9, 2, 1.0)]),
        "night2": (2000.0, [(0.95, 3, 0.5), (0.85, 2, 1.5)]),
        "night3": (3000.0, [(0.95, 3, 0.75), (0.9, 2, 0.5)]),
    }
    INGEST_ORDER = ("night3", "night1", "night2")

    @staticmethod
    def _run(argv, capsys, tmp_path):
        code = main(argv)
        captured = capsys.readouterr()
        tmp = str(tmp_path)
        return code, captured.out.replace(tmp, "TMP"), captured.err.replace(tmp, "TMP")

    @staticmethod
    def _json(payload):
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def _bench_artifacts(self, tmp_path):
        from repro.bench import BenchArtifact, Scenario, ScenarioRecord, point_record

        paths = {}
        for label, (created, rows) in self.BENCH_NIGHTS.items():
            records = [
                ScenarioRecord(
                    scenario=Scenario(
                        circuit="s9234",
                        scale=0.05,
                        sigma=sigma,
                        executor="serial",
                        n_samples=20,
                        n_eval_samples=30,
                        seed=3,
                    ),
                    total_seconds=seconds,
                    plan_fingerprint=plan,
                )
                for sigma, (seconds, plan) in rows.items()
            ]
            built = BenchArtifact(label=label, suite="quick", records=records, created_unix=created)
            ids = [point_record(built, record)["scenario_id"] for record in built.records]
            assert tuple(ids) == self.SCENARIO_IDS
            paths[label] = built.save(str(tmp_path / f"BENCH_{label}.json"))
        return [paths[label] for label in self.INGEST_ORDER]

    def _campaign_stores(self, tmp_path):
        from repro.campaign.spec import CampaignSpec
        from repro.campaign.store import CampaignStore, make_record

        cells = CampaignSpec(
            name="t",
            seed=5,
            circuits=(("s9234", 0.05),),
            sigmas=(0.0, 1.0),
            budgets=((30, 60),),
        ).cells()
        assert tuple(cell.cell_id for cell in cells) == self.CELL_IDS
        uris = {}
        for night, (completed, rows) in self.CAMPAIGN_NIGHTS.items():
            store = CampaignStore.open(f"jsonl:{tmp_path / f'{night}.jsonl'}")
            for cell, (value, n_buffers, runtime) in zip(cells, rows, strict=True):
                store.append(
                    make_record(
                        cell,
                        {"improved_yield": value, "n_buffers": n_buffers},
                        runtime_seconds=runtime,
                        completed_unix=completed,
                    )
                )
            uris[night] = store.uri
        return [uris[night] for night in self.INGEST_ORDER]

    @pytest.mark.parametrize("driver", ["jsonl", "sqlite"])
    def test_bench_trend_bytes(self, tmp_path, capsys, driver):
        ingest = []
        for path in self._bench_artifacts(tmp_path):
            ingest += ["--ingest", path]
        store = f"{driver}:{tmp_path / 'bench-trend'}"
        uri = f"{driver}:TMP/bench-trend"
        drifted = {
            "n_points": 3,
            "plan_is_stable": False,
            "points": [
                {"best_seconds": 2.0, "created_unix": 100.0, "label": "night1",
                 "plan_fingerprint": "bbb"},
                {"best_seconds": 2.5, "created_unix": 200.0, "label": "night2",
                 "plan_fingerprint": "bbb"},
                {"best_seconds": 1.0, "created_unix": 300.0, "label": "night3",
                 "plan_fingerprint": "ccc"},
            ],
            "scenario_id": self.SCENARIO_IDS[1],
        }
        stable = {
            "n_points": 3,
            "plan_is_stable": True,
            "points": [
                {"best_seconds": 0.0, "created_unix": 100.0, "label": "night1",
                 "plan_fingerprint": "aaa"},
                {"best_seconds": 1.25, "created_unix": 200.0, "label": "night2",
                 "plan_fingerprint": "aaa"},
                {"best_seconds": 1.5, "created_unix": 300.0, "label": "night3",
                 "plan_fingerprint": "aaa"},
            ],
            "scenario_id": self.SCENARIO_IDS[0],
        }
        drifted_line = (
            f"  {self.SCENARIO_IDS[1]}: 3 run(s), best 2.000s -> 1.000s (-50.0%), "
            "plan DRIFTED\n"
        )

        assert self._run(
            ["bench", "trend", "--store", store, *ingest], capsys, tmp_path
        ) == (
            0,
            f"store     : {uri}\n"
            "scenarios : 2 with 6 recorded run(s)\n"
            f"  {self.SCENARIO_IDS[0]}: 3 run(s), best 0.000s -> 1.500s, plan stable\n"
            + drifted_line,
            f"[bench] ingested 6 new point(s) from 3 artifact(s) into {uri}\n",
        )
        assert self._run(
            ["bench", "trend", "--store", store, *ingest, "--json"], capsys, tmp_path
        ) == (
            0,
            self._json(
                {"n_points": 6, "n_scenarios": 2, "scenarios": [stable, drifted], "store": uri}
            ),
            f"[bench] ingested 0 new point(s) from 3 artifact(s) into {uri}\n",
        )
        filtered = ["bench", "trend", "--store", store, "--scenario", self.SCENARIO_IDS[1]]
        assert self._run(filtered, capsys, tmp_path) == (
            0,
            f"store     : {uri}\nscenarios : 1 with 3 recorded run(s)\n" + drifted_line,
            "",
        )
        assert self._run(filtered + ["--json"], capsys, tmp_path) == (
            0,
            self._json({"n_points": 3, "n_scenarios": 1, "scenarios": [drifted], "store": uri}),
            "",
        )

    @pytest.mark.parametrize("driver", ["jsonl", "sqlite"])
    def test_campaign_trend_bytes(self, tmp_path, capsys, driver):
        ingest = []
        for uri in self._campaign_stores(tmp_path):
            ingest += ["--ingest", uri]
        store = f"{driver}:{tmp_path / 'campaign-trend'}"
        uri = f"{driver}:TMP/campaign-trend"
        stable = {
            "cell_id": self.CELL_IDS[0],
            "fingerprint": "add419c44d8eab29",
            "n_points": 3,
            "points": [
                {"completed_unix": 1000.0, "improved_yield": 0.95, "n_buffers": 3,
                 "runtime_seconds": 0.0},
                {"completed_unix": 2000.0, "improved_yield": 0.95, "n_buffers": 3,
                 "runtime_seconds": 0.5},
                {"completed_unix": 3000.0, "improved_yield": 0.95, "n_buffers": 3,
                 "runtime_seconds": 0.75},
            ],
        }
        unstable = {
            "cell_id": self.CELL_IDS[1],
            "fingerprint": "3e91a6f2c2f8031d",
            "n_points": 3,
            "points": [
                {"completed_unix": 1000.0, "improved_yield": 0.9, "n_buffers": 2,
                 "runtime_seconds": 1.0},
                {"completed_unix": 2000.0, "improved_yield": 0.85, "n_buffers": 2,
                 "runtime_seconds": 1.5},
                {"completed_unix": 3000.0, "improved_yield": 0.9, "n_buffers": 2,
                 "runtime_seconds": 0.5},
            ],
        }
        unstable_line = (
            f"  {self.CELL_IDS[1]}: 3 run(s), Y 85.00%..90.00% (UNSTABLE), "
            "runtime 1.00s -> 0.50s (-50.0%)\n"
        )

        assert self._run(
            ["campaign", "trend", "--store", store, *ingest], capsys, tmp_path
        ) == (
            0,
            f"store     : {uri}\n"
            "cells     : 2 with 6 recorded run(s)\n"
            f"  {self.CELL_IDS[0]}: 3 run(s), Y 95.00%, runtime 0.00s -> 0.75s\n"
            + unstable_line,
            f"[campaign] ingested 6 new record(s) from 3 store(s) into {uri}\n",
        )
        assert self._run(
            ["campaign", "trend", "--store", store, *ingest, "--json"], capsys, tmp_path
        ) == (
            0,
            self._json(
                {"cells": [stable, unstable], "n_cells": 2, "n_points": 6, "store": uri}
            ),
            f"[campaign] ingested 0 new record(s) from 3 store(s) into {uri}\n",
        )
        filtered = ["campaign", "trend", "--store", store, "--cell", self.CELL_IDS[1]]
        assert self._run(filtered, capsys, tmp_path) == (
            0,
            f"store     : {uri}\ncells     : 1 with 3 recorded run(s)\n" + unstable_line,
            "",
        )
        assert self._run(filtered + ["--json"], capsys, tmp_path) == (
            0,
            self._json({"cells": [unstable], "n_cells": 1, "n_points": 3, "store": uri}),
            "",
        )

    @pytest.mark.parametrize("driver", ["jsonl", "sqlite"])
    def test_unknown_scenario_exits_2(self, tmp_path, capsys, driver):
        ingest = []
        for path in self._bench_artifacts(tmp_path):
            ingest += ["--ingest", path]
        store = f"{driver}:{tmp_path / 'bench-trend'}"
        uri = f"{driver}:TMP/bench-trend"
        misspelt = self.SCENARIO_IDS[0].replace("s9234", "s9243")
        filtered = ["bench", "trend", "--store", store, "--scenario", misspelt]
        error = f"error: scenario {misspelt!r} is not in trend store {uri}\n"

        assert self._run(filtered + ingest, capsys, tmp_path) == (
            2,
            "",
            f"[bench] ingested 6 new point(s) from 3 artifact(s) into {uri}\n" + error,
        )
        assert self._run(filtered + ["--json"], capsys, tmp_path) == (2, "", error)

    @pytest.mark.parametrize("driver", ["jsonl", "sqlite"])
    def test_unknown_cell_exits_2(self, tmp_path, capsys, driver):
        ingest = []
        for uri in self._campaign_stores(tmp_path):
            ingest += ["--ingest", uri]
        store = f"{driver}:{tmp_path / 'campaign-trend'}"
        uri = f"{driver}:TMP/campaign-trend"
        misspelt = self.CELL_IDS[0].replace("s9234", "s9243")
        filtered = ["campaign", "trend", "--store", store, "--cell", misspelt]
        error = f"error: cell {misspelt!r} is not in campaign store {uri}\n"

        assert self._run(filtered + ingest, capsys, tmp_path) == (
            2,
            "",
            f"[campaign] ingested 6 new record(s) from 3 store(s) into {uri}\n" + error,
        )
        assert self._run(filtered + ["--json"], capsys, tmp_path) == (2, "", error)


class TestPoolGc:
    def _seed_pool(self, tmp_path, ages):
        from repro.campaign import CampaignStore, get_spec, make_record

        cells = get_spec("smoke").cells()
        uri = f"sqlite:{tmp_path / 'pool.sqlite'}"
        store = CampaignStore.open(uri)
        for cell, age_days in zip(cells, ages, strict=False):
            store.append(
                make_record(cell, {"improved_yield": 0.9, "n_buffers": 1},
                            runtime_seconds=0.1,
                            completed_unix=time.time() - age_days * 86_400.0)
            )
        return uri, store

    def test_gc_is_dry_run_by_default(self, tmp_path, capsys):
        uri, store = self._seed_pool(tmp_path, ages=(0.0, 0.0, 40.0, 50.0))
        assert main(["pool", "gc", "--pool", uri, "--max-age-days", "7"]) == 0
        out = capsys.readouterr().out
        assert "would drop" in out and "--apply" in out
        assert len(store.load()) == 4  # untouched

    def test_gc_apply_rewrites_store(self, tmp_path, capsys):
        uri, store = self._seed_pool(tmp_path, ages=(0.0, 0.0, 40.0, 50.0))
        assert main(["pool", "gc", "--pool", uri, "--max-age-days", "7",
                     "--apply", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["applied"] is True and payload["n_dropped"] == 2
        assert len(store.load()) == 2

    def test_gc_keep_newest(self, tmp_path, capsys):
        uri, store = self._seed_pool(tmp_path, ages=(1.0, 2.0, 3.0, 4.0))
        assert main(["pool", "gc", "--pool", uri, "--keep", "1", "--apply"]) == 0
        capsys.readouterr()
        assert len(store.load()) == 1

    def test_gc_defaults_to_canonical_pool_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["pool", "gc"]) == 0
        out = capsys.readouterr().out
        assert "CAMPAIGN_pool.jsonl" in out and "0 total" in out

    def test_gc_bad_uri_exits_2(self, capsys):
        assert main(["pool", "gc", "--pool", "bogus:x"]) == 2
        assert "unknown store driver" in capsys.readouterr().err

    def test_gc_corrupt_store_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "pool.jsonl"
        bad.write_text('{"not": "a record"}\n')
        assert main(["pool", "gc", "--pool", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err


class TestTraceLifecycle:
    """The --trace flag: trace + manifest files, stdout discipline."""

    def _insert(self, extra=()):
        return main(
            ["insert", "--circuit", "s9234", "--scale", "0.05",
             "--samples", "60", "--eval-samples", "80", "--seed", "2", *extra]
        )

    def test_json_stdout_stays_pure_with_trace_and_progress(self, tmp_path, capsys):
        """Tier-1 guard: --json stdout must be exactly the JSON payload
        even with --trace and --progress both enabled."""
        trace = str(tmp_path / "t.jsonl")
        assert self._insert(["--json", "--progress", "--trace", trace]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # fails if any notice leaked
        assert "improved_yield" in payload["summary"]
        assert "[obs] wrote trace" in captured.err
        assert "[engine]" in captured.err
        for marker in ("[obs]", "[engine]"):
            assert marker not in captured.out

    def test_trace_and_manifest_written_and_schema_valid(self, tmp_path, capsys):
        from repro import obs

        trace = str(tmp_path / "t.jsonl")
        assert self._insert(["--trace", trace]) == 0
        capsys.readouterr()
        events = obs.load_trace(trace)  # schema-validates every event
        names = {e["name"] for e in obs.span_events(events)}
        assert {"flow.run", "engine.phase", "engine.chunk"} <= names
        manifest = obs.load_manifest(obs.manifest_path_for(trace))
        assert manifest["trace_path"] == trace
        assert manifest["n_trace_events"] == len(events)
        assert "insert" in manifest["command"]

    def test_trace_changes_no_result_bytes(self, tmp_path, capsys):
        assert self._insert(["--json"]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert self._insert(["--json", "--trace", str(tmp_path / "t.jsonl")]) == 0
        traced = json.loads(capsys.readouterr().out)
        plain["summary"].pop("runtime_seconds")
        traced["summary"].pop("runtime_seconds")
        assert traced == plain

    def test_bare_trace_uses_command_default_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert self._insert(["--trace"]) == 0
        capsys.readouterr()
        assert (tmp_path / "TRACE_insert.jsonl").exists()
        assert (tmp_path / "TRACE_insert.manifest.json").exists()


class TestTraceCommands:
    """repro trace summary|top|export on a recorded trace."""

    @pytest.fixture()
    def trace_path(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        assert main(
            ["insert", "--circuit", "s9234", "--scale", "0.05",
             "--samples", "40", "--eval-samples", "60", "--seed", "2",
             "--trace", path]
        ) == 0
        capsys.readouterr()
        return path

    def test_summary_text_and_json(self, trace_path, capsys):
        assert main(["trace", "summary", trace_path]) == 0
        out = capsys.readouterr().out
        assert "step1_train" in out and "total wall" in out

        assert main(["trace", "summary", trace_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["total_wall_seconds"] > 0.0
        assert any(row["phase"] == "yield_eval" for row in payload["rows"])

    def test_top_filters_and_limits(self, trace_path, capsys):
        assert main(["trace", "top", trace_path, "-n", "3", "--name", "engine.chunk"]) == 0
        out = capsys.readouterr().out
        assert "engine.chunk" in out and "flow.run" not in out

        assert main(["trace", "top", trace_path, "-n", "2", "--json"]) == 0
        spans = json.loads(capsys.readouterr().out)
        assert len(spans) == 2
        assert spans[0]["dur"] >= spans[1]["dur"]

    def test_export_writes_chrome_json(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "chrome.json"
        assert main(["trace", "export", trace_path, "--out", str(out_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[trace] wrote" in captured.err
        chrome = json.loads(out_path.read_text())
        assert chrome["traceEvents"]
        assert all(event["ph"] == "X" for event in chrome["traceEvents"])

        assert main(["trace", "export", trace_path]) == 0
        assert "traceEvents" in json.loads(capsys.readouterr().out)

    def test_missing_trace_file_exits_2(self, tmp_path, capsys):
        assert main(["trace", "summary", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n" + "{}\n")
        assert main(["trace", "summary", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


class TestTracedCampaignAndBench:
    def test_campaign_cells_attributed_and_status_reports_seconds(self, tmp_path, capsys):
        from repro import obs

        store = str(tmp_path / "store.jsonl")
        trace = str(tmp_path / "t.jsonl")
        assert main(
            ["campaign", "run", "--name", "smoke", "--store", store,
             "--executor", "serial", "--max-cells", "2", "--trace", trace]
        ) == 0
        capsys.readouterr()

        events = obs.load_trace(trace)
        cell_spans = [
            event for event in obs.span_events(events)
            if event["name"] == "campaign.cell"
        ]
        assert len(cell_spans) == 2
        for event in cell_spans:
            assert {"cell", "fingerprint", "circuit"} <= set(event["attrs"])
        cells = obs.summarize_trace(events).cell_seconds()
        assert len(cells) == 2  # engine phases carry their cell id

        manifest = obs.load_manifest(obs.manifest_path_for(trace))
        counters = manifest["metrics"]["counters"]
        assert counters["campaign.cells.executed"] == 2
        assert manifest["metrics"]["histograms"]["campaign.cell.seconds"]["count"] == 2.0

        assert main(
            ["campaign", "status", "--name", "smoke", "--store", store, "--json"]
        ) == 0
        status = json.loads(capsys.readouterr().out)
        assert len(status["cell_seconds"]) == 2
        assert all(seconds > 0.0 for seconds in status["cell_seconds"].values())
        assert status["total_recorded_seconds"] == pytest.approx(
            sum(status["cell_seconds"].values())
        )

        assert main(["campaign", "status", "--name", "smoke", "--store", store]) == 0
        assert "recorded  :" in capsys.readouterr().out

    def test_bench_artifact_embeds_obs_snapshot_only_when_traced(self, tmp_path, capsys):
        from repro.bench import load_artifact

        trace = str(tmp_path / "t.jsonl")
        assert main(
            ["bench", "run", "--suite", "quick", "--label", "traced",
             "--out-dir", str(tmp_path), "--warmup", "0",
             "--executor", "serial", "--jobs", "1", "--trace", trace]
        ) == 0
        capsys.readouterr()
        artifact = load_artifact(str(tmp_path / "BENCH_traced.json"))
        assert artifact.obs["trace_path"] == trace
        assert artifact.obs["schema_version"] == 1
        assert "counters" in artifact.obs["metrics"]

        assert main(
            ["bench", "run", "--suite", "quick", "--label", "plain",
             "--out-dir", str(tmp_path), "--warmup", "0",
             "--executor", "serial", "--jobs", "1"]
        ) == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "BENCH_plain.json").read_text())
        assert "obs" not in data  # untraced artifacts stay byte-stable
