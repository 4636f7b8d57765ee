"""CLI tests."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig5"])
        assert args.experiment == ["fig5"]
        assert args.scale == 64
        assert args.seed == 0
        assert args.jobs == 1
        assert args.cache_dir is None

    def test_run_overrides(self):
        args = build_parser().parse_args(
            ["run", "fig13", "--scale", "128", "--requests", "1000"]
        )
        assert args.scale == 128
        assert args.requests == 1000

    def test_run_accepts_id_list(self):
        args = build_parser().parse_args(["run", "fig5", "fig7", "table1"])
        assert args.experiment == ["fig5", "fig7", "table1"]

    def test_execution_flags(self):
        args = build_parser().parse_args(
            ["run", "fig5", "--jobs", "4", "--cache-dir", "c"]
        )
        assert args.jobs == 4
        assert str(args.cache_dir) == "c"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_rejects_nonpositive_jobs(self, jobs, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["run", "fig5", "--jobs", jobs])
        assert excinfo.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_transport_defaults_to_auto(self):
        for command in (["run", "fig5"], ["report"]):
            assert build_parser().parse_args(command).transport == "auto"

    def test_transport_accepts_known_names(self):
        args = build_parser().parse_args(
            ["run", "fig5", "--transport", "shm"]
        )
        assert args.transport == "shm"

    def test_rejects_unknown_transport(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["run", "fig5", "--transport", "carrier-pigeon"]
            )
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_rejects_cache_dir_that_is_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "notadir"
        blocker.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["run", "fig5", "--cache-dir", str(blocker)]
            )
        assert excinfo.value.code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "table4" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(["run", "fig99"], "'fig99'", id="unknown-experiment"),
            pytest.param(
                ["run", "fig5", "--scale", "0"],
                "profess run: scale must be a power of two >= 1",
                id="scale-0",
            ),
            # The quad-core config builds at this scale; fig5's
            # single-core one does not.
            pytest.param(
                ["run", "fig5", "--scale", "256"],
                "profess run: fewer than two swap-group pairs per region",
                id="scale-256-single-core",
            ),
            pytest.param(
                ["run", "fig13", "--requests", "0"],
                "argument --requests: must be >= 1",
                id="requests-0",
            ),
            pytest.param(
                ["run", "fig5", "--single-requests", "0"],
                "argument --single-requests: must be >= 1",
                id="single-requests-0",
            ),
            pytest.param(
                ["run", "fig5", "--validate-every", "-5"],
                "argument --validate-every: must be >= 0",
                id="validate-every-negative",
            ),
            pytest.param(
                ["report", "--scale", "0"],
                "profess report: scale must be a power of two >= 1",
                id="report-scale-0",
            ),
            pytest.param(
                ["report", "--requests", "0"],
                "argument --requests: must be >= 1",
                id="report-requests-0",
            ),
            pytest.param(
                ["report", "--single-requests", "0"],
                "argument --single-requests: must be >= 1",
                id="report-single-requests-0",
            ),
            # ``OUT`` stands for the output path the test must not see
            # written (here also a trace file that does not exist).
            pytest.param(
                ["trace", "zeusmp", "OUT", "--scale", "0"],
                "argument --scale: must be >= 1",
                id="trace-scale-0",
            ),
            pytest.param(
                ["trace", "zeusmp", "OUT", "--requests", "0"],
                "argument --requests: must be >= 1",
                id="trace-requests-0",
            ),
            pytest.param(
                ["trace", "bogus", "OUT"],
                "profess trace: unknown program 'bogus'; choose from",
                id="trace-unknown-program",
            ),
            pytest.param(
                ["characterize", "OUT"],
                "profess characterize: cannot load trace from",
                id="characterize-missing-file",
            ),
            pytest.param(
                ["characterize", "zeusmp", "--scale", "-4"],
                "argument --scale: must be >= 1",
                id="characterize-scale-negative",
            ),
        ],
    )
    def test_bad_request_exits_two(self, argv, message, tmp_path, capsys):
        # Small sizes first, so a bad value given after them wins;
        # nothing is simulated or written either way.
        command, *rest = argv
        output = tmp_path / "out.md"
        rest = [str(output) if arg == "OUT" else arg for arg in rest]
        sizes = ["--scale", "128", "--requests", "500"]
        if command in ("run", "report"):
            sizes += ["--single-requests", "500"]
        if command == "report":
            sizes += ["--output", str(output)]
        try:
            code = main([command, *sizes, *rest])
        except SystemExit as exit:  # argparse rejects the flag
            code = exit.code
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert message in err.splitlines()[-1]
        assert not output.exists()

    @pytest.mark.parametrize("fail_fast", [False, True])
    def test_abort_names_fail_fast_only_when_given(
        self, fail_fast, monkeypatch, capsys
    ):
        # Every simulation fails: without --fail-fast the wave finishes
        # and the figure raises one SweepFailure naming each of its 18
        # runs once; with it, the first failure aborts the wave.
        from repro.common.errors import SimulationError
        from repro.exec import executor

        def fail(spec):
            raise SimulationError("injected")

        monkeypatch.setattr(executor, "execute_spec", fail)
        argv = ["run", "fig5", "--scale", "128", "--single-requests", "500"]
        if fail_fast:
            argv.append("--fail-fast")
        assert main(argv) == 1
        err = capsys.readouterr().err
        expected = "[fig5 aborted: fail-fast]" if fail_fast else "[fig5 aborted]"
        assert err.splitlines()[0] == expected
        failed = 1 if fail_fast else 18
        assert err.splitlines()[1] == f"{failed} failed run(s):"
        assert "SimulationError" in err

    @pytest.mark.parametrize("fail_fast", [False, True])
    def test_report_abort_names_fail_fast_only_when_given(
        self, fail_fast, monkeypatch, tmp_path, capsys
    ):
        # As above, for the whole report: one line and the failure
        # table instead of a traceback.  (The report file keeps the
        # sections finished before the abort, by design.)
        from repro.common.errors import SimulationError
        from repro.exec import executor

        def fail(spec):
            raise SimulationError("injected")

        monkeypatch.setattr(executor, "execute_spec", fail)
        output = tmp_path / "out.md"
        argv = ["report", "--scale", "128", "--requests", "300",
                "--single-requests", "300", "--output", str(output)]
        if fail_fast:
            argv.append("--fail-fast")
        assert main(argv) == 1
        err = capsys.readouterr().err
        expected = (
            "[report aborted: fail-fast]" if fail_fast else "[report aborted]"
        )
        assert err.splitlines()[0] == expected
        assert "SimulationError" in err
        assert "Traceback" not in err

    def test_unknown_id_in_list_aborts_before_running(self, tmp_path, capsys):
        # table1 is valid and cheap, but the bad trailing id must abort
        # the whole request up front: exit 2, nothing simulated/written.
        code = main(
            ["run", "table1", "fig99", "--scale", "128", "--requests", "500",
             "--single-requests", "500", "--out", str(tmp_path)]
        )
        assert code == 2
        assert not list(tmp_path.iterdir())
        assert "fig99" in capsys.readouterr().err

    def test_verbose_surfaces_cache_counters(self, tmp_path, capsys):
        argv = [
            "run", "fig7", "--scale", "128", "--requests", "500",
            "--single-requests", "500", "--verbose",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "simulations executed:" in cold
        assert "simulations executed: 0" not in cold
        assert "cell memory hits=0; simulations executed:" in cold
        assert "parent peak RSS:" in cold
        # Second invocation: everything served from the disk cache.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "simulations executed: 0" in warm

    def test_rerun_prints_the_journal_summary(
        self, monkeypatch, tmp_path, capsys
    ):
        # A rerun over a cache dir resumes its sweep: the cache serves
        # every completed run, and run and report say what the journal
        # shows.
        from repro.experiments import paper_report

        cache = str(tmp_path / "cache")
        argv = ["run", "fig7", "--cache-dir", cache, "--scale", "128",
                "--single-requests", "300", "--verbose"]
        assert main(argv) == 0
        assert "resume:" not in capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        summary = "resume: journal shows 9 completed, 0 failed, 0 pending"
        assert summary in warm
        assert "simulations executed: 0" in warm
        monkeypatch.setattr(
            paper_report, "generate_experiments_md",
            lambda runner, output, store=None: "",
        )
        argv = ["report", "--cache-dir", cache,
                "--output", str(tmp_path / "out.md")]
        assert main(argv) == 0
        assert summary in capsys.readouterr().out

    def test_report_verbose_prints_counters_and_peak_rss(
        self, monkeypatch, tmp_path, capsys
    ):
        # ``report --verbose`` closes like ``run --verbose``: the cache
        # counter line, then the parent's peak RSS.
        from repro.experiments import paper_report

        monkeypatch.setattr(
            paper_report, "generate_experiments_md",
            lambda runner, output, store=None: "",
        )
        argv = ["report", "--scale", "128", "--requests", "300",
                "--single-requests", "300", "--verbose",
                "--output", str(tmp_path / "out.md")]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2].endswith("simulations executed: 0")
        assert lines[-1].startswith("parent peak RSS: ")

    def test_run_writes_report(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "table1",
                "--scale",
                "128",
                "--requests",
                "500",
                "--single-requests",
                "500",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        report = (tmp_path / "table1.txt").read_text()
        assert "Table 1" in report


class TestReportCommand:
    def test_parse_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.command == "report"
        assert str(args.output) == "EXPERIMENTS.md"
        assert args.store is None

    def test_parse_overrides(self):
        args = build_parser().parse_args(
            ["report", "--scale", "128", "--store", "out", "--output", "E.md"]
        )
        assert args.scale == 128
        assert str(args.store) == "out"
        assert str(args.output) == "E.md"


class TestGoldenCommand:
    def test_parse_defaults(self):
        args = build_parser().parse_args(["golden"])
        assert args.command == "golden"
        assert args.check is None
        assert args.out is None

    def test_check_passes_and_writes_digests(self, tmp_path, capsys):
        import json
        from pathlib import Path

        out = tmp_path / "digests.json"
        golden_dir = Path(__file__).parent / "golden"
        code = main(
            ["golden", "--check", str(golden_dir), "--out", str(out)]
        )
        assert code == 0
        assert "byte-identical" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert set(payload) == {"numpy", "python", "scenarios"}
        assert payload["numpy"] == __import__("numpy").__version__
        assert all(
            len(digest) == 64 for digest in payload["scenarios"].values()
        )

    def test_check_fails_on_mismatching_blobs(self, tmp_path, capsys):
        (tmp_path / "single_pom.json").write_text("{}\n")
        code = main(["golden", "--check", str(tmp_path)])
        assert code == 1
        assert "GOLDEN MISMATCH" in capsys.readouterr().err


class TestPerfSummaryFlag:
    def test_summary_appends_markdown_table(self, tmp_path, capsys):
        summary = tmp_path / "summary.md"
        summary.write_text("# existing\n")
        code = main(
            [
                "perf",
                "--quick",
                "--repeats",
                "1",
                "--out",
                str(tmp_path / "bench.json"),
                "--summary",
                str(summary),
            ]
        )
        assert code == 0
        text = summary.read_text()
        assert text.startswith("# existing\n")
        assert "| single |" in text and "| multi |" in text


class TestCacheCommand:
    def _populate(self, tmp_path):
        cache_dir = tmp_path / "cache"
        quarantine = cache_dir / "quarantine"
        quarantine.mkdir(parents=True)
        (cache_dir / "deadbeef.json").write_text("{}\n")
        (quarantine / "bad.json").write_text("{}\n")
        (quarantine / "bad.reason.txt").write_text("integrity mismatch\n")
        return cache_dir

    def test_reports_counts(self, tmp_path, capsys):
        cache_dir = self._populate(tmp_path)
        assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 entr(ies)" in out
        assert "1 quarantined" in out

    def test_prune_quarantine(self, tmp_path, capsys):
        cache_dir = self._populate(tmp_path)
        code = main(
            ["cache", "--cache-dir", str(cache_dir), "--prune-quarantine"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pruned 1 quarantined" in out
        assert "0 quarantined" in out
        # Entries survive a quarantine-only prune; reason files go too.
        assert (cache_dir / "deadbeef.json").exists()
        assert not list((cache_dir / "quarantine").iterdir())

    def test_clear_and_prune_together(self, tmp_path, capsys):
        cache_dir = self._populate(tmp_path)
        code = main(
            ["cache", "--cache-dir", str(cache_dir), "--clear",
             "--prune-quarantine"]
        )
        assert code == 0
        assert "0 entr(ies), 0 quarantined" in capsys.readouterr().out

    def test_requires_cache_dir(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["cache"])
        assert excinfo.value.code == 2


class TestPerfSweep:
    def test_parse_defaults(self):
        args = build_parser().parse_args(["perf", "--sweep"])
        assert args.sweep
        assert args.sweep_specs == 200
        assert args.jobs == 1
        assert args.transport == "auto"
        assert args.max_rss_ratio == pytest.approx(1.4)
        assert args.out is None

    def test_sweep_runs_and_gates_against_itself(self, tmp_path, capsys):
        out = tmp_path / "BENCH_sweep.json"
        summary = tmp_path / "summary.md"
        code = main(
            ["perf", "--sweep", "--sweep-specs", "6", "--transport", "shm",
             "--out", str(out), "--summary", str(summary)]
        )
        assert code == 0
        import json

        payload = json.loads(out.read_text())
        assert payload["spec_count"] == 6
        assert payload["completed"] == 6
        assert payload["failed"] == 0
        assert payload["requests_per_sec"] > 0
        assert "peak_rss_mb" in payload
        assert "| requests/sec |" in summary.read_text()
        capsys.readouterr()
        # Gate a second run against a baseline recorded per the
        # documented recipe (throughput halved, RSS headroom added) —
        # gating against the raw first measurement is timing-noise
        # flaky when the suite runs on a loaded machine.
        baseline = dict(payload)
        baseline["requests_per_sec"] = payload["requests_per_sec"] / 2
        baseline["peak_rss_mb"] = payload["peak_rss_mb"] * 1.3
        recorded = tmp_path / "baseline.json"
        recorded.write_text(json.dumps(baseline))
        code = main(
            ["perf", "--sweep", "--sweep-specs", "6", "--transport", "shm",
             "--out", str(tmp_path / "b2.json"),
             "--baseline", str(recorded)]
        )
        assert code == 0
        assert "within" in capsys.readouterr().out

    def test_sweep_size_mismatch_fails(self, tmp_path, capsys):
        out = tmp_path / "BENCH_sweep.json"
        assert main(
            ["perf", "--sweep", "--sweep-specs", "4", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        code = main(
            ["perf", "--sweep", "--sweep-specs", "6",
             "--out", str(tmp_path / "b2.json"), "--baseline", str(out)]
        )
        assert code == 1
        assert "sweep size mismatch" in capsys.readouterr().err


class TestTraceCommands:
    def test_trace_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        code = main(
            ["trace", "zeusmp", str(out), "--requests", "500", "--scale", "128"]
        )
        assert code == 0
        assert out.exists()
        assert "500 requests" in capsys.readouterr().out

    def test_characterize_program(self, capsys):
        code = main(
            ["characterize", "zeusmp", "--requests", "500", "--scale", "128"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MPKI" in out
        assert "footprint" in out

    def test_characterize_file(self, tmp_path, capsys):
        out = tmp_path / "t.npz"
        main(["trace", "lbm", str(out), "--requests", "400", "--scale", "128"])
        capsys.readouterr()
        assert main(["characterize", str(out)]) == 0
        assert "write fraction" in capsys.readouterr().out
