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

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (["run", "fig5"], "--jobs", "0"),
            (["run", "fig5"], "--jobs", "-3"),
            (["run", "fig5"], "--requests", "0"),
            (["run", "fig5"], "--single-requests", "0"),
            (["run", "fig5"], "--single-requests", "-5"),
            (["run", "fig5"], "--validate-every", "-1"),
            (["trace", "zeusmp", "t.npz"], "--scale", "0"),
            (["characterize", "zeusmp"], "--scale", "0"),
        ],
        ids=[
            "0",
            "-3",
            "requests-0",
            "single-requests-0",
            "single-requests--5",
            "validate-every--1",
            "trace-scale-0",
            "characterize-scale-0",
        ],
    )
    def test_rejects_nonpositive_jobs(self, command, flag, value, capsys):
        # Worker, request and trace-scale counts share one positive-count
        # check; the audit interval may be 0 (off) but never negative.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(command + [flag, value])
        assert excinfo.value.code == 2
        bound = ">= 0" if flag == "--validate-every" else ">= 1"
        err = capsys.readouterr().err
        assert f"must be {bound}" in err and err.count("\n") == 1

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

    def test_perf_subcommand_is_gone(self, capsys):
        # perfbench/run.py is the repository's one benchmark harness.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["perf", "--quick"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'perf'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option",
        [["--format", "sarif"], ["--changed"], ["--show-unused-noqa"]],
        ids=["format-sarif", "changed", "show-unused-noqa"],
    )
    def test_removed_lint_options_are_gone(self, option, capsys):
        # SARIF/JSON output, git-diff scoping and noqa tracking had no
        # caller; `profess lint` keeps paths, --select, --ignore,
        # --exclude and --list-rules.
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "src/repro", *option])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and err.count("\n") == 1


class TestMain:
    def test_list_exits_zero(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "table4" in out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "fig99", "--scale", "128"], "fig99"),
            (["run", "fig5", "--scale", "3"], "power of two"),
            (["report", "--output", "{missing}/x.md"], "does not exist"),
            (["golden", "--out", "{missing}/digest.json"], "does not exist"),
            (["trace", "zeusmp", "{missing}/t.npz"], "does not exist"),
            (["trace", "zeusmp", "{tmp}"], "is a directory"),
            (["run", "table1", "--out", "{file}"], "is not a directory"),
            (["report", "--store", "{file}"], "is not a directory"),
        ],
        ids=[
            "unknown-experiment",
            "scale-3",
            "report-output-missing-dir",
            "golden-out-missing-dir",
            "trace-output-missing-dir",
            "trace-output-is-dir",
            "run-out-is-file",
            "report-store-is-file",
        ],
    )
    def test_bad_request_exits_two(self, argv, message, tmp_path, capsys):
        # Bad input is one line on stderr and exit 2, never a traceback;
        # output paths are checked before anything is simulated.
        blocker = tmp_path / "file"
        blocker.write_text("")
        argv = [
            arg.format(missing=tmp_path / "missing", tmp=tmp_path, file=blocker)
            for arg in argv
        ]
        if argv[0] == "run":
            argv += ["--requests", "500", "--single-requests", "500"]
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1
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
        # Second invocation: everything served from the disk cache.
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "simulations executed: 0" in warm

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
        assert set(payload) == {"python", "scenarios"}
        assert all(
            len(digest) == 64 for digest in payload["scenarios"].values()
        )

    def test_check_fails_on_mismatching_blobs(self, tmp_path, capsys):
        (tmp_path / "single_pom.json").write_text("{}\n")
        code = main(["golden", "--check", str(tmp_path)])
        assert code == 1
        assert "GOLDEN MISMATCH" in capsys.readouterr().err


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
