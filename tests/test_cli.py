"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(argv):
    lines = []
    code = main(argv, out=lines.append)
    return code, "\n".join(str(line) for line in lines)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_parses_machine_flags(self):
        args = build_parser().parse_args(
            ["run", "excel", "--cores", "4", "--no-smt",
             "--gpu", "gtx-680", "--duration", "10", "--iterations", "1"])
        assert args.app == "excel"
        assert args.cores == 4
        assert args.no_smt is True
        assert args.gpu == "gtx-680"

    def test_bad_gpu_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "excel", "--gpu", "voodoo2"])

    def test_serve_parses_service_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--jobs", "2", "--cache", "/tmp/c",
             "--retries", "1", "--deadline-us", "2000000"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 0
        assert args.jobs == 2
        assert args.cache == "/tmp/c"
        assert args.retries == 1
        assert args.deadline_us == 2000000

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8765
        assert args.jobs == 0
        assert args.cache is None


class TestCommands:
    @pytest.mark.parametrize("argv", [
        ["run", "chrome", "--duration", "0"],
        ["run", "chrome", "--duration", "1e-7"],
        ["run", "chrome", "--duration", "nan"],
        ["run", "chrome", "--iterations", "0"],
        ["suite", "--apps", "chrome", "--duration", "-1"],
        ["lint", "--apps", "chrome", "--duration", "0"],
        ["dse", "--duration", "0"],
        ["dse", "--top", "-2"],
        ["dse", "--equivalence", "-3"],
        # argparse keeps the last --apps; the repeat is inside it.
        ["dse", "--apps", "excel", "--apps=excel,excel"],
        # The Table I machine has 12 logical CPUs, 6 without SMT.
        ["run", "excel", "--cores", "64"],
        ["suite", "--cores", "-1"],
        ["suite", "--no-smt", "--cores", "8"],
        ["lint", "--cores", "64"],
        # Blake et al.'s 2010 machine has 16 logical CPUs.
        ["run", "acrobat-9", "--era", "2010", "--cores", "32"],
        # A drain or TTL bound must be a finite number of seconds.
        ["serve", "--drain-s", "nan"],
        ["serve", "--drain-s", "inf"],
        ["serve", "--drain-s", "-1"],
        ["serve", "--job-ttl", "nan"],
        ["serve", "--job-ttl", "inf"],
    ], ids=" ".join)
    def test_values_that_cannot_run_are_rejected(self, argv):
        flag = argv[-2]
        code, text = run_cli(argv)
        assert code == 2
        assert text.startswith("error:") and "\n" not in text
        assert flag in text

    @pytest.mark.parametrize("verb", ["run excel", "suite"])
    def test_salvage_flag_is_gone(self, verb):
        # So are the sweep journal's flags: a re-run over the same
        # --cache continues a killed sweep.
        for flags in (["--salvage"], ["--journal", "PATH"],
                      ["--resume", "PATH"]):
            with pytest.raises(SystemExit) as exit_info:
                main(verb.split() + flags, out=lambda line: None)
            assert exit_info.value.code == 2, flags

    def test_list_shows_all_thirty(self):
        code, text = run_cli(["list"])
        assert code == 0
        assert text.count("\n") >= 30
        assert "handbrake" in text and "phoenixminer" in text

    def test_system_prints_table1(self):
        code, text = run_cli(["system"])
        assert code == 0
        assert "i7-8700K" in text

    def test_run_single_app(self):
        code, text = run_cli(["run", "excel", "--duration", "10",
                              "--iterations", "1"])
        assert code == 0
        assert "TLP" in text
        assert "Microsoft Excel" in text

    def test_run_unknown_app_fails_cleanly(self):
        code, text = run_cli(["run", "minesweeper", "--duration", "5",
                              "--iterations", "1"])
        assert code == 2
        assert "unknown application" in text

    def test_run_with_machine_config(self):
        code, text = run_cli(["run", "vlc", "--duration", "10",
                              "--iterations", "1", "--cores", "4",
                              "--gpu", "gtx-680"])
        assert code == 0
        assert "4 LCPUs" in text
        assert "GTX 680" in text

    def test_suite_subset(self):
        code, text = run_cli(["suite", "--apps", "excel,vlc",
                              "--duration", "10", "--iterations", "1"])
        assert code == 0
        assert "Microsoft Excel" in text
        assert "VLC Media Player" in text
        assert "Overall average TLP" in text

    def test_suite_unknown_app(self):
        code, text = run_cli(["suite", "--apps", "excel,doom",
                              "--duration", "5", "--iterations", "1"])
        assert code == 2
        assert "doom" in text

    def test_manual_driver_flag(self):
        code, text = run_cli(["run", "word", "--duration", "10",
                              "--iterations", "1", "--manual"])
        assert code == 0

    def test_negative_jobs_fails_cleanly(self):
        code, text = run_cli(["run", "excel", "--duration", "5",
                              "--iterations", "1", "--jobs", "-1"])
        assert code == 2
        assert "--jobs" in text

    def test_empty_cache_path_fails_cleanly(self):
        code, text = run_cli(["run", "excel", "--duration", "5",
                              "--iterations", "1", "--cache", ""])
        assert code == 2
        assert "--cache" in text

    def test_cache_path_must_be_a_directory(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        code, text = run_cli(["suite", "--apps", "excel", "--duration", "5",
                              "--iterations", "1", "--cache", str(not_a_dir)])
        assert code == 2
        assert "not a directory" in text

    def test_jobs_and_cache_run(self, tmp_path):
        argv = ["suite", "--apps", "excel", "--duration", "5",
                "--iterations", "1", "--jobs", "2",
                "--cache", str(tmp_path)]
        code, cold = run_cli(argv)
        assert code == 0
        code, warm = run_cli(argv)
        assert code == 0
        assert warm == cold
        assert list(tmp_path.rglob("*.pkl"))


    def test_suite_exports(self, tmp_path):
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        code, text = run_cli(["suite", "--apps", "excel",
                              "--duration", "8", "--iterations", "1",
                              "--json", str(json_path),
                              "--csv", str(csv_path)])
        assert code == 0
        assert json_path.exists() and csv_path.exists()
        from repro.harness.persistence import load_suite

        loaded = load_suite(json_path)
        assert "excel" in loaded.results


    def test_compare_command(self, tmp_path):
        before = tmp_path / "before.json"
        after = tmp_path / "after.json"
        run_cli(["suite", "--apps", "excel", "--duration", "8",
                 "--iterations", "1", "--cores", "4",
                 "--json", str(before)])
        run_cli(["suite", "--apps", "excel", "--duration", "8",
                 "--iterations", "1", "--json", str(after)])
        code, text = run_cli(["compare", str(before), str(after)])
        assert code == 0
        assert "excel" in text
        assert "ΔTLP" in text


    def test_era_2010_run(self):
        code, text = run_cli(["run", "handbrake-09", "--era", "2010",
                              "--duration", "10", "--iterations", "1"])
        assert code == 0
        assert "HandBrake 0.9" in text

    def test_era_2010_run_takes_the_machine_flags(self):
        code, text = run_cli(["run", "acrobat-9", "--era", "2010",
                              "--cores", "4", "--no-smt",
                              "--duration", "0.5", "--iterations", "1"])
        assert code == 0
        assert "4 LCPUs, SMT off, NVIDIA GTX 285" in text

    def test_era_2010_cores_are_checked_against_its_machine(self):
        # 16 exceeds Table I's 12 logical CPUs, not the 2010 machine's.
        code, text = run_cli(["run", "acrobat-9", "--era", "2010",
                              "--cores", "16", "--duration", "0.5",
                              "--iterations", "1"])
        assert code == 0
        assert "16 LCPUs, SMT on" in text

    def test_era_2010_unknown_app(self):
        code, text = run_cli(["run", "handbrake", "--era", "2010",
                              "--duration", "5", "--iterations", "1"])
        assert code == 2


@pytest.fixture
def chrome_crashes_once(monkeypatch):
    """Chrome's first build in this process raises; later ones run."""
    from repro.apps import REGISTRY

    cls = REGISTRY["chrome"]
    build, calls = cls.build, []

    def crash_once(self, rt):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("injected build failure")
        return build(self, rt)

    monkeypatch.setattr(cls, "build", crash_once)


class TestQuarantine:
    """Every verb runs supervised: a run that raises is quarantined as
    ``crash`` (failure table, exit 1), with or without ``--retries``."""

    def test_suite_quarantines_a_raising_run(self, chrome_crashes_once):
        code, text = run_cli(["suite", "--apps", "excel,chrome",
                              "--duration", "0.5", "--iterations", "2"])
        assert code == 1
        assert "Quarantined runs" in text
        assert "1 quarantined: 1 crash" in text
        assert "RuntimeError: injected build failure" in text
        assert "Microsoft Excel" in text

    def test_run_quarantines_a_raising_run(self, chrome_crashes_once):
        code, text = run_cli(["run", "chrome", "--duration", "0.5",
                              "--iterations", "2"])
        assert code == 1
        assert "NOTE: partial result" in text
        assert "1 quarantined: 1 crash" in text


class TestCompareBadInput:
    """A file ``compare`` cannot read is one ``error:`` line, exit 2."""

    @pytest.mark.parametrize("body, message", [
        ('{"x": 1}', "is not a repro suite result file"),
        ('{"format": "repro-suite-v1", "results": {"excel": {}}}',
         "missing field 'app_name'"),
        ("not json", "is not JSON"),
    ], ids=["not-a-suite", "missing-field", "not-json"])
    def test_bad_file_is_an_error(self, tmp_path, body, message):
        path = tmp_path / "suite.json"
        path.write_text(body)
        code, text = run_cli(["compare", str(path), str(path)])
        assert code == 2
        assert text.startswith(f"error: {path}")
        assert message in text

    def test_missing_file_is_an_error(self, tmp_path):
        path = tmp_path / "absent.json"
        code, text = run_cli(["compare", str(path), str(path)])
        assert code == 2
        assert text == f"error: cannot read {path}: No such file or directory"
