"""Tests for the CLI and result export."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.errors import ConfigurationError
from repro.simulation.export import read_rows, write_csv, write_json


class TestExport:
    ROWS = [
        {"technique": "simple", "stations": 4, "throughput": 123.4},
        {"technique": "vdr", "stations": 4, "throughput": 88.8, "extra": 1},
    ]

    def test_csv_roundtrip(self, tmp_path):
        path = write_csv(self.ROWS, tmp_path / "out.csv")
        back = read_rows(path)
        assert len(back) == 2
        assert back[0]["technique"] == "simple"
        assert float(back[1]["throughput"]) == pytest.approx(88.8)
        assert back[0]["extra"] == ""  # missing cell left blank

    def test_json_roundtrip(self, tmp_path):
        path = write_json(self.ROWS, tmp_path / "out.json")
        back = read_rows(path)
        assert back == json.loads(path.read_text())
        assert back[0]["throughput"] == pytest.approx(123.4)

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            write_csv([], tmp_path / "x.csv")
        with pytest.raises(ConfigurationError):
            write_json([], tmp_path / "x.json")

    def test_unknown_format_rejected(self, tmp_path):
        target = tmp_path / "x.yaml"
        target.write_text("")
        with pytest.raises(ConfigurationError):
            read_rows(target)


class TestCLI:
    def test_info_prints_table3_quantities(self, capsys):
        assert main(["info", "--scale", "10"]) == 0
        out = capsys.readouterr().out
        assert "degree of declustering" in out
        assert "clusters (R)" in out

    def test_info_full_scale_numbers(self, capsys):
        main(["info", "--scale", "1"])
        out = capsys.readouterr().out
        assert "1000" in out  # D
        assert "200" in out  # R

    def test_run_command_outputs_summary(self, capsys, tmp_path):
        code = main([
            "run", "--scale", "50", "--technique", "simple",
            "--stations", "2", "--mean", "0.2",
            "--output", str(tmp_path / "run.json"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput_per_hour" in out
        rows = read_rows(tmp_path / "run.json")
        assert rows[0]["technique"] == "simple"

    def test_sweep_command(self, capsys):
        code = main([
            "sweep", "--scale", "50", "--technique", "simple",
            "--mean", "0.2", "--values", "1", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("simple") >= 2

    def test_table4_command(self, capsys, tmp_path):
        code = main([
            "table4", "--scale", "50", "--values", "2",
            "--output", str(tmp_path / "t4.csv"),
        ])
        assert code == 0
        rows = read_rows(tmp_path / "t4.csv")
        assert rows[0]["stations"] == "2"

    def test_table4_honours_seed(self, capsys, tmp_path):
        """``--seed`` reaches the grid: another seed gives other rows,
        and the default (42) is the same as no flag."""

        def rows(*seed):
            output = tmp_path / f"t4{'-'.join(seed)}.json"
            assert main([
                "table4", "--scale", "50", *seed, "--no-cache",
                "--output", str(output),
            ]) == 0
            return output.read_bytes()

        default = rows()
        assert rows("--seed", "42") == default
        assert rows("--seed", "2") != default

    @pytest.mark.parametrize("module, argv", [
        ("figure8", ["figure8", "--values", "2"]),
        ("table4", ["table4", "--values", "2"]),
        ("open_workload", ["open-workload", "--utilisation", "0.5"]),
        ("faults", ["faults", "--values", "300"]),
    ])
    def test_every_grid_subcommand_takes_the_seed(
        self, monkeypatch, module, argv
    ):
        """Each experiment grid builds its cells from the ``--seed``
        base (the specs are caught before anything runs)."""
        import importlib

        class Planned(Exception):
            pass

        def capture(specs, **_options):
            raise Planned([spec.config for spec in specs])

        experiment = importlib.import_module(f"repro.experiments.{module}")
        monkeypatch.setattr(experiment, "execute", capture)
        with pytest.raises(Planned) as planned:
            main([*argv, "--scale", "50", "--seed", "7", "--no-cache"])
        [configs] = planned.value.args
        assert configs and {config.seed for config in configs} == {7}

    def test_parser_rejects_unknown_technique(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--technique", "raid"])

    def test_stride_outside_one_to_d_fails_before_running(self, capsys):
        code = main([
            "run", "--technique", "staggered", "--stride", "0",
            "--scale", "10",
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "repro run: stride must be in 1..100, got 0\n"

    def test_uniform_flag(self, capsys):
        code = main([
            "run", "--scale", "50", "--technique", "simple",
            "--stations", "1", "--uniform",
        ])
        assert code == 0


class TestFaultCLI:
    def test_run_with_fault_flags_reports_availability(self, capsys):
        code = main([
            "run", "--scale", "50", "--technique", "staggered",
            "--stations", "2", "--mean", "0.2",
            "--fail-at", "3:100", "--mttr", "40",
            "--redundancy", "mirror", "--rebuild-rate", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults(" in out  # config.describe() banner
        assert "fault_failures" in out
        assert "fault_rebuilds_completed" in out

    def test_fault_flags_reach_the_config(self):
        parser = build_parser()
        args = parser.parse_args([
            "run", "--fail-at", "3:100", "7:250", "--mttf", "500",
            "--mttr", "50", "--redundancy", "parity",
            "--parity-group", "5", "--on-fault", "abort",
        ])
        from repro.cli import _config

        config = _config(args)
        assert config.fail_at == ((3, 100), (7, 250))
        assert config.mttf == 500.0
        assert config.redundancy == "parity"
        assert config.parity_group == 5
        assert config.on_fault == "abort"
        assert config.faults_enabled

    def test_fault_flags_default_to_disabled(self):
        parser = build_parser()
        from repro.cli import _config

        config = _config(parser.parse_args(["run"]))
        assert not config.faults_enabled

    def test_malformed_fail_at_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--fail-at", "3-100"])

    def test_faults_grid_command(self, capsys, tmp_path):
        code = main([
            "faults", "--scale", "50", "--values", "300",
            "--output", str(tmp_path / "faults.csv"),
        ])
        assert code == 0
        rows = read_rows(tmp_path / "faults.csv")
        assert len(rows) == 9  # 3 techniques x 3 redundancy schemes
        assert {row["technique"] for row in rows} == {
            "simple", "staggered", "vdr"
        }
        assert {row["redundancy"] for row in rows} == {
            "none", "mirror", "parity"
        }


class TestSweepStatus:
    def test_reports_entries_and_size_on_disk(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        code = main([
            "run", "--scale", "50", "--technique", "simple",
            "--stations", "1", "--mean", "0.2",
            "--cache-dir", str(cache_dir),
        ])
        assert code == 0
        capsys.readouterr()
        assert main(["sweep-status", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "(1 entries," in out
        assert "on disk)" in out
        assert "B on disk" in out or "KiB on disk" in out

    def test_empty_cache_reports_zero_bytes(self, capsys, tmp_path):
        assert main(["sweep-status", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "0 entries, 0 B on disk" in out

    def _write_journal(self, cache_dir, sweep_id):
        import json

        root = cache_dir / "journals"
        root.mkdir(parents=True, exist_ok=True)
        lines = [
            {"event": "sweep_begin", "ts": 1.0, "sweep_id": sweep_id,
             "total": 1, "jobs": 1},
            {"event": "run_settled", "ts": 2.0, "index": 0,
             "digest": "d0", "status": "ok"},
            {"event": "sweep_end", "ts": 3.0, "status": "complete",
             "settled": 1},
        ]
        path = root / f"{sweep_id}.jsonl"
        path.write_text(
            "".join(json.dumps(line) + "\n" for line in lines)
        )

    def test_sweep_id_unique_prefix_resolves(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        self._write_journal(cache_dir, "aaaa1111")
        self._write_journal(cache_dir, "bbbb2222")
        code = main(["sweep-status", "aaaa1", "--cache-dir", str(cache_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "aaaa1111" in out

    def test_sweep_id_ambiguous_prefix_lists_candidates(
        self, capsys, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        self._write_journal(cache_dir, "aaaa1111")
        self._write_journal(cache_dir, "aaaa2222")
        code = main(["sweep-status", "aaaa", "--cache-dir", str(cache_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert "ambiguous" in err
        assert "aaaa1111" in err and "aaaa2222" in err

    def test_follow_without_id_returns_when_nothing_is_in_flight(
        self, capsys, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        self._write_journal(cache_dir, "aaaa1111")  # complete
        code = main(["sweep-status", "--follow", "--interval", "0.01",
                     "--cache-dir", str(cache_dir)])
        assert code == 0
        assert "no in-flight sweeps" in capsys.readouterr().out

    def test_follow_without_id_renders_in_flight_sweeps_to_the_end(
        self, capsys, tmp_path
    ):
        """Every in-flight sweep is rendered; a finished one is left out
        and a sweep that ends gets its last frame before the return."""
        import threading

        from repro.exec.journal import SweepJournal

        cache_dir = tmp_path / "cache"
        self._write_journal(cache_dir, "aaaa1111")  # complete: not shown
        live = SweepJournal(cache_dir / "journals", "bbbb2222")
        live.begin(["sweep", "--live"], ["d0"])
        timer = threading.Timer(0.3, live.end, args=("complete",))
        timer.start()
        try:
            code = main(["sweep-status", "--follow", "--interval", "0.02",
                         "--cache-dir", str(cache_dir)])
        finally:
            timer.cancel()
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep bbbb2222  [in-flight]" in out
        assert out.rstrip().splitlines()[0].startswith("sweep bbbb2222")
        assert "sweep bbbb2222  [complete]" in out
        assert "aaaa1111" not in out
