"""Tests for the command-line interface (python -m repro)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["figures", "fig3"]).command == "figures"
        assert parser.parse_args(["compare"]).command == "compare"
        assert parser.parse_args(["lifetime"]).command == "lifetime"
        assert parser.parse_args(["lifetime", "--smoke"]).smoke
        assert parser.parse_args(["analyze", "--spares", "5"]).command == "analyze"
        assert parser.parse_args(["layout"]).command == "layout"

    def test_lifetime_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lifetime", "--schemes", "BOGUS"])

    def test_compare_rejects_unknown_scheme(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--schemes", "BOGUS"])


class TestAnalyzeCommand:
    def test_prints_theorem2_values(self, capsys):
        assert main(["analyze", "--spares", "12", "--path-length", "19"]) == 0
        output = capsys.readouterr().out
        assert "2.0139" in output
        assert "per-hop distance" in output


class TestLayoutCommand:
    def test_even_grid_prints_cycle(self, capsys):
        assert main(["layout", "--columns", "4", "--rows", "4"]) == 0
        assert "Hamilton cycle" in capsys.readouterr().out

    def test_odd_grid_prints_dual_path(self, capsys):
        assert main(["layout", "--columns", "5", "--rows", "5"]) == 0
        output = capsys.readouterr().out
        assert "Dual-path" in output
        assert "path one" in output


class TestFiguresCommand:
    def test_analytical_figures_only(self, capsys, tmp_path):
        code = main(["figures", "fig3", "fig5", "--csv-dir", str(tmp_path)])
        assert code == 0
        output = capsys.readouterr().out
        assert "Figure 3" in output and "Figure 5" in output
        assert (tmp_path / "fig3_expected_movements.csv").exists()
        assert (tmp_path / "fig5_distance_estimates.csv").exists()

    def test_unknown_figure_is_an_error(self, capsys):
        assert main(["figures", "fig99"]) == 2
        assert "unknown figures" in capsys.readouterr().err

    def test_structural_figures(self, capsys):
        assert main(["figures", "fig1", "fig4"]) == 0
        output = capsys.readouterr().out
        assert "Hamilton cycle" in output and "Dual-path" in output


class TestCompareCommand:
    def test_small_comparison_runs(self, capsys):
        code = main(
            [
                "compare",
                "--columns", "6",
                "--rows", "6",
                "--deployed", "200",
                "--spare-surplus", "20",
                "--seed", "2",
                "--schemes", "SR", "AR",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "SR" in output and "AR" in output
        assert "holes_left" in output

    def test_energy_schemes_available(self, capsys):
        code = main(
            [
                "compare",
                "--columns", "6",
                "--rows", "6",
                "--deployed", "150",
                "--spare-surplus", "10",
                "--seed", "4",
                "--schemes", "SR-energy", "AR-energy",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "SR-energy" in output and "AR-energy" in output

    def test_shortcut_scheme_available(self, capsys):
        code = main(
            [
                "compare",
                "--columns", "6",
                "--rows", "6",
                "--deployed", "150",
                "--spare-surplus", "10",
                "--seed", "4",
                "--schemes", "SR-shortcut",
            ]
        )
        assert code == 0
        assert "SR-shortcut" in capsys.readouterr().out


class TestLifetimeCommand:
    def test_small_lifetime_run(self, capsys, tmp_path):
        args = [
            "lifetime",
            "--columns", "6",
            "--rows", "6",
            "--nodes", "144",
            "--spare-surplus", "20",
            "--seed", "7",
            "--initial-energy", "30",
            "--idle-cost", "0.5",
            "--max-rounds", "400",
            "--schemes", "SR", "AR",
            "--csv-dir", str(tmp_path),
        ]
        assert main(args) == 0
        output = capsys.readouterr().out
        assert "lifetime comparison" in output
        assert "longest-lived scheme" in output
        assert (tmp_path / "lifetime_comparison.csv").exists()

    def test_invalid_physics_is_a_clean_error(self, capsys):
        assert main(["lifetime", "--idle-cost", "0"]) == 2
        assert "idle_cost_per_round" in capsys.readouterr().err

    def test_serial_and_parallel_output_identical(self, capsys):
        args = [
            "lifetime",
            "--columns", "6",
            "--rows", "6",
            "--nodes", "144",
            "--spare-surplus", "20",
            "--seed", "7",
            "--initial-energy", "30",
            "--idle-cost", "0.5",
            "--max-rounds", "400",
            "--schemes", "SR", "AR",
        ]
        assert main(args) == 0
        serial_output = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        parallel_output = capsys.readouterr().out
        assert serial_output == parallel_output


class TestScenarioCommand:
    def test_scenario_subcommands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["scenario", "list"]).scenario_command == "list"
        assert parser.parse_args(["scenario", "show", "paper-16x16"]).ref == "paper-16x16"
        args = parser.parse_args(["scenario", "run", "corner-holes", "--smoke"])
        assert args.scenario_command == "run" and args.smoke
        sweep = parser.parse_args(["scenario", "sweep", "edge-breach", "--spares", "5", "10"])
        assert sweep.spares == [5, 10]
        assert parser.parse_args(["scenario", "docs"]).scenario_command == "docs"

    def test_list_prints_every_catalog_entry(self, capsys):
        from repro.experiments.catalog import CATALOG_NAMES

        assert main(["scenario", "list"]) == 0
        output = capsys.readouterr().out
        for name in CATALOG_NAMES:
            assert name in output

    def test_show_round_trips_through_the_loader(self, capsys):
        from repro.experiments.catalog import load_catalog_scenario
        from repro.experiments.scenario_files import loads_scenario

        assert main(["scenario", "show", "corner-holes"]) == 0
        output = capsys.readouterr().out
        assert loads_scenario(output) == load_catalog_scenario("corner-holes")

    def test_run_smoke_executes_a_catalog_entry(self, capsys, tmp_path):
        code = main(
            ["scenario", "run", "corner-holes", "--smoke", "--csv-dir", str(tmp_path)]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "scenario smoke OK: corner-holes" in output
        assert "holes_left" in output
        assert (tmp_path / "scenario_corner-holes.csv").exists()

    def test_run_a_scenario_file_path_with_cache(self, capsys, tmp_path):
        from repro.experiments.catalog import load_catalog_scenario
        from repro.experiments.scenario_files import dump_scenario

        path = tmp_path / "mine.toml"
        dump_scenario(load_catalog_scenario("corner-holes").smoke_variant(), path)
        cache_dir = tmp_path / "cache"
        assert main(["scenario", "run", str(path), "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert main(["scenario", "run", str(path), "--cache-dir", str(cache_dir)]) == 0
        assert "[cache: 3 runs reused" in capsys.readouterr().out

    def test_sweep_tabulates_per_spare_value(self, capsys):
        code = main(
            ["scenario", "sweep", "corner-holes", "--spares", "8", "16", "--trials", "1"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "scenario sweep corner-holes" in output
        assert " 8 " in output and "16 " in output

    def test_docs_check_detects_sync_and_drift(self, capsys, tmp_path):
        from repro.experiments.catalog import render_catalog_docs

        good = tmp_path / "SCENARIOS.md"
        good.write_text(render_catalog_docs())
        assert main(["scenario", "docs", "--check", str(good)]) == 0
        good.write_text("stale")
        assert main(["scenario", "docs", "--check", str(good)]) == 1
        assert "out of date" in capsys.readouterr().err

    def test_docs_writes_output_file(self, capsys, tmp_path):
        target = tmp_path / "SCENARIOS.md"
        assert main(["scenario", "docs", "--output", str(target)]) == 0
        assert "# Scenario catalog" in target.read_text()

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        assert main(["scenario", "run", "no-such"]) == 2
        err = capsys.readouterr().err
        assert "unknown catalog scenario" in err and "paper-16x16" in err

    def test_invalid_scenario_file_is_a_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.toml"
        bad.write_text('name = "x"\n[run]\nschemes = ["NOPE"]\n')
        assert main(["scenario", "run", str(bad)]) == 2
        assert "run.schemes" in capsys.readouterr().err

    def test_existing_file_without_suffix_is_a_clean_error(self, capsys, tmp_path):
        ambiguous = tmp_path / "myworkload"
        ambiguous.write_text('name = "x"\n')
        assert main(["scenario", "run", str(ambiguous)]) == 2
        assert "cannot infer scenario format" in capsys.readouterr().err


class TestScenarioFuzzCommand:
    def test_fuzz_and_replay_subcommands_parse(self):
        parser = build_parser()
        fuzz = parser.parse_args(["scenario", "fuzz", "--samples", "5", "--seed", "3"])
        assert fuzz.scenario_command == "fuzz"
        assert fuzz.samples == 5 and fuzz.seed == 3
        timed = parser.parse_args(["scenario", "fuzz", "--minutes", "1.5"])
        assert timed.minutes == 1.5
        replay = parser.parse_args(["scenario", "replay", "some-falsifier"])
        assert replay.scenario_command == "replay" and replay.ref == "some-falsifier"

    def test_fuzz_without_a_budget_is_a_clean_error(self, capsys):
        assert main(["scenario", "fuzz", "--no-archive"]) == 2
        assert "--samples" in capsys.readouterr().err

    def test_fuzz_smoke_session_archives_deterministically(self, capsys, tmp_path):
        # Seed 22 is a known discovery seed: sample 2 falsifies the
        # claim-severity sr-ar-moves oracle (exit stays 0 — only
        # bug-severity falsifiers fail the session).
        args = ["scenario", "fuzz", "--samples", "5", "--seed", "22"]
        first_dir = tmp_path / "first"
        assert main(args + ["--archive-dir", str(first_dir)]) == 0
        output = capsys.readouterr().out
        assert "scenario fuzz OK" in output
        assert "claim oracle sr-ar-moves violated" in output
        second_dir = tmp_path / "second"
        assert main(args + ["--archive-dir", str(second_dir)]) == 0
        capsys.readouterr()
        first_files = sorted(p.name for p in first_dir.iterdir())
        assert first_files == sorted(p.name for p in second_dir.iterdir())
        assert first_files == ["falsified-sr-ar-moves-s22-i2.toml"]
        for name in first_files:
            assert (first_dir / name).read_bytes() == (second_dir / name).read_bytes()

    def test_fuzz_no_archive_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["scenario", "fuzz", "--samples", "2", "--seed", "1", "--no-archive"]) == 0
        assert "scenario fuzz" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_replay_prints_a_per_oracle_verdict_table(self, capsys, tmp_path):
        archive = tmp_path / "archive"
        assert main(
            ["scenario", "fuzz", "--samples", "5", "--seed", "22",
             "--archive-dir", str(archive)]
        ) == 0
        capsys.readouterr()
        falsifier = archive / "falsified-sr-ar-moves-s22-i2.toml"
        assert main(["scenario", "replay", str(falsifier)]) == 0
        output = capsys.readouterr().out
        assert "VIOLATED" in output and "PASS" in output
        for oracle in ("sr-ar-moves", "theorem2-bound", "message-conservation"):
            assert oracle in output
        assert "discovery, not a defect" in output

    def test_replay_resolves_shipped_falsified_names(self, capsys):
        from repro.experiments.catalog import falsified_names

        names = falsified_names()
        assert names, "the falsified catalog ships at least one falsifier"
        assert main(["scenario", "replay", names[0]]) == 0
        assert names[0] in capsys.readouterr().out

    def test_replay_of_a_clean_scenario_reports_all_pass(self, capsys):
        assert main(["scenario", "replay", "corner-holes"]) == 0
        output = capsys.readouterr().out
        assert "VIOLATED" not in output
        assert "replay: all oracles passed" in output

    def test_replay_unknown_ref_is_a_clean_error(self, capsys):
        assert main(["scenario", "replay", "no-such-falsifier"]) == 2
        assert "unknown catalog scenario" in capsys.readouterr().err


SMALL_COMPARE = [
    "compare",
    "--columns", "6",
    "--rows", "6",
    "--deployed", "200",
    "--spare-surplus", "20",
    "--seed", "2",
    "--schemes", "SR", "AR", "SR-shortcut",
]


class TestWorkerPoolLifecycle:
    """A command that opens a ``--jobs`` pool shuts it down before returning."""

    @pytest.fixture
    def opened_pools(self, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        from repro.experiments import orchestration

        pools = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.shut_down = False
                pools.append(self)

            def shutdown(self, *args, **kwargs):
                self.shut_down = True
                super().shutdown(*args, **kwargs)

        monkeypatch.setattr(orchestration, "ProcessPoolExecutor", RecordingPool)
        return pools

    @pytest.mark.parametrize(
        "argv",
        [
            ["figures", "fig6", "--quick", "--jobs", "2"],
            SMALL_COMPARE + ["--jobs", "2"],
            ["scenario", "run", "corner-holes", "--smoke", "--jobs", "2"],
            ["scenario", "sweep", "corner-holes", "--spares", "8", "16",
             "--trials", "1", "--jobs", "2"],
            ["lifetime", "--smoke"],
        ],
        ids=["figures", "compare", "scenario-run", "scenario-sweep", "lifetime-smoke"],
    )
    def test_every_pool_a_command_opens_is_shut_down(self, argv, opened_pools, capsys):
        assert main(argv) == 0
        capsys.readouterr()
        assert opened_pools, "the command never opened a worker pool"
        assert all(pool.shut_down for pool in opened_pools)
