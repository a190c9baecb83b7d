"""Unit tests for the experiments package (results, sweeps, figure drivers)."""

import pytest

from repro.experiments.figures import (
    QUICK_SPARE_VALUES,
    figure1_hamilton_layout,
    figure3_expected_movements,
    figure4_dual_path_layout,
    figure5_distance_estimates,
    figure6_processes_and_success,
    figure7_node_movements,
    figure8_total_distance,
    run_section5_experiment,
)
from repro.experiments.plotting import ascii_chart
from repro.experiments.registry import make_controller
from repro.experiments.results import ExperimentResult, average_dicts
from repro.experiments.sweep import run_comparison
from repro.sim.scenario import ScenarioConfig, build_scenario_state


class TestExperimentResult:
    def test_add_row_validates_columns(self):
        result = ExperimentResult(name="t", columns=["a", "b"])
        result.add_row(a=1, b=2)
        with pytest.raises(KeyError):
            result.add_row(a=1, c=3)
        assert len(result) == 1

    def test_column_and_series(self):
        result = ExperimentResult(name="t", columns=["x", "y"])
        result.add_row(x=1, y=10.0)
        result.add_row(x=2, y=None)
        result.add_row(x=3, y=30.0)
        assert result.column("x") == [1, 2, 3]
        assert result.series("x", "y") == [(1.0, 10.0), (3.0, 30.0)]
        with pytest.raises(KeyError):
            result.column("z")

    def test_to_csv(self, tmp_path):
        result = ExperimentResult(name="t", columns=["x", "y"])
        result.add_row(x=1, y=2.5)
        path = result.to_csv(tmp_path / "sub" / "out.csv")
        content = path.read_text().strip().splitlines()
        assert content[0] == "x,y"
        assert content[1] == "1,2.5"

    def test_format_contains_all_columns(self):
        result = ExperimentResult(name="table", columns=["x", "value"], description="demo")
        result.add_row(x=1, value=3.14159)
        text = result.format(float_digits=2)
        assert "table" in text and "demo" in text
        assert "3.14" in text

    def test_format_limits_rows(self):
        result = ExperimentResult(name="t", columns=["x"])
        for i in range(10):
            result.add_row(x=i)
        text = result.format(max_rows=3)
        assert "more rows" in text

    def test_average_dicts(self):
        merged = average_dicts([{"a": 1.0, "s": "SR"}, {"a": 3.0, "s": "SR"}])
        assert merged["a"] == pytest.approx(2.0)
        assert merged["s"] == "SR"
        with pytest.raises(ValueError):
            average_dicts([])
        with pytest.raises(ValueError):
            average_dicts([{"a": 1}, {"b": 2}])


class TestPlotting:
    def test_ascii_chart_renders_all_series(self):
        chart = ascii_chart(
            {"SR": [(0, 1.0), (10, 2.0)], "AR": [(0, 3.0), (10, 1.0)]},
            width=30,
            height=8,
            title="demo chart",
        )
        assert "demo chart" in chart
        assert "SR" in chart and "AR" in chart
        assert "x" in chart.splitlines()[-1] or "legend" in chart.splitlines()[-1]

    def test_ascii_chart_empty(self):
        assert "(no data)" in ascii_chart({}, title="empty")


class TestAnalyticalFigures:
    def test_figure1_layout(self):
        layout = figure1_hamilton_layout(4, 5)
        assert "4x5" in layout
        assert "L = 19" in layout

    def test_figure3_rows_cover_both_grids(self):
        result = figure3_expected_movements(small_spares=[0, 20], large_spares=[0, 200])
        grids = {row["grid"] for row in result.rows}
        assert grids == {"4x5", "16x16"}
        assert len(result) == 4

    def test_figure4_layout_mentions_special_cells(self):
        layout = figure4_dual_path_layout()
        for label in ("A =", "B =", "C =", "D ="):
            assert label in layout

    def test_figure5_uses_given_cell_size(self):
        result = figure5_distance_estimates(cell_size=10.0, small_spares=[0], large_spares=[0])
        by_grid = {row["grid"]: row for row in result.rows}
        assert by_grid["4x5"]["expected_distance"] == pytest.approx(1.08 * 10 * 19)
        assert by_grid["16x16"]["expected_distance"] == pytest.approx(1.08 * 10 * 255)


class TestSweep:
    @pytest.fixture(scope="class")
    def quick_config(self):
        return ScenarioConfig(columns=8, rows=8, deployed_count=400, seed=5)

    @pytest.fixture(scope="class")
    def quick_experiment(self, quick_config):
        return run_section5_experiment(
            spare_values=[10, 60], config=quick_config, trials=1
        )

    def test_make_controller_unknown_scheme(self, quick_config):
        state = build_scenario_state(quick_config.with_spare_surplus(10))
        with pytest.raises(KeyError):
            make_controller("NOPE", state)

    def test_run_comparison_validates_arguments(self, quick_config):
        with pytest.raises(ValueError):
            run_comparison(quick_config, [10], trials=0)
        with pytest.raises(KeyError):
            run_comparison(quick_config, [10], schemes=("SR", "NOPE"))

    def test_comparison_rows_and_columns(self, quick_experiment):
        assert len(quick_experiment) == 2
        for column in ("N", "holes", "SR_moves", "AR_moves", "SR_moves_analytic"):
            assert column in quick_experiment.columns

    def test_sr_beats_ar_on_processes(self, quick_experiment):
        for row in quick_experiment.rows:
            if row["holes"] == 0:
                continue
            assert row["SR_processes"] <= row["AR_processes"]
            assert row["SR_success_rate"] == pytest.approx(1.0)

    def test_figure_views_share_experiment(self, quick_experiment):
        fig6 = figure6_processes_and_success(quick_experiment)
        fig7 = figure7_node_movements(quick_experiment)
        fig8 = figure8_total_distance(quick_experiment)
        assert len(fig6) == len(fig7) == len(fig8) == len(quick_experiment)
        assert fig6.column("N") == fig7.column("N") == fig8.column("N")
        for row in fig6.rows:
            assert 0.0 <= row["AR_success_pct"] <= 100.0
        for row in fig8.rows:
            assert row["SR_distance"] >= 0.0

    def test_trials_are_averaged(self, quick_config):
        result = run_comparison(quick_config, [40], schemes=("SR",), trials=2)
        assert len(result) == 1
        row = result.rows[0]
        assert row["SR_success_rate"] == pytest.approx(1.0)

    def test_quick_spare_values_are_sane(self):
        assert QUICK_SPARE_VALUES == sorted(QUICK_SPARE_VALUES)
        assert all(n >= 0 for n in QUICK_SPARE_VALUES)
