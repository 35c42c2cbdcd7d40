"""Tests for the report renderer, registry, and CLI."""

import pytest

from repro.costs import DEFAULT_COSTS, resolve_profile
from repro.experiments import __main__ as cli
from repro.experiments.figures import Figure
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import (
    format_dot_plot,
    format_series_block,
    format_table,
    render,
)
from repro.experiments.runner import Series, SweepPoint, Table
from repro.experiments.__main__ import build_parser, main
from repro.network.topology import resolve_topology_name


def sample_figure():
    a = Series("alpha")
    a.add(SweepPoint(x=1.0, response_time=10.0))
    a.add(SweepPoint(x=0.5, response_time=20.0))
    b = Series("beta")
    b.add(SweepPoint(x=1.0, response_time=30.0))
    b.add(SweepPoint(x=0.5, response_time=40.0))
    return Figure(name="figX", title="Sample", xlabel="ratio",
                  series=[a, b], notes="a note")


def sample_table():
    table = Table("Grid", ["r1", "r2"], ["c1", "c2"])
    table.set("r1", "c1", 1.5)
    table.set("r2", "c2", 99.25)
    return table


class TestRendering:
    def test_series_block_contains_values(self):
        text = format_series_block(sample_figure())
        assert "Sample" in text
        assert "alpha" in text and "beta" in text
        assert "10.00" in text and "40.00" in text
        assert "a note" in text

    def test_dot_plot_has_legend(self):
        text = format_dot_plot(sample_figure())
        assert "o alpha" in text
        assert "x beta" in text

    def test_dot_plot_empty(self):
        empty = Figure(name="e", title="E", xlabel="x", series=[])
        assert "empty" in format_dot_plot(empty)

    def test_table_formatting(self):
        text = format_table(sample_table())
        assert "Grid" in text
        assert "1.50" in text and "99.25" in text
        assert "-" in text  # missing cells rendered as dashes

    def test_render_dispatch(self):
        assert "Sample" in render(sample_figure())
        assert "Grid" in render(sample_table())
        series = Series("s")
        series.add(SweepPoint(x=1.0, response_time=2.0))
        assert "x=" in render(series)
        assert "Sample" in render([sample_figure()])


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        names = set(EXPERIMENTS)
        for figure in ("figure5", "figure6", "figure7", "figure8",
                       "figure9", "figures10-13", "figure14",
                       "figure15", "figure16"):
            assert figure in names
        for table in ("table1", "table2", "table3", "table4"):
            assert table in names

    def test_ablations_present(self):
        assert sum(1 for name in EXPERIMENTS
                   if name.startswith("ablation")) >= 4

    def test_entries_have_descriptions(self):
        for entry in EXPERIMENTS.values():
            assert entry.description
            assert callable(entry.run)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure5" in out and "table3" in out

    def test_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_run_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "## table1" in out
        assert "bucket1" in out

    def test_run_figure_reduced_scale(self, capsys, tmp_path):
        assert main(["figure7", "--scale", "0.02",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "hybrid-overflow" in out
        written = (tmp_path / "figure7.txt").read_text()
        assert "pessimistic" in written

    def test_parser_defaults(self):
        args = build_parser().parse_args(["figure5"])
        assert args.scale == 1.0
        assert args.seed == 1
        assert not args.verify

    def test_bad_repro_jobs_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "abc")
        with pytest.raises(SystemExit) as excinfo:
            main(["figure5"])
        assert excinfo.value.code == 2
        assert "REPRO_JOBS must be an integer, got 'abc'" in \
            capsys.readouterr().err


class TestDefaultProfileResolution:
    """Naming the defaults is the same as leaving them unset: every
    spelling of ``gamma-1989`` / ``token-ring`` resolves to the very
    objects an unset environment does, so the goldens (which pin the
    rendered numbers) cover all of them."""

    @pytest.mark.parametrize("env", [None, "gamma-1989"])
    @pytest.mark.parametrize("designator", [None, "gamma-1989"])
    def test_profile(self, monkeypatch, env, designator):
        if env is None:
            monkeypatch.delenv("REPRO_PROFILE", raising=False)
        else:
            monkeypatch.setenv("REPRO_PROFILE", env)
        assert resolve_profile(designator) is DEFAULT_COSTS

    @pytest.mark.parametrize("env", [None, "token-ring"])
    @pytest.mark.parametrize("designator", [None, "token-ring"])
    def test_topology(self, monkeypatch, env, designator):
        if env is None:
            monkeypatch.delenv("REPRO_TOPOLOGY", raising=False)
        else:
            monkeypatch.setenv("REPRO_TOPOLOGY", env)
        assert resolve_topology_name(designator) == "token-ring"

    def test_cli_flags(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        monkeypatch.delenv("REPRO_TOPOLOGY", raising=False)
        built = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda name, config, out: built.append(config))
        assert main(["figure5", "--hardware-profile", "gamma-1989",
                     "--topology", "token-ring"]) == 0
        (config,) = built
        assert resolve_profile(config.hardware_profile) is DEFAULT_COSTS
        assert resolve_topology_name(config.topology) == "token-ring"
