"""Tests for machine-readable result export."""

import csv
import io
import json

import pytest

from repro.harness import run_figure
from repro.harness.experiments import SERIES_BASELINE, figure2_spec
from repro.harness.export import (
    figure_to_csv,
    figure_to_dict,
    figure_to_json,
    stats_to_dict,
    write_figure,
)
from repro.harness.runner import run_benchmark
from repro.uarch import starting_config


@pytest.fixture(scope="module")
def small_result():
    spec = figure2_spec()
    small = spec.__class__(
        spec.figure_id, spec.title, spec.series, benchmarks=("go", "vortex")
    )
    return run_figure(small, scale=1000)


class TestStatsExport:
    def test_json_serialisable(self):
        stats = run_benchmark("go", starting_config(), scale=800)
        payload = stats_to_dict(stats)
        text = json.dumps(payload)  # must not raise
        assert "ipc" in payload
        assert json.loads(text)["committed"] == stats.committed


class TestFigureExport:
    def test_dict_structure(self, small_result):
        data = figure_to_dict(small_result)
        assert data["figure"] == "fig2"
        assert data["benchmarks"] == ["go", "vortex"]
        assert SERIES_BASELINE in data["average_ipc"]
        assert SERIES_BASELINE not in data["gap_vs_baseline"]
        assert data["cells"]["go"]["REESE"]["committed"] > 0

    def test_json_roundtrip(self, small_result):
        data = json.loads(figure_to_json(small_result))
        assert data["scale"] == 1000

    def test_csv_grid(self, small_result):
        rows = list(csv.reader(io.StringIO(figure_to_csv(small_result))))
        assert rows[0][0] == "benchmark"
        assert rows[-1][0] == "AVG"
        assert len(rows) == 1 + 2 + 1
        # IPC cells parse as floats.
        float(rows[1][1])

    def test_write_figure(self, small_result, tmp_path):
        written = write_figure(small_result, str(tmp_path))
        assert set(written) == {"json", "csv"}
        assert (tmp_path / "fig2.json").exists()
        assert (tmp_path / "fig2.csv").exists()

    def test_write_rejects_unknown_format(self, small_result, tmp_path):
        with pytest.raises(ValueError):
            write_figure(small_result, str(tmp_path), formats=("xml",))


@pytest.fixture(scope="module")
def site_result():
    from repro.isa import assemble
    from repro.harness.campaign import run_site_campaign

    program = assemble("""
    main:
        li r9, 3
        li r1, 5
        putint r1
        halt
    """, name="tiny")
    return run_site_campaign(program, runs=6, seed=0,
                             use_analysis_cache=False)


class TestAnalysisExport:
    def test_dict_structure(self):
        from repro.isa import assemble
        from repro.analysis import analyze_program
        from repro.harness.export import analysis_to_dict

        program = assemble("""
        main:
            li r1, 2
            putint r1
            halt
        """, name="tiny")
        data = analysis_to_dict(analyze_program(program, use_cache=False))
        assert data["program_name"] == "tiny"
        assert data["clean"] is True
        assert data["class_counts"]["live"] == 1
        json.dumps(data)  # JSON-safe


class TestSiteCampaignExport:
    def test_dict_structure(self, site_result):
        from repro.harness.export import campaign_to_dict

        data = campaign_to_dict(site_result)
        assert data["program"] == "tiny"
        assert data["runs"] == 6
        assert set(data["by_class"]) == {"dead", "live", "control"}
        assert data["mismatches"] == []
        json.dumps(data)

    def test_csv_grid(self, site_result):
        from repro.harness.export import campaign_to_csv

        rows = list(csv.reader(io.StringIO(
            campaign_to_csv(site_result)
        )))
        assert rows[0][:2] == ["class", "pool"]
        assert [row[0] for row in rows[1:]] == ["dead", "live", "control"]
        assert rows[0][-1] == "visible"

    def test_write_site_campaign(self, site_result, tmp_path):
        from repro.harness.export import write_campaign

        written = write_campaign(site_result, str(tmp_path))
        assert set(written) == {"json", "csv"}
        assert (tmp_path / "sites_tiny.json").exists()
        assert (tmp_path / "sites_tiny.csv").exists()

    def test_write_rejects_unknown_format(self, site_result, tmp_path):
        from repro.harness.export import write_campaign

        with pytest.raises(ValueError):
            write_campaign(site_result, str(tmp_path),
                                formats=("xml",))
