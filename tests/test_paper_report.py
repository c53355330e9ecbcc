"""EXPERIMENTS.md generator tests (simulation-free via monkeypatching)."""

from pathlib import Path

import pytest

from repro.experiments import paper_report
from repro.experiments.base import ExperimentResult
from repro.experiments.runner import ExperimentRunner
from repro.experiments.store import ResultStore


def fake_result(experiment_id):
    return ExperimentResult(
        experiment_id=experiment_id,
        title=f"title of {experiment_id}",
        headers=["a", "b"],
        rows=[["x", 1.1]],
        summary={"geomean": 1.1, "best_key": "x", "best_improvement": 0.1},
    )


class TestGeneration:
    def _generate(self, tmp_path, monkeypatch, ids):
        monkeypatch.setattr(
            paper_report,
            "run_experiment",
            lambda experiment_id, runner: fake_result(experiment_id),
        )
        runner = ExperimentRunner(scale=128, multi_requests=10, single_requests=10)
        output = tmp_path / "EXPERIMENTS.md"
        text = paper_report.generate_experiments_md(
            runner, output, experiment_ids=ids
        )
        return output, text

    def test_writes_file(self, tmp_path, monkeypatch):
        output, text = self._generate(tmp_path, monkeypatch, ["fig5"])
        assert output.read_text() == text
        assert "# EXPERIMENTS" in text

    def test_includes_paper_claim_and_measured(self, tmp_path, monkeypatch):
        _, text = self._generate(tmp_path, monkeypatch, ["fig5"])
        assert "paper: MDM vs PoM IPC" in text
        assert "measured:" in text
        assert "+10.0% avg" in text

    def test_shape_annotation(self, tmp_path, monkeypatch):
        _, text = self._generate(tmp_path, monkeypatch, ["fig5"])
        assert "shape holds" in text

    def test_extension_marked(self, tmp_path, monkeypatch):
        _, text = self._generate(tmp_path, monkeypatch, ["ext-rsm-pom"])
        assert "extension beyond the paper" in text

    def test_store_populated(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            paper_report,
            "run_experiment",
            lambda experiment_id, runner: fake_result(experiment_id),
        )
        runner = ExperimentRunner(scale=128, multi_requests=10, single_requests=10)
        store = ResultStore(tmp_path / "store")
        paper_report.generate_experiments_md(
            runner, tmp_path / "E.md", store=store, experiment_ids=["fig5"]
        )
        assert store.ids() == ["fig5"]

    def test_scale_recorded_in_header(self, tmp_path, monkeypatch):
        _, text = self._generate(tmp_path, monkeypatch, ["fig5"])
        assert "scale=1/128" in text


class TestRenderFromStore:
    def test_renders_stored_results(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        store.save(fake_result("fig5"))
        output = tmp_path / "E.md"
        text = paper_report.render_from_store(store, output)
        assert output.exists()
        assert "fig5" in text
        assert "shape holds" in text

    def test_missing_results_marked(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        text = paper_report.render_from_store(store, tmp_path / "E.md")
        assert "(no stored result)" in text


ROOT = Path(__file__).parent.parent


def _headlines(text):
    return [
        line
        for line in text.splitlines()
        if line.startswith("## ") or line.startswith("* measured:")
    ]


class TestCommittedReport:
    def test_experiments_md_matches_stored_results(self, tmp_path):
        # Every verdict in the committed report is what the code computes
        # from results/*.json today (no simulation: rendering only).
        rendered = paper_report.render_from_store(
            ResultStore(ROOT / "results"), tmp_path / "E.md"
        )
        committed = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert _headlines(rendered) == _headlines(committed)


def _verdict(experiment_id, rows):
    check = paper_report.EXPECTATIONS[experiment_id].shape_holds
    return check(ExperimentResult(experiment_id, "t", ["h"], rows))


class TestShapeVerdicts:
    @pytest.mark.parametrize(
        "mcf, omnetpp, holds",
        [(0.99, 1.2, True), (1.01, 1.2, False), (0.99, 0.9, True)],
    )
    def test_fig6_most_up_mcf_down(self, mcf, omnetpp, holds):
        rows = [
            ["lbm", 0.8, 0.9, 1.13],
            ["milc", 0.4, 0.6, 1.39],
            ["soplex", 0.6, 0.7, 1.17],
            ["omnetpp", 0.5, 0.5, omnetpp],
            ["mcf", 0.28, 0.27, mcf],
        ]
        assert _verdict("fig6", rows) is holds

    @pytest.mark.parametrize(
        "half, double, holds",
        [(0.95, 1.05, True), (0.91, 1.09, True), (0.89, 1.0, False),
         (1.0, 1.11, False)],
    )
    def test_fig8_within_ten_percent(self, half, double, holds):
        rows = [["mcf", half, 1.0, double], ["lbm", 0.99, 1.0, 1.01]]
        assert _verdict("fig8", rows) is holds

    @pytest.mark.parametrize(
        "half, default, double, holds",
        [(40.0, 45.0, 50.0, True), (45.0, 45.0, 45.0, True),
         (46.0, 45.0, 50.0, False), (40.0, 45.0, 44.9, False)],
    )
    def test_fig9_hit_rate_non_decreasing_with_stc_size(
        self, half, default, double, holds
    ):
        rows = [["mcf", half, default, double], ["lbm", 93.0, 94.0, 95.0]]
        assert _verdict("fig9", rows) is holds

    def test_fig12_needs_a_geomean_gain(self):
        check = paper_report.EXPECTATIONS["fig12"].shape_holds
        result = ExperimentResult("fig12", "t", ["h"], [])
        result.summary["geomean"] = 1.07
        assert check(result)
        result.summary["geomean"] = 0.989  # the stored fig12 result
        assert not check(result)

    def test_fig16_needs_relief_and_a_lighter_program_paying(self):
        worst, light = ["w09", "mcf", 3.6, 3.5, 3.3], ["w09", "lbm", 2.0, 2.0]
        # Worst relieved, lighter program slower under ProFess: holds.
        assert _verdict("fig16", [worst, light + [2.2]])
        # Everyone faster under ProFess: the paper's trade-off is absent.
        assert not _verdict("fig16", [worst, light + [1.9]])
        # The worst program not relieved.
        assert not _verdict(
            "fig16", [["w09", "mcf", 3.6, 3.5, 3.7], light + [2.2]]
        )
