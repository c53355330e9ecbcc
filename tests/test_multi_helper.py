"""Tests for the shared multiprogram-figure machinery (stubbed runner)."""

import pytest

from repro.exec.resilience import RunFailure
from repro.experiments.accumulators import CellMetrics
from repro.experiments.multi import normalized_figure, sweep
from repro.sim.metrics import WorkloadMetrics
from repro.workloads.table10 import WORKLOADS

#: Table 10 program mix -> workload name (the stub keys on names).
WORKLOAD_OF = {programs: name for name, programs in WORKLOADS.items()}


class FakeSpec:
    """Just enough of a RunSpec for the sweep's failure bookkeeping."""

    def __init__(self, key):
        self.key = key

    def cache_key(self):
        return self.key


class StubRunner:
    """Serves canned cells through the streamed-sweep interface.

    Healthy cells come back from ``cached_cell`` and need no run.  A
    failed workload's PoM cell misses the memo, so its specs reach
    ``run_streamed``, which folds the canned failure into the reducer.
    """

    sp_reference = "pom"

    def __init__(self, values, failed=()):
        # values[workload][policy] -> (unfairness, weighted_speedup)
        self.values = values
        #: Spec keys of every wave handed to run_streamed.
        self.streamed = []
        self.failures = [
            RunFailure(
                key=f"{name}:pom",
                label=f"multi:{name}:pom",
                error_type="ChaosError",
                message="injected",
                traceback_digest="0123456789ab",
                attempts=1,
                retryable=False,
            )
            for name in sorted(failed)
        ]

    def quad_config(self):
        return None

    def spec_mix(self, programs, policy, config=None):
        return FakeSpec(f"{WORKLOAD_OF[tuple(programs)]}:{policy}")

    def spec_alone(self, program, policy, config=None):
        return FakeSpec(f"alone:{program}:{policy}")

    def cached_cell(self, mix_spec, reference):
        if any(f.key == mix_spec.key for f in self.failures):
            return None
        name, policy = mix_spec.key.split(":")
        unfairness, speedup = self.values[name][policy]
        metrics = WorkloadMetrics(
            policy=policy,
            program_names=("a", "b"),
            slowdowns=(unfairness, unfairness / 2),
            weighted_speedup=speedup,
            unfairness=unfairness,
            energy_efficiency=100.0,
            average_read_latency=50.0,
            swap_fraction=0.02,
        )
        return CellMetrics(metrics, total_swaps=3, stc_hit_rate=0.9)

    def run_streamed(self, specs, reducer):
        keys = [spec.cache_key() for spec in specs]
        self.streamed.append(keys)
        for failure in self.failures:
            if failure.key in keys:
                reducer.fold_failure(failure)


VALUES = {
    "w01": {"pom": (4.0, 1.0), "mdm": (3.6, 1.1)},
    "w02": {"pom": (2.0, 2.0), "mdm": (2.2, 1.9)},
}


class TestSweep:
    def test_structure(self):
        runner = StubRunner(VALUES)
        result = sweep(runner, ["pom", "mdm"], workloads=["w01", "w02"])
        assert set(result) == {"w01", "w02"}
        assert result["w01"]["mdm"].unfairness == 3.6

    def test_failed_workloads_are_omitted(self):
        runner = StubRunner(VALUES, failed=["w01"])
        result = sweep(runner, ["pom", "mdm"], workloads=["w01", "w02"])
        assert set(result) == {"w02"}
        # Only the failed cell's specs went out as a wave.
        assert [keys[0] for keys in runner.streamed] == ["w01:pom"]


class TestNormalizedFigure:
    def test_ratios_and_summary(self):
        runner = StubRunner(VALUES)
        result = normalized_figure(
            runner,
            "figX",
            "test figure",
            policy="mdm",
            metric=lambda m: m.unfairness,
            higher_is_better=False,
            workloads=["w01", "w02"],
        )
        ratios = {row[0]: row[3] for row in result.rows}
        assert ratios["w01"] == pytest.approx(0.9)
        assert ratios["w02"] == pytest.approx(1.1)
        assert result.summary["best_key"] == "w01"
        # geomean(0.9, 1.1) < 1: the figure shows a net improvement.
        assert result.summary["geomean"] == pytest.approx(
            (0.9 * 1.1) ** 0.5
        )

    def test_chart_in_notes(self):
        runner = StubRunner(VALUES)
        result = normalized_figure(
            runner,
            "figX",
            "test figure",
            policy="mdm",
            metric=lambda m: m.weighted_speedup,
            higher_is_better=True,
            workloads=["w01", "w02"],
        )
        assert "baseline" in result.notes
        assert "w01" in result.notes

    def test_partial_wave_renders_failed_rows(self):
        runner = StubRunner(VALUES, failed=["w01"])
        result = normalized_figure(
            runner,
            "figX",
            "test figure",
            policy="mdm",
            metric=lambda m: m.unfairness,
            higher_is_better=False,
            workloads=["w01", "w02"],
        )
        rows = {row[0]: row for row in result.rows}
        assert rows["w01"][1:] == ["FAILED", "FAILED", "-"]
        assert rows["w02"][3] == pytest.approx(1.1)
        # The summary covers only survivors; the failure table rides
        # along in the notes.
        assert result.summary["geomean"] == pytest.approx(1.1)
        assert "ChaosError" in result.notes
        assert "1 failed run(s)" in result.notes

    def test_all_failed_degrades_to_a_message(self):
        runner = StubRunner(VALUES, failed=["w01", "w02"])
        result = normalized_figure(
            runner,
            "figX",
            "test figure",
            policy="mdm",
            metric=lambda m: m.unfairness,
            higher_is_better=False,
            workloads=["w01", "w02"],
        )
        assert all(row[1] == "FAILED" for row in result.rows)
        assert "FAILED" in result.summary
        assert "ChaosError" in result.notes
