"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import calib  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from repro.sim.golden import result_digest  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def test_self_time_is_duration_minus_child_coverage(tmp_path):
    clock = FakeClock()
    tracer = spans.Tracer(tmp_path, clock=clock)
    leaf = tracer.wrap(lambda: clock.advance(10), "leaf")

    def middle_body():
        clock.advance(10)
        leaf()
        clock.advance(10)

    middle = tracer.wrap(middle_body, "middle")
    sibling = tracer.wrap(lambda: clock.advance(20), "sibling")

    def root_body():
        clock.advance(10)
        middle()  # 10..40, with leaf at 20..30
        clock.advance(10)
        sibling()  # 50..70
        clock.advance(30)

    tracer.wrap(root_body, "root", record=True)()
    assert tracer.totals == {
        "leaf": [1, 10, 10],
        "middle": [1, 30, 20],
        "sibling": [1, 20, 20],
        "root": [1, 100, 50],
    }
    # Self times partition the root span exactly.
    assert sum(total[2] for total in tracer.totals.values()) == 100
    assert tracer.spans == [["root", 0, 100, -1, None, 50]]


def test_span_does_not_nest_in_its_own_name(tmp_path):
    clock = FakeClock()
    tracer = spans.Tracer(tmp_path, clock=clock)

    def base(depth):
        clock.advance(5)
        if depth:
            recurse(depth - 1)

    recurse = tracer.wrap(base, "policy")
    recurse(3)
    assert tracer.totals["policy"] == [1, 20, 20]


def test_recorded_spans_link_parents_and_specs(tmp_path):
    clock = FakeClock()
    tracer = spans.Tracer(tmp_path, clock=clock)
    inner = tracer.wrap(lambda: clock.advance(3), "inner", record=True)

    def outer_body():
        tracer.spec_id = "abc"
        inner()

    tracer.wrap(outer_body, "outer", record=True)()
    assert tracer.spans == [
        ["outer", 0, 3, -1, None, 0],
        ["inner", 0, 3, 0, "abc", 3],
    ]


def test_layer_self_times_account_for_the_run():
    ms = 10**6
    totals = {
        "sim.run": [1, 100 * ms, 30 * ms],
        "cpu.dispatch": [5, 40 * ms, 25 * ms],
        "hybrid.access": [5, 15 * ms, 15 * ms],
        "mem.tick": [9, 30 * ms, 30 * ms],
        "exec.cache_put": [1, 7 * ms, 7 * ms],
    }
    counts = {"kernel_wall_ns": 96 * ms, "callback_ns": 74 * ms}
    layers = spans.layer_metrics(totals, counts)
    assert layers["trace.layer_self_s"] == pytest.approx(0.070)
    assert layers["events.loop_self_s"] == pytest.approx(0.022)
    assert layers["trace.unattributed_s"] == pytest.approx(0.008)
    assert layers["sim.run_s"] == pytest.approx(
        layers["trace.layer_self_s"]
        + layers["events.loop_self_s"]
        + layers["trace.unattributed_s"]
    )


def test_declared_metrics_match_the_runner():
    for section, runner_units in (
        ("end_to_end", run.END_TO_END),
        ("per_layer", run.PER_LAYER),
    ):
        declared = {m["name"]: m["unit"] for m in DECLARED[section]}
        assert declared == runner_units
    names = [m["name"] for s in ("end_to_end", "per_layer") for m in DECLARED[s]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    assert run.IN_PROCESS == tuple(
        name for name in run.WORKLOADS if not workloads.WORKLOADS[name].pooled
    )


def _record(**extra) -> dict:
    record = {
        "wall_s": 2.0, "requests": 1000, "cpu_s": 1.0, "warm_times": [0.1, 0.2],
        "cold_window": [0.0, 2.0], "warm_unit_s": calib.SMALL_REF_UNIT_S,
        "peak_rss_mib": 40.0, "worker_peak_rss_mib": 40.0, "setup_s": 0.5,
        "rep_s": 3.0, "sim_s": 2.0, "attempted": 4, "problems": [],
        "host": {"nproc": 2},
    }
    record.update(
        (name, 0.0) for name in run.PER_LAYER if name.startswith("exec.")
    )
    record.update(extra)
    return record


def _printed_names(capsys) -> list[str]:
    lines = capsys.readouterr().out.splitlines()
    return [line.split()[1] for line in lines]


class SteadySampler:
    """Stands in for calib.Sampler: a host at exactly the reference speed."""

    def __init__(self, shared: bool) -> None:
        pass

    def __enter__(self) -> "SteadySampler":
        return self

    def __exit__(self, *exc_info) -> None:
        pass

    def unit_s(self, start: float, end: float) -> float:
        return calib.REF_UNIT_S


def test_unit_time_is_the_median_inside_the_phase():
    sampler = calib.Sampler(shared=False)
    sampler.samples = [
        (0.0, 0.1, 0.1), (1.0, 1.2, 0.2), (1.3, 1.4, 0.1), (1.5, 1.8, 0.3),
        (5.0, 5.5, 0.5),
    ]
    assert sampler.unit_s(0.9, 2.0) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        sampler.unit_s(2.0, 4.0)
    assert calib.at_reference(3.0, 2 * calib.REF_UNIT_S) == pytest.approx(1.5)


@pytest.mark.parametrize("shared", [True, False])
def test_sampler_process_times_units_and_stops(shared):
    with calib.Sampler(shared, period=0.01, table_size=1 << 10) as sampler:
        time.sleep(0.5)
    assert sampler._process.returncode == 0
    assert sampler.samples
    assert all(
        start < end and 0 < cpu for start, end, cpu in sampler.samples
    )


def test_every_printed_name_is_declared(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run.calib, "Sampler", SteadySampler)
    layers = spans.layer_metrics({}, {"events": 10})
    monkeypatch.setattr(
        run, "run_rep",
        lambda *args, trace=False, **kwargs: _record(layers=layers),
    )
    for measured, units in (
        (run.measure("fig5-cold", 0, 0.0, tmp_path), run.END_TO_END),
        (run.measure_layers("fig5-cold", 0, tmp_path), run.PER_LAYER),
    ):
        assert list(measured["metrics"]) == list(units)
        run.report("fig5-cold", measured)
        printed = _printed_names(capsys)
        assert printed == list(units)
        assert all(NAME.fullmatch(name) for name in printed)


def test_mismatch_counts_in_failed_frac(monkeypatch, capsys, tmp_path):
    layers = spans.layer_metrics({}, {})
    problem = "result_digest aaa != recorded bbb"
    monkeypatch.setattr(
        run, "run_rep",
        lambda *args, trace=False, **kwargs: _record(
            layers=layers, problems=[problem] if trace else []
        ),
    )
    measured = run.measure_layers("w01-profess", 0, tmp_path)
    assert measured["metrics"]["failed_frac"]["value"] == 1 / 8
    assert not measured["correct"]
    run.report("w01-profess", measured)
    assert f"OUTPUT MISMATCH: {problem}" in capsys.readouterr().err


class SmallW01(workloads.W01Profess):
    requests = 400


def test_corrupted_expected_digest_is_reported(tmp_path):
    workload = SmallW01()
    workload.setup(0, tmp_path)
    workload.run()
    workload.before_warm()
    workload.warm()
    digest = result_digest(workload.result)
    good = {"w01-profess": {"0": {"result_digest": digest}}}
    assert workload.check(good) == []
    bad = {"w01-profess": {"0": {"result_digest": "0" * 64}}}
    problems = workload.check(bad)
    assert problems == [f"result_digest {digest} != recorded {'0' * 64}"]


def test_expected_values_cover_default_and_held_out_seed():
    expected = json.loads((BENCH / "expected.json").read_text())
    for workload in ("w01-profess", "fig5-cold"):
        # 7 is the held-out seed (README.md).
        assert {"0", "7"} <= set(expected[workload])


@pytest.mark.parametrize("seed", [0, 1])
def test_fanout_specs_are_distinct_and_seeded(seed):
    specs = workloads.fanout_specs(seed, count=50)
    assert len({spec.cache_key() for spec in specs}) == 50
    assert [s.cache_key() for s in workloads.fanout_specs(seed, count=50)] == [
        s.cache_key() for s in specs
    ]


def test_runner_refuses_a_tree_without_the_package(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "w01-profess"]) == 2
