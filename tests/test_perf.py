"""Kernel instrumentation tests: KernelProfile accounting, the
instrumented event loop, and the peak-RSS probe."""

from repro.common.config import paper_single_core
from repro.perf.profile import KernelProfile, peak_rss_mb
from repro.sim.engine import SimulationDriver
from repro.traces.generator import synthesize_trace


def _tiny_driver(profile=None):
    config = paper_single_core(scale=128)
    traces = [("zeusmp", synthesize_trace("zeusmp", 300, scale=128, seed=0))]
    return SimulationDriver(config, "static", traces, seed=0, profile=profile)


class TestKernelProfile:
    def test_accumulates_across_runs(self):
        profile = KernelProfile()
        profile.record_run(events=100, requests=10, cycles=50, wall_seconds=0.5)
        profile.record_run(events=300, requests=30, cycles=150, wall_seconds=0.5)
        assert profile.runs == 2
        assert profile.events_processed == 400
        assert profile.requests_served == 40
        assert profile.cycles_simulated == 200
        assert profile.wall_seconds == 1.0

    def test_driver_fills_counters(self):
        profile = KernelProfile()
        result = _tiny_driver(profile).run()
        assert profile.runs == 1
        assert profile.events_processed > result.total_requests
        assert profile.requests_served == result.total_requests == 300
        assert profile.cycles_simulated == result.cycles
        assert profile.wall_seconds > 0
        assert profile.component_buckets == {}

    def test_component_timing_preserves_results(self):
        # The instrumented loop must be observationally identical to the
        # fast path — it only adds timing, never reordering.
        plain = _tiny_driver().run()
        instrumented_profile = KernelProfile(component_timing=True)
        instrumented = _tiny_driver(instrumented_profile).run()
        assert instrumented.to_dict() == plain.to_dict()
        buckets = instrumented_profile.component_buckets
        assert buckets, "instrumented run produced no component buckets"
        assert sum(calls for calls, _seconds in buckets.values()) == (
            instrumented_profile.events_processed
        )


def test_peak_rss_is_positive_here():
    assert peak_rss_mb() > 0
