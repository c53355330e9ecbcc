"""Kernel instrumentation: :class:`KernelProfile` counters and the
instrumented event loop's per-component buckets.

The repository's benchmark lives in ``perfbench/`` (``BENCHMARK.json``);
its traced mode reads these buckets to split a run into layers.
"""

from repro.perf.profile import KernelProfile, peak_rss_mb

__all__ = ["KernelProfile", "peak_rss_mb"]
