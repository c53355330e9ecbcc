"""Kernel counters for one or more simulation runs.

A :class:`KernelProfile` is handed to :class:`repro.sim.engine.
SimulationDriver` and accumulates events processed, demand requests
served, simulated cycles, and wall-clock seconds across runs.  When
``component_timing`` is enabled the driver switches to the
instrumented event loop (:meth:`EventQueue.run_profiled`), which times
every callback into per-component buckets; the benchmark's traced mode
(``perfbench/spans.py``) reads them.  With the flag off (the default)
the kernel runs the uninstrumented fast path and the profile costs one
attribute check per run, not per event.
"""

from __future__ import annotations

import sys


class KernelProfile:
    """Accumulated kernel counters (events, requests, cycles, wall time)."""

    __slots__ = (
        "events_processed",
        "requests_served",
        "cycles_simulated",
        "wall_seconds",
        "runs",
        "component_timing",
        "component_buckets",
    )

    def __init__(self, component_timing: bool = False) -> None:
        self.events_processed = 0
        self.requests_served = 0
        self.cycles_simulated = 0
        self.wall_seconds = 0.0
        self.runs = 0
        #: When True, the driver uses the instrumented event loop and
        #: fills ``component_buckets``; when False the buckets stay empty
        #: and the kernel pays nothing per event.
        self.component_timing = component_timing
        #: label -> [calls, seconds]; labels are callback qualnames
        #: (e.g. ``Channel._tick``, ``TraceCore._dispatch``).
        self.component_buckets: dict[str, list] = {}

    def record_run(
        self, events: int, requests: int, cycles: int, wall_seconds: float
    ) -> None:
        """Fold one completed simulation into the totals."""
        self.events_processed += events
        self.requests_served += requests
        self.cycles_simulated += cycles
        self.wall_seconds += wall_seconds
        self.runs += 1


def peak_rss_mb() -> float:
    """This process's lifetime peak resident set size, in MiB.

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; a platform
    without :mod:`resource` (Windows) reports 0.0.
    """
    try:
        import resource
    except ImportError:
        return 0.0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0
