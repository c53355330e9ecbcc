"""Execution subsystem: unified run specs, disk caching, parallelism.

Six layers (see DESIGN.md §9 / §15 / §17):

* :class:`~repro.exec.spec.RunSpec` — a frozen, content-addressed
  description of one simulation.
* :class:`~repro.exec.cache.ResultCache` — results persisted to disk
  under :meth:`RunSpec.cache_key`, shared across processes and runs,
  integrity-checked on read with corrupt entries quarantined.
* :class:`~repro.exec.executor.Executor` — batch execution over a
  process pool with deterministic ordering, per-spec fault isolation,
  retries, wall-clock timeouts, and worker replacement.
* :mod:`repro.exec.streaming` — wave reducers (``run_wave(...,
  reducer=...)``) that fold completions as they land, so figure sweeps
  never materialize a full wave in the parent.
* :mod:`repro.exec.resilience` — the failure taxonomy
  (:class:`RunFailure`, :class:`RetryPolicy`) and the append-only
  :class:`RunJournal` behind ``profess run --resume``.
* :mod:`repro.exec.chaos` — deterministic fault injection for testing
  every degradation path.
"""

from repro.exec.cache import CACHE_VERSION, ResultCache
from repro.exec.chaos import ChaosError, ChaosPlan, TruncatingResultCache
from repro.exec.executor import (
    Executor,
    RunEvent,
    WaveResult,
    execute_spec,
)
from repro.exec.resilience import (
    RetryPolicy,
    RunFailure,
    RunJournal,
    SpecTimeoutError,
    SweepFailure,
    WorkerFailure,
    format_failure_table,
)
from repro.exec.spec import RunSpec, build_traces, workload_traces
from repro.exec.streaming import GroupReducer, ListReducer, WaveReducer

__all__ = [
    "CACHE_VERSION",
    "ChaosError",
    "ChaosPlan",
    "Executor",
    "GroupReducer",
    "ListReducer",
    "ResultCache",
    "RetryPolicy",
    "RunEvent",
    "RunFailure",
    "RunJournal",
    "RunSpec",
    "SpecTimeoutError",
    "SweepFailure",
    "TruncatingResultCache",
    "WaveReducer",
    "WaveResult",
    "WorkerFailure",
    "build_traces",
    "execute_spec",
    "format_failure_table",
    "workload_traces",
]
