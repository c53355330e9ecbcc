"""Fault isolation for sweep execution: failures, retries, the journal.

A thousand-point sweep must survive its own components: a worker process
dying mid-simulation, a hung spec, a transient ``OSError`` from a busy
filesystem.  This module holds the pieces the rewritten
:class:`~repro.exec.executor.Executor` isolates those faults with:

* :class:`WorkerFailure` — a pickle-safe exception wrapper that carries a
  spec's provenance (cache key, run id, human label) across the process-
  pool pipe, so a raise inside a worker never arrives anonymous.
* :class:`RunFailure` — the structured record of one spec that ultimately
  failed: key, label, exception class, traceback digest, attempt count.
* :class:`RetryPolicy` — bounded re-attempts with deterministic seeded
  jittered backoff, applied only to *retryable* faults (worker death,
  timeout, ``OSError``); a :class:`~repro.common.errors.SimulationError`
  is deterministic and therefore never retried.
* :class:`RunJournal` — an append-only ``journal.jsonl`` beside the
  result cache recording submitted/completed/failed keys, so an
  interrupted sweep can be resumed (``profess run --resume``) and only
  the failures re-attempted.

The taxonomy and the journal format are contract: DESIGN.md §15.
"""

from __future__ import annotations

import hashlib
import json
import os
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import InvalidValueError, ReproError, SimulationError

#: Journal format version, stamped on every line.
JOURNAL_VERSION = 1

#: Exception classes whose failures are transient by nature: the fault
#: lives in the *execution environment* (a killed worker, a stalled
#: process, a flaky filesystem), not in the simulation itself, so a
#: bounded re-attempt may succeed.
RETRYABLE_TYPES = (BrokenProcessPool, TimeoutError, OSError, ConnectionError)


class SpecTimeoutError(ReproError, TimeoutError):
    """A spec exceeded its per-run wall-clock budget.

    Derives from :class:`TimeoutError` so the retry taxonomy (and any
    caller catching the builtin) classifies it as transient.
    """


class SweepFailure(ReproError):
    """A wave finished with specs that failed after all retries.

    Carries the structured :class:`RunFailure` records so callers can
    render a failure table instead of a bare traceback.
    """

    def __init__(self, failures: list["RunFailure"]) -> None:
        self.failures = list(failures)
        preview = "; ".join(f.summary() for f in self.failures[:3])
        more = len(self.failures) - 3
        if more > 0:
            preview += f"; ... and {more} more"
        super().__init__(
            f"{len(self.failures)} run(s) failed after retries: {preview}"
        )


class WorkerFailure(ReproError):
    """A worker-side exception, wrapped with its spec's provenance.

    Raised by the pool task wrapper so that any exception crossing the
    pool pipe carries the spec's cache key and run id.  Deliberately
    *flat*: every field is a string/bool positional argument, so the
    default ``Exception`` pickling (``(cls, self.args)``) round-trips it
    losslessly — no chained ``__cause__`` is relied upon, because
    exception chains do not survive the pool pipe.
    """

    def __init__(
        self,
        key: str,
        run_id: str,
        label: str,
        error_type: str,
        message: str,
        traceback_digest: str,
        retryable: bool,
    ) -> None:
        super().__init__(
            key, run_id, label, error_type, message, traceback_digest,
            retryable,
        )
        self.key = key
        self.run_id = run_id
        self.label = label
        self.error_type = error_type
        self.message = message
        self.traceback_digest = traceback_digest
        self.retryable = retryable

    def __str__(self) -> str:
        return (
            f"{self.error_type} in run {self.run_id} spec {self.key[:12]} "
            f"({self.label}): {self.message} [tb {self.traceback_digest}]"
        )

    @classmethod
    def wrap(
        cls, key: str, run_id: str, label: str, error: BaseException
    ) -> "WorkerFailure":
        """Wrap a worker-side exception with spec provenance."""
        return cls(
            key=key,
            run_id=run_id,
            label=label,
            error_type=type(error).__name__,
            message=str(error),
            traceback_digest=traceback_digest(error),
            retryable=isinstance(error, RETRYABLE_TYPES)
            and not isinstance(error, SimulationError),
        )


def traceback_digest(error: BaseException) -> str:
    """Short stable digest of an exception's traceback.

    Two failures with the same digest broke in the same place — the
    digest is the dedup key for failure reports, cheap enough to ship
    over the pool pipe where a full traceback string is not.
    """
    text = "".join(
        traceback.format_exception(type(error), error, error.__traceback__)
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True, slots=True)
class RunFailure:
    """One spec that ultimately failed (all attempts exhausted)."""

    #: The spec's content hash (:meth:`RunSpec.cache_key`).
    key: str
    #: Human-readable spec label (``kind:programs:policy``).
    label: str
    #: Exception class name of the final attempt's error.
    error_type: str
    #: Final attempt's error message.
    message: str
    #: Short SHA-256 of the final attempt's traceback.
    traceback_digest: str
    #: Total attempts made (1 = no retries).
    attempts: int
    #: Whether the final error was classified retryable (it still failed
    #: because the attempt budget ran out).
    retryable: bool

    def summary(self) -> str:
        """One-line form for logs and exception messages."""
        return (
            f"{self.label} [{self.key[:12]}] {self.error_type} "
            f"after {self.attempts} attempt(s)"
        )

    def to_dict(self) -> dict:
        """JSON form (journal lines, failure tables)."""
        return {
            "key": self.key,
            "label": self.label,
            "error_type": self.error_type,
            "message": self.message,
            "traceback_digest": self.traceback_digest,
            "attempts": self.attempts,
            "retryable": self.retryable,
        }


def failure_from_error(
    key: str, label: str, error: BaseException, attempts: int
) -> RunFailure:
    """Build the structured record for a spec's final failed attempt."""
    if isinstance(error, WorkerFailure):
        return RunFailure(
            key=key,
            label=error.label or label,
            error_type=error.error_type,
            message=error.message,
            traceback_digest=error.traceback_digest,
            attempts=attempts,
            retryable=error.retryable,
        )
    return RunFailure(
        key=key,
        label=label,
        error_type=type(error).__name__,
        message=str(error),
        traceback_digest=traceback_digest(error),
        attempts=attempts,
        retryable=is_retryable(error),
    )


def is_retryable(error: BaseException) -> bool:
    """The retry taxonomy (DESIGN.md §15).

    Worker death, timeouts, and OS-level faults are transient; a
    :class:`SimulationError` (or any other deterministic library error)
    would fail identically on every attempt and is never retried.
    """
    if isinstance(error, WorkerFailure):
        return error.retryable
    if isinstance(error, SimulationError):
        return False
    return isinstance(error, RETRYABLE_TYPES)


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """Bounded, deterministic re-attempt policy for retryable faults."""

    #: Re-attempts after the first try (0 = fail on first error).
    retries: int = 1
    #: Base backoff in seconds; attempt ``n`` waits up to
    #: ``base * 2**(n-1)`` (capped), scaled by a deterministic jitter.
    backoff_base: float = 0.05
    #: Upper bound on any single backoff delay.
    backoff_cap: float = 2.0
    #: Jitter seed: same (seed, key, attempt) -> same delay, so reruns
    #: schedule identically and tests can pin the exact waits.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise InvalidValueError("retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise InvalidValueError("backoff must be >= 0")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether a failed ``attempt`` (1-based) gets another try."""
        return attempt < self.max_attempts and is_retryable(error)

    def backoff(self, key: str, attempt: int) -> float:
        """Deterministic jittered delay before re-attempting ``key``.

        Exponential in the attempt number, scaled by a jitter fraction
        derived from SHA-256 of (seed, key, attempt) — no global RNG
        state, no wall clock, identical across processes.
        """
        if self.backoff_base == 0.0:
            return 0.0
        window = min(
            self.backoff_cap, self.backoff_base * (2 ** max(0, attempt - 1))
        )
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode("utf-8")
        ).digest()
        jitter = int.from_bytes(digest[:8], "big") / 2**64
        # Half deterministic floor, half jitter: never zero, never > window.
        return window * (0.5 + 0.5 * jitter)


@dataclass(slots=True)
class JournalState:
    """Replayed journal contents: what a previous run already did."""

    #: Keys whose result landed (simulated or cache-served).
    completed: set[str] = field(default_factory=set)
    #: key -> most recent RunFailure dict for keys that failed and were
    #: never completed afterwards.
    failed: dict[str, dict] = field(default_factory=dict)
    #: Keys ever submitted (superset of completed/failed).
    submitted: set[str] = field(default_factory=set)
    #: Journal lines that could not be parsed (truncated tail writes).
    skipped_lines: int = 0

    def pending(self) -> set[str]:
        """Submitted but neither completed nor failed (interrupted)."""
        return self.submitted - self.completed - set(self.failed)


class RunJournal:
    """Append-only ``journal.jsonl`` recording a sweep's run history.

    One JSON object per line.  Appends go through a single ``os.write``
    on an ``O_APPEND`` descriptor, so concurrent writers (pool rounds,
    parallel CLI invocations sharing a cache) interleave whole lines,
    never fragments; a line truncated by a crash is skipped on replay.
    """

    FILENAME = "journal.jsonl"

    def __init__(self, path: str | Path) -> None:
        path = Path(path)
        if path.is_dir():
            path = path / self.FILENAME
        self.path = path
        #: Lines this instance failed to persist (read-only directory);
        #: journalling is best-effort and never breaks the sweep.
        self.write_errors = 0

    @classmethod
    def beside(cls, cache_dir: str | Path) -> "RunJournal":
        """The journal that lives beside a cache directory's entries."""
        return cls(Path(cache_dir) / cls.FILENAME)

    # ------------------------------------------------------------------
    def append(self, record: dict) -> None:
        """Append one event line (atomic whole-line write, best-effort)."""
        record = {"v": JOURNAL_VERSION, **record}
        line = json.dumps(record, sort_keys=True) + "\n"
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            descriptor = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            try:
                os.write(descriptor, line.encode("utf-8"))
            finally:
                os.close(descriptor)
        except OSError:
            self.write_errors += 1

    def submitted(self, key: str, run_id: str, attempt: int, label: str) -> None:
        self.append(
            {
                "event": "submitted",
                "key": key,
                "run_id": run_id,
                "attempt": attempt,
                "label": label,
            }
        )

    def completed(
        self,
        key: str,
        run_id: str,
        source: str,
        elapsed: float,
    ) -> None:
        self.append(
            {
                "event": "completed",
                "key": key,
                "run_id": run_id,
                "source": source,
                "elapsed": round(elapsed, 6),
            }
        )

    def failed(self, failure: RunFailure, run_id: str) -> None:
        self.append(
            {"event": "failed", "run_id": run_id, **failure.to_dict()}
        )

    # ------------------------------------------------------------------
    def replay(self) -> JournalState:
        """Fold the journal into its net state (absent file = empty)."""
        state = JournalState()
        try:
            text = self.path.read_text(encoding="utf-8")
        except OSError:
            return state
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                event = record["event"]
                key = record["key"]
            except (ValueError, TypeError, KeyError):
                state.skipped_lines += 1
                continue
            if event == "submitted":
                state.submitted.add(key)
            elif event == "completed":
                state.completed.add(key)
                state.failed.pop(key, None)
            elif event == "failed":
                state.failed[key] = record
            else:
                state.skipped_lines += 1
        return state


def format_failure_table(failures: list[RunFailure]) -> str:
    """Render a failure report table (CLI stderr, figure notes)."""
    if not failures:
        return "no failures"
    lines = [
        f"{len(failures)} failed run(s):",
        f"{'spec':<36} {'error':<22} {'attempts':>8}  traceback",
    ]
    for failure in failures:
        label = (
            failure.label if len(failure.label) <= 36 else
            failure.label[:33] + "..."
        )
        lines.append(
            f"{label:<36} {failure.error_type:<22} "
            f"{failure.attempts:>8}  {failure.traceback_digest}"
        )
    return "\n".join(lines)
