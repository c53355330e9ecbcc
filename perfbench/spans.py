"""Span tracing for the benchmark's traced run.

:meth:`Tracer.install` replaces the public calls into each layer with
timing wrappers before any driver or process pool exists: hot methods are
bound once at construction, and pool workers are forked, so both inherit
the wrapped versions.  Every span's *self time* is its duration minus
the part of it its child spans cover.  Spans of one call stack never
overlap, so that coverage is the sum of the children's durations, which
the wrapper adds into its parent's slot on a stack as each child ends.

Spans are kept in memory.  Per span name the tracer keeps calls,
inclusive and self nanoseconds; the coarse spans (trace build, driver,
run, executor wave and spec, experiment driver) are also recorded one by
one as (name, start, end, parent, spec id, self).  Pool workers exit
without running ``atexit``, so each worker appends what it holds to its
own file after every spec; :meth:`Tracer.finish` merges all files.

The event callbacks are also timed by the program's own
``KernelProfile(component_timing=True)`` buckets, which is what
``events.loop_self_s`` (loop time outside any callback) comes from.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

#: (module, class or None for a module function, attribute, span name).
#: Several attributes may share a span name; a span never nests inside
#: one of its own name (a policy's ``on_access`` calling its base class
#: counts once).
HOT_SPANS = (
    ("repro.cpu.core_model", "TraceCore", "_dispatch", "cpu.dispatch"),
    ("repro.cpu.core_model", "TraceCore", "_issue_next", "cpu.dispatch"),
    ("repro.cpu.core_model", "TraceCore", "_on_read_complete", "cpu.completion"),
    ("repro.cpu.core_model", "TraceCore", "_on_write_complete", "cpu.completion"),
    ("repro.hybrid.memory", "HybridMemoryController", "access", "hybrid.access"),
    ("repro.hybrid.memory", "HybridMemoryController", "_serve", "hybrid.serve"),
    ("repro.hybrid.memory", "HybridMemoryController", "_fetch_st_entry",
     "hybrid.st_fetch"),
    ("repro.hybrid.memory", "HybridMemoryController", "_fill_st_entry",
     "hybrid.st_fill"),
    ("repro.hybrid.memory", "HybridMemoryController", "request_promotion",
     "hybrid.promote"),
    ("repro.hybrid.memory", "HybridMemoryController", "_complete_and_promote",
     "hybrid.complete"),
    ("repro.hybrid.memory", "HybridMemoryController", "_finish_swap",
     "hybrid.finish_swap"),
    ("repro.hybrid.memory", "HybridMemoryController", "_on_stc_eviction",
     "hybrid.stc_eviction"),
    ("repro.cache.stc", "STC", "insert", "cache.stc_insert"),
    ("repro.core.rsm", "RSM", "on_request", "core.rsm_on_request"),
    ("repro.mem.channel", "Channel", "_tick_python", "mem.tick"),
    ("repro.mem.channel", "Channel", "_tick_kernel", "mem.tick"),
    ("repro.mem.channel", "Channel", "enqueue_soa", "mem.enqueue"),
    ("repro.mem.channel", "Channel", "enqueue", "mem.enqueue"),
    ("repro.mem.channel", "Channel", "schedule_swap", "mem.schedule_swap"),
    ("repro.exec.spec", "RunSpec", "cache_key", "exec.cache_key"),
    ("repro.exec.cache", "ResultCache", "put", "exec.cache_put"),
    ("repro.exec.resilience", "RunJournal", "append", "exec.journal_append"),
    ("repro.sim.results", "SimulationResult", "to_dict", "sim.result_to_dict"),
    ("repro.sim.results", "SimulationResult", "from_dict",
     "sim.result_from_dict"),
    ("repro.experiments.runner", "ExperimentRunner", "prefetch",
     "experiments.prefetch"),
)

#: Span-name prefixes of the layers that run inside ``sim.run``.
SIMULATOR_LAYERS = ("cpu.", "hybrid.", "cache.", "policies.", "core.", "mem.")

#: Migration-policy methods, wrapped on every policy class defining them.
POLICY_SPANS = (
    ("on_access", "policies.on_access"),
    ("on_st_eviction", "policies.on_st_eviction"),
)

#: Coarse spans, also recorded one by one (same layout as HOT_SPANS).
RECORDED_SPANS = (
    ("repro.traces.generator", None, "_synthesize", "traces.build"),
    ("repro.sim.engine", "SimulationDriver", "__init__", "sim.driver_init"),
    ("repro.sim.engine", "SimulationDriver", "run", "sim.run"),
    ("repro.exec.executor", None, "_timed_execute", "exec.spec"),
    ("repro.exec.executor", "Executor", "run_wave", "exec.wave"),
    ("repro.exec.cache", "ResultCache", "get", "exec.cache_get"),
    ("repro.experiments.registry", None, "run_experiment",
     "experiments.driver"),
)


class Tracer:
    """In-memory span tracer; one per traced repetition."""

    def __init__(
        self, out_dir: Path, clock: Callable[[], int] = time.perf_counter_ns
    ) -> None:
        self.out_dir = Path(out_dir)
        self.clock = clock
        #: Child-time accumulators of the open spans; [0] is the root.
        self.stack: list[int] = [0]
        #: span name -> [calls, inclusive ns, self ns].
        self.totals: dict[str, list[int]] = {}
        #: span name -> [open?]: a span never nests in its own name.
        self.active: dict[str, list[bool]] = {}
        #: Recorded spans: [name, start, end, parent index, spec id, self].
        self.spans: list[list] = []
        self._open: list[int] = []
        self.spec_id: Optional[str] = None
        #: Layer statistics read off the simulated components.
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._profile = None
        self._trace_hits_base = 0
        self._specs_run = 0
        #: True in a forked pool worker, which flushes after every spec.
        self.in_worker = False

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        record: bool = False,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a span called ``name``.

        ``before(args, kwargs)`` runs inside the span before the call;
        ``after(args, result)`` runs once the span has closed.
        """
        total = self.totals.setdefault(name, [0, 0, 0])
        active = self.active.setdefault(name, [False])
        stack = self.stack
        clock = self.clock

        if not (record or before or after):

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if active[0]:
                    return fn(*args, **kwargs)
                active[0] = True
                stack.append(0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    total[0] += 1
                    total[1] += duration
                    total[2] += duration - stack.pop()
                    stack[-1] += duration
                    active[0] = False

            return traced

        tracer = self

        @functools.wraps(fn)
        def traced_hooked(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            stack.append(0)
            index = tracer._open_span(name) if record else -1
            if before is not None:
                before(args, kwargs)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                duration = end - start
                self_ns = duration - stack.pop()
                total[0] += 1
                total[1] += duration
                total[2] += self_ns
                stack[-1] += duration
                active[0] = False
                if record:
                    tracer._close_span(index, start, end, self_ns)
                if after is not None:
                    after(args, result)

        return traced_hooked

    def _open_span(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0, 0, parent, self.spec_id, 0])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _close_span(self, index: int, start: int, end: int, self_ns: int) -> None:
        self._open.pop()
        span = self.spans[index]
        span[1], span[2], span[5] = start, end, self_ns

    def _wrap_attr(self, owner: object, attr: str, name: str, **hooks) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(self.wrap(original.__func__, name, **hooks))
        else:
            wrapped = self.wrap(original, name, **hooks)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer boundary; call before any driver or pool."""
        import importlib

        from repro.perf.profile import KernelProfile
        from repro.policies.base import MigrationPolicy
        from repro.policies.registry import iter_registered
        from repro.traces.generator import cached_trace

        self._profile_type = KernelProfile
        self._profile = KernelProfile(component_timing=True)
        self._cached_trace = cached_trace
        self._trace_hits_base = cached_trace.cache_info().hits
        hooks = {
            "traces.build": {"after": self._after_build},
            "sim.driver_init": {"before": self._before_driver_init},
            "sim.run": {"after": self._after_run},
            "exec.spec": {"before": self._before_spec, "after": self._after_spec},
            "exec.cache_get": {"after": self._after_cache_get},
        }
        for module, cls, attr, name in HOT_SPANS + RECORDED_SPANS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            record = (module, cls, attr, name) in RECORDED_SPANS
            self._wrap_attr(owner, attr, name, record=record,
                            **hooks.get(name, {}))
        list(iter_registered())  # imports every policy class
        for policy in [MigrationPolicy] + _subclasses(MigrationPolicy):
            for attr, name in POLICY_SPANS:
                if attr in policy.__dict__:
                    self._wrap_attr(policy, attr, name)
        os.register_at_fork(after_in_child=self._forked)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def _after_build(self, args, result) -> None:
        self.counts["requests_built"] += args[1]

    def _before_driver_init(self, args, kwargs) -> None:
        # The program's own per-callback timing, for the loop's share.
        if kwargs.get("profile") is None:
            kwargs["profile"] = self._profile

    def _after_run(self, args, result) -> None:
        controller = args[0].controller
        counts = self.counts
        counts["stc_hits"] += controller.stc.hits
        counts["stc_misses"] += controller.stc.misses
        counts["rsm_samples"] += len(controller.rsm.history)
        for channel in controller.channels:
            stats = channel.stats
            counts["channel_accesses"] += stats.reads + stats.writes
            counts["row_hits"] += stats.row_hits
            counts["read_latency_sum"] += stats.read_latency_sum
            counts["read_count"] += stats.read_count
        if result is not None:
            counts["swaps"] += result.total_swaps
            counts["instructions"] += sum(
                program.instructions for program in result.programs
            )

    def _before_spec(self, args, kwargs) -> None:
        self._specs_run += 1
        self.spec_id = f"{os.getpid()}-{self._specs_run}"

    def _after_spec(self, args, result) -> None:
        self.spec_id = None
        if self.in_worker:
            self.flush()

    def _after_cache_get(self, args, result) -> None:
        if result is not None:
            self.counts["cache_hits"] += 1

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------
    def _forked(self) -> None:
        """A forked worker starts with nothing of its parent's."""
        self.in_worker = True
        self._reset()
        for flag in self.active.values():
            flag[0] = False
        self._open.clear()
        self._trace_hits_base = self._cached_trace.cache_info().hits

    def _reset(self) -> None:
        self.stack[:] = [0]
        for total in self.totals.values():
            total[:] = [0, 0, 0]
        self.spans.clear()
        self.counts.clear()
        self._profile = self._profile_type(component_timing=True)

    def flush(self) -> None:
        """Append what this process holds to its file, then forget it."""
        profile = self._profile
        hits = self._cached_trace.cache_info().hits - self._trace_hits_base
        self._trace_hits_base += hits
        counts = Counter(self.counts)
        counts["trace_cache_hits"] += hits
        counts["events"] += profile.events_processed
        counts["kernel_wall_ns"] += round(profile.wall_seconds * 1e9)
        counts["callback_ns"] += round(
            sum(seconds for _calls, seconds in profile.component_buckets.values())
            * 1e9
        )
        payload = {
            "pid": os.getpid(),
            "totals": {name: t for name, t in self.totals.items() if t[0]},
            "spans": self.spans,
            "counts": counts,
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(payload) + "\n")
        self._reset()

    def finish(self) -> dict:
        """Flush, restore the program, and merge every process's spans.

        Returns ``{"totals": ..., "counts": ...}`` summed over processes
        and writes all recorded spans to ``spans.json`` in the output
        directory.
        """
        self.flush()
        self.uninstall()
        totals: dict[str, list[int]] = {}
        counts: Counter = Counter()
        spans = []
        for path in sorted(self.out_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                payload = json.loads(line)
                for name, (calls, inclusive, self_ns) in payload["totals"].items():
                    total = totals.setdefault(name, [0, 0, 0])
                    total[0] += calls
                    total[1] += inclusive
                    total[2] += self_ns
                counts.update(payload["counts"])
                base = len(spans)
                for name, start, end, parent, spec, self_ns in payload["spans"]:
                    spans.append({
                        "name": name, "start_ns": start, "end_ns": end,
                        "parent": base + parent if parent >= 0 else None,
                        "spec": spec, "pid": payload["pid"], "self_ns": self_ns,
                    })
        (self.out_dir / "spans.json").write_text(json.dumps(spans))
        return {"totals": totals, "counts": dict(counts)}


def _subclasses(cls: type) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def layer_metrics(totals: dict, counts: dict) -> dict[str, float]:
    """Per-layer metrics from merged span totals and layer counts."""

    def calls(name: str) -> int:
        return totals.get(name, [0, 0, 0])[0]

    def inclusive_s(name: str) -> float:
        return totals.get(name, [0, 0, 0])[1] / 1e9

    def self_s(name: str) -> float:
        return totals.get(name, [0, 0, 0])[2] / 1e9

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    loop_self_s = (counts.get("kernel_wall_ns", 0) - counts.get("callback_ns", 0)) / 1e9
    promotions = calls("hybrid.promote")
    gets = calls("exec.cache_get")
    stc_hits = counts.get("stc_hits", 0)
    stc_misses = counts.get("stc_misses", 0)
    return {
        "traces.build_s": inclusive_s("traces.build"),
        "traces.requests_built": counts.get("requests_built", 0),
        "traces.cache_hits": counts.get("trace_cache_hits", 0),
        "sim.driver_init_s": inclusive_s("sim.driver_init"),
        "sim.run_s": inclusive_s("sim.run"),
        "sim.result_to_dict_s": inclusive_s("sim.result_to_dict"),
        "sim.result_from_dict_s": inclusive_s("sim.result_from_dict"),
        "events.processed": counts.get("events", 0),
        "events.loop_self_s": loop_self_s,
        "cpu.dispatch_calls": calls("cpu.dispatch"),
        "cpu.dispatch_self_s": self_s("cpu.dispatch"),
        "cpu.completion_self_s": self_s("cpu.completion"),
        "cpu.instructions": counts.get("instructions", 0),
        "hybrid.access_calls": calls("hybrid.access"),
        "hybrid.access_self_s": self_s("hybrid.access"),
        "hybrid.serve_self_s": self_s("hybrid.serve"),
        "hybrid.st_fetches": calls("hybrid.st_fetch"),
        "hybrid.st_fill_self_s": self_s("hybrid.st_fill"),
        "hybrid.promotions_requested": promotions,
        "hybrid.swaps": counts.get("swaps", 0),
        "hybrid.swap_accept_ratio": ratio(counts.get("swaps", 0), promotions),
        "cache.stc_hits": stc_hits,
        "cache.stc_misses": stc_misses,
        "cache.stc_hit_rate": ratio(stc_hits, stc_hits + stc_misses),
        "cache.stc_insert_self_s": self_s("cache.stc_insert"),
        "policies.on_access_calls": calls("policies.on_access"),
        "policies.on_access_self_s": self_s("policies.on_access"),
        "policies.on_st_eviction_self_s": self_s("policies.on_st_eviction"),
        "core.rsm_on_request_self_s": self_s("core.rsm_on_request"),
        "core.rsm_samples": counts.get("rsm_samples", 0),
        "mem.ticks": calls("mem.tick"),
        "mem.tick_self_s": self_s("mem.tick"),
        "mem.enqueue_calls": calls("mem.enqueue"),
        "mem.enqueue_self_s": self_s("mem.enqueue"),
        "mem.row_hit_rate": ratio(
            counts.get("row_hits", 0), counts.get("channel_accesses", 0)
        ),
        "mem.avg_read_latency_cycles": ratio(
            counts.get("read_latency_sum", 0), counts.get("read_count", 0)
        ),
        "exec.wave_s": inclusive_s("exec.wave"),
        "exec.cache_gets": gets,
        "exec.cache_get_s": inclusive_s("exec.cache_get"),
        "exec.cache_hit_ratio": ratio(counts.get("cache_hits", 0), gets),
        "exec.cache_puts": calls("exec.cache_put"),
        "exec.cache_put_s": inclusive_s("exec.cache_put"),
        "exec.cache_key_calls": calls("exec.cache_key"),
        "exec.cache_key_s": inclusive_s("exec.cache_key"),
        "exec.journal_append_s": inclusive_s("exec.journal_append"),
        "experiments.driver_self_s": self_s("experiments.driver"),
        "experiments.prefetch_s": inclusive_s("experiments.prefetch"),
        # sim.run_s = layer_self_s + events.loop_self_s + unattributed_s.
        "trace.layer_self_s": sum(
            total[2] for name, total in totals.items()
            if name.startswith(SIMULATOR_LAYERS)
        ) / 1e9,
        # The traced run's time inside sim.run that is neither in a layer
        # span nor in the event loop proper: wrapper cost the kernel's
        # callback timers see but the spans do not, plus run start-up
        # and result collection.
        "trace.unattributed_s": self_s("sim.run") - loop_self_s,
    }
