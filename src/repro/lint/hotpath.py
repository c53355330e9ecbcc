"""The hot-path manifest: the perf contract behind DESIGN.md §10/§14.

The simulator's per-event path assumes a specific set of structs stays
*slim* (``__slots__``, fixed attribute sets) and a specific set of
functions stays *pure* (no f-strings, logging, or try/except on the
per-event path).  This module is the single place that contract is
written down; the H-rules of :mod:`repro.lint` enforce it statically,
and the repository benchmark (``perfbench/``, ``BENCHMARK.json``)
measures what it buys end to end.

The manifest lists what the default (compiled) memory backend runs per
event.  The ``--mem-backend python`` reference path (``RequestBatch``,
``Channel._tick_python``/``enqueue_soa``/``enqueue``) is left off: no
benchmark workload runs it, and its speed is not a contract.

Adding a class here obliges it to declare ``__slots__`` (H201) and to
create every instance attribute inside ``__init__`` (H202).  Adding a
function here forbids introducing f-strings, logging/print calls, or
try/except inside its body (H203; f-strings inside ``raise`` statements
are exempt — the error path is allowed to format).
"""

from __future__ import annotations

#: Classes allocated or mutated once per event/request.  Every entry
#: must declare ``__slots__`` (directly or via ``dataclass(slots=True)``).
HOT_CLASSES: frozenset[str] = frozenset(
    {
        "repro.cache.sets.SetAssociativeCache",
        "repro.cache.stc.STC",
        "repro.cache.stc.STCEntry",
        "repro.common.events.EventQueue",
        "repro.core.mdm_stats.MDMProgramStats",
        "repro.cpu.core_model.TraceCore",
        "repro.hybrid.memory.CoreMemStats",
        "repro.hybrid.memory.HybridMemoryController",
        "repro.hybrid.memory._PendingFetch",
        "repro.hybrid.st.SwapGroupTable",
        "repro.hybrid.st_entry.STEntry",
        "repro.mem.bank.Bank",
        "repro.mem.channel.Channel",
        "repro.mem.channel.ChannelStats",
        "repro.mem.channel.ModuleState",
        "repro.mem.request.DeviceAddress",
        "repro.mem.request.MemRequest",
        "repro.policies.base.AccessContext",
        "repro.traces.decode.DecodedChunk",
        "repro.traces.decode.TraceDecoder",
    }
)

#: Functions on the per-event critical path (the inlined ``run()`` loops
#: and the per-request serve/issue chain).  H203 keeps them free of
#: formatting, logging, and exception-handling overhead.
HOT_FUNCTIONS: frozenset[str] = frozenset(
    {
        "repro.common.events.EventQueue.run",
        "repro.common.events.EventQueue.step",
        "repro.cpu.core_model.TraceCore._dispatch",
        "repro.cpu.core_model.TraceCore._issue_next",
        "repro.cpu.core_model.TraceCore._refill",
        "repro.hybrid.memory.HybridMemoryController._serve",
        "repro.hybrid.memory.HybridMemoryController.access",
    }
)
