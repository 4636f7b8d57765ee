"""The hot-path manifest: the perf contract behind DESIGN.md §10/§14.

PR 2's kernel fast path assumes a specific set of structs stays *slim*
(``__slots__``, fixed attribute sets) and a specific set of functions
stays *pure* (no f-strings, logging, or try/except on the per-event
path).  This module is the single place that contract is written down;
the H-rules of :mod:`repro.lint` enforce it statically, and the perf
harness (``profess perf``) measures what it buys.

Adding a class here obliges it to declare ``__slots__`` (H201) and to
create every instance attribute inside ``__init__`` (H202).  Adding a
function here forbids introducing f-strings, logging/print calls, or
try/except inside its body (H203; f-strings inside ``raise`` statements
are exempt — the error path is allowed to format).

The columnar memory kernel (DESIGN.md §14) adds a third obligation:
functions in :data:`HOT_BATCH_FUNCTIONS` form the fused per-tick loop
over the structure-of-arrays queues and must stay *allocation-free* —
no container displays/constructors, comprehensions, lambdas, closures,
``functools.partial``, or project-class construction per event (H204).
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
        "repro.mem.batch.RequestBatch",
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
        "repro.mem.batch.RequestBatch.push",
        "repro.mem.channel.Channel._tick_python",
        "repro.mem.channel.Channel.enqueue",
        "repro.mem.channel.Channel.enqueue_soa",
    }
)

#: The fused batched tick loop: one call per scheduling decision over
#: the SoA columns.  H204 bans per-request object allocation inside —
#: container displays/constructors, comprehensions, lambdas, nested
#: functions, ``functools.partial``, and project-class construction.
#: (All of these are also H203 hot functions.)
HOT_BATCH_FUNCTIONS: frozenset[str] = frozenset(
    {
        "repro.mem.batch.RequestBatch.push",
        "repro.mem.channel.Channel._tick_python",
        "repro.mem.channel.Channel.enqueue_soa",
    }
)
