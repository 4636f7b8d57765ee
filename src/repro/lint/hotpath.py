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

The channel's fused tick (DESIGN.md §14) adds a third obligation:
functions in :data:`HOT_BATCH_FUNCTIONS` form the per-tick loop over
the channel's request queues and must stay *allocation-free* beyond the
one request tuple a queue stores — no list/set/dict displays or
constructors, comprehensions, lambdas, closures, ``functools.partial``,
or project-class construction per event (H204).
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
        "repro.hybrid.st.SwapGroupTable",
        "repro.hybrid.st_entry.STEntry",
        "repro.mem.channel.Channel",
        "repro.mem.channel.ChannelStats",
        "repro.mem.channel.ModuleState",
        "repro.mem.request.DeviceAddress",
        "repro.policies.base.AccessContext",
        "repro.traces.decode.DecodedChunk",
        "repro.traces.decode.TraceDecoder",
    }
)

#: Functions on the per-event critical path (the inlined ``run()`` loops
#: and the per-request serve/issue chain).  H203 keeps them free of
#: formatting, logging, and exception-handling overhead.  ``access``
#: hands the ``STCEntry`` its probe found to ``_serve``, which trusts it
#: while it is ``resident``; ``STC.insert`` clears that flag on every
#: fill, so it is on the chain too.  The STC probe, the RSM count and
#: PoM's decision run once per request; the fill, eviction and swap
#: bookkeeping once per STC miss or swap.
HOT_FUNCTIONS: frozenset[str] = frozenset(
    {
        "repro.cache.sets.SetAssociativeCache.lookup",
        "repro.cache.stc.STC.insert",
        "repro.common.events.EventQueue.run",
        "repro.common.events.EventQueue.step",
        "repro.core.mdm.MDMPolicy.on_st_eviction",
        "repro.core.rsm.RSM.on_request",
        "repro.cpu.core_model.TraceCore._dispatch",
        "repro.cpu.core_model.TraceCore._issue_next",
        "repro.cpu.core_model.TraceCore._refill",
        "repro.hybrid.memory.HybridMemoryController._fill_st_entry",
        "repro.hybrid.memory.HybridMemoryController._on_stc_eviction",
        "repro.hybrid.memory.HybridMemoryController._serve",
        "repro.hybrid.memory.HybridMemoryController.access",
        "repro.hybrid.memory.HybridMemoryController.request_promotion",
        "repro.mem.channel.Channel._tick_python",
        "repro.mem.channel.Channel.enqueue_soa",
        "repro.policies.pom.PoMPolicy.on_access",
    }
)

#: The fused tick loop: one call per scheduling decision over the
#: channel's queues.  H204 bans per-request object allocation inside —
#: list/set/dict displays and container constructors, comprehensions,
#: lambdas, nested functions, ``functools.partial``, and project-class
#: construction.  (All of these are also H203 hot functions.)
HOT_BATCH_FUNCTIONS: frozenset[str] = frozenset(
    {
        "repro.mem.channel.Channel._tick_python",
        "repro.mem.channel.Channel.enqueue_soa",
    }
)
