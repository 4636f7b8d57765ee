"""The one table of layer entry points the tracer wraps.

Each row names a boundary (``layer.what``), the object that control passes
through to enter that layer, and how the wrapper treats the call.  A
target is ``"module:attribute"`` for a module-level function, or
``"module:Class.method"`` for a method; ``subclasses`` also wraps every
subclass that overrides the method (policy hooks are abstract on the base
class).  ``returns`` asks the wrapper to count calls whose return value is
truthy (``"true"``) or not ``None`` (``"not_none"``); ``result_count`` sums
an integer return value.

When the simulator is refactored and a target no longer resolves, the
tracer reports it as missing, leaves that boundary's metrics at zero and
carries on; update this table to follow the rename.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

#: Modules imported before wrapping, so every policy and RSM subclass
#: exists when ``subclasses`` rows walk the class tree.
PRELOAD_MODULES = (
    "repro.policies.registry",
    "repro.policies.pom",
    "repro.policies.static",
    "repro.policies.cameo",
    "repro.policies.mempod",
    "repro.policies.silcfm",
    "repro.core.mdm",
    "repro.core.profess",
    "repro.core.rsm_guided",
    "repro.exec.executor",
    "repro.exec.transport",
    "repro.sim.engine",
)


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped boundary."""

    #: Boundary name, ``layer.what``; the layer is the part before the dot.
    name: str
    #: ``module:attribute`` or ``module:Class.method``.
    target: str
    #: Also wrap overriding methods of every subclass of the class.
    subclasses: bool = False
    #: Count returns that are ``"true"`` (truthy) or ``"not_none"``.
    returns: Optional[str] = None
    #: Sum the call's integer return value (events processed).
    result_count: bool = False
    #: The call's first argument is a RunSpec; its cache key becomes the
    #: trace id of every span until the next such call.
    sets_trace_id: bool = False
    #: Before the call, sample ``self.<name>()`` into a histogram.
    sample_self: Optional[str] = None
    #: After the call, sample ``<return value>.<name>`` into a histogram.
    sample_return: Optional[str] = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


ENTRY_POINTS: tuple[EntryPoint, ...] = (
    # traces: synthesis (memoized lookups and real generations) and decode
    EntryPoint("traces.synthesize", "repro.exec.spec:synthesize_trace"),
    EntryPoint("traces.generate", "repro.traces.generator:_synthesize"),
    EntryPoint("traces.decode", "repro.traces.decode:TraceDecoder.__init__"),
    EntryPoint("traces.decode_chunk", "repro.traces.decode:TraceDecoder.chunk"),
    # exec -> sim hand-off: one call per simulated spec, in the process
    # that simulates it
    EntryPoint(
        "exec.build_traces", "repro.exec.executor:build_traces",
        sets_trace_id=True,
    ),
    # sim: driver construction and the run wrapper around the event loop
    EntryPoint("sim.build", "repro.sim.engine:SimulationDriver.__init__"),
    EntryPoint(
        "sim.run", "repro.sim.engine:SimulationDriver.run",
        sample_return="average_read_latency",
    ),
    # events: the dispatch loop (its callbacks are the child spans)
    EntryPoint(
        "events.loop", "repro.common.events:EventQueue.run",
        result_count=True,
    ),
    # cpu: TraceCore event callbacks and the per-request access call
    EntryPoint("cpu.issue", "repro.cpu.core_model:TraceCore._issue_next"),
    EntryPoint("cpu.dispatch", "repro.cpu.core_model:TraceCore._dispatch"),
    EntryPoint(
        "cpu.read_done", "repro.cpu.core_model:TraceCore._on_read_complete"
    ),
    EntryPoint(
        "cpu.write_done", "repro.cpu.core_model:TraceCore._on_write_complete"
    ),
    EntryPoint("cpu.access", "repro.sim.engine:SimulationDriver._access"),
    # hybrid: translation, the controller's request path and swaps
    EntryPoint(
        "hybrid.translate", "repro.hybrid.regions:PageTable.translate_line"
    ),
    EntryPoint(
        "hybrid.access", "repro.hybrid.memory:HybridMemoryController.access"
    ),
    EntryPoint(
        "hybrid.serve", "repro.hybrid.memory:HybridMemoryController._serve"
    ),
    EntryPoint(
        "hybrid.st_fill",
        "repro.hybrid.memory:HybridMemoryController._fill_st_entry",
    ),
    EntryPoint(
        "hybrid.promote",
        "repro.hybrid.memory:HybridMemoryController.request_promotion",
        returns="true",
    ),
    EntryPoint(
        "hybrid.promote_done",
        "repro.hybrid.memory:HybridMemoryController._complete_and_promote",
    ),
    EntryPoint(
        "hybrid.swap_done",
        "repro.hybrid.memory:HybridMemoryController._finish_swap",
    ),
    EntryPoint(
        "hybrid.stc_evicted",
        "repro.hybrid.memory:HybridMemoryController._on_stc_eviction",
    ),
    # cache: the lookup the STC binds, and STC insertion
    EntryPoint(
        "cache.stc_lookup", "repro.cache.sets:SetAssociativeCache.lookup",
        returns="not_none",
    ),
    EntryPoint("cache.stc_insert", "repro.cache.stc:STC.insert"),
    # policies: migration decisions and MDM's eviction statistics hook
    EntryPoint(
        "policies.on_access", "repro.policies.base:MigrationPolicy.on_access",
        subclasses=True, returns="not_none",
    ),
    EntryPoint(
        "policies.on_st_eviction",
        "repro.policies.base:MigrationPolicy.on_st_eviction",
        subclasses=True,
    ),
    # core: the RSM slowdown monitor
    EntryPoint(
        "core.rsm_request", "repro.core.rsm:RSM.on_request", subclasses=True
    ),
    EntryPoint("core.rsm_swap", "repro.core.rsm:RSM.on_swap", subclasses=True),
    # mem: channel enqueue and the tick callback
    EntryPoint("mem.enqueue", "repro.mem.channel:Channel.enqueue_soa"),
    EntryPoint(
        "mem.tick", "repro.mem.channel:Channel._tick_python",
        sample_self="queue_depth",
    ),
    # exec: result cache, journal and frame transport
    EntryPoint(
        "exec.cache_get", "repro.exec.cache:ResultCache.get",
        returns="not_none",
    ),
    EntryPoint("exec.cache_put", "repro.exec.cache:ResultCache.put"),
    EntryPoint("exec.journal", "repro.exec.resilience:RunJournal.append"),
    EntryPoint("exec.frame_read", "repro.exec.transport:FrameReader.read"),
    # experiments: reducer folds (the figure's and the benchmark's own)
    EntryPoint(
        "experiments.fold", "repro.exec.streaming:GroupReducer.fold",
        subclasses=True,
    ),
    EntryPoint("experiments.fold", "perfbench.workloads:WaveDigest.fold"),
)
