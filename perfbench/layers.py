"""Per-layer metrics, derived from one traced repetition.

``_s`` metrics are self seconds: a boundary's span time minus the time of
the spans it caused.  Counts and rates read off return values and call
counts repeat exactly from run to run; times carry the tracing overhead.
"""

from __future__ import annotations

#: name -> unit, in report order.
LAYER_METRICS: dict[str, str] = {
    "traces.synth_s": "s",
    "traces.synth_calls": "count",
    "traces.memo_hit_frac": "frac",
    "traces.decode_s": "s",
    "sim.build_s": "s",
    "sim.finalize_s": "s",
    "events.count": "count",
    "events.loop_self_s": "s",
    "events.ns_per_event": "ns",
    "cpu.self_s": "s",
    "cpu.requests": "count",
    "hybrid.translate_s": "s",
    "hybrid.access_s": "s",
    "hybrid.serve_s": "s",
    "hybrid.st_fill_s": "s",
    "hybrid.st_fetches": "count",
    "hybrid.swap_s": "s",
    "hybrid.swaps": "count",
    "hybrid.swap_accept_frac": "frac",
    "cache.stc_lookups": "count",
    "cache.stc_hit_rate": "frac",
    "cache.stc_insert_s": "s",
    "policies.on_access_s": "s",
    "policies.on_access_calls": "count",
    "policies.promote_frac": "frac",
    "policies.on_st_eviction_s": "s",
    "core.rsm_s": "s",
    "core.rsm_calls": "count",
    "mem.enqueues": "count",
    "mem.enqueue_s": "s",
    "mem.ticks": "count",
    "mem.tick_s": "s",
    "mem.queue_depth_p90": "count",
    "mem.read_latency_cy": "cycles",
    "exec.specs": "count",
    "exec.sim_s": "s",
    "exec.overhead_frac": "frac",
    "exec.cache_put_s": "s",
    "exec.journal_s": "s",
    "exec.frame_read_s": "s",
    "exec.cache_get_s": "s",
    "exec.cache_hit_frac": "frac",
    "experiments.reduce_s": "s",
    "tracer.overhead_frac": "frac",
    "tracer.missing_entry_points": "count",
}

_CPU = ("cpu.issue", "cpu.dispatch", "cpu.read_done", "cpu.write_done",
        "cpu.access")
_SWAP = ("hybrid.promote", "hybrid.promote_done", "hybrid.swap_done")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(histogram: dict, share: float) -> float:
    """Smallest sampled value with at least ``share`` of samples at or
    below it (0 for an empty histogram)."""
    samples = sorted((float(value), count) for value, count in histogram.items())
    needed = share * sum(count for _, count in samples)
    seen = 0
    for value, count in samples:
        seen += count
        if seen >= needed:
            return value
    return 0.0


def layer_metrics(
    trace: dict, traced_wall: float, untraced_wall: float, workers: int
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value for one traced repetition."""
    rows = trace["boundaries"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "hits": 0, "count": 0}

    def row(name: str) -> dict:
        return rows.get(name, empty)

    def self_s(*names: str) -> float:
        return sum(row(name)["self_s"] for name in names)

    def calls(*names: str) -> int:
        return sum(row(name)["calls"] for name in names)

    latency = trace["histograms"].get("sim.run", {})
    latency_runs = sum(latency.values())
    sim_s = sum(
        row(name)["total_s"]
        for name in ("exec.build_traces", "sim.build", "sim.run")
    )
    events = row("events.loop")["count"]
    cache_gets = calls("exec.cache_get")
    return {
        "traces.synth_s": self_s("traces.synthesize", "traces.generate"),
        "traces.synth_calls": calls("traces.generate"),
        "traces.memo_hit_frac": 1.0 - _ratio(
            calls("traces.generate"), calls("traces.synthesize")
        ) if calls("traces.synthesize") else 0.0,
        "traces.decode_s": self_s("traces.decode", "traces.decode_chunk"),
        "sim.build_s": self_s("sim.build"),
        "sim.finalize_s": self_s("sim.run"),
        "events.count": events,
        "events.loop_self_s": self_s("events.loop"),
        "events.ns_per_event": _ratio(self_s("events.loop") * 1e9, events),
        "cpu.self_s": self_s(*_CPU),
        "cpu.requests": calls("cpu.access"),
        "hybrid.translate_s": self_s("hybrid.translate"),
        "hybrid.access_s": self_s("hybrid.access"),
        "hybrid.serve_s": self_s("hybrid.serve", "hybrid.stc_evicted"),
        "hybrid.st_fill_s": self_s("hybrid.st_fill"),
        "hybrid.st_fetches": calls("hybrid.st_fill"),
        "hybrid.swap_s": self_s(*_SWAP),
        "hybrid.swaps": row("hybrid.promote")["hits"],
        "hybrid.swap_accept_frac": _ratio(
            row("hybrid.promote")["hits"], calls("hybrid.promote")
        ),
        "cache.stc_lookups": calls("cache.stc_lookup"),
        "cache.stc_hit_rate": _ratio(
            row("cache.stc_lookup")["hits"], calls("cache.stc_lookup")
        ),
        "cache.stc_insert_s": self_s("cache.stc_insert"),
        "policies.on_access_s": self_s("policies.on_access"),
        "policies.on_access_calls": calls("policies.on_access"),
        "policies.promote_frac": _ratio(
            row("policies.on_access")["hits"], calls("policies.on_access")
        ),
        "policies.on_st_eviction_s": self_s("policies.on_st_eviction"),
        "core.rsm_s": self_s("core.rsm_request", "core.rsm_swap"),
        "core.rsm_calls": calls("core.rsm_request", "core.rsm_swap"),
        "mem.enqueues": calls("mem.enqueue"),
        "mem.enqueue_s": self_s("mem.enqueue"),
        "mem.ticks": calls("mem.tick"),
        "mem.tick_s": self_s("mem.tick"),
        "mem.queue_depth_p90": percentile(
            trace["histograms"].get("mem.tick", {}), 0.9
        ),
        "mem.read_latency_cy": _ratio(
            sum(float(value) * count for value, count in latency.items()),
            latency_runs,
        ),
        "exec.specs": calls("exec.build_traces") + row("exec.cache_get")["hits"],
        "exec.sim_s": sim_s,
        "exec.overhead_frac": max(
            0.0, 1.0 - _ratio(sim_s, traced_wall * workers)
        ),
        "exec.cache_put_s": self_s("exec.cache_put"),
        "exec.journal_s": self_s("exec.journal"),
        "exec.frame_read_s": self_s("exec.frame_read"),
        "exec.cache_get_s": self_s("exec.cache_get"),
        "exec.cache_hit_frac": _ratio(row("exec.cache_get")["hits"], cache_gets),
        "experiments.reduce_s": self_s("experiments.fold"),
        "tracer.overhead_frac": _ratio(
            traced_wall - untraced_wall, untraced_wall
        ),
        "tracer.missing_entry_points": len(trace["missing"]),
    }
