"""Trace assembly: profile + scale + length -> :class:`repro.cpu.trace.Trace`.

Footprints scale by the same divisor as M1 capacity (``SystemConfig.scale``)
so footprint-to-M1 pressure matches the paper; instruction gaps are drawn
geometrically with mean 1000/MPKI.  Generation is deterministic in
(profile, requests, scale, seed) and memoized, so every policy comparison
replays byte-identical traces.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

import numpy as np

from repro.common.errors import TraceError
from repro.common.rng import make_rng
from repro.common.units import MB
from repro.cpu.trace import Trace
from repro.traces.draws import DrawStream
from repro.traces.patterns import (
    ChaseComponent,
    HotSetComponent,
    PatternComponent,
    StreamComponent,
    LINES_PER_BLOCK,
)
from repro.traces.spec import ProgramProfile, profile as lookup_profile

#: Lines per 4-KB page.
LINES_PER_PAGE = 64

_COMPONENT_KINDS = {
    "stream": StreamComponent,
    "hot": HotSetComponent,
    "chase": ChaseComponent,
}


def footprint_pages(profile: ProgramProfile, scale: int) -> int:
    """Scaled footprint in 4-KB pages (>= 4 pages so traces stay valid)."""
    pages = int(round(profile.footprint_mb * MB / scale / 4096))
    return max(pages, 4)


def _build_components(
    profile: ProgramProfile, total_lines: int
) -> list[PatternComponent]:
    components: list[PatternComponent] = []
    cursor = 0
    shares = [spec.share for spec in profile.components]
    normalizer = sum(shares)
    for spec, share in zip(profile.components, shares):
        num_lines = int(total_lines * share / normalizer)
        num_lines -= num_lines % LINES_PER_BLOCK
        num_lines = max(num_lines, LINES_PER_BLOCK)
        if cursor + num_lines > total_lines:
            num_lines = total_lines - cursor
            num_lines -= num_lines % LINES_PER_BLOCK
        if num_lines < LINES_PER_BLOCK:
            raise TraceError(
                f"{profile.name}: footprint too small for its components; "
                "reduce scale"
            )
        factory = _COMPONENT_KINDS[spec.kind]
        components.append(
            factory(
                start_line=cursor,
                num_lines=num_lines,
                write_fraction=spec.write_fraction,
                **spec.params,
            )
        )
        cursor += num_lines
    return components


def synthesize_trace(
    program: str | ProgramProfile,
    num_requests: int,
    scale: int = 1,
    seed: int = 0,
) -> Trace:
    """Generate one program's main-memory trace.

    ``program`` may be a Table 9 name or a custom profile.  The result is
    memoized for name-based lookups (see :func:`cached_trace`).
    """
    if isinstance(program, str):
        return cached_trace(program, num_requests, scale, seed)
    return _synthesize(program, num_requests, scale, seed)


@lru_cache(maxsize=128)
def cached_trace(
    name: str, num_requests: int, scale: int, seed: int
) -> Trace:
    """Memoized trace synthesis for Table 9 programs."""
    return _synthesize(lookup_profile(name), num_requests, scale, seed)


def _synthesize(
    profile: ProgramProfile, num_requests: int, scale: int, seed: int
) -> Trace:
    if num_requests < 1:
        raise TraceError("num_requests must be >= 1")
    rng = make_rng(seed, "trace", profile.name, scale, num_requests)
    total_lines = footprint_pages(profile, scale) * LINES_PER_PAGE
    components = _build_components(profile, total_lines)
    weights = np.array([spec.weight for spec in profile.components])
    weights = weights / weights.sum()

    # Pick the component of every request up front (cheap, vectorized),
    # then let each component's state machine produce its accesses in
    # stream order — this preserves each component's internal locality
    # while interleaving them like a real instruction stream would.
    choices = rng.choice(len(components), size=num_requests, p=weights)
    mean_gap = max(1000.0 / profile.mpki - 1.0, 0.0)
    if mean_gap > 0:
        gaps = rng.geometric(1.0 / (mean_gap + 1.0), size=num_requests) - 1
    else:
        gaps = np.zeros(num_requests, dtype=np.int64)

    # The per-request draws come from batches of raw bit-generator
    # output, bit-identical to scalar Generator calls (repro.traces.draws).
    draws = DrawStream(rng)
    steps = [component.walker(draws) for component in components]
    accesses = [steps[index]() for index in choices.tolist()]
    return Trace(
        gaps=gaps.astype(np.int64),
        lines=np.fromiter(
            map(itemgetter(0), accesses), np.int64, num_requests
        ),
        writes=np.fromiter(
            map(itemgetter(1), accesses), np.bool_, num_requests
        ),
    )
