"""The unified simulation-request API: :class:`RunSpec`.

A ``RunSpec`` is a frozen, hashable, picklable description of exactly one
simulation: what to run (programs, policy, trace length, seeds) and the
complete :class:`~repro.common.config.SystemConfig` to run it under.  It
is self-contained — a worker process can execute one without any other
context — and content-addressed: :meth:`RunSpec.cache_key` digests every
field that affects the outcome, so equal keys mean interchangeable
results across processes, CLI invocations, and machines.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence

from repro.common.config import SystemConfig
from repro.common.serialize import canonical_digest
from repro.cpu.trace import Trace
from repro.traces.generator import synthesize_trace
from repro.common.errors import InvalidValueError

#: Run kinds; part of the cache key so e.g. a single-core run and a
#: stand-alone quad-core run of the same program never collide.
KINDS = ("single", "alone", "multi")


@dataclass(frozen=True)
class RunSpec:
    """A complete, content-addressable description of one simulation."""

    #: One of :data:`KINDS` ("single" / "alone" / "multi").
    kind: str
    #: Program mix, in core order; duplicates get distinct trace seeds.
    programs: tuple[str, ...]
    #: Policy spec string (see :func:`repro.policies.registry.build_policy`);
    #: canonicalized at construction so equivalent spellings of one
    #: composition (``"mdm+rsm"`` / ``"profess"``) share a cache key.
    policy: str
    config: SystemConfig
    #: Trace length per program, in requests.
    requests: int
    seed: int
    #: Capacity divisor used for trace synthesis.  Usually equals
    #: ``config.scale``, but kept separate because some sensitivity
    #: experiments vary the memory geometry while holding program
    #: footprints (and thus traces) fixed.
    trace_scale: int
    #: Enable per-region RSM accounting (Table 4 diagnostics).
    track_rsm_regions: bool = False
    #: Audit all controller invariants every N cycles during the run
    #: (0 = off).  Purely diagnostic — a corrupted run raises instead of
    #: returning — so it is deliberately EXCLUDED from :meth:`cache_key`:
    #: a validated result is interchangeable with an unvalidated one,
    #: and cached results are served without re-simulation.
    validate_every: int = 0

    #: The only fields :meth:`cache_key` leaves out of the content hash;
    #: every other dataclass field is keyed, including any added later.
    #: ``validate_every`` only toggles in-run invariant auditing — a
    #: validated result is byte-identical to an unvalidated one — so
    #: serving either from cache is sound.  See DESIGN.md §16.
    _CACHE_NEUTRAL_FIELDS = ("validate_every",)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise InvalidValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if not self.programs:
            raise InvalidValueError("a RunSpec needs at least one program")
        # Canonicalize the policy spec (frozen dataclass: object.__setattr__
        # is the sanctioned escape hatch in __post_init__).  Legacy names
        # map to themselves, so pre-redesign cache keys are untouched.
        from repro.policies.registry import canonical_policy

        object.__setattr__(self, "policy", canonical_policy(self.policy))

    def cache_key(self) -> str:
        """Stable content hash identifying this run's result.

        The digest walks every dataclass field except those named in
        ``_CACHE_NEUTRAL_FIELDS``, with the config's own token standing
        in for the config.  So any keyed field change — a program, the
        policy, one config value, the trace length, a seed, the
        diagnostics flag — yields a new key, a field added later is keyed
        without further edits, and re-creating an identical spec always
        yields the same key.

        The digest is computed once per instance and memoized on it (the
        spec and its nested config are frozen, so it cannot go stale).
        The memo is not a field: equality, hashing and ``replace()`` never
        see it, and it travels with the pickled spec to a worker.
        """
        memo = self.__dict__.get("_cache_key")
        if memo is not None:
            return memo
        payload = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in self._CACHE_NEUTRAL_FIELDS
        }
        payload["config"] = self.config.cache_token()
        key = canonical_digest(payload)
        object.__setattr__(self, "_cache_key", key)
        return key

    def describe(self) -> str:
        """Short human-readable label (progress lines, cache metadata)."""
        return f"{self.kind}:{'+'.join(self.programs)}:{self.policy}"

    def with_config(self, **overrides: object) -> "RunSpec":
        """A copy with top-level config fields replaced."""
        return replace(self, config=replace(self.config, **overrides))


def build_traces(spec: RunSpec) -> list[tuple[str, Trace]]:
    """Synthesize the (name, trace) pairs a spec's simulation consumes.

    Duplicate programs in a mix get distinct per-instance seeds
    (``seed * 1000 + instance``), matching the runner's convention.
    """
    return workload_traces(
        spec.programs, spec.requests, spec.trace_scale, spec.seed
    )


def workload_traces(
    programs: Sequence[str], requests: int, scale: int, seed: int
) -> list[tuple[str, Trace]]:
    """Traces for a program mix; duplicates get distinct seeds."""
    seen: dict[str, int] = {}
    traces = []
    for program in programs:
        instance = seen.get(program, 0)
        seen[program] = instance + 1
        traces.append(
            (
                program,
                synthesize_trace(
                    program,
                    num_requests=requests,
                    scale=scale,
                    seed=seed * 1000 + instance,
                ),
            )
        )
    return traces
