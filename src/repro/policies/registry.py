"""The composable policy registry: specs, registration, and the factory.

The paper's Section 6 observes that RSM guidance composes with migration
algorithms other than MDM; this module makes every such composition axis
an explicit, sweepable coordinate instead of a hard-coded name:

* **base** — the migration algorithm (``pom``, ``mdm``, ``cameo``, ...).
* **guidance** — RSM fairness guidance on top of the base (Table 7).
* **stc_replacement** — replacement policy of the Swap-group Table
  Cache (:data:`repro.cache.sets.REPLACEMENT_POLICIES`).

The swap type of Table 1 is not an axis: it belongs to the algorithm,
as the class attribute :attr:`~repro.policies.base.MigrationPolicy.
swap_style` (``slow`` for SILC-FM, ``fast`` for every other policy).

A :class:`PolicySpec` is the frozen, hashable value of those axes, and
the only place an axis is set.  The text form composes with ``+``::

    mdm+rsm+stc:lfu

Policy classes register themselves with :func:`register_policy`;
:func:`build_policy` replaces the old ``make_policy`` name-to-constructor
mapping and is the ONLY sanctioned way to construct a policy outside
``repro.policies`` / ``repro.core`` (lint rule C305 enforces this).

Canonicalization keeps cache keys stable and deduplicated: a spec whose
axes match a registered name exactly renders back to that name
(``mdm+rsm`` -> ``profess``), and an STC replacement equal to the
class's own default is left out (``mdm+stc:lru`` -> ``mdm``), so
pre-redesign :class:`~repro.exec.spec.RunSpec` cache keys for plain
policy names are untouched, and equivalent spellings of one composition
share a single cached result.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

from repro.cache.sets import REPLACEMENT_POLICIES
from repro.common.config import SystemConfig
from repro.common.errors import PolicySpecError, UnknownPolicyError

if TYPE_CHECKING:
    from repro.policies.base import MigrationPolicy


@dataclass(frozen=True)
class PolicySpec:
    """One point in the policy composition space (frozen, hashable).

    An empty ``stc_replacement`` means "inherit": it resolves to the
    policy class's own default.
    """

    #: Base migration algorithm (a non-guided registered name).
    base: str
    #: RSM fairness guidance on top of the base (Table 7 cases).
    guidance: bool = False
    #: "" = inherit; otherwise one of :data:`REPLACEMENT_POLICIES`.
    stc_replacement: str = ""

    def __post_init__(self) -> None:
        if not self.base or self.base != self.base.lower():
            raise PolicySpecError(
                f"base must be a lowercase policy name, got {self.base!r}"
            )
        if (
            self.stc_replacement
            and self.stc_replacement not in REPLACEMENT_POLICIES
        ):
            raise PolicySpecError(
                f"stc_replacement must be one of {REPLACEMENT_POLICIES}, "
                f"got {self.stc_replacement!r}"
            )

    # ------------------------------------------------------------------
    # Text form
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "PolicySpec":
        """Parse a ``base[+rsm][+stc:X]`` string.

        The first token must be a registered policy name (a base
        algorithm, or a registered composition like ``profess``, which
        expands to its base + guidance).  Axis tokens may appear in any
        order; repeating an axis is an error.
        """
        tokens = [token.strip() for token in text.lower().split("+")]
        if not tokens or not tokens[0]:
            raise PolicySpecError(f"empty policy spec {text!r}")
        _ensure_loaded()
        head = _REGISTRY.get(tokens[0])
        if head is None:
            raise UnknownPolicyError(tokens[0], registry_names())
        guidance = head.guidance
        stc_replacement = ""
        seen: set[str] = set()
        for token in tokens[1:]:
            axis, _, value = token.partition(":")
            if axis in seen:
                raise PolicySpecError(
                    f"duplicate axis {axis!r} in policy spec {text!r}"
                )
            seen.add(axis)
            if token == "rsm":
                guidance = True
            elif axis == "stc" and value:
                stc_replacement = value
            else:
                raise PolicySpecError(
                    f"unknown axis token {token!r} in policy spec {text!r}; "
                    "expected rsm or stc:POLICY"
                )
        return cls(
            base=head.base, guidance=guidance, stc_replacement=stc_replacement
        )

    def canonical(self) -> str:
        """The canonical text form (stable: feeds cache keys and labels).

        The (base, guidance) pair renders as its registered name when
        one exists (``mdm`` + guidance -> ``profess``), and an STC
        replacement equal to that class's default is omitted, as
        "inherit" is: a spec with default axes renders as exactly the
        legacy policy name, however it was spelled, and pre-redesign
        cache keys are preserved.
        """
        _ensure_loaded()
        registered = _BY_AXES.get((self.base, self.guidance))
        head = registered.name if registered is not None else self.base
        parts = [head]
        if registered is None and self.guidance:
            # No registered guided implementation: keep the axis visible
            # (build_policy rejects it with a better message).
            parts.append("rsm")
        if self.stc_replacement and (
            registered is None
            or self.stc_replacement != registered.cls.stc_replacement
        ):
            parts.append(f"stc:{self.stc_replacement}")
        return "+".join(parts)


@dataclass(frozen=True)
class RegisteredPolicy:
    """One registry entry: a name bound to a policy class and its axes."""

    name: str
    cls: type
    #: Base algorithm this class implements (== name for plain bases).
    base: str
    #: True when the class applies RSM guidance on top of the base.
    guidance: bool
    #: One-line description (defaults to the class docstring's first line).
    description: str


_REGISTRY: Dict[str, RegisteredPolicy] = {}
_BY_AXES: Dict[Tuple[str, bool], RegisteredPolicy] = {}
_LOADED = False

#: Modules whose import populates the registry.  Their order is the
#: listing order of :func:`iter_registered`, whatever a process happens
#: to import first.
_POLICY_MODULES = (
    "repro.core.mdm",
    "repro.core.profess",
    "repro.policies.static",
    "repro.policies.cameo",
    "repro.policies.pom",
    "repro.policies.silcfm",
    "repro.policies.mempod",
    "repro.core.rsm_guided",
)
_MODULE_RANK = {module: rank for rank, module in enumerate(_POLICY_MODULES)}


def register_policy(
    name: str,
    *,
    base: Optional[str] = None,
    guidance: bool = False,
    description: Optional[str] = None,
):
    """Class decorator registering a :class:`MigrationPolicy` subclass.

    ``name`` is the canonical registry name; ``base`` names the
    underlying algorithm when the class is a guided composition (e.g.
    ProFess registers as ``name="profess", base="mdm", guidance=True``).
    """

    def _register(cls: type) -> type:
        existing = _REGISTRY.get(name)
        if existing is not None and existing.cls is not cls:
            raise PolicySpecError(
                f"policy name {name!r} already registered to "
                f"{existing.cls.__name__}"
            )
        doc = (cls.__doc__ or "").strip().splitlines()
        entry = RegisteredPolicy(
            name=name,
            cls=cls,
            base=base or name,
            guidance=guidance,
            description=description or (doc[0] if doc else ""),
        )
        _REGISTRY[name] = entry
        _BY_AXES[(entry.base, entry.guidance)] = entry
        return cls

    return _register


def _ensure_loaded() -> None:
    """Import every policy module once so decorators have run."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    for module in _POLICY_MODULES:
        importlib.import_module(module)


def iter_registered() -> Iterator[RegisteredPolicy]:
    """Registered policies in :data:`_POLICY_MODULES` order; classes
    defined elsewhere follow, in registration order."""
    _ensure_loaded()
    last = len(_POLICY_MODULES)
    return iter(
        sorted(
            _REGISTRY.values(),
            key=lambda entry: _MODULE_RANK.get(entry.cls.__module__, last),
        )
    )


def registry_names() -> List[str]:
    """Sorted registered policy names (error messages, CLI listings)."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def guided_bases() -> List[str]:
    """Base names for which a guided (RSM) implementation exists."""
    _ensure_loaded()
    return sorted(
        entry.base for entry in _REGISTRY.values() if entry.guidance
    )


def canonical_policy(text: str) -> str:
    """Canonical spec string for any accepted policy spelling.

    Legacy names map to themselves (``"profess"`` -> ``"profess"``);
    equivalent compositions collapse (``"mdm+rsm"`` -> ``"profess"``).
    """
    return PolicySpec.parse(text).canonical()


def resolve_spec(spec: Union[str, PolicySpec]) -> PolicySpec:
    """Coerce a spec string or PolicySpec into a validated PolicySpec."""
    if isinstance(spec, PolicySpec):
        return spec
    return PolicySpec.parse(spec)


def build_policy(
    spec: Union[str, PolicySpec],
    config: SystemConfig,
    **kwargs: object,
) -> "MigrationPolicy":
    """Construct the policy a spec describes, with axes resolved.

    The STC replacement takes the spec's explicit value, else the
    policy class's own default; the swap style is always the class's.
    The returned instance carries the resolved ``stc_replacement``
    (read by the memory controller) and its ``name`` is the spec's
    canonical string, so results label themselves unambiguously.

    Extra keyword arguments pass through to the class constructor
    (e.g. ``build_policy("mdm", config, record_predictions=True)``).
    """
    spec = resolve_spec(spec)
    _ensure_loaded()
    entry = _BY_AXES.get((spec.base, spec.guidance))
    if entry is None:
        if spec.guidance:
            raise PolicySpecError(
                f"RSM guidance is not implemented for base {spec.base!r}; "
                f"guided bases: {guided_bases()}"
            )
        raise UnknownPolicyError(spec.base, registry_names())
    policy = entry.cls(config, **kwargs)
    if spec.stc_replacement:
        policy.stc_replacement = spec.stc_replacement
    policy.name = spec.canonical()
    return policy
