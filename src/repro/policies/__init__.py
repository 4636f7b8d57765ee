"""Migration policies: the four baselines of Table 2 (CAMEO, PoM,
SILC-FM, MemPod) plus a no-migration policy (``static``).  The paper's
own policies (MDM, ProFess) and RSM-guided PoM live in :mod:`repro.core`
but implement the same :class:`~repro.policies.base.MigrationPolicy`
interface, so every scheme runs on the identical organization — the
methodological point of Section 2.3.

Construction goes through the composable registry
(:mod:`repro.policies.registry`), whose specs set two axes on a base
algorithm, RSM guidance and the STC replacement policy::

    from repro.policies import build_policy
    policy = build_policy("mdm+rsm+stc:lfu", config)

The concrete policy classes are not re-exported here: constructing one
directly skips the spec's STC axis and canonical naming.  Import a class
from its defining module (e.g. :mod:`repro.policies.pom`) to subclass it.
"""

from repro.policies.base import AccessContext, MigrationPolicy
from repro.policies.registry import (
    PolicySpec,
    RegisteredPolicy,
    build_policy,
    canonical_policy,
    guided_bases,
    iter_registered,
    register_policy,
    registry_names,
)

__all__ = [
    "AccessContext",
    "MigrationPolicy",
    "PolicySpec",
    "RegisteredPolicy",
    "build_policy",
    "canonical_policy",
    "guided_bases",
    "iter_registered",
    "register_policy",
    "registry_names",
]
