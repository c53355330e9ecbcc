"""Migration policies: the four baselines of Table 2 plus a no-migration
policy.  The paper's own policies (MDM, ProFess) live in :mod:`repro.core`
but implement the same :class:`~repro.policies.base.MigrationPolicy`
interface, so every scheme runs on the identical organization — the
methodological point of Section 2.3.

Construction goes through the composable registry
(:mod:`repro.policies.registry`)::

    from repro.policies import build_policy
    policy = build_policy("mdm+rsm+stc:lfu", config)

The concrete policy classes are importable from their defining modules
for subclassing.
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
