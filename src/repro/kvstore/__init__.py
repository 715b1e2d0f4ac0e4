"""In-memory key-value stores modelled on Redis: one command table,
two stores that apply it.

The paper (§IV) keeps the dirty table in Redis as a LIST, manipulated
with RPUSH / LPOP / LRANGE, and notes the table "is maintained in a
distributed key-value store across the storage servers to balance the
storage usage and the lookup load" (§III-E-2).  :mod:`~.commands` says
what the commands the paper uses mean (and the handful of adjacent
ones the tests exercise); :class:`KVStore` applies them to a dict;
:class:`ReplicatedKVStore` applies them across the storage servers —
ring-successor replica sets (at ``replicas=1``, plain hash sharding),
and what a real deployment cannot live without: quorum replication,
epoch-numbered view changes, and anti-entropy repair — so the metadata
survives the same faults :mod:`repro.faults` injects everywhere else.
The churn harness (:mod:`repro.kvstore.harness`) drives it through
membership churn under injected faults with the online consistency
checkers attached.
"""

from repro.kvstore.commands import WrongTypeError
from repro.kvstore.store import KVStore
from repro.kvstore.replicated import (
    NoQuorumError,
    ReplicatedKVStore,
    Session,
    StaleSessionError,
    View,
)

#: Harness exports resolved lazily (PEP 562): the harness pulls in
#: repro.faults -> repro.cluster -> repro.core, and repro.core imports
#: this package for the dirty table's backend — an eager import here
#: would close that cycle.
_HARNESS_EXPORTS = ("KVChurnResult", "run_kv_churn",
                    "render_kv_churn_report")


def __getattr__(name):
    if name in _HARNESS_EXPORTS:
        from repro.kvstore import harness
        return getattr(harness, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "KVStore",
    "WrongTypeError",
    "ReplicatedKVStore",
    "NoQuorumError",
    "StaleSessionError",
    "Session",
    "View",
    "KVChurnResult",
    "run_kv_churn",
    "render_kv_churn_report",
]
