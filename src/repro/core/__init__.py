"""Poseidon core: the paper's primary contribution.

* :mod:`repro.core.cost_model` -- the analytic communication-cost model of
  Table 1 and :class:`CostModel`, which prices and picks a layer's scheme
  by its registered backend name.
* :mod:`repro.core.kvstore` -- fine-grained (2 MB) KV-pair partitioning of
  model parameters across server shards.
* :mod:`repro.core.wfbp` -- wait-free backpropagation scheduling.
* :mod:`repro.core.syncer` -- per-layer syncers (Send / Receive / Move).
* :mod:`repro.core.consistency` -- bulk-synchronous consistency management.
* :mod:`repro.core.poseidon` -- :class:`PoseidonContext`, the coordinator:
  information book (``Query``), ``BestScheme`` and the per-layer HybComm
  plan, a thin view over :func:`repro.comm.backend.choose_scheme` and the
  cost model.
"""

from repro.core.cost_model import CostModel
from repro.core.kvstore import KVPair, KVStorePartition
from repro.core.poseidon import CommunicationPlan, PoseidonContext, SyncDecision
from repro.core.wfbp import ScheduleMode, WFBPScheduler
from repro.core.consistency import BSPController
from repro.core.staleness import SSPClock

__all__ = [
    "SSPClock",
    "CostModel",
    "SyncDecision",
    "KVPair",
    "KVStorePartition",
    "CommunicationPlan",
    "PoseidonContext",
    "ScheduleMode",
    "WFBPScheduler",
    "BSPController",
]
