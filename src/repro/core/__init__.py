"""Poseidon core: the paper's primary contribution.

* :mod:`repro.core.cost_model` -- the analytic communication-cost model of
  Table 1 and :class:`~repro.core.cost_model.CostModel`, which prices and
  picks a layer's scheme by its registered backend name.
* :mod:`repro.core.wfbp` -- wait-free backpropagation scheduling.
* :mod:`repro.core.syncer` -- per-layer syncers (Send / Receive / Move).
* :mod:`repro.core.consistency` -- bulk-synchronous consistency management.
* :mod:`repro.core.policy` -- execution semantics (BSP, SSP, async, local
  SGD), one field of :class:`repro.config.SystemConfig`.

The package imports none of them (:mod:`repro.config` reads the policy).
"""
