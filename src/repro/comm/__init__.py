"""Communication: every scheme's plan half and its trainer substrate.

:mod:`repro.comm.backend` holds each registered scheme's plan half -- the
Algorithm-1 cost, the schedule the simulators run and the capability
fields -- and the registry.  Each scheme's functional substrate (real
numpy payloads, thread-safe, BSP-consistent) and per-layer syncer live in
their own module, which the backend imports on its first
``build_substrate`` / ``make_syncer``:

* :class:`~repro.comm.parameter_server.ShardedParameterServer` -- the
  client/server scheme of Figure 2(a).
* :class:`~repro.comm.sfb.SufficientFactorBroadcaster` -- the peer-to-peer
  scheme of Figure 2(b).
* :class:`~repro.comm.adam.AdamSFServer` -- Project Adam's SF-push /
  full-matrix-pull strategy (Section 3.2, Section 5.3).
* :mod:`repro.comm.quantization` -- CNTK's 1-bit quantization with error
  feedback (Section 5.3).
* :mod:`repro.comm.ring` and :mod:`repro.comm.hierarchical` -- ring
  all-reduce and the rack-aggregated parameter server.

The substrates are used by the functional distributed trainer
(:mod:`repro.parallel`); the *timing* of the same schemes on a cluster is
modelled separately by :mod:`repro.simulation` from the plan halves alone.

The package imports nothing: import each module by its own path, so the
planner (:mod:`repro.comm.backend`) loads no trainer code.
"""
