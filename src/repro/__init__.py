"""Poseidon reproduction library.

This package reproduces the system described in *"Poseidon: An Efficient
Communication Architecture for Distributed Deep Learning on GPU Clusters"*
(Zhang et al., USENIX ATC 2017).

The library is organised in layers, bottom-up, around the configuration
values of :mod:`repro.config` -- the cluster, the training run and the
*system* (schedule, partitioning, overlap, scheme, policy, fault and wire
axes; the paper's Caffe and TensorFlow systems are named values of it):

* :mod:`repro.nn` -- a numpy neural-network substrate plus a model zoo whose
  per-layer specifications match the networks evaluated in the paper.
* :mod:`repro.data` -- synthetic stand-ins for the paper's datasets.
* :mod:`repro.sim` -- a small process-based discrete-event simulation engine.
* :mod:`repro.cluster` -- GPU machines, NICs and links built on :mod:`repro.sim`.
* :mod:`repro.comm` -- every scheme's plan half (cost and schedule, in
  :mod:`repro.comm.backend`) over its substrate: parameter server,
  sufficient-factor broadcasting, the Adam strategy, 1-bit quantization,
  ring all-reduce and the hierarchical parameter server.
* :mod:`repro.core` -- Poseidon itself: the Table-1 cost model, syncers,
  wait-free backpropagation and hybrid communication.  The coordinator's
  per-layer decision is one rule, :func:`repro.comm.backend.choose_scheme`,
  which the trainer and the simulators' plan
  (:func:`repro.simulation.plan.resolve_plan`) both call.
* :mod:`repro.parallel` -- a functional (threaded, real numpy math)
  data-parallel training runtime.
* :mod:`repro.simulation` -- throughput/traffic/convergence simulation used
  by the experiment harness.
* :mod:`repro.experiments` -- the paper's tables and figures: a sweep figure
  is one :class:`~repro.experiments.figure.Figure` value.

The package itself re-exports only the :mod:`repro.config` values; every
other name is imported by its module's path, so ``import repro`` loads no
trainer code.
"""

from repro.version import __version__
from repro.config import (
    BandwidthPreset,
    ClusterConfig,
    GpuModel,
    TrainingConfig,
)

__all__ = [
    "__version__",
    "BandwidthPreset",
    "ClusterConfig",
    "GpuModel",
    "TrainingConfig",
]
