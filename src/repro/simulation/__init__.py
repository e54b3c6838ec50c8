"""Throughput, traffic and convergence simulation.

This package turns a model architecture + cluster configuration + system
descriptor into the quantities the paper's evaluation reports:

* :mod:`repro.simulation.workload` -- derive a per-layer compute/communication
  workload from a :class:`~repro.nn.spec.ModelSpec`, calibrated against the
  paper's single-node throughput.
* :mod:`repro.simulation.throughput` -- the flow-level discrete-event
  simulation of one training iteration: GPU compute, per-layer
  synchronization under PS/SFB/Adam/1-bit with or without WFBP, per-node
  traffic and GPU stall accounting.
* :mod:`repro.simulation.fluid` -- the fluid-mode analytic engine: the same
  per-iteration quantity as the DES computed in closed form (plus bandwidth
  axis sweeps), for interactive what-if at 1k-10k nodes.
* :mod:`repro.simulation.speedup` -- scaling sweeps (speedup vs. nodes,
  bandwidth sweeps).
* :mod:`repro.simulation.convergence` -- statistical-performance models for
  the ResNet-152 experiment (Figure 9b).
"""

from repro.simulation.workload import IterationWorkload, SyncUnit, build_workload
from repro.simulation.throughput import SimulationResult, simulate_system
from repro.simulation.fluid import (
    ENGINES,
    FLUID_NODE_THRESHOLD,
    FluidSimulator,
    resolve_engine,
    simulate_fluid,
    sweep_axis,
    use_engine,
)
from repro.simulation.speedup import ScalingCurve, scaling_curve
from repro.simulation.convergence import (
    ConvergenceCurve,
    epochs_to_error,
    resnet152_error_curve,
)

__all__ = [
    "IterationWorkload",
    "SyncUnit",
    "build_workload",
    "SimulationResult",
    "simulate_system",
    "ENGINES",
    "FLUID_NODE_THRESHOLD",
    "FluidSimulator",
    "resolve_engine",
    "simulate_fluid",
    "sweep_axis",
    "use_engine",
    "ScalingCurve",
    "scaling_curve",
    "ConvergenceCurve",
    "epochs_to_error",
    "resnet152_error_curve",
]
