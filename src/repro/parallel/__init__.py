"""Functional distributed training runtime.

This package runs *real* data-parallel SGD -- numpy forward/backward passes
on model replicas, gradients exchanged through the substrates in
:mod:`repro.comm`, wait-free backpropagation via per-worker thread pools and
BSP barriers -- inside a single process with one thread per worker.  It is
the correctness half of the reproduction: convergence comparisons
(Figure 11), replica-consistency and serial-equivalence properties are all
demonstrated on it.  Wall-clock performance on a real cluster is the job of
:mod:`repro.simulation`.
"""

from repro.parallel.schemes import SchemeAssignment, assign_schemes
from repro.parallel.trainer import DistributedTrainer, TrainingHistory
from repro.parallel.serial import simulate_synchronous_sgd

__all__ = [
    "SchemeAssignment",
    "assign_schemes",
    "DistributedTrainer",
    "TrainingHistory",
    "simulate_synchronous_sgd",
]
