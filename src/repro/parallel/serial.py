"""Single-process reference trainer.

:func:`simulate_synchronous_sgd` is an *exact* serial emulation of BSP
data-parallel SGD: at every iteration it computes each worker's gradient on
that worker's batch, averages them, and applies one update.  The
distributed trainer must produce bit-for-bit (up to float tolerance) the
same parameters; the equivalence tests and the benchmark's loss check rely
on this function.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.config import TrainingConfig
from repro.nn.network import Network
from repro.nn.optim import SGD


def simulate_synchronous_sgd(
        network: Network,
        worker_batches: Callable[[int, int], Sequence[Tuple[np.ndarray, np.ndarray]]],
        num_workers: int,
        iterations: int,
        training: TrainingConfig,
        aggregation: str = "mean") -> List[float]:
    """Serially emulate BSP data-parallel SGD.

    Args:
        network: the single "global" model, updated in place.
        worker_batches: callable ``(iteration, worker_id) -> (images, labels)``
            returning the batch each worker would draw; the distributed
            trainer uses the same callable so the two runs see identical data.
        num_workers: number of emulated workers.
        iterations: number of iterations to run.
        training: hyper-parameters (learning rate, momentum, ...).
        aggregation: ``"mean"`` or ``"sum"`` of worker gradients, matching the
            parameter server's setting.

    Returns:
        Per-iteration mean loss across emulated workers.
    """
    optimizer = SGD(
        learning_rate=training.learning_rate,
        momentum=training.momentum,
        weight_decay=training.weight_decay,
    )
    losses: List[float] = []
    for step in range(iterations):
        accumulated: Dict[str, Dict[str, np.ndarray]] = {}
        step_losses = []
        for worker_id in range(num_workers):
            images, labels = worker_batches(step, worker_id)
            loss = network.train_step(images, labels)
            step_losses.append(loss)
            for layer_name, grads in network.get_gradients().items():
                bucket = accumulated.setdefault(layer_name, {})
                for key, grad in grads.items():
                    if key in bucket:
                        bucket[key] = bucket[key] + grad
                    else:
                        bucket[key] = grad.copy()
        scale = 1.0 / num_workers if aggregation == "mean" else 1.0
        for layer_name, grads in accumulated.items():
            layer = network.layer_by_name(layer_name)
            for key, grad in grads.items():
                optimizer.apply(f"{layer_name}/{key}", layer.params[key], grad * scale)
        losses.append(float(np.mean(step_losses)))
    return losses
