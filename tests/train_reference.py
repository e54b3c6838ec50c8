"""Training-side references the tests compare against.

A synthetic dataset for the MLP tests, and reads of a trainer's or a
parameter server's state that nothing outside the tests needs.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np


def make_linearly_separable(num_train: int = 1_024, num_test: int = 256,
                            input_dim: int = 64, num_classes: int = 10,
                            margin: float = 2.0, seed: int = 0
                            ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """A flat-feature classification problem for MLP-based unit tests.

    Returns:
        ``(train_x, train_y, test_x, test_y)`` arrays.
    """
    rng = np.random.default_rng(seed)
    centroids = rng.standard_normal((num_classes, input_dim)) * margin
    train_y = rng.integers(0, num_classes, size=num_train)
    test_y = rng.integers(0, num_classes, size=num_test)
    train_x = centroids[train_y] + rng.standard_normal((num_train, input_dim))
    test_x = centroids[test_y] + rng.standard_normal((num_test, input_dim))
    return (
        train_x.astype(np.float32),
        train_y.astype(np.int64),
        test_x.astype(np.float32),
        test_y.astype(np.int64),
    )


def server_params(server, layer: str) -> Dict[str, np.ndarray]:
    """Copy of a parameter server's current global parameters of ``layer``."""
    return {key: value for key, value in server.checkpoint()[layer].items()
            if key != "__version__"}


def replica_states_close(trainer, atol: float = 1e-4) -> bool:
    """Whether all of a trainer's replicas hold (numerically) identical parameters."""
    reference = trainer.replica(0).get_state()
    for worker_id in range(1, trainer.num_workers):
        state = trainer.replica(worker_id).get_state()
        for layer_name, params in reference.items():
            for key, value in params.items():
                if not np.allclose(state[layer_name][key], value, atol=atol):
                    return False
    return True


def step_network(optimizer, network) -> None:
    """Apply each layer's stored gradients to its parameters in place."""
    for _, layer in network.parameter_layers():
        for key, param in layer.params.items():
            optimizer.apply(f"{layer.name}/{key}", param, layer.grads[key])
