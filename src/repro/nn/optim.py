"""Optimisers.

Only plain SGD (with optional momentum and weight decay) is provided -- the
same update rule used throughout the paper's evaluation (Eq. 1/2).  The
optimiser can apply updates either to a :class:`~repro.nn.network.Network`
directly (single-node training) or to a bare dictionary of parameter arrays
(the form the parameter server holds).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.network import Network


class SGD:
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.0,
                 weight_decay: float = 0.0):
        if learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {learning_rate}")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ConfigurationError(f"weight_decay must be >= 0, got {weight_decay}")
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Dict[str, np.ndarray] = {}

    def step_network(self, network: Network) -> None:
        """Apply each layer's stored gradients to its parameters in place."""
        for _, layer in network.parameter_layers():
            for key, param in layer.params.items():
                grad = layer.grads[key]
                self.apply(f"{layer.name}/{key}", param, grad)

    def apply(self, key: str, param: np.ndarray, grad: np.ndarray, *,
              grad_is_scratch: bool = False) -> None:
        """Apply one gradient to one parameter array in place.

        Args:
            key: unique name for the parameter (used to track momentum state).
            param: parameter array, modified in place.
            grad: gradient of the loss with respect to ``param``.
            grad_is_scratch: ``grad`` is the caller's private scratch that
                nobody reads afterwards, so the step may be formed in it
                instead of in a temporary (same arithmetic, same bits).
        """
        if param.shape != grad.shape:
            raise ConfigurationError(
                f"parameter {key!r}: shape mismatch {param.shape} vs {grad.shape}"
            )
        update = grad
        if self.weight_decay:
            update = update + self.weight_decay * param
            grad_is_scratch = True  # a fresh array: ours to overwrite
        if self.momentum:
            velocity = self._velocity.get(key)
            if velocity is None:
                velocity = np.zeros_like(param)
            velocity = self.momentum * velocity - self.learning_rate * update
            self._velocity[key] = velocity
            param += velocity
        elif grad_is_scratch:
            np.multiply(update, self.learning_rate, out=update)
            param -= update
        else:
            param -= self.learning_rate * update

    def reset(self) -> None:
        """Drop all accumulated momentum state."""
        self._velocity.clear()

    def get_state(self) -> Dict[str, np.ndarray]:
        """Deep copy of the momentum state (for checkpointing)."""
        return {key: velocity.copy() for key, velocity in self._velocity.items()}

    def set_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore momentum state from a :meth:`get_state` snapshot."""
        self._velocity = {key: np.array(velocity, copy=True)
                          for key, velocity in state.items()}
