"""Fully-connected layer.

The Dense layer keeps the per-batch activations and output gradients around
after the backward pass so the sufficient factors ``(u, v)`` of its weight
gradient can be extracted without recomputation -- this is the hook
sufficient-factor broadcasting (Section 2.1 of the paper) relies on:
``dW = x^T @ dy`` is exactly the sum over the batch of outer products of the
per-sample input activation and per-sample output gradient.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.initializers import xavier_uniform, zeros
from repro.nn.layers.base import Layer
from repro.exceptions import ShapeError


class Dense(Layer):
    """Affine transformation ``y = x W + b`` with ``W`` of shape ``(M, N)``."""

    def __init__(self, name: str, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(name)
        rng = rng or np.random.default_rng(0)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.params = {
            "weight": xavier_uniform(
                (self.in_features, self.out_features),
                fan_in=self.in_features,
                fan_out=self.out_features,
                rng=rng,
            ),
            "bias": zeros((self.out_features,)),
        }
        self.zero_grads()
        self._last_input: Optional[np.ndarray] = None
        self._last_grad_output: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        self._check_input(inputs, 2)
        if inputs.shape[1] != self.in_features:
            raise ShapeError(
                f"layer {self.name!r}: expected {self.in_features} input features, "
                f"got {inputs.shape[1]}"
            )
        self._last_input = inputs if training else None
        return inputs @ self.params["weight"] + self.params["bias"]

    def backward(self, grad_output: np.ndarray,
                 need_input_grad: bool = True) -> Optional[np.ndarray]:
        if self._last_input is None:
            raise RuntimeError(
                f"layer {self.name!r}: backward called before forward(training=True)"
            )
        self._check_input(grad_output, 2, "gradient")
        self._last_grad_output = grad_output
        self.grads["weight"] = self._last_input.T @ grad_output
        self.grads["bias"] = grad_output.sum(axis=0)
        if not need_input_grad:
            return None
        return grad_output @ self.params["weight"].T

    # -- sufficient factors -----------------------------------------------------
    def sufficient_factors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the ``(U, V)`` factors of the last weight gradient.

        ``U`` has shape ``(K, M)`` (per-sample input activations) and ``V``
        has shape ``(K, N)`` (per-sample output gradients) so that
        ``dW = U^T @ V``.

        Raises:
            RuntimeError: if no backward pass has been run yet.
        """
        if self._last_input is None or self._last_grad_output is None:
            raise RuntimeError(
                f"layer {self.name!r}: sufficient factors unavailable before backward()"
            )
        return self._last_input, self._last_grad_output
