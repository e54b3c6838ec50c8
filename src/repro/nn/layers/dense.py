"""Fully-connected layer.

The weight gradient of an FC layer has two representations:
``dW = x^T @ dy`` as a dense ``M x N`` matrix, and the pair ``(x, dy)``
itself -- the *sufficient factors* of Section 2.1, ``K (M + N)`` floats whose
batched outer product is ``dW``.  ``K`` is the number of rows the layer
saw: the batch size times its :attr:`Dense.factor_rank` (one row per
image, or one per token behind a
:class:`~repro.nn.layers.attention.TokenFlatten`).  Which one exists after
``backward`` follows from who consumes it:

* by default (no syncer, or one that ships dense gradients: PS, 1-bit,
  compressed PS, ring, hierarchical PS, local SGD) ``backward`` computes the
  dense matrix into ``grads["weight"]`` and :meth:`Dense.sufficient_factors`
  is available as well, for free -- it only hands out the cached ``(x, dy)``;
* once a factor-consuming syncer (SFB, Adam) is bound to the layer
  (:meth:`Dense.publish_factors_only`), the factors *are* the gradient:
  ``backward`` keeps ``(x, dy)`` and the bias gradient, never runs the
  ``x^T @ dy`` GEMM, and ``grads`` has no ``"weight"`` entry at all -- a stray
  reader gets a ``KeyError``, never a stale or zero matrix.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn.initializers import xavier_uniform, zeros
from repro.nn.layers.base import Layer
from repro.exceptions import ShapeError


class Dense(Layer):
    """Affine transformation ``y = x W + b`` with ``W`` of shape ``(M, N)``.

    ``factor_rank`` is the number of input rows per sample: 1 for a layer
    fed one row per sample, ``T`` for a vocabulary head behind a
    :class:`~repro.nn.layers.attention.TokenFlatten` of ``T``-token
    sequences.  Algorithm 1 prices the layer's factors at
    ``batch * factor_rank`` rows.
    """

    def __init__(self, name: str, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None,
                 factor_rank: int = 1):
        super().__init__(name)
        rng = rng or np.random.default_rng(0)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.factor_rank = factor_rank
        self.params = {
            "weight": xavier_uniform(
                (self.in_features, self.out_features),
                fan_in=self.in_features,
                fan_out=self.out_features,
                rng=rng,
            ),
            "bias": zeros((self.out_features,)),
        }
        self._dense_weight_grad = True
        self.zero_grads()
        self._last_input: Optional[np.ndarray] = None
        self._last_grad_output: Optional[np.ndarray] = None

    def publish_factors_only(self) -> None:
        """Make ``(x, dy)`` this layer's only weight-gradient representation.

        Called once, where a syncer whose handler reads
        :meth:`sufficient_factors` is bound to the layer.  From then on
        ``backward`` skips ``x^T @ dy`` and ``grads`` carries only
        ``"bias"``.
        """
        self._dense_weight_grad = False
        self.grads.pop("weight", None)

    def zero_grads(self) -> None:
        super().zero_grads()
        if not self._dense_weight_grad:
            del self.grads["weight"]

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        self._check_input(inputs, 2)
        if inputs.shape[1] != self.in_features:
            raise ShapeError(
                f"layer {self.name!r}: expected {self.in_features} input features, "
                f"got {inputs.shape[1]}"
            )
        self._last_input = inputs if training else None
        # The factors pair one forward with its own backward: drop the old
        # dy so sufficient_factors() cannot hand out (new x, old dy).
        self._last_grad_output = None
        return inputs @ self.params["weight"] + self.params["bias"]

    def backward(self, grad_output: np.ndarray,
                 need_input_grad: bool = True) -> Optional[np.ndarray]:
        if self._last_input is None:
            raise RuntimeError(
                f"layer {self.name!r}: backward called before forward(training=True)"
            )
        self._check_input(grad_output, 2, "gradient")
        self._last_grad_output = grad_output
        if self._dense_weight_grad:
            self.grads["weight"] = self._last_input.T @ grad_output
        self.grads["bias"] = grad_output.sum(axis=0)
        if not need_input_grad:
            return None
        return grad_output @ self.params["weight"].T

    # -- sufficient factors -----------------------------------------------------
    def sufficient_factors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the ``(U, V)`` factors of the last weight gradient.

        ``U`` has shape ``(K, M)`` (the input rows) and ``V`` has shape
        ``(K, N)`` (the output-gradient rows) so that ``dW = U^T @ V``;
        ``K`` is the number of rows the last forward saw, the batch size
        times :attr:`factor_rank`.

        Raises:
            RuntimeError: if no backward pass has been run yet.
        """
        if self._last_input is None or self._last_grad_output is None:
            raise RuntimeError(
                f"layer {self.name!r}: sufficient factors unavailable before backward()"
            )
        return self._last_input, self._last_grad_output
