"""Token and learned positional embedding layers.

Embedding tables are the first transformer layer whose gradient is *sparse*:
only the rows of tokens present in the batch receive updates, which the
backward pass realises with a scatter-add.  The distributed runtime still
syncs the table as a dense blob (the PS path), matching how data-parallel
frameworks ship embedding gradients when no sparse-push path exists.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.initializers import normal, xavier_uniform
from repro.nn.layers.base import Layer


class Embedding(Layer):
    """Token-id lookup table mapping ``(B, T)`` int ids to ``(B, T, C)``.

    Args:
        name: layer name.
        num_embeddings: vocabulary size (number of table rows).
        dim: embedding width ``C``.
        rng: numpy generator for the table initialisation.
    """

    def __init__(self, name: str, num_embeddings: int, dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(name)
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = int(num_embeddings)
        self.dim = int(dim)
        self.params = {
            "weight": xavier_uniform(
                (self.num_embeddings, self.dim),
                fan_in=self.num_embeddings,
                fan_out=self.dim,
                rng=rng,
            ),
        }
        self.zero_grads()
        self._indices: Optional[np.ndarray] = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        self._check_input(inputs, 2, "token-id input")
        if not np.issubdtype(inputs.dtype, np.integer):
            raise ShapeError(
                f"layer {self.name!r}: expected integer token ids, got dtype "
                f"{inputs.dtype}"
            )
        if inputs.size and (inputs.min() < 0 or inputs.max() >= self.num_embeddings):
            raise ShapeError(
                f"layer {self.name!r}: token ids must lie in "
                f"[0, {self.num_embeddings}), got range "
                f"[{inputs.min()}, {inputs.max()}]"
            )
        self._indices = inputs if training else None
        return self.params["weight"][inputs]

    def backward(self, grad_output: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray:
        if self._indices is None:
            raise RuntimeError(
                f"layer {self.name!r}: backward called before forward(training=True)"
            )
        self._check_input(grad_output, 3, "gradient")
        grad_weight = np.zeros(self.params["weight"].shape,
                               dtype=grad_output.dtype)
        np.add.at(grad_weight, self._indices.reshape(-1),
                  grad_output.reshape(-1, self.dim))
        self.grads["weight"] = grad_weight
        # Token ids are discrete; there is no gradient to propagate upstream.
        return np.zeros(self._indices.shape, dtype=grad_output.dtype)


class PositionalEmbedding(Layer):
    """Learned per-position offsets added to a ``(B, T, C)`` activation.

    The table covers ``max_len`` positions; batches may use any prefix
    ``T <= max_len`` (rows beyond ``T`` simply receive zero gradient).
    """

    def __init__(self, name: str, max_len: int, dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(name)
        rng = rng or np.random.default_rng(0)
        self.max_len = int(max_len)
        self.dim = int(dim)
        self.params = {
            "weight": normal((self.max_len, self.dim), 0.02, rng),
        }
        self.zero_grads()
        self._seq_len: Optional[int] = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        self._check_input(inputs, 3)
        seq_len = inputs.shape[1]
        if inputs.shape[2] != self.dim or seq_len > self.max_len:
            raise ShapeError(
                f"layer {self.name!r}: expected (B, T<={self.max_len}, "
                f"{self.dim}), got shape {inputs.shape}"
            )
        self._seq_len = seq_len if training else None
        return inputs + self.params["weight"][:seq_len]

    def backward(self, grad_output: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray:
        if self._seq_len is None:
            raise RuntimeError(
                f"layer {self.name!r}: backward called before forward(training=True)"
            )
        self._check_input(grad_output, 3, "gradient")
        grad_weight = np.zeros(self.params["weight"].shape,
                               dtype=grad_output.dtype)
        grad_weight[:self._seq_len] = grad_output.sum(axis=0)
        self.grads["weight"] = grad_weight
        return grad_output


__all__ = ["Embedding", "PositionalEmbedding"]
