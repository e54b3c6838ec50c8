"""Multi-head attention and the composite transformer block.

The runnable transformer mirrors the declarative spec in
:mod:`repro.nn.model_zoo.transformer`: the QKV and output projections are
FC-shaped matmuls (so in the analytic model they enter Algorithm-1 scheme
decisions as ``fc_dims`` sync units), while the attention core itself is
parameter-free.  Because :class:`repro.nn.network.Network` is strictly
sequential, the residual connections live inside :class:`TransformerBlock`,
which exposes its sublayers' parameters through one prefixed dict sharing the
underlying arrays -- ``set_params`` on the block therefore updates the
sublayers in place, which the parameter-server pull path relies on.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.initializers import xavier_uniform, zeros
from repro.nn.layers.activation import GELU
from repro.nn.layers.base import Layer
from repro.nn.layers.dense import Dense
from repro.nn.layers.norm import LayerNorm


class MultiHeadAttention(Layer):
    """Scaled dot-product self-attention with fused QKV projection.

    Input and output are ``(B, T, C)``.  Parameters are the FC-shaped
    ``qkv_weight (C, 3C)`` / ``proj_weight (C, C)`` matrices plus biases.

    Args:
        name: layer name.
        dim: model width ``C``; must be divisible by ``num_heads``.
        num_heads: number of attention heads.
        causal: mask out future positions (GPT-style) when ``True``.
        rng: numpy generator for weight initialisation.
    """

    def __init__(self, name: str, dim: int, num_heads: int, causal: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__(name)
        rng = rng or np.random.default_rng(0)
        if dim % num_heads != 0:
            raise ShapeError(
                f"layer {name!r}: dim {dim} not divisible by {num_heads} heads"
            )
        self.dim = int(dim)
        self.num_heads = int(num_heads)
        self.head_dim = self.dim // self.num_heads
        self.causal = bool(causal)
        self.params = {
            "qkv_weight": xavier_uniform((self.dim, 3 * self.dim),
                                         fan_in=self.dim, fan_out=3 * self.dim,
                                         rng=rng),
            "qkv_bias": zeros((3 * self.dim,)),
            "proj_weight": xavier_uniform((self.dim, self.dim),
                                          fan_in=self.dim, fan_out=self.dim,
                                          rng=rng),
            "proj_bias": zeros((self.dim,)),
        }
        self.zero_grads()
        # A Python float, not ``1.0 / np.sqrt(...)``: an ``np.float64`` scalar
        # is strongly typed under NumPy 2 promotion and would turn float32
        # scores -- and every activation and gradient after them -- float64.
        self._scale = self.head_dim ** -0.5
        self._cache: Optional[Tuple[np.ndarray, ...]] = None
        self._future: Optional[np.ndarray] = None

    def _future_mask(self, seq: int) -> np.ndarray:
        """``(T, T)`` boolean mask of the positions a query may not see."""
        if self._future is None or self._future.shape[0] != seq:
            self._future = np.triu(np.ones((seq, seq), dtype=bool), k=1)
        return self._future

    def _split_heads(self, tensor: np.ndarray, batch: int, seq: int) -> np.ndarray:
        return tensor.reshape(batch, seq, self.num_heads,
                              self.head_dim).transpose(0, 2, 1, 3)

    def _merge_heads(self, tensor: np.ndarray, batch: int, seq: int) -> np.ndarray:
        return tensor.transpose(0, 2, 1, 3).reshape(batch * seq, self.dim)

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        self._check_input(inputs, 3)
        if inputs.shape[2] != self.dim:
            raise ShapeError(
                f"layer {self.name!r}: expected width {self.dim}, "
                f"got shape {inputs.shape}"
            )
        batch, seq, _ = inputs.shape
        flat = inputs.reshape(batch * seq, self.dim)
        qkv = flat @ self.params["qkv_weight"] + self.params["qkv_bias"]
        query = self._split_heads(qkv[:, :self.dim].reshape(batch, seq, self.dim),
                                  batch, seq)
        key = self._split_heads(
            qkv[:, self.dim:2 * self.dim].reshape(batch, seq, self.dim),
            batch, seq)
        value = self._split_heads(qkv[:, 2 * self.dim:].reshape(batch, seq, self.dim),
                                  batch, seq)
        scores = query @ key.transpose(0, 1, 3, 2)
        scores *= self._scale
        if self.causal:
            np.copyto(scores, -np.inf, where=self._future_mask(seq))
        scores -= scores.max(axis=-1, keepdims=True)
        weights = np.exp(scores, out=scores)
        weights /= weights.sum(axis=-1, keepdims=True)
        context = weights @ value                     # (B, H, T, hd)
        merged = self._merge_heads(context, batch, seq)
        out = merged @ self.params["proj_weight"] + self.params["proj_bias"]
        if training:
            self._cache = (flat, query, key, value, weights, merged,
                           np.array([batch, seq]))
        return out.reshape(batch, seq, self.dim)

    def backward(self, grad_output: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError(
                f"layer {self.name!r}: backward called before forward(training=True)"
            )
        self._check_input(grad_output, 3, "gradient")
        flat, query, key, value, weights, merged, dims = self._cache
        batch, seq = int(dims[0]), int(dims[1])
        grad_flat = grad_output.reshape(batch * seq, self.dim)

        self.grads["proj_weight"] = merged.T @ grad_flat
        self.grads["proj_bias"] = grad_flat.sum(axis=0)
        grad_context = self._split_heads(
            (grad_flat @ self.params["proj_weight"].T).reshape(
                batch, seq, self.dim), batch, seq)

        grad_weights = grad_context @ value.transpose(0, 1, 3, 2)
        grad_value = weights.transpose(0, 1, 3, 2) @ grad_context
        # softmax backward; masked positions carry weight 0, hence gradient 0.
        grad_scores = weights * (
            grad_weights - (grad_weights * weights).sum(axis=-1, keepdims=True))
        grad_scores *= self._scale
        grad_query = grad_scores @ key
        grad_key = grad_scores.transpose(0, 1, 3, 2) @ query

        grad_qkv = np.concatenate([
            self._merge_heads(grad_query, batch, seq),
            self._merge_heads(grad_key, batch, seq),
            self._merge_heads(grad_value, batch, seq),
        ], axis=1)
        self.grads["qkv_weight"] = flat.T @ grad_qkv
        self.grads["qkv_bias"] = grad_qkv.sum(axis=0)
        grad_input = grad_qkv @ self.params["qkv_weight"].T
        return grad_input.reshape(batch, seq, self.dim)


class TransformerBlock(Layer):
    """Pre-norm transformer block: ``x + attn(ln1(x))`` then ``h + mlp(ln2(h))``.

    The sequential :class:`~repro.nn.network.Network` has no residual wiring,
    so the skip connections live here; the block's ``params``/``grads`` dicts
    expose every sublayer parameter under a dotted prefix (``attn.qkv_weight``,
    ``mlp_fc.weight``, ...) while sharing the sublayers' arrays.
    """

    def __init__(self, name: str, dim: int, num_heads: int, mlp_ratio: int = 4,
                 causal: bool = True, rng: Optional[np.random.Generator] = None):
        super().__init__(name)
        rng = rng or np.random.default_rng(0)
        self.dim = int(dim)
        hidden = int(mlp_ratio) * self.dim
        self._sublayers: Dict[str, Layer] = {
            "ln1": LayerNorm(f"{name}.ln1", self.dim),
            "attn": MultiHeadAttention(f"{name}.attn", self.dim, num_heads,
                                       causal=causal, rng=rng),
            "ln2": LayerNorm(f"{name}.ln2", self.dim),
            "mlp_fc": Dense(f"{name}.mlp_fc", self.dim, hidden, rng=rng),
            "mlp_act": GELU(f"{name}.mlp_act"),
            "mlp_proj": Dense(f"{name}.mlp_proj", hidden, self.dim, rng=rng),
        }
        self.params = {
            f"{prefix}.{key}": array
            for prefix, sub in self._sublayers.items()
            for key, array in sub.params.items()
        }
        self.zero_grads()

    def _collect_grads(self) -> None:
        self.grads = {
            f"{prefix}.{key}": grad
            for prefix, sub in self._sublayers.items()
            for key, grad in sub.grads.items()
        }

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        self._check_input(inputs, 3)
        sub = self._sublayers
        attended = sub["attn"].forward(
            sub["ln1"].forward(inputs, training), training)
        hidden = inputs + attended
        batch, seq, dim = hidden.shape
        flat = sub["ln2"].forward(hidden.reshape(batch * seq, dim), training)
        mlp_out = sub["mlp_proj"].forward(
            sub["mlp_act"].forward(
                sub["mlp_fc"].forward(flat, training), training), training)
        return hidden + mlp_out.reshape(batch, seq, dim)

    def backward(self, grad_output: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray:
        self._check_input(grad_output, 3, "gradient")
        sub = self._sublayers
        batch, seq, dim = grad_output.shape
        grad_flat = grad_output.reshape(batch * seq, dim)
        grad_mlp = sub["ln2"].backward(
            sub["mlp_fc"].backward(
                sub["mlp_act"].backward(
                    sub["mlp_proj"].backward(grad_flat))))
        grad_hidden = grad_output + grad_mlp.reshape(batch, seq, dim)
        grad_attn_in = sub["ln1"].backward(sub["attn"].backward(grad_hidden))
        self._collect_grads()
        return grad_hidden + grad_attn_in


class TokenFlatten(Layer):
    """Fold the sequence axis into the batch: ``(B, T, C) -> (B*T, C)``.

    Placed before the vocabulary head so the head stays a plain
    :class:`~repro.nn.layers.dense.Dense` -- 2-D activations in, exact
    ``(K=B*T)``-sample sufficient factors out.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        self._check_input(inputs, 3)
        if training:
            self._shape = inputs.shape
        return inputs.reshape(inputs.shape[0] * inputs.shape[1], inputs.shape[2])

    def backward(self, grad_output: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError(
                f"layer {self.name!r}: backward called before forward(training=True)"
            )
        return grad_output.reshape(self._shape)


class SequenceMeanPool(Layer):
    """Mean-pool the sequence axis: ``(B, T, C) -> (B, C)``.

    Used by the sequence-classification head variant so the trainer's
    ``(batch,) -> scalar-label`` loss applies unchanged to token inputs.
    """

    def __init__(self, name: str):
        super().__init__(name)
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        self._check_input(inputs, 3)
        if training:
            self._shape = inputs.shape
        return inputs.mean(axis=1)

    def backward(self, grad_output: np.ndarray,
                 need_input_grad: bool = True) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError(
                f"layer {self.name!r}: backward called before forward(training=True)"
            )
        self._check_input(grad_output, 2, "gradient")
        batch, seq, dim = self._shape
        return np.broadcast_to(
            grad_output[:, None, :] / seq, (batch, seq, dim)).copy()


__all__ = ["MultiHeadAttention", "TransformerBlock", "TokenFlatten",
           "SequenceMeanPool"]
