"""Architecture specifications.

A :class:`ModelSpec` is a purely declarative, weight-free description of a
neural network: an ordered list of :class:`LayerSpec` records carrying the
information Poseidon needs -- parameter shapes (to compute bytes on the
wire and to decide whether a layer's gradient is sufficient-factor
decomposable), and per-sample FLOP counts (to model GPU compute time).

The paper's cost model (Table 1) and the `BestScheme` algorithm (Algorithm 1)
operate on exactly this information: layer type, the ``M x N`` shape of FC
layers, the number ``K`` of sufficient-factor rows (batch size times the
layer's factor rank) and cluster size.

Specs are built with :class:`SpecBuilder`, a tiny builder that tracks the
spatial dimensions of the activations so that model-zoo definitions read like
ordinary network definitions.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro import units
from repro.exceptions import ModelSpecError


class LayerKind(str, enum.Enum):
    """Categories of layers, as relevant to communication scheduling."""

    INPUT = "input"
    CONV = "conv"
    FC = "fc"
    POOL = "pool"
    ACTIVATION = "activation"
    NORM = "norm"
    DROPOUT = "dropout"
    FLATTEN = "flatten"
    CONCAT = "concat"
    ADD = "add"
    SOFTMAX = "softmax"
    EMBED = "embed"
    ATTENTION = "attention"

    @property
    def has_parameters(self) -> bool:
        """Whether layers of this kind can carry trainable parameters."""
        return self in (LayerKind.CONV, LayerKind.FC, LayerKind.NORM,
                        LayerKind.EMBED)


@dataclass(frozen=True)
class LayerSpec:
    """Declarative description of one layer.

    Attributes:
        name: unique layer name within the model.
        kind: the layer's :class:`LayerKind`.
        param_count: total number of trainable scalars (weights + biases).
        param_shape: shape of the *weight matrix* for FC layers (``(M, N)``,
            input dim by output dim) or of the filter bank for CONV layers;
            ``None`` for parameter-free layers.
        flops_forward: floating point operations of the forward pass for a
            single sample.
        flops_backward: same for the backward pass (gradient w.r.t. inputs
            and parameters).
        output_shape: per-sample output shape, e.g. ``(channels, h, w)`` or
            ``(features,)``.
        sf_decomposable: whether the layer's gradient can be expressed as a
            sum of ``K`` outer products (true for fully-connected layers),
            enabling sufficient-factor broadcasting.
        factor_rank: rows of the cached factors ``(x, dy)`` per sample, so
            ``K = batch * factor_rank``: 1 for a CNN FC layer (one row per
            image), ``seq_len`` for a token FC (one row per token).  FC
            layers only; an FC layer built without one gets 1.
    """

    name: str
    kind: LayerKind
    param_count: int = 0
    param_shape: Optional[Tuple[int, ...]] = None
    flops_forward: float = 0.0
    flops_backward: float = 0.0
    output_shape: Tuple[int, ...] = ()
    sf_decomposable: bool = False
    factor_rank: Optional[int] = None

    def __post_init__(self) -> None:
        if self.param_count < 0:
            raise ModelSpecError(
                f"layer {self.name!r}: param_count must be >= 0, got {self.param_count}"
            )
        if self.flops_forward < 0 or self.flops_backward < 0:
            raise ModelSpecError(f"layer {self.name!r}: negative FLOP count")
        if self.param_count > 0 and not self.kind.has_parameters:
            raise ModelSpecError(
                f"layer {self.name!r}: kind {self.kind.value} cannot hold parameters"
            )
        if self.sf_decomposable and self.kind is not LayerKind.FC:
            raise ModelSpecError(
                f"layer {self.name!r}: only FC layers are sufficient-factor decomposable"
            )
        if self.kind is not LayerKind.FC:
            if self.factor_rank is not None:
                raise ModelSpecError(
                    f"layer {self.name!r}: kind {self.kind.value} has no "
                    f"sufficient factors, so no factor_rank")
        elif self.factor_rank is None:
            object.__setattr__(self, "factor_rank", 1)
        elif (not isinstance(self.factor_rank, numbers.Integral)
              or self.factor_rank < 1):
            raise ModelSpecError(
                f"layer {self.name!r}: factor_rank must be an integer >= 1, "
                f"got {self.factor_rank!r}")

    @property
    def has_parameters(self) -> bool:
        """Whether this particular layer carries trainable parameters."""
        return self.param_count > 0

    @property
    def param_bytes(self) -> int:
        """Size of the layer's parameters (and of a dense gradient) in bytes."""
        return int(self.param_count * units.FLOAT32_BYTES)

    @property
    def fc_dims(self) -> Tuple[int, int]:
        """The ``(M, N)`` dimensions of an FC layer's weight matrix.

        Raises:
            ModelSpecError: if the layer is not a fully-connected layer.
        """
        if self.kind is not LayerKind.FC or self.param_shape is None:
            raise ModelSpecError(f"layer {self.name!r} is not an FC layer")
        if len(self.param_shape) != 2:
            raise ModelSpecError(
                f"layer {self.name!r}: FC weight shape must be 2-D, got {self.param_shape}"
            )
        return self.param_shape[0], self.param_shape[1]


@dataclass(frozen=True)
class ModelSpec:
    """A weight-free description of a full network.

    Attributes:
        name: model name as used in the paper (e.g. ``"VGG19-22K"``).
        layers: ordered layer specifications, input first.
        dataset: name of the dataset the paper trains this model on.
        default_batch_size: the per-GPU batch size from paper Table 3.
        reference_images_per_sec: single-node throughput reported in the
            paper (images/s) used to calibrate simulated compute time;
            ``None`` if the paper does not report one.
        notes: free-form remarks (e.g. substitutions).
    """

    name: str
    layers: Tuple[LayerSpec, ...]
    dataset: str = "synthetic"
    default_batch_size: int = 32
    reference_images_per_sec: Optional[float] = None
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.layers:
            raise ModelSpecError(f"model {self.name!r} has no layers")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ModelSpecError(f"model {self.name!r} has duplicate layer names: {dupes}")
        if self.default_batch_size < 1:
            raise ModelSpecError(
                f"model {self.name!r}: default_batch_size must be >= 1"
            )

    # -- aggregate statistics -------------------------------------------------
    @property
    def total_params(self) -> int:
        """Total trainable parameters across all layers."""
        return sum(layer.param_count for layer in self.layers)

    @property
    def total_param_bytes(self) -> int:
        """Total parameter (and dense-gradient) size in bytes."""
        return sum(layer.param_bytes for layer in self.layers)

    @property
    def fc_params(self) -> int:
        """Parameters held by fully-connected layers."""
        return sum(
            layer.param_count for layer in self.layers if layer.kind is LayerKind.FC
        )

    @property
    def fc_param_fraction(self) -> float:
        """Fraction of all parameters that live in FC layers."""
        total = self.total_params
        return self.fc_params / total if total else 0.0

    @property
    def flops_forward(self) -> float:
        """Per-sample forward FLOPs of the whole network."""
        return sum(layer.flops_forward for layer in self.layers)

    @property
    def flops_backward(self) -> float:
        """Per-sample backward FLOPs of the whole network."""
        return sum(layer.flops_backward for layer in self.layers)

    @property
    def flops_per_sample(self) -> float:
        """Per-sample FLOPs of a full forward+backward pass."""
        return self.flops_forward + self.flops_backward

    # -- views ----------------------------------------------------------------
    def parameter_layers(self) -> Tuple[LayerSpec, ...]:
        """Layers that carry trainable parameters (the ones that synchronize)."""
        return tuple(layer for layer in self.layers if layer.has_parameters)

    def layer(self, name: str) -> LayerSpec:
        """Look a layer up by name.

        Raises:
            KeyError: if no layer has that name.
        """
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"model {self.name!r} has no layer named {name!r}")


def _conv_output_dim(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    out = (size + 2 * pad - kernel) // stride + 1
    if out <= 0:
        raise ModelSpecError(
            f"convolution collapses spatial dim: size={size} kernel={kernel} "
            f"stride={stride} pad={pad}"
        )
    return out


class SpecBuilder:
    """Incrementally build a :class:`ModelSpec`, tracking activation shapes.

    Example::

        b = SpecBuilder("toy", input_shape=(3, 32, 32))
        b.conv("conv1", out_channels=32, kernel=5, pad=2)
        b.relu("relu1")
        b.max_pool("pool1", kernel=2, stride=2)
        b.flatten("flat")
        b.fc("ip1", 10)
        spec = b.build(dataset="cifar10", default_batch_size=100)
    """

    def __init__(self, name: str, input_shape: Sequence[int]):
        if len(input_shape) not in (1, 3):
            raise ModelSpecError(
                f"input_shape must be (features,) or (channels, h, w), got {input_shape}"
            )
        self.name = name
        self._layers: List[LayerSpec] = [
            LayerSpec(
                name="data",
                kind=LayerKind.INPUT,
                output_shape=tuple(int(d) for d in input_shape),
            )
        ]
        self._shape: Tuple[int, ...] = tuple(int(d) for d in input_shape)

    # -- introspection ---------------------------------------------------------
    @property
    def current_shape(self) -> Tuple[int, ...]:
        """Per-sample shape of the activation produced by the last layer."""
        return self._shape

    def _require_spatial(self, op: str) -> Tuple[int, int, int]:
        if len(self._shape) != 3:
            raise ModelSpecError(
                f"{op} requires a (channels, h, w) activation, got {self._shape}"
            )
        return self._shape  # type: ignore[return-value]

    def _require_flat(self, op: str) -> int:
        if len(self._shape) != 1:
            raise ModelSpecError(
                f"{op} requires a flattened activation, got {self._shape}"
            )
        return self._shape[0]

    def _add(self, layer: LayerSpec) -> LayerSpec:
        self._layers.append(layer)
        self._shape = layer.output_shape
        return layer

    # -- layer constructors ----------------------------------------------------
    def conv(
        self,
        name: str,
        out_channels: int,
        kernel: int,
        stride: int = 1,
        pad: int = 0,
        bias: bool = True,
    ) -> LayerSpec:
        """Append a 2-D convolution layer."""
        in_c, in_h, in_w = self._require_spatial("conv")
        out_h = _conv_output_dim(in_h, kernel, stride, pad)
        out_w = _conv_output_dim(in_w, kernel, stride, pad)
        weights = out_channels * in_c * kernel * kernel
        params = weights + (out_channels if bias else 0)
        # 2 FLOPs (multiply + add) per MAC; backward needs gradients w.r.t.
        # both inputs and weights, roughly twice the forward work.
        flops_fwd = 2.0 * weights * out_h * out_w
        flops_bwd = 2.0 * flops_fwd
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.CONV,
                param_count=params,
                param_shape=(out_channels, in_c, kernel, kernel),
                flops_forward=flops_fwd,
                flops_backward=flops_bwd,
                output_shape=(out_channels, out_h, out_w),
            )
        )

    def conv_rect(
        self,
        name: str,
        out_channels: int,
        kernel_h: int,
        kernel_w: int,
        stride: int = 1,
        pad_h: int = 0,
        pad_w: int = 0,
        bias: bool = True,
    ) -> LayerSpec:
        """Append a convolution with a rectangular kernel (e.g. 1x7, 7x1)."""
        in_c, in_h, in_w = self._require_spatial("conv_rect")
        out_h = _conv_output_dim(in_h, kernel_h, stride, pad_h)
        out_w = _conv_output_dim(in_w, kernel_w, stride, pad_w)
        weights = out_channels * in_c * kernel_h * kernel_w
        params = weights + (out_channels if bias else 0)
        flops_fwd = 2.0 * weights * out_h * out_w
        flops_bwd = 2.0 * flops_fwd
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.CONV,
                param_count=params,
                param_shape=(out_channels, in_c, kernel_h, kernel_w),
                flops_forward=flops_fwd,
                flops_backward=flops_bwd,
                output_shape=(out_channels, out_h, out_w),
            )
        )

    def fc(self, name: str, out_features: int, bias: bool = True) -> LayerSpec:
        """Append a fully-connected layer (``M`` inputs, ``N`` outputs)."""
        in_features = self._require_flat("fc")
        weights = in_features * out_features
        params = weights + (out_features if bias else 0)
        flops_fwd = 2.0 * weights
        flops_bwd = 2.0 * flops_fwd
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.FC,
                param_count=params,
                param_shape=(in_features, out_features),
                flops_forward=flops_fwd,
                flops_backward=flops_bwd,
                output_shape=(out_features,),
                sf_decomposable=True,
            )
        )

    def max_pool(self, name: str, kernel: int, stride: Optional[int] = None,
                 pad: int = 0) -> LayerSpec:
        """Append a max-pooling layer."""
        return self._pool(name, kernel, stride, pad)

    def avg_pool(self, name: str, kernel: int, stride: Optional[int] = None,
                 pad: int = 0) -> LayerSpec:
        """Append an average-pooling layer."""
        return self._pool(name, kernel, stride, pad)

    def global_avg_pool(self, name: str) -> LayerSpec:
        """Append a global average pooling layer collapsing spatial dims."""
        in_c, in_h, in_w = self._require_spatial("global_avg_pool")
        flops = float(in_c * in_h * in_w)
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.POOL,
                flops_forward=flops,
                flops_backward=flops,
                output_shape=(in_c, 1, 1),
            )
        )

    def _pool(self, name: str, kernel: int, stride: Optional[int], pad: int) -> LayerSpec:
        in_c, in_h, in_w = self._require_spatial("pool")
        stride = stride or kernel
        out_h = _conv_output_dim(in_h, kernel, stride, pad)
        out_w = _conv_output_dim(in_w, kernel, stride, pad)
        flops = float(in_c * out_h * out_w * kernel * kernel)
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.POOL,
                flops_forward=flops,
                flops_backward=flops,
                output_shape=(in_c, out_h, out_w),
            )
        )

    def relu(self, name: str) -> LayerSpec:
        """Append a ReLU activation."""
        count = float(_shape_numel(self._shape))
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.ACTIVATION,
                flops_forward=count,
                flops_backward=count,
                output_shape=self._shape,
            )
        )

    def batch_norm(self, name: str) -> LayerSpec:
        """Append a batch-normalisation layer (2 learned scalars per channel)."""
        if len(self._shape) == 3:
            channels = self._shape[0]
        else:
            channels = self._shape[0]
        count = float(_shape_numel(self._shape))
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.NORM,
                param_count=2 * channels,
                param_shape=(2, channels),
                flops_forward=4.0 * count,
                flops_backward=8.0 * count,
                output_shape=self._shape,
            )
        )

    def lrn(self, name: str) -> LayerSpec:
        """Append a local response normalisation layer (parameter free)."""
        count = float(_shape_numel(self._shape))
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.NORM,
                flops_forward=5.0 * count,
                flops_backward=5.0 * count,
                output_shape=self._shape,
            )
        )

    def dropout(self, name: str) -> LayerSpec:
        """Append a dropout layer."""
        count = float(_shape_numel(self._shape))
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.DROPOUT,
                flops_forward=count,
                flops_backward=count,
                output_shape=self._shape,
            )
        )

    def flatten(self, name: str) -> LayerSpec:
        """Flatten a spatial activation into a vector."""
        count = _shape_numel(self._shape)
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.FLATTEN,
                output_shape=(int(count),),
            )
        )

    def softmax(self, name: str) -> LayerSpec:
        """Append a softmax output layer."""
        count = float(_shape_numel(self._shape))
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.SOFTMAX,
                flops_forward=3.0 * count,
                flops_backward=count,
                output_shape=self._shape,
            )
        )

    # -- transformer layers ----------------------------------------------------
    def _require_tokens(self, op: str) -> Tuple[int, int]:
        if len(self._shape) != 2:
            raise ModelSpecError(
                f"{op} requires a (seq_len, channels) activation, got {self._shape}"
            )
        return self._shape  # type: ignore[return-value]

    def embedding(self, name: str, vocab_size: int, dim: int) -> LayerSpec:
        """Append a token-embedding lookup: ``(T,)`` int ids -> ``(T, dim)``.

        The table syncs as a dense ``vocab_size x dim`` blob (no sparse-push
        path), so its wire cost is its full parameter size.
        """
        seq_len = self._require_flat("embedding")
        params = int(vocab_size) * int(dim)
        count = float(seq_len * dim)
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.EMBED,
                param_count=params,
                param_shape=(int(vocab_size), int(dim)),
                flops_forward=count,
                flops_backward=2.0 * count,
                output_shape=(seq_len, int(dim)),
            )
        )

    def positional(self, name: str) -> LayerSpec:
        """Append a learned positional table added to a ``(T, C)`` activation."""
        seq_len, dim = self._require_tokens("positional")
        count = float(seq_len * dim)
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.EMBED,
                param_count=seq_len * dim,
                param_shape=(seq_len, dim),
                flops_forward=count,
                flops_backward=count,
                output_shape=self._shape,
            )
        )

    def layer_norm(self, name: str) -> LayerSpec:
        """Append a layer normalisation (2 learned scalars per channel)."""
        channels = self._shape[-1]
        count = float(_shape_numel(self._shape))
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.NORM,
                param_count=2 * channels,
                param_shape=(2, channels),
                flops_forward=4.0 * count,
                flops_backward=8.0 * count,
                output_shape=self._shape,
            )
        )

    def gelu(self, name: str) -> LayerSpec:
        """Append a GELU activation (tanh approximation)."""
        count = float(_shape_numel(self._shape))
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.ACTIVATION,
                flops_forward=8.0 * count,
                flops_backward=12.0 * count,
                output_shape=self._shape,
            )
        )

    def token_fc(self, name: str, out_features: int, bias: bool = True) -> LayerSpec:
        """Append a token-wise FC layer applied to a ``(T, C)`` activation.

        The ``C x out_features`` weight is shared across the ``T`` positions,
        so the layer is FC-shaped for scheme decisions (``fc_dims``,
        sufficient-factor decomposable) while its FLOPs scale with ``T``.
        Its cached factors ``(x, dy)`` have one row per *token*, so its
        factor rank is ``T`` and Table 1 prices ``K = batch * T`` rows.
        """
        seq_len, in_features = self._require_tokens("token_fc")
        weights = in_features * int(out_features)
        params = weights + (int(out_features) if bias else 0)
        flops_fwd = 2.0 * weights * seq_len
        flops_bwd = 2.0 * flops_fwd
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.FC,
                param_count=params,
                param_shape=(in_features, int(out_features)),
                flops_forward=flops_fwd,
                flops_backward=flops_bwd,
                output_shape=(seq_len, int(out_features)),
                sf_decomposable=True,
                factor_rank=seq_len,
            )
        )

    def sequence_mean_pool(self, name: str) -> LayerSpec:
        """Mean-pool a ``(T, C)`` activation over its tokens: ``-> (C,)``."""
        seq_len, dim = self._require_tokens("sequence_mean_pool")
        count = float(seq_len * dim)
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.POOL,
                flops_forward=count,
                flops_backward=count,
                output_shape=(dim,),
            )
        )

    def attention_core(self, name: str, num_heads: int) -> LayerSpec:
        """Append the parameter-free attention core: ``(T, 3C) -> (T, C)``.

        Consumes a fused QKV activation (from a preceding ``token_fc``) and
        models the ``QK^T`` / softmax / ``AV`` compute; the projections on
        either side carry the parameters, so only they become sync units.
        """
        seq_len, qkv_dim = self._require_tokens("attention_core")
        if qkv_dim % 3 != 0:
            raise ModelSpecError(
                f"attention_core {name!r}: QKV activation width {qkv_dim} "
                f"not divisible by 3"
            )
        dim = qkv_dim // 3
        if dim % int(num_heads) != 0:
            raise ModelSpecError(
                f"attention_core {name!r}: width {dim} not divisible by "
                f"{num_heads} heads"
            )
        matmul_flops = 4.0 * seq_len * seq_len * dim
        softmax_flops = 5.0 * int(num_heads) * seq_len * seq_len
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.ATTENTION,
                flops_forward=matmul_flops + softmax_flops,
                flops_backward=2.0 * (matmul_flops + softmax_flops),
                output_shape=(seq_len, dim),
            )
        )

    def residual(self, name: str) -> LayerSpec:
        """Append a residual add (skip connection merge point)."""
        count = float(_shape_numel(self._shape))
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.ADD,
                flops_forward=count,
                flops_backward=count,
                output_shape=self._shape,
            )
        )

    def transformer_block(self, prefix: str, num_heads: int,
                          mlp_ratio: int = 4) -> Tuple[LayerSpec, ...]:
        """Append a full pre-norm transformer block (10 layer records).

        The QKV / output / MLP projections are emitted as individual
        ``token_fc`` records so each enters Algorithm-1 scheme decisions on
        its own ``(M, N)`` shape, exactly like the FC layers of a CNN.
        """
        _, dim = self._require_tokens("transformer_block")
        specs = [
            self.layer_norm(f"{prefix}_ln1"),
            self.token_fc(f"{prefix}_attn_qkv", 3 * dim),
            self.attention_core(f"{prefix}_attn_core", num_heads),
            self.token_fc(f"{prefix}_attn_proj", dim),
            self.residual(f"{prefix}_res1"),
            self.layer_norm(f"{prefix}_ln2"),
            self.token_fc(f"{prefix}_mlp_fc", int(mlp_ratio) * dim),
            self.gelu(f"{prefix}_mlp_gelu"),
            self.token_fc(f"{prefix}_mlp_proj", dim),
            self.residual(f"{prefix}_res2"),
        ]
        return tuple(specs)

    def concat_channels(self, name: str, channel_counts: Iterable[int]) -> LayerSpec:
        """Record a channel concatenation (used by inception modules).

        The builder is sequential, so branch construction happens outside it;
        this call simply sets the resulting concatenated shape.
        """
        _, in_h, in_w = self._require_spatial("concat")
        total = sum(int(c) for c in channel_counts)
        return self._add(
            LayerSpec(
                name=name,
                kind=LayerKind.CONCAT,
                output_shape=(total, in_h, in_w),
            )
        )

    def add_layer(self, layer: LayerSpec) -> LayerSpec:
        """Append an externally constructed :class:`LayerSpec` verbatim."""
        return self._add(layer)

    def set_shape(self, shape: Sequence[int]) -> None:
        """Override the tracked activation shape (for non-sequential topologies)."""
        self._shape = tuple(int(d) for d in shape)

    # -- finalisation ----------------------------------------------------------
    def build(
        self,
        dataset: str = "synthetic",
        default_batch_size: int = 32,
        reference_images_per_sec: Optional[float] = None,
        notes: str = "",
    ) -> ModelSpec:
        """Produce the immutable :class:`ModelSpec`."""
        return ModelSpec(
            name=self.name,
            layers=tuple(self._layers),
            dataset=dataset,
            default_batch_size=default_batch_size,
            reference_images_per_sec=reference_images_per_sec,
            notes=notes,
        )


def _shape_numel(shape: Tuple[int, ...]) -> int:
    """Number of elements in a per-sample activation shape."""
    count = 1
    for dim in shape:
        count *= int(dim)
    return count
