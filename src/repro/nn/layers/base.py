"""Base class for runnable layers.

Layers follow the classic define-by-layer style of Caffe: each layer owns its
parameters and gradients in plain dictionaries keyed by parameter name, so
that the distributed runtime can read gradients out of a layer as soon as its
backward pass finishes (the hook wait-free backpropagation relies on).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.exceptions import ShapeError


class Layer:
    """Abstract layer with explicit parameter/gradient storage.

    Subclasses implement :meth:`forward` and :meth:`backward` and populate
    ``self.params`` / ``self.grads`` with identically keyed numpy arrays.
    """

    def __init__(self, name: str):
        self.name = name
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}

    # -- interface -------------------------------------------------------------
    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        """Compute the layer output for a batch of inputs."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray,
                 need_input_grad: bool = True) -> Optional[np.ndarray]:
        """Backpropagate ``grad_output``; returns gradient w.r.t. the input.

        Parameter gradients are *rebound* in ``self.grads`` to freshly
        allocated arrays, never written into the previous ones: a syncer
        stages them by reference and a substrate may hold them until the
        aggregate is applied.  With ``need_input_grad=False`` (the bottom
        layer of a training step) a layer whose input gradient costs a
        GEMM may skip it and return ``None``; cheap layers ignore the flag.
        """
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------------
    @property
    def has_parameters(self) -> bool:
        """Whether this layer carries trainable parameters."""
        return bool(self.params)

    @property
    def param_count(self) -> int:
        """Total number of trainable scalars in this layer."""
        return int(sum(p.size for p in self.params.values()))

    def zero_grads(self) -> None:
        """Reset all parameter gradients to zero, at no memory cost.

        Each gradient becomes a read-only view of one zero scalar broadcast
        to its parameter's shape and dtype: it reads as zeros and costs
        O(1), and a write into it raises ``ValueError``.  Nothing writes
        into a gradient -- :meth:`backward` rebinds every ``grads[key]``
        to a fresh array before anyone reads it -- so a zeroed layer holds
        no gradient memory until its next backward.
        """
        for key, value in self.params.items():
            self.grads[key] = np.broadcast_to(np.zeros((), value.dtype),
                                              value.shape)

    def set_params(self, new_params: Dict[str, np.ndarray]) -> None:
        """Overwrite parameters in place (used when pulling from a PS).

        Raises:
            ShapeError: if a replacement does not match the existing shape.
            KeyError: if an unknown parameter name is supplied.
        """
        for key, value in new_params.items():
            if key not in self.params:
                raise KeyError(f"layer {self.name!r} has no parameter {key!r}")
            if value.shape != self.params[key].shape:
                raise ShapeError(
                    f"layer {self.name!r} parameter {key!r}: expected shape "
                    f"{self.params[key].shape}, got {value.shape}"
                )
            np.copyto(self.params[key], value)

    def get_params(self) -> Dict[str, np.ndarray]:
        """Return a copy of the parameter dictionary."""
        return {key: value.copy() for key, value in self.params.items()}

    def get_grads(self) -> Dict[str, np.ndarray]:
        """Return a copy of the gradient dictionary (not used on sync paths)."""
        return {key: value.copy() for key, value in self.grads.items()}

    def _check_input(self, inputs: np.ndarray, expected_ndim: int,
                     what: Optional[str] = None) -> None:
        if inputs.ndim != expected_ndim:
            raise ShapeError(
                f"layer {self.name!r} expected a {expected_ndim}-D "
                f"{what or 'input'}, got shape {inputs.shape}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, params={self.param_count})"
