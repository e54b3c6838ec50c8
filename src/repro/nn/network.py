"""Sequential network container.

The container exposes exactly the structure Poseidon exploits: an ordered
list of layers whose backward passes run from the top of the network to the
bottom, with a callback fired after *each* layer's backward pass so a syncer
can start communicating that layer's gradient while lower layers are still
computing (wait-free backpropagation, Section 3.1).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.loss import SoftmaxCrossEntropyLoss

#: Callback invoked after a layer's backward pass.  Arguments: the index of
#: the layer within the network and the layer object itself.
BackwardHook = Callable[[int, Layer], None]


class Network:
    """An ordered stack of layers trained with backpropagation."""

    def __init__(self, layers: Sequence[Layer], name: str = "network"):
        self.name = name
        self.layers: List[Layer] = list(layers)
        if not self.layers:
            raise ValueError("a Network needs at least one layer")
        names = [layer.name for layer in self.layers]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate layer names in network {name!r}: {names}")
        self.loss = SoftmaxCrossEntropyLoss()

    # -- introspection ----------------------------------------------------------
    def parameter_layers(self) -> List[Tuple[int, Layer]]:
        """Indices and layers that carry trainable parameters."""
        return [(i, layer) for i, layer in enumerate(self.layers) if layer.has_parameters]

    @property
    def param_count(self) -> int:
        """Total number of trainable scalars in the network."""
        return sum(layer.param_count for layer in self.layers)

    def layer_by_name(self, name: str) -> Layer:
        """Look up a layer by name.

        Raises:
            KeyError: if the layer does not exist.
        """
        for layer in self.layers:
            if layer.name == name:
                return layer
        raise KeyError(f"network {self.name!r} has no layer named {name!r}")

    # -- state ------------------------------------------------------------------
    def get_state(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Copy of all parameters, keyed by layer name then parameter name."""
        return {
            layer.name: layer.get_params()
            for layer in self.layers
            if layer.has_parameters
        }

    def set_state(self, state: Dict[str, Dict[str, np.ndarray]]) -> None:
        """Load parameters previously captured with :meth:`get_state`."""
        for layer_name, params in state.items():
            self.layer_by_name(layer_name).set_params(params)

    def get_gradients(self) -> Dict[str, Dict[str, np.ndarray]]:
        """Copy of all parameter gradients, keyed by layer then parameter name."""
        return {
            layer.name: layer.get_grads()
            for layer in self.layers
            if layer.has_parameters
        }

    # -- execution ----------------------------------------------------------------
    def forward(self, inputs: np.ndarray, training: bool = True) -> np.ndarray:
        """Run the forward pass and return the final activations (logits)."""
        activations = inputs
        for layer in self.layers:
            activations = layer.forward(activations, training=training)
        return activations

    def backward(self, grad_logits: np.ndarray,
                 hook: Optional[BackwardHook] = None,
                 need_input_grad: bool = False) -> Optional[np.ndarray]:
        """Run the backward pass from the loss gradient down to the bottom layer.

        Args:
            grad_logits: gradient of the loss w.r.t. the network output.
            hook: optional callback invoked right after each layer finishes
                its backward pass (top layer first) -- the WFBP insertion
                point of Algorithm 2 (``net.BackwardThrough(l)`` followed by
                ``thread_pool.Schedule(sync(l))``).
            need_input_grad: also compute the gradient with respect to the
                network *input*.  Training never reads it, and the bottom
                layer's sync is the one WFBP cannot hide, so by default the
                bottom layer is told to skip it.

        Returns:
            Gradient with respect to the network input when
            ``need_input_grad`` is set; otherwise whatever the bottom layer
            returned (``None`` from layers that honour the skip).
        """
        grad = grad_logits
        for index in range(len(self.layers) - 1, -1, -1):
            layer = self.layers[index]
            grad = layer.backward(
                grad, need_input_grad=need_input_grad or index > 0)
            if hook is not None:
                hook(index, layer)
        return grad

    def train_step(self, inputs: np.ndarray, labels: np.ndarray,
                   hook: Optional[BackwardHook] = None) -> float:
        """Forward + loss + backward for one mini-batch; returns the loss.

        Parameter gradients are left in each layer's ``grads`` dict; applying
        them is the optimiser's (or the parameter server's) job.
        """
        logits = self.forward(inputs, training=True)
        loss, grad_logits = self.loss.forward(logits, labels)
        self.backward(grad_logits, hook=hook)
        return loss

    def evaluate(self, inputs: np.ndarray, labels: np.ndarray,
                 batch_size: int = 256) -> Tuple[float, float]:
        """Compute mean loss and top-1 error over a dataset without training."""
        total_loss = 0.0
        total_err = 0.0
        count = 0
        for start in range(0, inputs.shape[0], batch_size):
            batch_x = inputs[start:start + batch_size]
            batch_y = labels[start:start + batch_size]
            logits = self.forward(batch_x, training=False)
            loss, _ = self.loss.forward(logits, batch_y)
            err = self.loss.error_rate(logits, batch_y)
            total_loss += loss * batch_x.shape[0]
            total_err += err * batch_x.shape[0]
            count += batch_x.shape[0]
        return total_loss / count, total_err / count

    def zero_grads(self) -> None:
        """Reset the gradients of every parameterised layer."""
        for layer in self.layers:
            if layer.has_parameters:
                layer.zero_grads()
