"""Numerical gradient checking.

Used by the test suite to verify that every runnable layer's analytic
backward pass agrees with central finite differences -- the gradients the
distributed runtime synchronises must be correct before the communication
architecture on top of them means anything.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.nn.layers.base import Layer
from repro.nn.loss import SoftmaxCrossEntropyLoss


def numeric_gradient(func: Callable[[np.ndarray], float], array: np.ndarray,
                     epsilon: float = 1e-4, max_elements: int = 64,
                     rng: np.random.Generator | None = None,
                     indices: np.ndarray | None = None) -> Dict[tuple, float]:
    """Central-difference gradient of ``func`` at a sample of elements.

    For large arrays only ``max_elements`` randomly chosen entries are
    perturbed, which keeps the check cheap while still exercising all parts
    of the tensor.  Callers may instead pass explicit flat ``indices`` --
    :func:`check_layer_gradients` uses this to aim the sample at entries a
    sparse backward pass actually touched.

    Returns:
        Mapping from element index tuple to the estimated partial derivative.
    """
    if not np.issubdtype(array.dtype, np.floating):
        raise TypeError(
            f"numeric_gradient needs a float array to perturb, got dtype "
            f"{array.dtype}"
        )
    rng = rng or np.random.default_rng(0)
    if indices is not None:
        flat_indices = np.asarray(indices)
    elif array.size > max_elements:
        flat_indices = rng.choice(array.size, size=max_elements, replace=False)
    else:
        flat_indices = np.arange(array.size)
    grads: Dict[tuple, float] = {}
    for flat_index in flat_indices:
        index = np.unravel_index(int(flat_index), array.shape)
        original = array[index]
        array[index] = original + epsilon
        loss_plus = func(array)
        array[index] = original - epsilon
        loss_minus = func(array)
        array[index] = original
        grads[index] = (loss_plus - loss_minus) / (2.0 * epsilon)
    return grads


def _sample_param_indices(analytic: np.ndarray, max_elements: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Flat indices to perturb, biased toward nonzero analytic entries.

    A uniform sample is vacuous for sparse-gradient parameters -- an
    embedding table whose batch touches 20 of 50k rows would almost always
    compare 0 against 0.  Spend most of the budget on entries the backward
    pass actually wrote, keeping a few uniform picks to catch spurious
    nonzero analytic gradients.
    """
    size = analytic.size
    if size <= max_elements:
        return np.arange(size)
    flat = np.asarray(analytic).ravel()
    nonzero = np.flatnonzero(flat)
    if nonzero.size == 0 or nonzero.size >= size - max_elements:
        return rng.choice(size, size=max_elements, replace=False)
    budget = max(max_elements - max(max_elements // 4, 1), 1)
    targeted = rng.choice(nonzero, size=min(budget, nonzero.size), replace=False)
    uniform = rng.choice(size, size=max_elements - targeted.size, replace=False)
    return np.unique(np.concatenate([targeted, uniform]))


def check_layer_gradients(layer: Layer, inputs: np.ndarray, labels: np.ndarray | None = None,
                          epsilon: float = 1e-4, tolerance: float = 1e-2,
                          max_elements: int = 32) -> float:
    """Verify a layer's parameter gradients against finite differences.

    The layer output is reduced with a fixed random projection so the check
    works for layers of any output shape, and parameters of any shape or
    sparsity are handled here rather than per-test: non-float auxiliary
    state is skipped, and the perturbation sample is biased toward entries
    with nonzero analytic gradient (see :func:`_sample_param_indices`).
    Integer inputs (token ids) pass through untouched -- only parameters
    are perturbed.

    Returns:
        The maximum relative error observed across all checked elements.

    Raises:
        AssertionError: if any relative error exceeds ``tolerance``.
    """
    rng = np.random.default_rng(12345)
    out = layer.forward(inputs.copy(), training=True)
    projection = rng.standard_normal(out.shape).astype(np.float64)

    def loss_fn(_: np.ndarray) -> float:
        return float((layer.forward(inputs.copy(), training=True) * projection).sum())

    # Analytic gradients.
    layer.forward(inputs.copy(), training=True)
    layer.backward(projection)
    max_rel_error = 0.0
    for key, param in layer.params.items():
        if not np.issubdtype(param.dtype, np.floating):
            continue  # non-float auxiliary state has no gradient to check
        analytic = layer.grads[key]
        indices = _sample_param_indices(analytic, max_elements, rng)
        numeric = numeric_gradient(lambda arr: loss_fn(arr), param,
                                   epsilon=epsilon, max_elements=max_elements,
                                   rng=rng, indices=indices)
        for index, estimate in numeric.items():
            got = float(analytic[index])
            scale = max(abs(estimate), abs(got), 1e-8)
            rel_error = abs(estimate - got) / scale
            max_rel_error = max(max_rel_error, rel_error)
            assert rel_error < tolerance, (
                f"layer {layer.name!r} param {key!r} index {index}: "
                f"numeric={estimate:.6f} analytic={got:.6f} rel_error={rel_error:.4f}"
            )
    return max_rel_error


def check_network_input_gradient(network, inputs: np.ndarray, labels: np.ndarray,
                                 epsilon: float = 1e-3, tolerance: float = 5e-2,
                                 max_elements: int = 16) -> float:
    """Verify a network's end-to-end input gradient against finite differences."""
    loss_fn = SoftmaxCrossEntropyLoss()

    def full_loss(x: np.ndarray) -> float:
        logits = network.forward(x, training=True)
        loss, _ = loss_fn.forward(logits, labels)
        return loss

    logits = network.forward(inputs, training=True)
    _, grad_logits = loss_fn.forward(logits, labels)
    grad_input = network.backward(grad_logits, need_input_grad=True)

    numeric = numeric_gradient(full_loss, inputs, epsilon=epsilon,
                               max_elements=max_elements)
    max_rel_error = 0.0
    for index, estimate in numeric.items():
        got = float(grad_input[index])
        scale = max(abs(estimate), abs(got), 1e-6)
        rel_error = abs(estimate - got) / scale
        max_rel_error = max(max_rel_error, rel_error)
        assert rel_error < tolerance, (
            f"input gradient at {index}: numeric={estimate:.6f} analytic={got:.6f} "
            f"rel_error={rel_error:.4f}"
        )
    return max_rel_error
