"""Registry mapping model names to spec builder functions.

The registry is filled lazily: builder callables are registered at import
time, but a spec is only constructed when it is requested, because the big
ones (ResNet-152, Inception-V3) take milliseconds to build and most callers
only need one or two.  Specs are frozen values: two lookups of one name
build equal specs, and every table keyed on a spec keys on that value.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.exceptions import ConfigurationError
from repro.nn.spec import ModelSpec

SpecFactory = Callable[[], ModelSpec]

MODEL_REGISTRY: Dict[str, SpecFactory] = {}


def register_model(name: str, factory: SpecFactory, overwrite: bool = False) -> None:
    """Register a spec factory under ``name`` (case-insensitive lookup).

    Raises:
        ConfigurationError: if the name is taken and ``overwrite`` is False.
    """
    key = name.lower()
    if key in MODEL_REGISTRY and not overwrite:
        raise ConfigurationError(f"model {name!r} is already registered")
    MODEL_REGISTRY[key] = factory


def get_model_spec(name: str) -> ModelSpec:
    """Build the :class:`ModelSpec` registered under ``name``.

    Raises:
        KeyError: if no model with that name is registered.
    """
    key = name.lower()
    if key not in MODEL_REGISTRY:
        raise KeyError(
            f"unknown model {name!r}; available: {', '.join(available_models())}"
        )
    return MODEL_REGISTRY[key]()


def available_models() -> List[str]:
    """Sorted list of registered model names."""
    return sorted(MODEL_REGISTRY)


def _register_builtin_models() -> None:
    """Register the paper's models; deferred imports avoid cycles."""
    from repro.nn.model_zoo import (  # noqa: WPS433 (intentional late import)
        alexnet,
        cifar_quick,
        googlenet,
        inception_v3,
        mlp,
        resnet,
        transformer,
        vgg,
    )

    builders = {
        "cifar10-quick": cifar_quick.cifar_quick_spec,
        "mlp": mlp.mlp_spec,
        "alexnet": alexnet.alexnet_spec,
        "googlenet": googlenet.googlenet_spec,
        "inception-v3": inception_v3.inception_v3_spec,
        "vgg16": vgg.vgg16_spec,
        "vgg19": vgg.vgg19_spec,
        "vgg19-22k": vgg.vgg19_22k_spec,
        "resnet-50": resnet.resnet50_spec,
        "resnet-152": resnet.resnet152_spec,
        "nanogpt-12l": transformer.nanogpt_12l_spec,
        "gpt2-small": transformer.gpt2_small_spec,
    }
    for name, factory in builders.items():
        if name not in MODEL_REGISTRY:
            register_model(name, factory)


_register_builtin_models()
