"""Scheme assignment for runnable networks.

The coordinator's cost model (:mod:`repro.core.cost_model`) operates on
:class:`~repro.nn.spec.LayerSpec` objects; the functional trainer operates on
runnable :class:`~repro.nn.layers.base.Layer` objects.  This module bridges
the two: it applies the one per-layer rule
(:func:`repro.comm.backend.choose_scheme`, Algorithm 1 for ``"hybrid"``) to
every runnable layer and produces the per-layer scheme assignment the
trainer hands to its syncers.  A newly registered backend becomes a
valid trainer mode without any change here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.comm.backend import HYBRID_MODE, choose_scheme, registered_backends
from repro.config import ClusterConfig
from repro.exceptions import ConfigurationError
from repro.nn.layers.dense import Dense
from repro.nn.network import Network


def trainer_modes() -> Tuple[str, ...]:
    """Synchronization modes accepted by the functional trainer."""
    return tuple(registered_backends()) + (HYBRID_MODE,)


@dataclass(frozen=True)
class SchemeAssignment:
    """Scheme name chosen for every parameter layer of a runnable network."""

    mode: str
    schemes: Dict[str, str]

    def scheme_for(self, layer_name: str) -> str:
        """Scheme assigned to a layer (PS for unknown layers)."""
        return self.schemes.get(layer_name, "ps")

    @property
    def sfb_layers(self) -> List[str]:
        """Layers synchronized by sufficient-factor broadcasting."""
        return [name for name, scheme in self.schemes.items()
                if scheme == "sfb"]


def assign_schemes(network: Network, mode: str, cluster: ClusterConfig,
                   batch_size: int) -> SchemeAssignment:
    """Assign a communication scheme to every parameter layer.

    Args:
        network: the runnable model replica (its Dense layers expose shapes).
        mode: a registered backend name (``"ps"``, ``"sfb"``, ``"onebit"``,
            ``"adam"``, ``"ring"``, ``"hierps"``, ...) or ``"hybrid"``.
            Factor-based backends fall back to PS for layers whose gradients
            are not sufficient-factor decomposable.
        cluster: the cluster Algorithm 1 prices ``"hybrid"`` on (rack-aware
            when oversubscribed, the paper's flat Algorithm 1 otherwise).
        batch_size: per-worker batch size; a ``Dense`` layer's factors
            have ``batch_size * layer.factor_rank`` rows (``K``).

    Raises:
        ConfigurationError: on an unknown mode or a degenerate batch size.
    """
    modes = trainer_modes()
    if mode not in modes:
        raise ConfigurationError(
            f"unknown trainer mode {mode!r}; expected one of {modes}"
        )
    schemes: Dict[str, str] = {}
    for _, layer in network.parameter_layers():
        # Dense layers are exactly the runnable layers whose gradients admit
        # a sufficient-factor decomposition (outer product of activations
        # and back-propagated errors).
        factorizable = isinstance(layer, Dense)
        fc_dims = ((layer.in_features, layer.out_features)
                   if factorizable else None)
        schemes[layer.name] = choose_scheme(
            mode, fc_dims, factorizable, cluster, batch_size,
            factor_rank=layer.factor_rank if factorizable else 1)
    return SchemeAssignment(mode=mode, schemes=schemes)
