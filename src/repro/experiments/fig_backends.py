"""The compared communication schemes: every registered backend as a system.

The paper evaluates PS, SFB, HybComm, Adam and 1-bit; the pluggable backend
layer (:mod:`repro.comm.backend`) adds ring all-reduce and a hierarchical
parameter server.  :func:`backend_systems` puts all seven on the Poseidon
client library (:func:`repro.config.poseidon_system`) for the backend,
topology, scale and LLM figures and the repository benchmark.  This module
imports no experiment machinery, so those callers stay cheap to import.
"""

from __future__ import annotations

from typing import Tuple

from repro.config import SystemConfig, poseidon_system

#: Display label of every compared scheme, keyed by its comm name.
SCHEME_LABELS: Tuple[Tuple[str, str], ...] = (
    ("ps", "PS"),
    ("sfb", "SFB"),
    ("hybrid", "HybComm"),
    ("onebit", "1-bit PS"),
    ("adam", "Adam"),
    ("ring", "Ring-AllReduce"),
    ("hierps", "Hierarchical-PS"),
)


def backend_systems() -> Tuple[SystemConfig, ...]:
    """One system per compared scheme, Poseidon client library throughout."""
    return tuple(poseidon_system(label, comm) for comm, label in SCHEME_LABELS)
