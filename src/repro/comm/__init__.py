"""Communication substrates.

Functional (real numpy payloads, thread-safe, BSP-consistent) implementations
of the synchronization mechanisms the paper builds on and compares against:

* :class:`~repro.comm.parameter_server.ShardedParameterServer` -- the
  client/server scheme of Figure 2(a).
* :class:`~repro.comm.sfb.SufficientFactorBroadcaster` -- the peer-to-peer
  scheme of Figure 2(b).
* :class:`~repro.comm.adam.AdamSFServer` -- Project Adam's SF-push /
  full-matrix-pull strategy (Section 3.2, Section 5.3).
* :mod:`repro.comm.quantization` -- CNTK's 1-bit quantization with error
  feedback (Section 5.3).

These are used by the functional distributed trainer
(:mod:`repro.parallel`); the *timing* of the same schemes on a cluster is
modelled separately by :mod:`repro.simulation`.
"""

from repro.comm.message import ByteMeter
from repro.comm.parameter_server import ShardedParameterServer
from repro.comm.sfb import SufficientFactorBroadcaster
from repro.comm.adam import AdamSFServer
from repro.comm.quantization import OneBitQuantizer, QuantizedGradient

__all__ = [
    "ByteMeter",
    "ShardedParameterServer",
    "SufficientFactorBroadcaster",
    "AdamSFServer",
    "OneBitQuantizer",
    "QuantizedGradient",
]
