"""Execution-semantics policies: BSP, SSP, async, and local SGD.

The trainer historically ended every iteration at a BSP barrier -- the
synchronous corner of the consistency space.  A :class:`SyncPolicy` names a
point on the full axis:

``bsp``
    Bulk-synchronous: all workers rendezvous every iteration (the default,
    and the only mode before this module existed).
``ssp(s)``
    Stale-synchronous parallel with bound ``s``: a worker may run ahead of
    the slowest worker by at most ``s`` iterations (``s = 0`` degenerates to
    BSP).  Backed by :class:`repro.core.staleness.SSPClock`.
``async``
    Fully asynchronous push/pull: no inter-worker gate at all; the
    parameter server applies each worker's update as it arrives.
``local_sgd(H)``
    Local SGD with period ``H``: workers take ``H`` purely local optimizer
    steps, then average parameters across the cluster (``H = 1``
    degenerates to BSP).  Wire traffic drops by ``H``x.

Policies are immutable and hashable so they can key caches and ride inside
frozen configs.  ``SyncPolicy.parse`` accepts the compact string forms used
by CLIs and experiment tables: ``"bsp"``, ``"ssp"``/``"ssp(2)"``,
``"async"``, ``"local_sgd(4)"``/``"local-4"``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.domains import COUNT, COUNT0, check_fields, declared, one_of
from repro.exceptions import ConfigurationError

#: Recognised policy kinds, in presentation order.
POLICY_KINDS: Tuple[str, ...] = ("bsp", "ssp", "async", "local_sgd")

#: A spec with an argument, ``kind(arg)`` or ``kind-arg``: any argument,
#: so that a known kind's malformed one is reported as such.
_PAREN = re.compile(r"^(?P<kind>[a-z_]+)\((?P<arg>.*)\)$")
_DASH = re.compile(r"^(?P<kind>[a-z_]+)-(?P<arg>.+)$")
_INTEGER = re.compile(r"[-+]?\d+")
#: The field a kind's spec argument sets.
_ARGUMENT = {"ssp": "staleness", "local_sgd": "sync_period"}


@dataclass(frozen=True)
class SyncPolicy:
    """One point on the execution-semantics axis.

    Attributes:
        kind: one of :data:`POLICY_KINDS`.
        staleness: SSP bound ``s`` (meaningful for ``ssp``; 0 otherwise).
        sync_period: local-SGD period ``H`` (meaningful for ``local_sgd``;
            1 otherwise).
    """

    kind: str = declared(one_of(*POLICY_KINDS), "bsp")
    # Zero is in the domain: ssp(0) is BSP (``is_bsp_equivalent``).
    staleness: int = declared(COUNT0, 0)
    sync_period: int = declared(COUNT, 1)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.kind != "ssp" and self.staleness:
            raise ConfigurationError(
                f"staleness={self.staleness} only applies to ssp policies")
        if self.kind != "local_sgd" and self.sync_period != 1:
            raise ConfigurationError(
                f"sync_period={self.sync_period} only applies to local_sgd")

    @classmethod
    def parse(cls, spec: Union["SyncPolicy", str, None]) -> "SyncPolicy":
        """Coerce a policy spec into a :class:`SyncPolicy`.

        Accepts an existing policy (returned unchanged), ``None`` (BSP), or
        a string: ``"bsp"``, ``"ssp"`` (s=1), ``"ssp(2)"``, ``"ssp-2"``,
        ``"async"``, ``"local_sgd(4)"``, ``"local_sgd-4"``, ``"local-4"``.
        """
        if spec is None:
            return BSP
        if isinstance(spec, cls):
            return spec
        if not isinstance(spec, str):
            raise ConfigurationError(
                f"cannot parse sync policy from {type(spec).__name__}")
        text = spec.strip().lower()
        match = _PAREN.match(text) or _DASH.match(text)
        kind, arg = match.group("kind", "arg") if match else (text, None)
        if kind == "local":  # shorthand used in figure labels
            kind = "local_sgd"
        if kind not in POLICY_KINDS:
            raise ConfigurationError(f"unknown sync policy {spec!r}; "
                                     f"expected one of {POLICY_KINDS}")
        if arg is not None:
            if not _INTEGER.fullmatch(arg):
                raise ConfigurationError(
                    f"sync policy {spec!r}: argument {arg!r} is not a "
                    f"whole number")
            arg = int(arg)
        if kind in _ARGUMENT:   # s = 1 and H = 1 when not given
            return cls(kind=kind, **{_ARGUMENT[kind]: 1 if arg is None
                                     else arg})
        if arg is not None and (kind, arg) != ("bsp", 0):
            raise ConfigurationError(f"{kind} takes no argument: {spec!r}")
        return BSP if kind == "bsp" else cls(kind=kind)

    # -- derived properties ------------------------------------------------

    @property
    def is_bsp_equivalent(self) -> bool:
        """True when the policy degenerates to BSP semantics.

        ``ssp(0)`` (nobody may run ahead) and ``local_sgd(1)`` (average
        after every step) rendezvous every iteration exactly as BSP does.
        The trainer and both simulators run them as BSP (the DES as the
        one-round case of its only run path), so they stay bit-identical
        to it by construction.
        """
        if self.kind == "bsp":
            return True
        if self.kind == "ssp" and self.staleness == 0:
            return True
        if self.kind == "local_sgd" and self.sync_period == 1:
            return True
        return False

    @property
    def averages_parameters(self) -> bool:
        """True when sync rounds average parameters instead of gradients."""
        return self.kind == "local_sgd" and self.sync_period > 1

    @property
    def relaxed_consistency(self) -> bool:
        """True when workers may observe stale parameters (ssp s>0, async).

        Relaxed policies need a parameter server that applies each push as
        it arrives (``updates_per_version=1``) and pulls that do not wait
        for the current iteration's version.
        """
        if self.kind == "async":
            return True
        return self.kind == "ssp" and self.staleness > 0

    @property
    def bound(self) -> Optional[int]:
        """Staleness bound enforced between workers (None = unbounded)."""
        if self.kind == "async":
            return None
        if self.kind == "ssp":
            return self.staleness
        return 0

    @property
    def sync_frequency(self) -> float:
        """Fraction of iterations that put sync traffic on the wire.

        Local SGD communicates every ``H``-th iteration (1/H); every other
        policy communicates each iteration (frequency 1.0 -- SSP and async
        change *when* a worker may proceed, not how often bytes move).
        """
        if self.kind == "local_sgd":
            return 1.0 / self.sync_period
        return 1.0

    def ready(self, worker_clock: int, min_clock: int) -> bool:
        """Gate: may a worker at ``worker_clock`` start its next iteration?

        The SSP invariant -- no worker runs more than ``bound`` iterations
        ahead of the slowest (``min_clock``).  BSP is the ``bound = 0``
        case; async never blocks.
        """
        if self.bound is None:
            return True
        return worker_clock - min_clock <= self.bound

    def __str__(self) -> str:
        if self.kind == "ssp":
            return f"ssp({self.staleness})"
        if self.kind == "local_sgd":
            return f"local_sgd({self.sync_period})"
        return self.kind


#: The default policy: bulk-synchronous parallel.
BSP = SyncPolicy()
