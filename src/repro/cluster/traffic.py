"""Per-node traffic accounting.

Figure 10 of the paper compares the per-node network traffic (Gb per
iteration) of TF-WFBP, Adam and Poseidon; the accounting object below is
what the simulator fills in to regenerate that figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class TrafficAccount:
    """Bytes sent and received by one node, grouped by traffic tag."""

    node_id: int
    bytes_sent: float = 0.0
    bytes_received: float = 0.0
    by_tag_sent: Dict[str, float] = field(default_factory=dict)
    by_tag_received: Dict[str, float] = field(default_factory=dict)

    def record_sent(self, nbytes: float, tag: str = "untagged") -> None:
        """Account for ``nbytes`` leaving this node."""
        self.bytes_sent += nbytes
        self.by_tag_sent[tag] = self.by_tag_sent.get(tag, 0.0) + nbytes

    def record_received(self, nbytes: float, tag: str = "untagged") -> None:
        """Account for ``nbytes`` arriving at this node."""
        self.bytes_received += nbytes
        self.by_tag_received[tag] = self.by_tag_received.get(tag, 0.0) + nbytes

    @property
    def total_bytes(self) -> float:
        """Total bytes through this node's NIC in both directions."""
        return self.bytes_sent + self.bytes_received
