"""Byte accounting for the functional substrates.

The substrates exchange numpy payloads directly (they live in one process);
a :class:`ByteMeter` counts the bytes that *would* cross the network, in
the wire formats of the real system.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional


class ByteMeter:
    """Thread-safe counter of bytes sent/received, grouped by tag."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.sent = 0
        self.received = 0
        self.by_tag: Dict[str, int] = {}

    def record(self, nbytes: int, direction: str = "sent",
               tag: Optional[str] = None) -> None:
        """Record a transfer of ``nbytes`` in the given direction."""
        with self._lock:
            if direction == "sent":
                self.sent += int(nbytes)
            elif direction == "received":
                self.received += int(nbytes)
            else:
                raise ValueError(f"unknown direction {direction!r}")
            if tag is not None:
                self.by_tag[tag] = self.by_tag.get(tag, 0) + int(nbytes)

    @property
    def total(self) -> int:
        """Total bytes in both directions."""
        return self.sent + self.received

    def snapshot(self) -> Dict[str, int]:
        """A copy of the counters, safe to read while training continues."""
        with self._lock:
            return {
                "sent": self.sent,
                "received": self.received,
                **{f"tag:{key}": value for key, value in self.by_tag.items()},
            }
