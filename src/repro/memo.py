"""One keyed memo for every derivation the planning layers share.

Three derivations are pure functions of frozen (hashable) inputs and are
hit on every measured path, so one helper caches them: workloads
(``repro.simulation.workload``), resolved sync plans
(``repro.simulation.plan``) and the DES lowerings of a plan
(``repro.simulation.throughput``).  Cheaper derivations (model specs,
scheme decisions, bucketed workloads, sweep simulators) are recomputed:
a table that is never hit only holds memory.  A table is keyed on the
*whole* input value -- there is no hand-listed field subset to audit
when a config grows a field.  A memo whose values also depend on process
state that is not part of the key (the communication-backend registry)
names that state's ``generation`` counter and is dropped whenever it
moves, so a backend registered after a sweep warmed the tables is never
served a stale decision.  Tables are per-process: sweep pool workers warm
their own.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable, List, Optional


class Memo:
    """A table ``key -> value`` with ``hits`` / ``misses`` counters.

    With a ``limit``, the table keeps the ``limit`` most recently used
    entries: a table whose keys carry every one-off query (the plans of a
    what-if sweep over nudged clusters) stays bounded.
    """

    __slots__ = ("hits", "misses", "_table", "_generation", "_seen",
                 "_limit")

    def __init__(self, generation: Optional[Callable[[], int]] = None,
                 limit: Optional[int] = None):
        self.hits = 0
        self.misses = 0
        self._table: Dict[Hashable, Any] = {}
        self._generation = generation
        self._seen: Optional[int] = None
        self._limit = limit
        _MEMOS.append(self)

    def get(self, key: Hashable, build: Callable[[], Any]) -> Any:
        """The value cached under ``key``, built (once) by ``build()``.

        The value is shared between callers and must not be mutated.
        """
        if self._generation is not None:
            generation = self._generation()
            if generation != self._seen:
                self._table.clear()
                self._seen = generation
        table = self._table
        try:
            value = table[key]
        except KeyError:
            self.misses += 1
            value = table[key] = build()
            if self._limit is not None and len(table) > self._limit:
                del table[next(iter(table))]  # the least recently used
        else:
            self.hits += 1
            if self._limit is not None:
                table[key] = table.pop(key)  # now the most recently used
        return value


_MEMOS: List[Memo] = []


def clear_all() -> None:
    """Empty every memo table, e.g. to time a cold path."""
    for memo in _MEMOS:
        memo._table.clear()
