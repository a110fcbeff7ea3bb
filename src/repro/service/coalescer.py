"""Request coalescing by content hash (keyed single-flight).

Two clients asking for the same experiment describe the same computation —
the spec's content hash proves it — so the service runs it once and both
watch the same job.  :class:`Coalescer` is the in-process half of that
contract: a keyed registry where the first submitter creates the entry and
every later identical submission *attaches* to it, whatever its state
(queued, running, or already finished — finished entries are still valid
because results are content-addressed and deterministic).

The cross-process half is owned by the artifact store: when two service
processes (or a service and a CLI run) race on one spec, the store's
single-writer training lease makes one of them compute while the other
polls the store for the winner's artifact (``Session._claim_training``),
and the result cache turns the loser's remaining pipeline into hits.  The
coalescer therefore only needs to dedupe *within* this process; it never
coordinates across processes itself.

Failed entries are not reused: a later identical submission replaces them
and retries the computation (the failure may have been transient — a
deadline, a flaky disk).
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Generic, List, Optional, Tuple, TypeVar

T = TypeVar("T")


class Coalescer(Generic[T]):
    """A keyed registry where identical keys share one live entry."""

    def __init__(self, retry_failed: Callable[[T], bool] = None) -> None:
        self._lock = threading.Lock()
        self._entries: Dict[str, T] = {}
        self._retry_failed = retry_failed
        self.hits = 0
        self.misses = 0

    def attach(self, key: str, factory: Callable[[], T]) -> Tuple[T, bool]:
        """The entry for ``key``, creating it via ``factory`` when absent.

        Returns ``(entry, attached)`` — ``attached`` is True when an
        existing entry was joined (a coalesce hit).  An entry the
        ``retry_failed`` predicate marks as failed is replaced instead of
        joined, so a transient failure does not poison the key forever.
        ``factory`` runs under the registry lock: keep it cheap (job
        construction, not computation).
        """
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and not (
                self._retry_failed is not None and self._retry_failed(existing)
            ):
                self.hits += 1
                return existing, True
            entry = factory()
            self._entries[key] = entry
            self.misses += 1
            return entry, False

    def get(self, key: str) -> Optional[T]:
        with self._lock:
            return self._entries.get(key)

    def entries(self) -> List[T]:
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
