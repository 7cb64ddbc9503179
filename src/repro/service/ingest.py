"""Wire-contract constants, reject reasons and the quarantine log.

The collection endpoint faces the open internet: truncated bodies,
replayed payloads, fuzzed field types, oversized blobs.  None of that
may reach the scoring model.  The contract — the same constraints the
paper's Section 3 budget sets — is enforced by
:class:`~repro.runtime.fastingest.WireIngest`; this module holds its
limits, the :class:`RejectReason` vocabulary, and the
:class:`QuarantineLog` that keeps rejects for offline review
(malformed traffic is itself a weak fraud signal).
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from enum import Enum
from typing import Deque, List, Tuple

__all__ = [
    "MAX_FEATURE_VALUE",
    "MAX_SESSION_ID_LENGTH",
    "MAX_SUSPICIOUS_GLOBALS",
    "QuarantineLog",
    "RejectReason",
]

MAX_FEATURE_VALUE = 10_000
MAX_SESSION_ID_LENGTH = 64
MAX_SUSPICIOUS_GLOBALS = 16


class RejectReason(str, Enum):
    """Why a payload was quarantined."""

    OVERSIZED = "oversized"
    MALFORMED = "malformed"
    WRONG_ARITY = "wrong_arity"
    VALUE_RANGE = "value_range"
    BAD_SESSION_ID = "bad_session_id"
    UNPARSEABLE_UA = "unparseable_ua"
    DUPLICATE = "duplicate"
    GLOBALS_OVERFLOW = "globals_overflow"


class QuarantineLog:
    """Bounded in-memory log of rejected payloads.

    Safe to share between threads.  Counts are keyed by the reason's
    string value, so reasons outside :class:`RejectReason` (a cluster
    router's ``overloaded`` or ``internal_error: ...``) count alongside
    the wire contract's own; a :class:`RejectReason` member compares
    and hashes equal to its value, so it still indexes :meth:`counts`.
    """

    def __init__(self, capacity: int = 1000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: Deque[Tuple[str, str]] = deque(maxlen=capacity)
        self._counts: Counter = Counter()
        self._lock = threading.Lock()

    def record(self, reason: str, detail: str = "") -> None:
        """Store one reject (oldest entries fall off at capacity)."""
        key = reason.value if isinstance(reason, RejectReason) else reason
        with self._lock:
            self._entries.append((reason, detail))
            self._counts[key] += 1

    def entries(self) -> List[Tuple[str, str]]:
        """The retained ``(reason, detail)`` rejects, oldest first."""
        with self._lock:
            return list(self._entries)

    def counts(self) -> dict:
        """Lifetime reject counts by reason value (not capped)."""
        with self._lock:
            return dict(self._counts)

    @property
    def total_rejects(self) -> int:
        """Lifetime number of rejected payloads."""
        with self._lock:
            return sum(self._counts.values())
