"""The wire contract: one enforcement engine, memoized.

Every component sitting in front of a model — the per-request
:class:`~repro.service.scoring.ScoringService`, the micro-batched
:class:`~repro.runtime.service.RuntimeScoringService`, and the router
side of the shared-memory shard transport
(:mod:`repro.cluster.transport`) — enforces the wire contract through
:class:`WireIngest`.  The checks run in one fixed order, the first
failure naming the :class:`~repro.service.ingest.RejectReason`:

1. ``OVERSIZED`` — more than ``MAX_PAYLOAD_BYTES`` on the wire;
2. ``MALFORMED`` — not UTF-8 JSON (or nested past the recursion
   limit), a missing ``sid``/``ua``/``f`` key, a feature ``int()``
   cannot convert (``NaN``, ``1e999``, ``Infinity``, a non-numeric
   string), or a ``g`` that is not iterable;
3. ``BAD_SESSION_ID`` — empty, or longer than ``MAX_SESSION_ID_LENGTH``;
4. ``WRONG_ARITY`` — not exactly ``N_FEATURES`` feature values;
5. ``VALUE_RANGE`` — a value outside ``[0, MAX_FEATURE_VALUE]``;
6. ``GLOBALS_OVERFLOW`` — more than ``MAX_SUSPICIOUS_GLOBALS`` globals;
7. ``UNPARSEABLE_UA`` — a user agent the parser does not recognize;
8. ``DUPLICATE`` — a session id still inside the dedup window.

Work that is provably redundant for repeated byte patterns is skipped:

* the **user-agent memo** maps raw UA strings to their parsed
  equivalence class (``vendor-version``), bounded and cleared whole;
* the **wire-suffix memo** keys the bytes *after* the session id:
  live payloads from the same browser differ only in ``sid``, so a
  repeated suffix skips the JSON parse and the static checks entirely.

Anything structurally unusual (escaped session ids, reordered keys,
duplicate ``sid`` keys) bails to the full parse; the test suite pins
the memoized outcomes against a plain reference parser.
"""

from __future__ import annotations

import json
import re
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.browsers.useragent import UserAgentError, parse_user_agent
from repro.fingerprint.features import N_FEATURES
from repro.fingerprint.script import MAX_PAYLOAD_BYTES, WIRE_PARSE_ERRORS
from repro.service.ingest import (
    MAX_FEATURE_VALUE,
    MAX_SESSION_ID_LENGTH,
    MAX_SUSPICIOUS_GLOBALS,
    QuarantineLog,
    RejectReason,
)

__all__ = ["WireIngest"]

_UA_MEMO_LIMIT = 4096
_WIRE_MEMO_LIMIT = 8192

_MISSING = object()  # memo sentinel: cached values may be None

_SID_PREFIX = b'{"sid":"'

# Escapes or control bytes in a byte-sliced sid change its JSON meaning
# (the slice would not round-trip), so their presence forces the full
# parse.  One C-level scan replaces an ``in`` scan plus a ``min()``.
_SID_UNSAFE = re.compile(rb"[\x00-\x1f\\]").search


class WireIngest:
    """Wire-contract enforcement with parse memoization.

    One instance owns one reject ledger (the quarantine log), one dedup
    window, and the ``accepted_count`` / ``requests_total`` /
    ``rejected_count`` counters.  :meth:`ingest` is the whole surface:
    bytes in, ``(reject_reason, fields)`` out, where ``fields`` is
    ``(session_id, user_agent, values, suspicious_globals, ua_key)``
    for admitted payloads; :meth:`ingest_many` is its bulk form.

    Parameters
    ----------
    dedup_window:
        Number of recent session ids remembered for replay rejection;
        0 disables deduplication.
    quarantine:
        Where rejects are recorded; a fresh log is created if omitted.

    Stateless checks run lock-free; the dedup window and the counters
    are touched under one lock, so concurrent producers serialize on a
    few dict and set operations rather than on a JSON parse.
    """

    __slots__ = (
        "quarantine",
        "dedup_window",
        "accepted_count",
        "requests_total",
        "rejected_count",
        "_seen_ids",
        "_seen_set",
        "_lock",
        "_ua_class",
        "_wire_memo",
    )

    def __init__(
        self,
        dedup_window: int = 100_000,
        quarantine: Optional[QuarantineLog] = None,
    ) -> None:
        self.quarantine = quarantine if quarantine is not None else QuarantineLog()
        self.dedup_window = dedup_window
        self.accepted_count = 0
        self.requests_total = 0
        self.rejected_count = 0
        self._seen_ids: Deque[str] = deque(maxlen=max(1, dedup_window))
        self._seen_set: Set[str] = set()
        self._lock = threading.Lock()
        self._ua_class: Dict[str, Optional[str]] = {}
        self._wire_memo: Dict[bytes, tuple] = {}

    # ------------------------------------------------------------------

    def ingest(
        self, wire: bytes
    ) -> Tuple[Optional[RejectReason], Optional[tuple]]:
        """Validate one wire payload; admit or reject.

        The fast path fires when the wire opens with the canonical
        ``{"sid":"<id>"`` shape and its suffix has been fully parsed
        and statically validated before: then only the session-id
        checks and the dedup window run.
        """
        prepared = self._prepare(wire)
        if len(prepared) != 5:
            return self._reject(prepared[0], prepared[1])
        session_id = prepared[0]
        with self._lock:
            self.requests_total += 1
            if self.dedup_window:
                seen_ids = self._seen_ids
                if session_id in self._seen_set:
                    self.quarantine.record(RejectReason.DUPLICATE, session_id)
                    self.rejected_count += 1
                    return RejectReason.DUPLICATE, None
                if len(seen_ids) == seen_ids.maxlen:
                    self._seen_set.discard(seen_ids[0])
                seen_ids.append(session_id)
                self._seen_set.add(session_id)
            self.accepted_count += 1
        return None, prepared

    def ingest_many(
        self, wires: Sequence[bytes]
    ) -> List[Union[RejectReason, tuple]]:
        """Bulk :meth:`ingest`: one lock round trip per chunk.

        Returns one outcome per wire, in order: the admitted fields
        tuple, or the :class:`RejectReason` (its detail already
        recorded in the quarantine log).  One fused loop applies the
        stateless checks (:meth:`_prepare`), the dedup window, and the
        counters under a single lock acquisition — a 256-wire chunk
        pays one lock, not 256, and no per-wire wrapper tuples.
        Outcomes are wire-for-wire identical to :meth:`ingest` loops.
        """
        prepare = self._prepare
        record = self.quarantine.record
        duplicate = RejectReason.DUPLICATE
        window = self.dedup_window
        seen_ids = self._seen_ids
        seen_set = self._seen_set
        maxlen = seen_ids.maxlen
        ids_append = seen_ids.append
        seen_add = seen_set.add
        seen_discard = seen_set.discard
        out: List[Union[RejectReason, tuple]] = []
        append = out.append
        accepted = 0
        rejected = 0
        with self._lock:
            for wire in wires:
                prepared = prepare(wire)
                if len(prepared) == 5:
                    if window:
                        session_id = prepared[0]
                        if session_id in seen_set:
                            record(duplicate, session_id)
                            rejected += 1
                            append(duplicate)
                            continue
                        if len(seen_ids) == maxlen:
                            seen_discard(seen_ids[0])
                        ids_append(session_id)
                        seen_add(session_id)
                    accepted += 1
                    append(prepared)
                else:
                    reason = prepared[0]
                    record(reason, prepared[1])
                    rejected += 1
                    append(reason)
            self.accepted_count += accepted
            self.requests_total += len(wires)
            self.rejected_count += rejected
        return out

    def _prepare(self, wire: bytes):
        """The lock-free half of :meth:`ingest`: every stateless check.

        Returns the 5-tuple ``fields`` for candidates that still need
        the locked dedup-window pass, or the 2-tuple
        ``(reason, detail_str)`` for statically-invalid wires — the
        caller discriminates on ``len``.
        """
        if len(wire) > MAX_PAYLOAD_BYTES:
            return (
                RejectReason.OVERSIZED,
                f"{len(wire)} bytes > {MAX_PAYLOAD_BYTES}",
            )
        sid_bytes: Optional[bytes] = None
        suffix: Optional[bytes] = None
        if wire.startswith(_SID_PREFIX):
            quote = wire.find(b'"', 8)
            if quote >= 8:
                raw_sid = wire[8:quote]
                tail = wire[quote:]
                # Memo first: keys are only ever inserted after a full
                # parse validated the suffix (including that it holds
                # no second "sid" key), so a hit re-checks just the
                # sid.  Escapes or control bytes in the sid change its
                # JSON meaning — those still force the full parse.
                cached = self._wire_memo.get(tail)
                if cached is not None:
                    if _SID_UNSAFE(raw_sid) is None:
                        try:
                            session_id = raw_sid.decode("utf-8")
                        except UnicodeDecodeError:
                            session_id = None
                        if session_id is not None:
                            if len(session_id) > MAX_SESSION_ID_LENGTH or (
                                not session_id
                            ):
                                return (
                                    RejectReason.BAD_SESSION_ID,
                                    session_id[:80],
                                )
                            return (session_id,) + cached
                elif _SID_UNSAFE(raw_sid) is None:
                    if b'"sid"' not in tail:
                        sid_bytes = raw_sid
                        suffix = tail
        try:
            body = json.loads(wire.decode("utf-8"))
            session_id = str(body["sid"])
            user_agent = str(body["ua"])
            values = tuple(map(int, body["f"]))
            raw_globs = body.get("g", _MISSING)
            globs = (
                () if raw_globs is _MISSING
                else tuple(str(g) for g in raw_globs)
            )
        except WIRE_PARSE_ERRORS as exc:
            return RejectReason.MALFORMED, str(exc)[:120]
        if not session_id or len(session_id) > MAX_SESSION_ID_LENGTH:
            return RejectReason.BAD_SESSION_ID, session_id[:80]
        if len(values) != N_FEATURES:
            return (
                RejectReason.WRONG_ARITY,
                f"{len(values)} values, expected {N_FEATURES}",
            )
        # C-loop min/max instead of a per-element genexpr; the arity
        # check above guarantees ``values`` is non-empty.
        if min(values) < 0 or max(values) > MAX_FEATURE_VALUE:
            return RejectReason.VALUE_RANGE, "feature out of range"
        if len(globs) > MAX_SUSPICIOUS_GLOBALS:
            return (
                RejectReason.GLOBALS_OVERFLOW,
                f"{len(globs)} suspicious globals",
            )
        ua_key = self.ua_class_of(user_agent)
        if ua_key is None:
            return RejectReason.UNPARSEABLE_UA, user_agent[:80]
        # Memoize the statically-validated suffix — but only when the
        # byte-sliced sid round-trips to the JSON-parsed one, proving
        # the slice boundaries are exactly right for this shape.
        if suffix is not None and session_id.encode("utf-8") == sid_bytes:
            memo = self._wire_memo
            if len(memo) >= _WIRE_MEMO_LIMIT:
                memo.clear()
            memo[suffix] = (user_agent, values, globs, ua_key)
        return session_id, user_agent, values, globs, ua_key

    def _reject(
        self, reason: RejectReason, detail: str
    ) -> Tuple[RejectReason, None]:
        with self._lock:
            self.quarantine.record(reason, detail)
            self.requests_total += 1
            self.rejected_count += 1
        return reason, None

    def ua_class_of(self, user_agent: str) -> Optional[str]:
        """Memoized raw UA string → parsed equivalence class (ua_key).

        Reads are lock-free: dict get/set are atomic under the GIL and
        a racing recompute is benign (same result, idempotent insert).
        """
        memo = self._ua_class
        ua_key = memo.get(user_agent, _MISSING)
        if ua_key is not _MISSING:
            return ua_key
        try:
            ua_key = parse_user_agent(user_agent).key()
        except UserAgentError:
            ua_key = None
        if len(memo) >= _UA_MEMO_LIMIT:
            memo.clear()
        memo[user_agent] = ua_key
        return ua_key

    def clear_ua_memo(self) -> None:
        """Drop the UA memo (model swaps clear derived parse state)."""
        with self._lock:
            self._ua_class.clear()
