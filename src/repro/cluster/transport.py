"""Zero-copy shared-memory transport between router and process shards.

The pickle-over-``Pipe`` transport serializes every wire payload twice
(request out, verdict back) and funnels both through a single reader
thread; profiles of ``bench_cluster_scaling`` show that this plumbing —
not scoring — is what flattens the shard-scaling curve.  This module
replaces it for process-backed shards:

* **Router-side ingest + verdict cache.**  The wire contract
  (:class:`~repro.runtime.fastingest.WireIngest`) and the
  :class:`~repro.runtime.cache.VerdictCache` move to the parent, one
  instance per shard.  Coarse-grained fingerprints are low-cardinality
  by design, so the overwhelming majority of wires resolve to a cache
  hit that never crosses the process boundary at all.

* **Shared-memory slab per shard.**  Cache *misses* cross as fixed-
  stride ``float64`` feature rows written directly into a
  ``multiprocessing.shared_memory`` slab; the child scores them with
  one vectorized model call reading the rows in place (zero copy on
  both sides) and writes compact integer results back into the slab.
  Only tiny control tuples — ``("shmscore", seq, start, n)`` out,
  ``("shmdone", seq, generation)`` back — travel over the pipe.

* **Slot ring with FIFO lease/ack.**  Slab rows are leased in
  contiguous runs from a ring cursor and released when the child acks
  the batch.  Because batches complete in pipe order, the free region
  is always exactly the run ``[head, head+free)`` (mod ``n_slots``),
  which keeps the ring a pair of integers — no per-slot state.  When
  the ring is exhausted the transport *waits for the oldest in-flight
  ack* (counted as a backpressure pause) instead of dropping work.

Slab layout (all little-endian, offsets in bytes)::

    0     header   int64[8]      [MAGIC, n_slots, n_features, 0...]
    64    meta     int64[S]      per-slot interned user-agent index
    64+8S results  int64[S, 4]   (predicted, expected|-1, flagged, risk|-1)
    64+40S rows    float64[S, F] feature vectors, fixed stride

User-agent keys are interned: the parent assigns each distinct
``ua_key`` a small integer and tells the child once
(``("shmua", idx, key)``, fire-and-forget — pipe ordering guarantees
the child sees it before any batch referencing it).

Failure semantics: a pipe error marks the transport ``broken``, every
unanswered miss in flight completes with an :func:`overloaded_verdict`
(exactly the pickle path's crash behaviour, so the router's existing
failover/retry logic re-routes them), and the supervisor restart spawns
a fresh child that re-attaches the *same* slab by name with a fresh
transport — cold cache and dedup window after a crash, matching
``ThreadShard.restart``.

Escalation parity: the child writes **raw** (un-escalated) results; the
parent caches the raw result and applies the Section 8 namespace-probe
escalation per request with the child's handshaked config — the same
cache-raw / escalate-per-request order as ``RuntimeScoringService``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.detection import DetectionResult
from repro.runtime.cache import VerdictCache
from repro.runtime.fastingest import WireIngest
from repro.runtime.pool import overloaded_verdict
from repro.runtime.stats import RuntimeStats
from repro.service.scoring import Verdict

__all__ = [
    "SLAB_MAGIC",
    "ShmSlab",
    "SlotRing",
    "ShmTransport",
    "attach_slab_views",
    "slab_nbytes",
]

SLAB_MAGIC = 0x504F4C59  # "POLY"

_HEADER_BYTES = 64  # int64[8]

# Distinct user-agent equivalence classes are bounded by the release
# calendar (a few hundred in practice); the table cap only guards
# against pathological traffic, and overflowing it resets the intern
# table on both sides rather than falling off the fast path.
_UA_TABLE_LIMIT = 65_536

# Rows shipped per ("shmscore", ...) control message.  Large enough to
# amortize the pipe round-trip into one vectorized model call, small
# enough that two batches pipeline inside the default ring.
_BATCH_ROWS = 1024
_PIPELINE_DEPTH = 2


def slab_nbytes(n_slots: int, n_features: int) -> int:
    """Total slab size for ``n_slots`` rows of ``n_features`` floats."""
    return _HEADER_BYTES + n_slots * (8 + 32 + 8 * n_features)


def _slab_views(buf, n_slots: int, n_features: int):
    """(header, meta, results, rows) numpy views over one slab buffer."""
    header = np.ndarray((8,), dtype=np.int64, buffer=buf, offset=0)
    offset = _HEADER_BYTES
    meta = np.ndarray((n_slots,), dtype=np.int64, buffer=buf, offset=offset)
    offset += n_slots * 8
    results = np.ndarray(
        (n_slots, 4), dtype=np.int64, buffer=buf, offset=offset
    )
    offset += n_slots * 32
    rows = np.ndarray(
        (n_slots, n_features), dtype=np.float64, buffer=buf, offset=offset
    )
    return header, meta, results, rows


class ShmSlab:
    """Parent-owned shared-memory slab (create / close / unlink)."""

    def __init__(self, n_slots: int, n_features: int) -> None:
        from multiprocessing import shared_memory

        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        if n_features < 1:
            raise ValueError("n_features must be >= 1")
        self.n_slots = n_slots
        self.n_features = n_features
        self._shm = shared_memory.SharedMemory(
            create=True, size=slab_nbytes(n_slots, n_features)
        )
        self.name = self._shm.name
        self.header, self.meta, self.results, self.rows = _slab_views(
            self._shm.buf, n_slots, n_features
        )
        self.header[0] = SLAB_MAGIC
        self.header[1] = n_slots
        self.header[2] = n_features

    def close(self) -> None:
        """Release the mapping and unlink the segment (parent owns it)."""
        # Drop the numpy views first: SharedMemory.close() refuses to
        # unmap while exported buffers are alive.
        self.header = self.meta = self.results = self.rows = None
        try:
            self._shm.close()
        except (BufferError, OSError):
            return
        try:
            self._shm.unlink()
        except (FileNotFoundError, OSError):
            pass


def attach_slab_views(name: str, n_slots: int, n_features: int):
    """Attach a parent-created slab from the child process.

    Maps ``/dev/shm/<name>`` directly — attaching through
    ``SharedMemory(name=...)`` would register the segment with the
    child's ``resource_tracker``, which then unlinks it at child exit
    while the parent still owns it (the parent holds create/unlink).
    Falls back to ``SharedMemory`` where ``/dev/shm`` is absent.

    Returns ``(meta, results, rows, close)``; raises ``OSError`` or
    ``ValueError`` when the slab is missing or malformed.
    """
    import mmap

    closer = None
    try:
        with open(f"/dev/shm/{name}", "r+b") as handle:
            mapped = mmap.mmap(handle.fileno(), 0)
        buf = memoryview(mapped)

        def closer() -> None:
            nonlocal buf
            buf.release()
            mapped.close()

    except OSError:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
        buf = shm.buf
        closer = shm.close
    try:
        header, meta, results, rows = _slab_views(buf, n_slots, n_features)
        if (
            header[0] != SLAB_MAGIC
            or header[1] != n_slots
            or header[2] != n_features
        ):
            raise ValueError(
                f"slab {name!r} header mismatch: "
                f"{header[0]:#x}/{header[1]}/{header[2]} vs "
                f"{SLAB_MAGIC:#x}/{n_slots}/{n_features}"
            )
    except Exception:
        # numpy views over ``buf`` may still be alive in local frames;
        # best-effort release so the error propagates cleanly.
        header = meta = results = rows = None
        try:
            closer()
        except BufferError:
            pass
        raise
    return meta, results, rows, closer


class SlotRing:
    """Contiguous-run lease/free cursor over ``n_slots`` ring slots.

    Invariant (relied on for correctness): leases are *released in
    lease order* — the transport completes batches FIFO because pipe
    replies arrive in pipe-send order.  Under that invariant the
    occupied region is always one contiguous run ``[tail, head)`` (mod
    ``n_slots``), so two integers fully describe the ring.
    """

    __slots__ = ("n_slots", "head", "free")

    def __init__(self, n_slots: int) -> None:
        if n_slots < 1:
            raise ValueError("n_slots must be >= 1")
        self.n_slots = n_slots
        self.head = 0
        self.free = n_slots

    @property
    def occupancy(self) -> int:
        """Slots currently leased (in flight to the child)."""
        return self.n_slots - self.free

    def lease(self, want: int) -> Optional[Tuple[int, int]]:
        """Lease up to ``want`` contiguous slots; ``None`` when full.

        May return fewer than ``want`` at the ring edge (the caller
        sends a short batch and the next lease wraps to slot 0) or
        when partially occupied.  Returns ``None`` only when no slot
        is free — which, under the FIFO invariant, means a batch is in
        flight and waiting for its ack will free slots.
        """
        if want < 1:
            raise ValueError("want must be >= 1")
        if self.free == 0:
            return None
        if self.head == self.n_slots:
            self.head = 0
        count = min(want, self.n_slots - self.head, self.free)
        start = self.head
        self.head += count
        self.free -= count
        return start, count

    def release(self, count: int) -> None:
        """Return the *oldest* leased run of ``count`` slots (FIFO)."""
        if count < 0 or self.free + count > self.n_slots:
            raise ValueError(
                f"release({count}) with {self.free}/{self.n_slots} free"
            )
        self.free += count


class _Miss:
    """One cache-missed wire awaiting a slab round-trip."""

    __slots__ = (
        "index",
        "session_id",
        "values",
        "globs",
        "ua_key",
        "cache_key",
        "started",
    )

    def __init__(
        self, index, session_id, values, globs, ua_key, cache_key, started
    ) -> None:
        self.index = index
        self.session_id = session_id
        self.values = values
        self.globs = globs
        self.ua_key = ua_key
        self.cache_key = cache_key
        self.started = started


class ShmTransport:
    """Router-side scoring engine for one shared-memory process shard.

    Owns the shard's ingest (wire contract + dedup window), verdict
    cache, user-agent intern table, and slot ring; talks to the child
    over ``conn`` with tiny control tuples.  All pipe + ring state is
    serialized by :attr:`lock` — the owning shard must hold it for
    *any* use of ``conn`` (heartbeat pings, model installs), and should
    score large chunks in sub-chunks so health checks can interleave.
    """

    def __init__(
        self,
        slab: ShmSlab,
        conn,
        config,
        *,
        namespace_probe: bool,
        vendor_risk: int,
        generation: int,
    ) -> None:
        self.slab = slab
        self.conn = conn
        self.lock = threading.RLock()  # pipe + ring + slab writes
        self.ingest = WireIngest()
        self.stats = RuntimeStats()
        self.cache: Optional[VerdictCache] = None
        if config.cache_entries > 0:
            self.cache = VerdictCache(
                max_entries=config.cache_entries,
                ttl_seconds=config.cache_ttl_seconds,
                quantization_step=config.quantization_step,
                stats=self.stats,
            )
            self.cache.set_model_generation(generation)
        self.ring = SlotRing(slab.n_slots)
        self.batch_rows = min(_BATCH_ROWS, slab.n_slots)
        self._ua_index: Dict[str, int] = {}
        self._namespace_probe = namespace_probe
        self._vendor_risk = vendor_risk
        self._seq = 0
        self.broken = False
        # Optional CoverageTracker (repro.coverage), shared across the
        # cluster's transports; fed with admitted UA keys per chunk.
        self.coverage = None
        self.scored_count = 0
        self.flagged_count = 0
        self.zero_copy_batches = 0
        self.zero_copy_rows = 0
        self.backpressure_waits = 0
        self.occupancy_peak = 0
        self._count_lock = threading.Lock()

    # ------------------------------------------------------------------
    # scoring

    def score_one(self, wire: bytes) -> Verdict:
        """Score a single wire (the routed / hedged per-request path)."""
        return self.score_wires([wire])[0]

    def score_wires(self, wires: Sequence[bytes]) -> List[Verdict]:
        """Ingest, cache-probe, and score one chunk of wires.

        Rejects and cache hits resolve entirely router-side; only the
        misses lease slab slots and round-trip to the child.  Verdicts
        come back in input order.  On a broken pipe the unanswered
        misses resolve to overloaded verdicts (the router re-routes).

        The chunk is the unit of accounting on this path: ingest takes
        the ingest lock once (:meth:`WireIngest.ingest_many`), the
        cache is probed once (:meth:`VerdictCache.get_many`), and the
        rejects/hits of a chunk share one latency stamp — a per-wire
        clock on a bulk path mostly measures the clock.
        """
        started = time.perf_counter()
        verdicts: List[Optional[Verdict]] = [None] * len(wires)
        prepared = self.ingest.ingest_many(wires)
        if self.coverage is not None:
            self.coverage.observe_many(
                [f[4] for f in prepared if f.__class__ is tuple]
            )
        cache = self.cache
        if cache is not None:
            # Rejected wires carry their RejectReason in ``prepared``;
            # admitted ones the fields tuple.  make_key is inlined for
            # identity quantization (ingest always hands back int
            # tuples, which it reuses).
            if cache.quantization_step <= 1:
                keys = [
                    (fields[4], fields[2])
                    if fields.__class__ is tuple
                    else None
                    for fields in prepared
                ]
            else:
                make_key = cache.make_key
                keys = [
                    make_key(fields[2], fields[4])
                    if fields.__class__ is tuple
                    else None
                    for fields in prepared
                ]
            cached = cache.get_many(keys)
        else:
            keys = cached = None
        misses: List[_Miss] = []
        miss_append = misses.append
        hit_scored = 0
        hit_flagged = 0
        namespace_probe = self._namespace_probe
        vendor_risk = self._vendor_risk
        verdict_new = Verdict.__new__
        set_attr = object.__setattr__
        latency_ms = (time.perf_counter() - started) * 1000.0
        # Frozen-dataclass construction, amortized: the chunk shares one
        # latency stamp, so all constant Verdict fields live in two
        # per-chunk proto dicts; each verdict is a dict copy plus the
        # per-wire fields, swapped in wholesale (``__init__`` would
        # re-run ten guarded ``object.__setattr__`` calls per wire).
        # Infer-mode provenance never crosses the slab (results rows are
        # four ints), so the inferred_* fields stay None on this path.
        reject_proto = {
            "session_id": "", "accepted": False, "flagged": False,
            "risk_factor": None, "reject_reason": None,
            "latency_ms": latency_ms, "fused_flagged": None,
            "fusion_cell": None, "second_probability": None,
            "second_lift": None, "inferred_release": None,
            "inferred_distance": None,
        }
        hit_proto = dict(reject_proto)
        hit_proto["accepted"] = True
        for i, fields in enumerate(prepared):
            if fields.__class__ is not tuple:
                verdict = verdict_new(Verdict)
                state = reject_proto.copy()
                state["reject_reason"] = fields.value
                set_attr(verdict, "__dict__", state)
                verdicts[i] = verdict
                continue
            if cached is not None:
                result = cached[i]
                if result is not None:
                    # _escalate, inlined: the hit path only needs the
                    # final (flagged, risk_factor) pair.
                    globs = fields[3]
                    if namespace_probe and globs:
                        flagged = True
                        risk = vendor_risk
                    else:
                        flagged = result.flagged
                        risk = result.risk_factor
                    hit_scored += 1
                    if flagged:
                        hit_flagged += 1
                    verdict = verdict_new(Verdict)
                    state = hit_proto.copy()
                    state["session_id"] = fields[0]
                    state["flagged"] = flagged
                    state["risk_factor"] = risk
                    set_attr(verdict, "__dict__", state)
                    verdicts[i] = verdict
                    continue
                cache_key = keys[i]
            else:
                cache_key = None
            miss_append(
                _Miss(
                    i, fields[0], fields[2], fields[3], fields[4],
                    cache_key, started,
                )
            )
        if hit_scored:
            with self._count_lock:
                self.scored_count += hit_scored
                self.flagged_count += hit_flagged
        if misses:
            with self.lock:
                if self.broken:
                    self._fail_misses(misses, verdicts)
                else:
                    try:
                        self._score_misses(misses, verdicts)
                    except (EOFError, OSError, BrokenPipeError):
                        self.broken = True
                        self._fail_misses(misses, verdicts)
        return verdicts

    def _score_misses(
        self, misses: List[_Miss], verdicts: List[Optional[Verdict]]
    ) -> None:
        """Lease → write rows → send → (pipelined) ack.  Holds the lock."""
        pending = deque()
        rows = self.slab.rows
        meta = self.slab.meta
        ua_index = self._ua_index
        pos = 0
        while pos < len(misses) or pending:
            if pos >= len(misses):
                self._complete_batch(pending.popleft(), verdicts)
                continue
            lease = self.ring.lease(min(self.batch_rows, len(misses) - pos))
            if lease is None:
                # Every slot is in flight: wait for the oldest ack.
                # This is the backpressure point — upstream producers
                # stall here instead of the ring dropping work.
                self.backpressure_waits += 1
                self._complete_batch(pending.popleft(), verdicts)
                continue
            start, count = lease
            batch = misses[pos : pos + count]
            pos += count
            for j, miss in enumerate(batch):
                idx = ua_index.get(miss.ua_key)
                if idx is None:
                    idx = self._intern_ua(miss.ua_key)
                meta[start + j] = idx
                rows[start + j] = miss.values
            seq = self._seq
            self._seq += 1
            self.conn.send(("shmscore", seq, start, count))
            self.zero_copy_batches += 1
            self.zero_copy_rows += count
            if self.ring.occupancy > self.occupancy_peak:
                self.occupancy_peak = self.ring.occupancy
            pending.append((seq, start, count, batch))
            if len(pending) >= _PIPELINE_DEPTH:
                self._complete_batch(pending.popleft(), verdicts)

    def _complete_batch(self, entry, verdicts: List[Optional[Verdict]]) -> None:
        seq, start, count, batch = entry
        reply = self.conn.recv()
        if reply[0] == "shmerr" and reply[1] == seq:
            # Child failed this batch (model error): overload these
            # wires so the router's retry path re-routes them, keep
            # the transport up for the next batch.
            for miss in batch:
                verdicts[miss.index] = overloaded_verdict(
                    miss.session_id,
                    (time.perf_counter() - miss.started) * 1000.0,
                )
            self.ring.release(count)
            return
        if reply[0] != "shmdone" or reply[1] != seq:
            raise EOFError(f"shm protocol violation: {reply[:2]!r}")
        generation = reply[2]
        results = self.slab.results
        cache = self.cache
        completed = time.perf_counter()
        scored = 0
        flagged = 0
        for j, miss in enumerate(batch):
            row = results[start + j]
            expected = int(row[1])
            risk = int(row[3])
            result = DetectionResult(
                ua_key=miss.ua_key,
                predicted_cluster=int(row[0]),
                expected_cluster=None if expected < 0 else expected,
                flagged=bool(row[2]),
                risk_factor=None if risk < 0 else risk,
            )
            if cache is not None and miss.cache_key is not None:
                cache.put(miss.cache_key, result, generation=generation)
            final = self._escalate(result, miss.globs)
            scored += 1
            if final.flagged:
                flagged += 1
            verdicts[miss.index] = Verdict(
                session_id=miss.session_id,
                accepted=True,
                flagged=final.flagged,
                risk_factor=final.risk_factor,
                reject_reason=None,
                latency_ms=(completed - miss.started) * 1000.0,
            )
        self.ring.release(count)
        with self._count_lock:
            self.scored_count += scored
            self.flagged_count += flagged

    def _fail_misses(
        self, misses: List[_Miss], verdicts: List[Optional[Verdict]]
    ) -> None:
        """Overload every miss not yet answered (pipe died mid-chunk)."""
        now = time.perf_counter()
        for miss in misses:
            if verdicts[miss.index] is None:
                verdicts[miss.index] = overloaded_verdict(
                    miss.session_id, (now - miss.started) * 1000.0
                )

    def _intern_ua(self, ua_key: str) -> int:
        if len(self._ua_index) >= _UA_TABLE_LIMIT:
            self.conn.send(("shmuareset",))
            self._ua_index.clear()
        idx = len(self._ua_index)
        self._ua_index[ua_key] = idx
        self.conn.send(("shmua", idx, ua_key))
        return idx

    def _escalate(
        self, result: DetectionResult, globs: Tuple[str, ...]
    ) -> DetectionResult:
        """Namespace-probe escalation, config handshaked from the child.

        Must mirror ``BrowserPolygraph.escalate_result`` exactly: the
        child ships raw results, so the parent re-applies Section 8
        per request (after caching the raw result, like the runtime).
        """
        if self._namespace_probe and globs:
            return DetectionResult(
                ua_key=result.ua_key,
                predicted_cluster=result.predicted_cluster,
                expected_cluster=result.expected_cluster,
                flagged=True,
                risk_factor=self._vendor_risk,
            )
        return result

    # ------------------------------------------------------------------
    # lifecycle / introspection

    def on_model_swap(self, generation: int) -> None:
        """Model install completed child-side: drop derived state."""
        if self.cache is not None:
            self.cache.invalidate(generation)
        self.ingest.clear_ua_memo()

    def transport_stats(self) -> Dict[str, object]:
        """Counter snapshot for ``/metrics`` and ``cluster_status``."""
        cache_hits = cache_misses = 0
        if self.cache is not None:
            self.cache.sync_stats()
            cache_hits = self.stats.counter("cache_hits")
            cache_misses = self.stats.counter("cache_misses")
        with self._count_lock:
            scored = self.scored_count
            flagged = self.flagged_count
        return {
            "mode": "shm",
            "broken": self.broken,
            "zero_copy_batches": self.zero_copy_batches,
            "zero_copy_rows": self.zero_copy_rows,
            "pickle_fallbacks": 0,
            "backpressure_waits": self.backpressure_waits,
            "ring_slots": self.ring.n_slots,
            "ring_occupancy": self.ring.occupancy,
            "ring_occupancy_peak": self.occupancy_peak,
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "cache_entries": len(self.cache) if self.cache is not None else 0,
            "scored": scored,
            "flagged": flagged,
        }
