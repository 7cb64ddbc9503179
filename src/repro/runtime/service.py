"""The high-throughput scoring runtime.

:class:`RuntimeScoringService` is the web-scale variant of
:class:`~repro.service.scoring.ScoringService`: the same wire contract,
the same verdicts, a very different execution model.

Request lifecycle::

    submit_wire(wire)
        │  fast ingest (wire contract, memoized UA class, dedup)
        ├─ reject ──────────────► Verdict(accepted=False)        (inline)
        │
        ├─ verdict-cache probe
        │    hit ───────────────► Verdict from cached result     (inline)
        │
        └─ miss → bounded queue ─► worker → micro-batcher
                       │                        │ full / linger / idle
                       │ full                   ▼
                       ▼               one detect_vectors() call
              Overloaded verdict       fills cache, completes handles

The caller's thread performs only the cheap, always-required work
(validation and the cache probe); the model only ever runs inside
vectorized batch flushes.  Because coarse-grained fingerprints are
deliberately low-cardinality (Section 7), a production-shaped replay
hits the cache for the overwhelming majority of sessions and the model
is consulted a few hundred times per hundred thousand requests.

Correctness contract: for any request sequence, the runtime produces
the same ``(session_id, flagged, risk_factor)`` verdicts as the
per-request :class:`ScoringService` — batching and caching are pure
optimizations.  On retrain the pipeline swaps models atomically and
notifies this service, which invalidates the verdict cache; in-flight
batches score entirely against the snapshot they started with, and
their results are refused by the cache afterwards (generation check).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from datetime import date
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.pipeline import BrowserPolygraph
from repro.coverage.tracker import vendor_of
from repro.fingerprint.script import FingerprintPayload
from repro.runtime.batcher import MicroBatcher
from repro.runtime.cache import VerdictCache
from repro.runtime.fastingest import WireIngest
from repro.runtime.pool import WorkerPool, overloaded_verdict
from repro.runtime.stats import RuntimeStats
from repro.service.scoring import Verdict
from repro.service.storage import SessionStore
from repro.traffic.dataset import Dataset

__all__ = ["PendingVerdict", "RuntimeConfig", "RuntimeScoringService"]

# Cache-key tag separating candidate-arm verdicts during a rollout.
_CANDIDATE_ARM = "__candidate__"


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the high-throughput runtime."""

    n_workers: int = 4
    queue_capacity: int = 4096
    max_batch_size: int = 64
    max_linger_ms: float = 2.0
    cache_entries: int = 8192  # 0 disables the verdict cache
    cache_ttl_seconds: Optional[float] = 300.0
    quantization_step: int = 1
    latency_sample_every: int = 8  # sample 1-in-N total latencies

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.cache_entries < 0:
            raise ValueError("cache_entries must be >= 0")
        if self.latency_sample_every < 1:
            raise ValueError("latency_sample_every must be >= 1")


class PendingVerdict:
    """Handle to a verdict that may not have been decided yet."""

    __slots__ = ("_verdict", "_event")

    def __init__(self, verdict: Optional[Verdict] = None) -> None:
        self._verdict = verdict
        self._event = None if verdict is not None else threading.Event()

    def done(self) -> bool:
        """Whether the verdict has been decided."""
        return self._verdict is not None

    def result(self, timeout: Optional[float] = None) -> Verdict:
        """Block until the verdict is decided and return it."""
        if self._verdict is None:
            assert self._event is not None
            if not self._event.wait(timeout):
                raise TimeoutError("verdict not decided within timeout")
        return self._verdict

    def _complete(self, verdict: Verdict) -> None:
        self._verdict = verdict
        if self._event is not None:
            self._event.set()


class _ScoreRequest:
    """One cache-missed request travelling queue → batcher → flush."""

    __slots__ = (
        "handle",
        "session_id",
        "values",
        "ua_key",
        "suspicious_globals",
        "cache_key",
        "started_at",
        "candidate",
        "mirror",
    )

    def __init__(
        self,
        handle: PendingVerdict,
        session_id: str,
        values: Tuple[int, ...],
        ua_key: str,
        suspicious_globals: Tuple[str, ...],
        cache_key: Optional[tuple],
        started_at: float,
        candidate: bool = False,
        mirror: bool = False,
    ) -> None:
        self.handle = handle
        self.session_id = session_id
        self.values = values
        self.ua_key = ua_key
        self.suspicious_globals = suspicious_globals
        self.cache_key = cache_key
        self.started_at = started_at
        self.candidate = candidate
        self.mirror = mirror

    def fail(self, exc: BaseException) -> None:
        """Answer the caller with a typed internal-error verdict."""
        self.handle._complete(
            Verdict(
                session_id=self.session_id,
                accepted=False,
                flagged=False,
                risk_factor=None,
                reject_reason=f"internal_error: {type(exc).__name__}",
                latency_ms=(time.perf_counter() - self.started_at) * 1000.0,
            )
        )


class RuntimeScoringService:
    """Micro-batched, cached, pooled scoring over a fitted pipeline.

    Drop-in for :class:`ScoringService` where it matters: ``score_wire``
    takes the same bytes and returns the same :class:`Verdict`; the
    ``ingest`` (:class:`~repro.runtime.fastingest.WireIngest`: the
    ``quarantine`` reject ledger and the dedup window) and optional
    ``store`` are honoured; ``scored_count`` / ``flagged_count`` /
    ``flag_rate`` keep their meanings.  New surface:
    :meth:`submit_wire` (non-blocking handle), :meth:`shutdown`
    (graceful drain), :attr:`runtime_stats` and
    :meth:`runtime_metrics_lines` (for ``/metrics``).
    """

    def __init__(
        self,
        polygraph: BrowserPolygraph,
        ingest: Optional[WireIngest] = None,
        store: Optional[SessionStore] = None,
        config: RuntimeConfig = RuntimeConfig(),
        stats: Optional[RuntimeStats] = None,
    ) -> None:
        if not polygraph.is_fitted:
            raise ValueError(
                "RuntimeScoringService requires a fitted BrowserPolygraph"
            )
        self.polygraph = polygraph
        # Parse memos are model-independent and survive retrains,
        # except the UA memo, which is cleared on model swap.
        self.ingest = ingest if ingest is not None else WireIngest()
        self.quarantine = self.ingest.quarantine
        self.store = store
        self.config = config
        self.runtime_stats = stats if stats is not None else RuntimeStats()
        self.cache: Optional[VerdictCache] = None
        if config.cache_entries > 0:
            self.cache = VerdictCache(
                max_entries=config.cache_entries,
                ttl_seconds=config.cache_ttl_seconds,
                quantization_step=config.quantization_step,
                stats=self.runtime_stats,
            )
            self.cache.set_model_generation(polygraph.model_generation)
        self.batcher = MicroBatcher(
            self._score_batch,
            max_batch_size=config.max_batch_size,
            max_linger_ms=config.max_linger_ms,
        )
        self.pool = WorkerPool(
            handler=self._handle_request,
            n_workers=config.n_workers,
            queue_capacity=config.queue_capacity,
            idle=self._idle_flush,
            on_discard=self._discard_request,
            stats=self.runtime_stats,
        )
        self.scored_count = 0
        self.flagged_count = 0
        # Per-vendor unknown-UA volume (polygraph_unknown_ua_total) and
        # the optional coverage tracker fed from every scoring path.
        self.unknown_ua_counts: Dict[str, int] = {}
        self.coverage = None
        self._sample_every = config.latency_sample_every
        self._lock = threading.Lock()  # scored/flagged counters
        self._closed = False
        # Optional rollout manager (repro.rollout): routes sessions to a
        # candidate arm and mirrors live verdicts for shadow comparison.
        # Read once per request without the lock — attribute loads are
        # atomic, and a stale read only means one request routes with
        # the old split, which the stage-transition cache invalidation
        # already accounts for.
        self._rollout = None
        polygraph.add_retrain_listener(self._on_model_swap)

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> "RuntimeScoringService":
        """Start the worker pool (idempotent)."""
        self.pool.start()
        return self

    def shutdown(self, drain: bool = True) -> None:
        """Stop intake and settle every outstanding request.

        ``drain=True`` scores the backlog before returning;
        ``drain=False`` sheds it with :class:`Overloaded` verdicts.
        Either way, every handle ever returned by :meth:`submit_wire`
        is resolved when this returns.
        """
        self._closed = True
        self.pool.shutdown(drain=drain)
        self.batcher.flush()
        self.polygraph.remove_retrain_listener(self._on_model_swap)

    def __enter__(self) -> "RuntimeScoringService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)

    # ------------------------------------------------------------------
    # scoring

    def score_wire(self, wire: bytes, day: Optional[date] = None) -> Verdict:
        """The synchronous online path: submit and wait."""
        return self.submit_wire(wire, day=day).result()

    def submit_wire(
        self, wire: bytes, day: Optional[date] = None
    ) -> PendingVerdict:
        """Validate, probe the cache, and queue a model call if needed.

        Returns immediately: rejects, cache hits and sheds come back
        already decided; only cache misses wait on a batch flush.
        """
        started = time.perf_counter()
        rejected, fields = self.ingest.ingest(wire)
        if rejected is not None:
            return PendingVerdict(
                Verdict(
                    session_id="",
                    accepted=False,
                    flagged=False,
                    risk_factor=None,
                    reject_reason=rejected.value,
                    latency_ms=(time.perf_counter() - started) * 1000.0,
                )
            )
        session_id, user_agent, values, globs, ua_key = fields
        if self.store is not None:
            self.store.append(
                FingerprintPayload(session_id, user_agent, values, 0.0, globs),
                day=day,
            )
        rollout = self._rollout
        candidate = mirror = False
        if rollout is not None:
            candidate, mirror = rollout.route(session_id)
        cache_key: Optional[tuple] = None
        if self.cache is not None:
            cache_key = self.cache.make_key(values, ua_key)
            if candidate:
                # Arm-tagged key: the candidate's verdicts must never be
                # served to live-arm sessions (or vice versa) while both
                # models answer from the same cache.
                cache_key = (_CANDIDATE_ARM,) + cache_key
            result = self.cache.get(cache_key)
            if result is not None:
                if mirror:
                    rollout.mirror(values, ua_key, result)
                if globs:
                    result = self.polygraph.escalate_result(result, globs)
                with self._lock:
                    self.scored_count += 1
                    if result.flagged:
                        self.flagged_count += 1
                    if not result.known_ua:
                        vendor = vendor_of(result.ua_key)
                        self.unknown_ua_counts[vendor] = (
                            self.unknown_ua_counts.get(vendor, 0) + 1
                        )
                if self.coverage is not None:
                    self.coverage.observe(
                        result.ua_key, known=result.known_ua, day=day
                    )
                latency = (time.perf_counter() - started) * 1000.0
                if self.scored_count % self._sample_every == 0:
                    self.runtime_stats.observe_stage("total", latency)
                return PendingVerdict(
                    Verdict(
                        session_id=session_id,
                        accepted=True,
                        flagged=result.flagged,
                        risk_factor=result.risk_factor,
                        reject_reason=None,
                        latency_ms=latency,
                        inferred_release=result.inferred_release,
                        inferred_distance=result.inferred_distance,
                    )
                )
        handle = PendingVerdict()
        request = _ScoreRequest(
            handle,
            session_id,
            values,
            ua_key,
            globs,
            cache_key,
            started,
            candidate=candidate,
            mirror=mirror,
        )
        if not self.pool.is_running and not self._closed:
            self.pool.start()
        if not self.pool.submit(request):
            return PendingVerdict(
                overloaded_verdict(
                    session_id, (time.perf_counter() - started) * 1000.0
                )
            )
        return handle

    # ------------------------------------------------------------------
    # rollout

    @property
    def rollout(self):
        """The attached rollout manager, or ``None``."""
        return self._rollout

    def attach_rollout(self, manager) -> None:
        """Route traffic through a rollout manager from now on."""
        self._rollout = manager

    def detach_rollout(self, manager=None) -> None:
        """Stop routing through ``manager`` (or whatever is attached)."""
        if manager is None or self._rollout is manager:
            self._rollout = None

    # ------------------------------------------------------------------
    # coverage

    def attach_coverage(self, tracker) -> "RuntimeScoringService":
        """Feed a :class:`~repro.coverage.tracker.CoverageTracker`.

        The tracker's known-release table is seeded from the live model
        here and re-synced inside :meth:`_on_model_swap`, so shard
        restarts and retrains keep classification aligned with the
        serving generation.
        """
        self.coverage = tracker
        generation, detector = self.polygraph.detection_snapshot()
        tracker.set_known_keys(
            detector.model.ua_to_cluster, generation=generation
        )
        return self

    # ------------------------------------------------------------------
    # retraining

    def retrain(
        self, dataset: Dataset, align_rare: bool = True, jobs: int = 1
    ) -> None:
        """Retrain the underlying pipeline and refresh runtime state.

        The pipeline swaps the model atomically under its lock;
        in-flight batches finish against the snapshot they took, the
        retrain listener invalidates the verdict cache, and stale batch
        results are refused by the cache's generation check.
        """
        self.polygraph.retrain(dataset, align_rare=align_rare, jobs=jobs)

    def _on_model_swap(self, generation: int) -> None:
        self.runtime_stats.incr("model_swaps")
        if self.cache is not None:
            self.cache.invalidate(generation)
        self.ingest.clear_ua_memo()
        if self.coverage is not None:
            _, detector = self.polygraph.detection_snapshot()
            self.coverage.set_known_keys(
                detector.model.ua_to_cluster, generation=generation
            )

    # ------------------------------------------------------------------
    # metrics

    @property
    def requests_total(self) -> int:
        """Requests ingested (accepted + rejected), from the ingest engine."""
        return self.ingest.requests_total

    @property
    def rejected_count(self) -> int:
        """Requests rejected by the wire contract or dedup window."""
        return self.ingest.rejected_count

    @property
    def flag_rate(self) -> float:
        """Share of scored sessions flagged so far."""
        return self.flagged_count / self.scored_count if self.scored_count else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Verdict-cache hit rate (0 when the cache is disabled)."""
        return self.cache.hit_rate if self.cache is not None else 0.0

    def runtime_metrics_lines(self) -> List[str]:
        """Prometheus-style lines for the ``/metrics`` endpoint."""
        stats = self.runtime_stats
        stats.set_counter("requests_total", self.requests_total)
        stats.set_counter("requests_rejected", self.rejected_count)
        stats.set_gauge("queue_depth", self.pool.queue_depth)
        stats.set_gauge(
            "polygraph_model_generation",
            self.polygraph.model_generation,
            absolute=True,
        )
        if self.cache is not None:
            self.cache.sync_stats()
            stats.set_gauge("cache_entries", len(self.cache))
        lines = stats.render_prometheus()
        with self._lock:
            unknown = dict(self.unknown_ua_counts)
        for vendor in sorted(unknown):
            lines.append(
                f'polygraph_unknown_ua_total{{vendor="{vendor}"}} '
                f"{unknown[vendor]}"
            )
        rollout = self._rollout
        if rollout is not None:
            lines.extend(rollout.metrics_lines())
        if self.coverage is not None:
            lines.extend(self.coverage.metrics_lines())
        return lines

    # ------------------------------------------------------------------
    # internals

    def _handle_request(self, request: _ScoreRequest) -> None:
        self.batcher.submit(request)

    def _idle_flush(self) -> None:
        if self.batcher.pending_count == 0:
            return
        if self.pool.queue_empty():
            self.batcher.flush()
        else:
            self.batcher.poll()

    def _discard_request(self, request: _ScoreRequest) -> None:
        self.runtime_stats.incr("requests_shed")
        request.handle._complete(
            overloaded_verdict(
                request.session_id,
                (time.perf_counter() - request.started_at) * 1000.0,
            )
        )

    def _score_batch(self, requests: Sequence[_ScoreRequest]) -> None:
        """Score one coalesced batch, one vectorized model call per arm."""
        rollout = self._rollout
        live_requests: List[_ScoreRequest] = []
        candidate_requests: List[_ScoreRequest] = []
        for request in requests:
            (candidate_requests if request.candidate else live_requests).append(
                request
            )
        candidate_detector = None
        if candidate_requests:
            if rollout is not None:
                candidate_detector = rollout.candidate_detector()
            if candidate_detector is None:
                # The rollout ended while these requests were queued:
                # serve them from the live model, uncached (their
                # arm-tagged keys belong to a rollout that is over).
                for request in candidate_requests:
                    request.cache_key = None
                live_requests.extend(candidate_requests)
                candidate_requests = []
        stats = self.runtime_stats
        stats.observe_batch(len(requests))
        if live_requests:
            model_started = time.perf_counter()
            generation, detector = self.polygraph.detection_snapshot()
            matrix = np.asarray([r.values for r in live_requests], dtype=float)
            results = detector.evaluate_vectors(
                matrix, [r.ua_key for r in live_requests]
            )
            stats.observe_stage(
                "model", (time.perf_counter() - model_started) * 1000.0
            )
            if rollout is not None:
                for request, result in zip(live_requests, results):
                    if request.mirror:
                        rollout.mirror(request.values, request.ua_key, result)
            self._complete_arm(live_requests, results, generation)
        if candidate_requests:
            candidate_started = time.perf_counter()
            generation = self.polygraph.model_generation
            matrix = np.asarray(
                [r.values for r in candidate_requests], dtype=float
            )
            results = candidate_detector.evaluate_vectors(
                matrix, [r.ua_key for r in candidate_requests]
            )
            rollout.observe_candidate_batch(
                len(candidate_requests),
                (time.perf_counter() - candidate_started) * 1000.0,
            )
            self._complete_arm(candidate_requests, results, generation)

    def _complete_arm(
        self,
        requests: Sequence[_ScoreRequest],
        results: Sequence,
        generation: int,
    ) -> None:
        """Cache, escalate, and answer one arm's share of a batch."""
        completed_at = time.perf_counter()
        scored = 0
        flagged = 0
        unknown: Dict[str, int] = {}
        coverage = self.coverage
        for request, result in zip(requests, results):
            if self.cache is not None and request.cache_key is not None:
                self.cache.put(request.cache_key, result, generation=generation)
            final = self.polygraph.escalate_result(
                result, request.suspicious_globals
            )
            scored += 1
            if final.flagged:
                flagged += 1
            if not final.known_ua:
                vendor = vendor_of(final.ua_key)
                unknown[vendor] = unknown.get(vendor, 0) + 1
            if coverage is not None:
                coverage.observe(final.ua_key, known=final.known_ua)
            request.handle._complete(
                Verdict(
                    session_id=request.session_id,
                    accepted=True,
                    flagged=final.flagged,
                    risk_factor=final.risk_factor,
                    reject_reason=None,
                    latency_ms=(completed_at - request.started_at) * 1000.0,
                    inferred_release=final.inferred_release,
                    inferred_distance=final.inferred_distance,
                )
            )
        with self._lock:
            self.scored_count += scored
            self.flagged_count += flagged
            for vendor, count in unknown.items():
                self.unknown_ua_counts[vendor] = (
                    self.unknown_ua_counts.get(vendor, 0) + count
                )
