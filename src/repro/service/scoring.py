"""Real-time scoring service.

Glues the pieces into the online path the paper deploys: wire payload →
wire contract (:class:`~repro.runtime.fastingest.WireIngest`) →
(optional) persistence → model verdict, with end-to-end latency
accounting against the Section 3 budget of 100ms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from datetime import date
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.pipeline import BrowserPolygraph
from repro.coverage.tracker import vendor_of
from repro.fingerprint.script import FingerprintPayload
from repro.service.storage import SessionStore
from repro.traffic.dataset import Dataset

if TYPE_CHECKING:
    from repro.runtime.fastingest import WireIngest

__all__ = ["ScoringService", "Verdict", "score_wires"]


@dataclass(frozen=True)
class Verdict:
    """The service's answer for one session.

    ``flagged`` / ``risk_factor`` are always the cluster-distance
    verdict — the fusion arm is additive-only, so these stay
    bit-identical whether fusion is attached or not.  The ``fused_*`` /
    ``second_*`` provenance fields are populated only when a fusion arm
    scored the session, and stay ``None`` otherwise.  Likewise the
    ``inferred_*`` fields carry nearest-release provenance only under
    ``unknown_ua_policy="infer"`` for sessions whose claimed UA was
    outside the trained table.
    """

    session_id: str
    accepted: bool
    flagged: bool
    risk_factor: Optional[int]
    reject_reason: Optional[str]
    latency_ms: float
    fused_flagged: Optional[bool] = None
    fusion_cell: Optional[str] = None
    second_probability: Optional[float] = None
    second_lift: Optional[float] = None
    inferred_release: Optional[str] = None
    inferred_distance: Optional[int] = None

    @property
    def actionable(self) -> bool:
        """Whether the risk engine should consider this session."""
        return self.accepted and self.flagged


class ScoringService:
    """Validate, persist, and score payloads in real time.

    Parameters
    ----------
    polygraph:
        A fitted :class:`~repro.core.pipeline.BrowserPolygraph`.
    ingest:
        The wire contract
        (:class:`~repro.runtime.fastingest.WireIngest`: dedup window,
        counters, and the ``quarantine`` reject ledger); a default one
        is created if omitted.
    store:
        Optional durable store; accepted payloads are appended so the
        next training window can be exported later.
    fusion:
        Optional :class:`~repro.fusion.arm.FusionArm`; when attached,
        verdicts carry the fused provenance fields on top of the
        (unchanged) cluster verdict.
    """

    def __init__(
        self,
        polygraph: BrowserPolygraph,
        ingest: Optional[WireIngest] = None,
        store: Optional[SessionStore] = None,
        fusion=None,
    ) -> None:
        if not polygraph.is_fitted:
            raise ValueError("ScoringService requires a fitted BrowserPolygraph")
        # Imported here: repro.runtime imports this module, so a
        # module-level import would be circular.
        from repro.runtime.fastingest import WireIngest

        self.polygraph = polygraph
        self.ingest = ingest if ingest is not None else WireIngest()
        self.quarantine = self.ingest.quarantine
        self.store = store
        self.fusion = None
        self.coverage = None
        self.scored_count = 0
        self.flagged_count = 0
        # Per-vendor unknown-UA volume, observable even without the
        # coverage subsystem attached (polygraph_unknown_ua_total).
        self.unknown_ua_counts: Dict[str, int] = {}
        if fusion is not None:
            self.attach_fusion(fusion)

    def attach_fusion(self, arm) -> "ScoringService":
        """Attach a fusion arm bound to this service's pipeline."""
        self.fusion = arm.bind_pipeline(self.polygraph)
        return self

    def attach_coverage(self, tracker) -> "ScoringService":
        """Attach a :class:`~repro.coverage.tracker.CoverageTracker`.

        The tracker's known-release table is seeded from the current
        model and re-synced on every retrain, so its classification
        always matches the serving generation.
        """
        self.coverage = tracker
        generation, detector = self.polygraph.detection_snapshot()
        tracker.set_known_keys(
            detector.model.ua_to_cluster, generation=generation
        )
        self.polygraph.add_retrain_listener(
            lambda gen: self._sync_coverage(gen)
        )
        return self

    def _sync_coverage(self, generation: int) -> None:
        if self.coverage is None:
            return
        _, detector = self.polygraph.detection_snapshot()
        self.coverage.set_known_keys(
            detector.model.ua_to_cluster, generation=generation
        )

    def score_wire(
        self,
        wire: bytes,
        day: Optional[date] = None,
        tags: Optional[Tuple[bool, bool]] = None,
    ) -> Verdict:
        """The full online path for one request.

        ``tags`` optionally carries the risk engine's
        ``(untrusted_ip, untrusted_cookie)`` signals for the fusion
        arm; it is ignored when no arm is attached.
        """
        started = time.perf_counter()
        rejected, fields = self.ingest.ingest(wire)
        if rejected is not None:
            return Verdict(
                session_id="",
                accepted=False,
                flagged=False,
                risk_factor=None,
                reject_reason=rejected.value,
                latency_ms=(time.perf_counter() - started) * 1000.0,
            )
        session_id, user_agent, values, globs, _ = fields
        payload = FingerprintPayload(session_id, user_agent, values, 0.0, globs)
        if self.store is not None:
            self.store.append(payload, day=day)
        result = self.polygraph.detect_payload(payload)
        self.scored_count += 1
        if result.flagged:
            self.flagged_count += 1
        if not result.known_ua:
            vendor = vendor_of(result.ua_key)
            self.unknown_ua_counts[vendor] = (
                self.unknown_ua_counts.get(vendor, 0) + 1
            )
        if self.coverage is not None:
            self.coverage.observe(result.ua_key, known=result.known_ua, day=day)
        fused_flagged = None
        fusion_cell = None
        second_probability = None
        second_lift = None
        if self.fusion is not None:
            outcome = self.fusion.consider(
                payload.values,
                payload.user_agent,
                result.flagged,
                day=day,
                tags=tags,
            )
            if outcome is not None:
                opinion, fused = outcome
                fused_flagged = fused.fused_flagged
                fusion_cell = fused.cell.value
                second_probability = opinion.probability
                second_lift = opinion.lift
        return Verdict(
            session_id=payload.session_id,
            accepted=True,
            flagged=result.flagged,
            risk_factor=result.risk_factor,
            reject_reason=None,
            latency_ms=(time.perf_counter() - started) * 1000.0,
            fused_flagged=fused_flagged,
            fusion_cell=fusion_cell,
            second_probability=second_probability,
            second_lift=second_lift,
            inferred_release=result.inferred_release,
            inferred_distance=result.inferred_distance,
        )

    def retrain(
        self, dataset: Dataset, align_rare: bool = True, jobs: int = 1
    ) -> None:
        """Swap in a freshly trained model without stopping scoring.

        The pipeline installs the new model atomically under its swap
        lock: a request (or a runtime batch) that is mid-flight keeps
        scoring against the snapshot it started with, and every request
        accepted afterwards sees only the new model — never a mix.
        """
        self.polygraph.retrain(dataset, align_rare=align_rare, jobs=jobs)

    @property
    def flag_rate(self) -> float:
        """Share of scored sessions flagged so far."""
        return self.flagged_count / self.scored_count if self.scored_count else 0.0


def score_wires(
    service, wires: Sequence[bytes], day: Optional[date] = None
) -> List[Verdict]:
    """Score a batch of wires through ``service``'s widest interface.

    ``score_many`` on the cluster router (which routes without a day);
    ``submit_wire`` on the micro-batched runtime, with every submit
    before any wait so the batch's cache misses share one flush instead
    of each waiting out the batcher's linger; ``score_wire`` one by one
    otherwise.  Verdicts come back in ``wires`` order, and every
    interface validates and deduplicates in that order.
    """
    score_many = getattr(service, "score_many", None)
    if score_many is not None:
        return score_many(wires)
    submit = getattr(service, "submit_wire", None)
    if submit is not None:
        pending = [submit(wire, day=day) for wire in wires]
        return [handle.result() for handle in pending]
    return [service.score_wire(wire, day=day) for wire in wires]
