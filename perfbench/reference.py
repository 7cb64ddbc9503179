"""The correctness gate: an in-process reference and the comparator.

Every response the server sends is checked against what a plain
per-request :class:`~repro.service.scoring.ScoringService` (wrapped in a
:class:`~repro.sessions.service.SessionScoringService` for ``/event``)
answers for the same bytes, in the order the client sent them, on the
same model file.
"""

from __future__ import annotations

import json
import pickle
import sys
from typing import Dict, List, Optional, Tuple

from repro.core.pipeline import BrowserPolygraph
from repro.service.scoring import ScoringService
from repro.sessions import SessionScoringService

from workloads import SESSION_MAX, SESSION_TTL

# Fields of a response document that are timings, not verdicts.
_TIMING_FIELDS = ("latency_ms",)


class Reference:
    """Expected response documents, one call per request in send order.

    The model call itself is memoized on the payload's content: the
    verdict of a fitted model is a pure function of (features, UA,
    globals), while validation, dedup and session state still run for
    every request through the reference services.
    """

    def __init__(self, model_path: str, sessions: bool) -> None:
        polygraph = BrowserPolygraph.load(model_path)
        detect = polygraph.detect_payload
        memo: Dict[tuple, object] = {}

        def detect_payload(payload):
            key = (payload.values, payload.user_agent, payload.suspicious_globals)
            result = memo.get(key)
            if result is None:
                result = memo[key] = detect(payload)
            return result

        polygraph.detect_payload = detect_payload
        self.service = ScoringService(polygraph)
        self.sessions = (
            SessionScoringService(
                self.service, ttl_seconds=SESSION_TTL, max_sessions=SESSION_MAX
            )
            if sessions
            else None
        )
        self.revisions = 0

    def expected(self, body: bytes) -> dict:
        """The response document (plus ``status``) the server must send."""
        if self.sessions is not None:
            observation = self.sessions.observe_wire(body)
            if observation.revision is not None:
                self.revisions += 1
            document = json.loads(json.dumps(observation.to_dict()))
            document["status"] = 202 if observation.verdict.accepted else 400
            return document
        verdict = self.service.score_wire(body)
        document = {
            "status": 202 if verdict.accepted else 400,
            "accepted": verdict.accepted,
            "flagged": verdict.flagged,
            "risk_factor": verdict.risk_factor,
        }
        if not verdict.accepted:
            document["reject_reason"] = verdict.reject_reason
        return document


def compare(expected: dict, status: int, body: bytes) -> Optional[str]:
    """``None`` when the response matches, else a one-line reason."""
    try:
        observed = json.loads(body)
    except ValueError:
        return f"status {status}: body is not JSON: {body[:80]!r}"
    if not isinstance(observed, dict):
        return f"status {status}: body is not an object"
    for field in _TIMING_FIELDS:
        observed.pop(field, None)
    observed["status"] = status
    if observed != expected:
        keys = sorted(set(observed) | set(expected))
        diff = [
            f"{k}: got {observed.get(k)!r} want {expected.get(k)!r}"
            for k in keys
            if observed.get(k) != expected.get(k)
        ]
        return "; ".join(diff)
    return None


def check_partition(
    model_path: str, sessions: bool, items: List[Tuple[str, bytes, bool, int, bytes]]
) -> dict:
    """Check one partition of a run's responses, in send order.

    ``items`` are ``(label, request body, expect_reject, status,
    response body)``.  A partition holds every request of the session
    ids it owns, so dedup and session state evolve exactly as they would
    over the whole run.  A status <= 0 (reset, timeout) or >= 500 is a
    failure; any other response that differs from the reference is a
    mismatch (and a failure).
    """
    reference = Reference(model_path, sessions)
    failed = mismatches = 0
    messages: List[str] = []
    for label, body, expect_reject, status, response in items:
        expected = reference.expected(body)
        if expect_reject and expected["status"] == 202:
            raise RuntimeError(
                f"{label}: a deliberately invalid wire was accepted by the "
                "reference, so the request generator is broken"
            )
        if status <= 0 or status >= 500:
            failed += 1
            continue
        why = compare(expected, status, response)
        if why is not None:
            failed += 1
            mismatches += 1
            if len(messages) < 5:
                messages.append(f"{label}: {why}")
    return {
        "attempted": len(items),
        "failed": failed,
        "mismatches": mismatches,
        "messages": messages,
        "revisions": reference.revisions,
    }


def main() -> int:
    """``python3 perfbench/reference.py``: read ``(model path, sessions,
    items)`` pickled on stdin, write :func:`check_partition`'s outcome
    pickled to stdout."""
    out, sys.stdout = sys.stdout.buffer, sys.stderr  # stdout carries the outcome only
    model_path, sessions, items = pickle.load(sys.stdin.buffer)
    outcome = check_partition(model_path, sessions, items)
    pickle.dump(outcome, out, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
