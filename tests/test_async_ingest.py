"""Async ingest front end: real sockets, ordering, backpressure.

Exercises :class:`~repro.service.aingest.AsyncIngestServer` the way a
client sees it — over TCP — pinning the contract the tentpole claims:
``POST /collect`` verdicts match the WSGI app byte-for-field, ``POST
/event`` answers match it byte for byte and are scored in arrival
order, every other endpoint passes through to the same app, responses
on one connection come back in request order even with pipelining, and
the high-watermark pauses reads instead of shedding work.
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import sys
import time

import pytest

from repro.runtime.pool import OVERLOADED_REASON, overloaded_verdict
from repro.runtime.service import RuntimeScoringService
from repro.service.aingest import AsyncIngestServer
from repro.service.api import CollectionApp
from repro.fingerprint.script import MAX_PAYLOAD_BYTES
from repro.service.scoring import ScoringService, Verdict
from repro.sessions import SessionScoringService
from repro.traffic.events import EventType, SessionEvent
from repro.traffic.replay import iter_wire_payloads


@pytest.fixture(scope="module")
def wires(small_dataset):
    return [w for _, w in zip(range(200), iter_wire_payloads(small_dataset))]


def _serve(service, sessions=None, **kwargs):
    kwargs.setdefault("host", "127.0.0.1")
    kwargs.setdefault("port", 0)  # ephemeral
    app = CollectionApp(service, sessions=sessions)
    return AsyncIngestServer(service, app, **kwargs)


def _sessions(trained):
    # Event timestamps are small synthetic seconds; no session expires.
    return SessionScoringService(ScoringService(trained), ttl_seconds=1e9)


def _event_wires(dataset, prefix, n_sessions, n_events=8):
    """``n_events`` events per session, each session's events together.

    Event ``j`` of session ``k`` carries dataset row ``k * n_events + j``
    (its UA and fingerprint), so sessions change surface mid-stream and
    their verdicts get revised.
    """
    wires = []
    for k in range(n_sessions):
        for j in range(n_events):
            row = dataset.row(k * n_events + j)
            wires.append(SessionEvent(
                session_id=f"{prefix}-{k}",
                event_type=EventType.PAGE_LOAD if j == 0 else EventType.FOCUS,
                seq=j,
                timestamp=1000.0 + j,
                user_agent=row.user_agent,
                values=row.features,
            ).to_wire())
    return wires


def _wsgi(app, method, path, body=b"", length=None):
    """Call the WSGI app directly; ``(status line, body bytes)``."""
    captured = []
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "CONTENT_LENGTH": str(len(body) if length is None else length),
        "wsgi.input": io.BytesIO(body),
    }
    chunks = app(environ, lambda status, headers: captured.append(status))
    return captured[0], b"".join(chunks)


def _request(port, method, path, body=b""):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        payload = response.read()
        return response.status, dict(response.getheaders()), payload
    finally:
        conn.close()


def _pipeline(port, requests, timeout=15.0):
    """Send raw pipelined requests; return responses in arrival order."""
    rendered = b"".join(
        (
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("latin-1")
        + body
        for method, path, body in requests
    )
    responses = []
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(rendered)
        buffer = b""
        while len(responses) < len(requests):
            while b"\r\n\r\n" not in buffer:
                chunk = sock.recv(65536)
                if not chunk:
                    raise AssertionError(
                        f"connection closed after {len(responses)} responses"
                    )
                buffer += chunk
            head, _, buffer = buffer.partition(b"\r\n\r\n")
            status_line, *header_lines = head.decode("latin-1").split("\r\n")
            length = next(
                int(line.partition(":")[2])
                for line in header_lines
                if line.lower().startswith("content-length:")
            )
            while len(buffer) < length:
                buffer += sock.recv(65536)
            responses.append((status_line, buffer[:length]))
            buffer = buffer[length:]
    return responses


class TestCollectParity:
    def test_collect_verdicts_match_the_reference(self, trained, wires):
        sample = wires[:40]
        reference = ScoringService(trained)
        expected = [
            (v.accepted, v.flagged, v.risk_factor)
            for v in (reference.score_wire(w) for w in sample)
        ]
        with _serve(ScoringService(trained)) as server:
            actual = []
            for wire in sample:
                status, _, payload = _request(
                    server.port, "POST", "/collect", wire
                )
                assert status == 202
                document = json.loads(payload)
                actual.append(
                    (
                        document["accepted"],
                        document["flagged"],
                        document["risk_factor"],
                    )
                )
            assert actual == expected
            assert server.collect_total == len(sample)

    def test_malformed_wire_is_400_with_reason(self, trained):
        with _serve(ScoringService(trained)) as server:
            status, _, payload = _request(
                server.port, "POST", "/collect", b"\x00 not json"
            )
            assert status == 400
            assert json.loads(payload)["reject_reason"] == "malformed"

    def test_overloaded_service_maps_to_503_with_retry_after(self):
        class Saturated:
            scored_count = 0
            flagged_count = 0

            def score_many(self, wires):
                return [overloaded_verdict() for _ in wires]

        with _serve(Saturated()) as server:
            status, headers, payload = _request(
                server.port, "POST", "/collect", b'{"sid":"x"}'
            )
            assert status == 503
            assert headers.get("Retry-After") == "1"
            assert json.loads(payload)["reject_reason"] == OVERLOADED_REASON

    def test_overflowing_wire_leaves_its_batch_intact(self, trained, wires):
        """One ``1e999`` feature among 21 pipelined wires in one batch.

        Every answer must equal the per-request reference, the hostile
        wire's included (400 malformed); and a session id may come back
        ``duplicate`` on retry only if its first try got a verdict.
        """
        innocent = wires[100:120]
        hostile = innocent[0].replace(b'"f":[', b'"f":[1e999,', 1)
        hostile = hostile.replace(b'"sid":"', b'"sid":"hostile-', 1)
        mixed = innocent[:10] + [hostile] + innocent[10:]
        reference = ScoringService(trained)
        expected = []
        for wire in innocent:
            verdict = reference.score_wire(wire)
            expected.append((
                "202" if verdict.accepted else "400",
                verdict.accepted,
                verdict.flagged,
                verdict.risk_factor,
                verdict.reject_reason,
            ))
        expected.insert(10, ("400", False, False, None, "malformed"))
        runtime = RuntimeScoringService(trained).start()
        try:
            with _serve(runtime, batch_max=64, linger_ms=20.0) as server:
                first = _pipeline(
                    server.port, [("POST", "/collect", w) for w in mixed]
                )
                retried = _pipeline(
                    server.port,
                    [("POST", "/collect", w) for w in innocent[:3]],
                )
        finally:
            runtime.shutdown()
        actual = []
        for line, payload in first:
            document = json.loads(payload)
            actual.append((
                line.split(" ", 2)[1],
                document.get("accepted"),
                document.get("flagged"),
                document.get("risk_factor"),
                document.get("reject_reason"),
            ))
        assert actual == expected
        for (line, _), (_, payload) in zip(first, retried):
            if json.loads(payload).get("reject_reason") == "duplicate":
                assert line.split(" ", 2)[1] == "202"

    def test_post_without_length_is_411(self, trained):
        with _serve(ScoringService(trained)) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                sock.sendall(b"POST /collect HTTP/1.1\r\nHost: t\r\n\r\n")
                reply = sock.recv(65536)
            assert reply.startswith(b"HTTP/1.1 411")


class _Scripted:
    """A scoring tier whose verdict is chosen by the request body."""

    scored_count = 0
    flagged_count = 0

    def __init__(self):
        self.verdicts = {
            b"ok": Verdict("s-ok", True, True, 3, None, 1.23456),
            b"bad": Verdict("", False, False, None, "malformed", 0.5),
            b"shed": overloaded_verdict("s-shed", 7.0),
        }

    def score_wire(self, wire, day=None):
        return self.verdicts[wire]

    def score_many(self, wires):
        return [self.score_wire(wire) for wire in wires]


def _raw_response(port, method, path, body=b""):
    """One request; ``(status, [(header, value), ...], body)`` as sent."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
        )
        reply = b""
        while b"\r\n\r\n" not in reply:
            reply += sock.recv(65536)
        head, _, payload = reply.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = [tuple(line.split(": ", 1)) for line in lines]
        length = int(dict(headers)["Content-Length"])
        while len(payload) < length:
            payload += sock.recv(65536)
    return status_line.split(" ", 1)[1], headers, payload


class TestCollectRendering:
    @pytest.mark.parametrize("body", [b"ok", b"bad", b"shed"])
    def test_both_front_ends_answer_byte_for_byte(self, body):
        """202, 400 and 503 + Retry-After: one renderer behind both."""
        service = _Scripted()
        captured = []
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/collect",
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        }
        wsgi_body = b"".join(CollectionApp(service)(
            environ, lambda status, headers: captured.extend([status, headers])
        ))
        with _serve(service) as server:
            status, headers, payload = _raw_response(
                server.port, "POST", "/collect", body
            )
        wsgi_status, wsgi_headers = captured
        assert (status, headers, payload) == (
            wsgi_status,
            list(wsgi_headers) + [("Connection", "keep-alive")],
            wsgi_body,
        )
        if body == b"shed":
            assert status.startswith("503")
            assert ("Retry-After", "1") in headers


class TestWsgiPassthrough:
    def test_health_and_metrics_serve_through_the_bridge(
        self, trained, wires
    ):
        with _serve(ScoringService(trained)) as server:
            _request(server.port, "POST", "/collect", wires[0])
            status, _, payload = _request(server.port, "GET", "/health")
            assert status == 200
            assert json.loads(payload)["status"] == "ok"
            status, _, payload = _request(server.port, "GET", "/metrics")
            assert status == 200
            text = payload.decode()
            # The WSGI app's series and this server's own, merged.
            assert "polygraph_sessions_scored" in text
            assert "polygraph_ingest_requests" in text
            assert "polygraph_ingest_collect_requests 1" in text
            assert "polygraph_ingest_event_batches 0" in text
            assert "polygraph_ingest_event_rows 0" in text

    def test_metrics_count_event_batches_and_rows(self, trained,
                                                  small_dataset):
        wires = _event_wires(small_dataset, "metrics", 3)
        service = ScoringService(trained)
        with _serve(service, sessions=_sessions(trained)) as server:
            responses = _pipeline(
                server.port, [("POST", "/event", w) for w in wires]
            )
            assert all(
                line.split(" ", 1)[1].startswith("202")
                for line, _ in responses
            )
            status, _, payload = _request(server.port, "GET", "/metrics")
        assert status == 200
        text = payload.decode()
        assert f"polygraph_ingest_event_rows {len(wires)}" in text
        batches = server.event_batches_total
        assert 1 <= batches <= len(wires)
        assert f"polygraph_ingest_event_batches {batches}" in text
        # Events have their own counters; /collect's stay untouched.
        assert "polygraph_ingest_batch_rows 0" in text

    def test_unknown_path_is_the_apps_404(self, trained):
        with _serve(ScoringService(trained)) as server:
            status, _, _ = _request(server.port, "GET", "/nope")
            assert status == 404


class TestKeepAliveOrdering:
    def test_pipelined_responses_arrive_in_request_order(
        self, trained, wires
    ):
        good, bad = wires[0], b"\x00 not json"
        with _serve(ScoringService(trained)) as server:
            responses = _pipeline(
                server.port,
                [
                    ("POST", "/collect", good),
                    ("POST", "/collect", bad),
                    ("GET", "/health", b""),
                    ("POST", "/collect", wires[1]),
                ],
            )
        statuses = [line.split(" ", 1)[1] for line, _ in responses]
        assert statuses[0].startswith("202")
        assert statuses[1].startswith("400")
        assert statuses[2].startswith("200")
        assert statuses[3].startswith("202")

    def test_connection_close_is_honored(self, trained, wires):
        with _serve(ScoringService(trained)) as server:
            with socket.create_connection(
                ("127.0.0.1", server.port), timeout=10
            ) as sock:
                body = wires[2]
                sock.sendall(
                    b"POST /collect HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                # The server must answer, then actually close: recv
                # draining to EOF (instead of blocking on a kept-alive
                # socket) is the proof.
                reply = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    reply += chunk
            assert reply.startswith(b"HTTP/1.1 202")


class TestBatchingAndBackpressure:
    def test_concurrent_collects_coalesce_into_batches(
        self, trained, wires
    ):
        sample = wires[:30]
        with _serve(
            ScoringService(trained), batch_max=64, linger_ms=20.0
        ) as server:
            responses = _pipeline(
                server.port,
                [("POST", "/collect", w) for w in sample],
                timeout=30.0,
            )
            assert all(
                line.split(" ", 1)[1].startswith("202")
                for line, _ in responses
            )
            assert server.batch_rows_total == len(sample)
            # The linger let pipelined wires pile into shared batches.
            assert server.batches_total < len(sample)

    def test_high_watermark_pauses_reads_without_shedding(
        self, trained, wires
    ):
        inner = ScoringService(trained)

        class Slow:
            scored_count = 0
            flagged_count = 0

            def score_many(self, batch):
                time.sleep(0.02)
                return [inner.score_wire(w) for w in batch]

        sample = wires[40:60]
        with _serve(
            Slow(), batch_max=2, max_pending=2, linger_ms=0.0
        ) as server:
            responses = _pipeline(
                server.port,
                [("POST", "/collect", w) for w in sample],
                timeout=30.0,
            )
            # Every wire is answered — backpressure stalls the socket
            # rather than 503ing admitted work.
            assert len(responses) == len(sample)
            assert all(
                line.split(" ", 1)[1].startswith("202")
                for line, _ in responses
            )
            assert server.backpressure_pauses > 0


class TestEventLane:
    def test_pipelined_session_events_are_scored_in_order(
        self, trained, small_dataset
    ):
        """Responses equal a session layer fed the same wires in order.

        Several sessions' events ``seq`` 0..7 go down one socket in a
        single pipelined write, round after round.  A front end that
        scored them on parallel threads would, under a short switch
        interval, let a later event of a session overtake an earlier
        one (a ``session_created`` on ``seq`` > 0, a shifted revision).
        """
        rounds, n_sessions = 8, 6
        reference = _sessions(trained)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with _serve(ScoringService(trained),
                        sessions=_sessions(trained)) as server:
                for r in range(rounds):
                    wires = _event_wires(small_dataset, f"ord{r}", n_sessions)
                    responses = _pipeline(
                        server.port, [("POST", "/event", w) for w in wires]
                    )
                    for wire, (line, body) in zip(wires, responses):
                        expected = reference.observe_wire(wire)
                        document = json.loads(body)
                        assert document == json.loads(
                            json.dumps(expected.to_dict())
                        ), (r, document["session_id"], document["event_seq"])
                        assert line.split(" ", 1)[1].startswith(
                            "202" if expected.verdict.accepted else "400"
                        )
        finally:
            sys.setswitchinterval(interval)
        assert server.event_rows_total == rounds * n_sessions * 8
        assert reference.revisions_total > 0

    def test_event_answers_match_the_wsgi_app_byte_for_byte(
        self, trained, small_dataset
    ):
        first, follow_up = _event_wires(small_dataset, "parity", 1, 2)
        cases = [
            ("accepted first event", first, None),
            ("accepted follow-up event", follow_up, None),
            ("malformed envelope", b"not an envelope", None),
            ("zero content length", b"", None),
            ("oversized content length", b"", MAX_PAYLOAD_BYTES + 129),
        ]
        app = CollectionApp(ScoringService(trained),
                            sessions=_sessions(trained))
        with _serve(ScoringService(trained),
                    sessions=_sessions(trained)) as server:
            for name, body, length in cases:
                expected = _wsgi(app, "POST", "/event", body, length)
                if length is None:
                    (line, payload), = _pipeline(
                        server.port, [("POST", "/event", body)]
                    )
                else:
                    line, payload = _declare_only(server.port, length)
                actual = (line.split(" ", 1)[1], payload)
                assert actual == expected, name
            assert server.event_rows_total == 3
        bare = CollectionApp(ScoringService(trained))
        with _serve(ScoringService(trained)) as server:
            expected = _wsgi(bare, "POST", "/event", first)
            (line, payload), = _pipeline(
                server.port, [("POST", "/event", first)]
            )
        assert expected[0].startswith("404")
        assert (line.split(" ", 1)[1], payload) == expected


def _declare_only(port, length):
    """Send an /event head declaring ``length`` body bytes, and no body.

    The front end must answer on the head alone and close; returns
    ``(status line, body bytes)``.
    """
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(
            f"POST /event HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {length}\r\n\r\n".encode("latin-1")
        )
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return head.decode("latin-1").split("\r\n", 1)[0], body
