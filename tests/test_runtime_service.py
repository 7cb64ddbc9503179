"""RuntimeScoringService: parity, concurrency, retraining, lifecycle."""

import io
import json
import threading

import pytest

from repro.browsers.profiles import BrowserProfile
from repro.browsers.useragent import Vendor, format_user_agent, parse_user_agent
from repro.core.config import PipelineConfig
from repro.core.pipeline import BrowserPolygraph
from repro.fingerprint.script import MAX_PAYLOAD_BYTES, CollectionScript
from repro.runtime.pool import Overloaded
from repro.runtime.service import RuntimeConfig, RuntimeScoringService
from repro.service.api import CollectionApp
from repro.service.api import _MAX_BODY as API_MAX_BODY
from repro.service.scoring import ScoringService
from repro.traffic.replay import iter_payloads


def _wires(dataset, limit):
    return [p.to_wire() for p in iter_payloads(dataset, limit)]


def _wire(session_id="rt-1", vendor=Vendor.CHROME, version=112):
    profile = BrowserProfile(vendor, version)
    return CollectionScript().run(
        profile.environment(), profile.user_agent(), session_id
    ).to_wire()


def _fields(verdict):
    return (
        verdict.session_id,
        verdict.accepted,
        verdict.flagged,
        verdict.risk_factor,
        verdict.reject_reason,
    )


@pytest.fixture()
def runtime(trained):
    service = RuntimeScoringService(trained).start()
    yield service
    service.shutdown()


class TestRuntimeConfig:
    def test_defaults_valid(self):
        config = RuntimeConfig()
        assert config.max_batch_size == 64
        assert config.cache_entries > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_workers": 0},
            {"queue_capacity": 0},
            {"cache_entries": -1},
            {"latency_sample_every": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RuntimeConfig(**kwargs)


class TestVerdictParity:
    """Batching and caching are pure optimizations: same verdicts."""

    def test_replay_matches_baseline(self, trained, small_dataset, runtime):
        wires = _wires(small_dataset, 1200)
        baseline = ScoringService(trained)
        expected = [_fields(baseline.score_wire(w)) for w in wires]
        actual = [_fields(runtime.score_wire(w)) for w in wires]
        assert actual == expected
        assert runtime.scored_count == baseline.scored_count
        assert runtime.flagged_count == baseline.flagged_count

    def test_reject_parity_on_hostile_wires(self, trained):
        good = json.loads(_wire("p-good").decode())
        ua = good["ua"]

        def dumps(obj):
            # Compact separators so the wires start with {"sid":" and
            # genuinely exercise the runtime's fast-path guards.
            return json.dumps(obj, separators=(",", ":")).encode()

        hostile = [
            b"x" * 2000,                                   # oversized
            b"not json",                                   # malformed
            b'{"sid":"a"',                                 # truncated json
            dumps({"sid": "a", "ua": ua}),                 # missing features
            dumps({"sid": "a", "ua": ua, "f": [1, 2]}),    # wrong arity
            dumps({"sid": "", "ua": ua, "f": good["f"]}),
            dumps({"sid": "x" * 99, "ua": ua, "f": good["f"]}),
            dumps({"sid": "a", "ua": ua, "f": [-5] + good["f"][1:]}),
            dumps({"sid": "a", "ua": ua, "f": good["f"], "g": ["g"] * 40}),
            dumps({"sid": "a", "ua": "Not A Browser", "f": good["f"]}),
            dumps({"sid": "a", "ua": ua, "f": good["f"], "g": None}),
            dumps({"sid": 123, "ua": ua, "f": good["f"]}),
            # key order the fast path cannot slice — must still parse
            dumps({"ua": ua, "f": good["f"], "sid": "reordered"}),
            # escaped quote in the sid — fast path must bail to the parser
            dumps({"sid": 'a"b', "ua": ua, "f": good["f"]}),
            # duplicate "sid" key — json.loads keeps the later one
            b'{"sid":"first","sid":"second","ua":"%s","f":%s}'
            % (ua.encode(), dumps(good["f"])),
            _wire("dup-1"),
            _wire("dup-1"),                                # duplicate session
        ]
        baseline = ScoringService(trained)
        service = RuntimeScoringService(trained)
        try:
            expected = [_fields(baseline.score_wire(w)) for w in hostile]
            actual = [_fields(service.score_wire(w)) for w in hostile]
            reject_lines = [
                [
                    line
                    for line in _wsgi(CollectionApp(svc), "GET", "/metrics")[2]
                    .decode()
                    .splitlines()
                    if line.startswith("polygraph_payloads_rejected")
                ]
                for svc in (baseline, service)
            ]
        finally:
            service.shutdown()
        assert actual == expected
        assert service.quarantine.counts() == baseline.quarantine.counts()
        # Reason *and* detail of every reject, not just the tallies.
        assert service.quarantine.entries() == baseline.quarantine.entries()
        assert reject_lines[0] == reject_lines[1] == [
            "polygraph_payloads_rejected 12",
            'polygraph_payloads_rejected_by_reason{reason="bad_session_id"} 2',
            'polygraph_payloads_rejected_by_reason{reason="duplicate"} 1',
            'polygraph_payloads_rejected_by_reason{reason="globals_overflow"} 1',
            'polygraph_payloads_rejected_by_reason{reason="malformed"} 4',
            'polygraph_payloads_rejected_by_reason{reason="oversized"} 1',
            'polygraph_payloads_rejected_by_reason{reason="unparseable_ua"} 1',
            'polygraph_payloads_rejected_by_reason{reason="value_range"} 1',
            'polygraph_payloads_rejected_by_reason{reason="wrong_arity"} 1',
        ]

    def test_wire_memo_fast_path_matches(self, trained, runtime):
        baseline = ScoringService(trained)
        first = _wire("memo-1")
        second = _wire("memo-2")  # same fingerprint bytes, new sid
        assert _fields(runtime.score_wire(first)) == _fields(
            baseline.score_wire(first)
        )
        # second request takes the parsed-wire memo + verdict cache path
        assert _fields(runtime.score_wire(second)) == _fields(
            baseline.score_wire(second)
        )
        assert runtime.cache_hit_rate > 0.0


class TestConcurrentProducers:
    def test_many_threads_share_the_batcher(self, trained, small_dataset):
        wires = _wires(small_dataset, 800)
        baseline = ScoringService(trained)
        expected = sorted(_fields(baseline.score_wire(w)) for w in wires)

        service = RuntimeScoringService(
            trained, config=RuntimeConfig(n_workers=2, max_batch_size=16)
        ).start()
        results = []
        results_lock = threading.Lock()

        def producer(chunk):
            verdicts = [service.score_wire(w) for w in chunk]
            with results_lock:
                results.extend(verdicts)

        try:
            n = 8
            threads = [
                threading.Thread(target=producer, args=(wires[i::n],))
                for i in range(n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            service.shutdown()
        assert sorted(_fields(v) for v in results) == expected
        assert service.scored_count == len(wires)
        assert service.requests_total == len(wires)


class TestRetraining:
    @pytest.fixture()
    def own_pipeline(self, small_dataset):
        """A privately-fitted pipeline tests may retrain freely."""
        return BrowserPolygraph().fit(small_dataset)

    def test_retrain_invalidates_cache(self, own_pipeline, small_dataset):
        service = RuntimeScoringService(own_pipeline).start()
        try:
            for wire in _wires(small_dataset, 50):
                service.score_wire(wire)
            assert len(service.cache) > 0
            generation = own_pipeline.model_generation
            service.retrain(small_dataset)
            assert own_pipeline.model_generation == generation + 1
            assert len(service.cache) == 0
            assert service.cache.model_generation == generation + 1
            assert service.runtime_stats.counter("model_swaps") == 1
        finally:
            service.shutdown()

    def test_stale_batch_cannot_poison_cache(self, own_pipeline, small_dataset):
        """Regression: a batch scored against a pre-retrain snapshot must
        never write into the post-retrain cache (the half-batch hazard)."""
        service = RuntimeScoringService(own_pipeline).start()
        try:
            old_generation, old_detector = own_pipeline.detection_snapshot()
            service.retrain(small_dataset)
            # The in-flight batch would put() with its snapshot generation:
            refused = not service.cache.put(
                ("chrome-112", (1,) * 28), "stale", generation=old_generation
            )
            assert refused
            assert len(service.cache) == 0
            # The snapshot detector itself stays usable for that batch.
            payload = next(iter_payloads(small_dataset, 1))
            result = old_detector.evaluate_vectors(
                payload.vector().reshape(1, -1), [payload.user_agent]
            )[0]
            assert result.predicted_cluster >= 0
        finally:
            service.shutdown()

    def test_whole_batch_scored_on_one_snapshot(self, own_pipeline, small_dataset):
        """A retrain landing mid-batch must not split it across models."""
        service = RuntimeScoringService(
            own_pipeline, config=RuntimeConfig(cache_entries=0)
        )
        generations = []
        original = service._score_batch

        def observing(requests):
            generations.append(own_pipeline.detection_snapshot()[0])
            original(requests)

        service.batcher.score_batch = observing
        service.start()
        try:
            for wire in _wires(small_dataset, 40):
                service.score_wire(wire)
            service.retrain(small_dataset)
            for payload in iter_payloads(small_dataset, 80):
                service.score_wire(
                    payload.to_wire().replace(
                        payload.session_id.encode(),
                        f"post-{payload.session_id}".encode(),
                    )
                )
        finally:
            service.shutdown()
        assert set(generations) == {1, 2}

    def test_scoring_service_retrain_delegates(self, own_pipeline, small_dataset):
        service = ScoringService(own_pipeline)
        generation = own_pipeline.model_generation
        service.retrain(small_dataset)
        assert own_pipeline.model_generation == generation + 1


class TestNamespaceProbeEscalation:
    @pytest.fixture(scope="class")
    def probing(self, small_dataset):
        config = PipelineConfig(enable_namespace_probe=True)
        return BrowserPolygraph(config=config).fit(small_dataset)

    def test_cache_hit_still_escalates(self, probing):
        service = RuntimeScoringService(probing).start()
        try:
            plain = _wire("esc-1")
            body = json.loads(plain.decode())
            body["sid"] = "esc-2"
            body["g"] = ["antBrowserInjected"]
            probed = json.dumps(body, separators=(",", ":")).encode()
            first = service.score_wire(plain)
            second = service.score_wire(probed)
        finally:
            service.shutdown()
        assert first.accepted and not first.flagged
        # Same fingerprint, served from the cache — but the namespace
        # probe escalation is applied per-request, after the cache.
        assert second.accepted and second.flagged
        assert second.risk_factor == probing.config.vendor_mismatch_risk


class TestLifecycle:
    def test_requires_fitted_pipeline(self):
        with pytest.raises(ValueError):
            RuntimeScoringService(BrowserPolygraph())

    def test_shutdown_drains_all_pending(self, trained, small_dataset):
        wires = _wires(small_dataset, 300)
        service = RuntimeScoringService(
            trained,
            config=RuntimeConfig(n_workers=2, cache_entries=0, max_batch_size=32),
        ).start()
        handles = [service.submit_wire(w) for w in wires]
        service.shutdown(drain=True)
        assert all(h.done() for h in handles)
        assert all(h.result(timeout=0).accepted for h in handles)

    def test_overload_sheds_typed_verdict(self, trained, small_dataset):
        entered = threading.Event()
        release = threading.Event()
        service = RuntimeScoringService(
            trained,
            config=RuntimeConfig(
                n_workers=1, queue_capacity=1, cache_entries=0
            ),
        )
        original = service.batcher.score_batch

        def blocking(batch):
            entered.set()
            release.wait(timeout=10.0)
            original(batch)

        service.batcher.score_batch = blocking
        service.start()
        wires = _wires(small_dataset, 8)
        try:
            service.submit_wire(wires[0])
            assert entered.wait(timeout=10.0)  # worker blocked in a flush
            verdicts = [service.submit_wire(w) for w in wires[1:]]
            shed = [
                v.result(timeout=0)
                for v in verdicts
                if v.done() and not v.result(timeout=0).accepted
            ]
            assert any(isinstance(v, Overloaded) for v in shed)
            assert all(v.reject_reason == "overloaded" for v in shed)
            assert service.runtime_stats.counter("requests_shed") >= 1
        finally:
            release.set()
            service.shutdown()

    def test_context_manager(self, trained):
        with RuntimeScoringService(trained) as service:
            verdict = service.score_wire(_wire("ctx-1"))
            assert verdict.accepted
        assert not service.pool.is_running

    def test_internal_error_resolves_handle(self, trained):
        service = RuntimeScoringService(
            trained, config=RuntimeConfig(cache_entries=0)
        )

        def boom(batch):
            raise RuntimeError("model exploded")

        service.batcher.score_batch = boom
        service.start()
        try:
            verdict = service.score_wire(_wire("err-1"))
        finally:
            service.shutdown()
        assert not verdict.accepted
        assert "internal_error" in verdict.reject_reason


class TestMetricsExposure:
    def test_api_body_cap_is_wire_contract_cap(self):
        assert API_MAX_BODY == MAX_PAYLOAD_BYTES

    def test_metrics_endpoint_includes_runtime(self, trained):
        service = RuntimeScoringService(trained).start()
        app = CollectionApp(service)
        try:
            wire = _wire("metrics-1")
            for sid in ("metrics-1", "metrics-2", "metrics-3"):
                app_wire = wire.replace(b"metrics-1", sid.encode())
                status, _, _ = _wsgi(app, "POST", "/collect", app_wire)
                assert status == "202 Accepted"
            status, _, body = _wsgi(app, "GET", "/metrics")
        finally:
            service.shutdown()
        assert status == "200 OK"
        text = body.decode()
        assert "polygraph_runtime_requests_total 3" in text
        assert "polygraph_runtime_cache_hit_rate" in text
        assert "polygraph_runtime_queue_depth" in text
        assert "polygraph_sessions_scored 3" in text

    def test_per_request_service_has_no_runtime_lines(self, trained):
        app = CollectionApp(ScoringService(trained))
        status, _, body = _wsgi(app, "GET", "/metrics")
        assert status == "200 OK"
        assert "polygraph_runtime_" not in body.decode()


def _wsgi(app, method, path, body=b""):
    captured = {}

    def start_response(status, headers):
        captured["status"] = status
        captured["headers"] = dict(headers)

    from wsgiref.util import setup_testing_defaults

    environ = {}
    setup_testing_defaults(environ)
    environ.update(
        {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        }
    )
    chunks = app(environ, start_response)
    return captured["status"], captured["headers"], b"".join(chunks)
