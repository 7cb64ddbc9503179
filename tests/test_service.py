"""Service layer tests: ingest, storage, scoring, monitoring."""

import json
from datetime import date

import numpy as np
import pytest

from repro.browsers.profiles import BrowserProfile
from repro.browsers.releases import default_calendar
from repro.browsers.useragent import Vendor
from repro.fingerprint.script import CollectionScript, FingerprintPayload
from repro.runtime.fastingest import WireIngest
from repro.service.ingest import QuarantineLog, RejectReason
from repro.service.monitoring import DriftScheduler, FlagRateMonitor
from repro.service.scoring import ScoringService
from repro.service.storage import SessionStore


def _payload(session_id="s-1", vendor=Vendor.CHROME, version=112):
    profile = BrowserProfile(vendor, version)
    return CollectionScript().run(
        profile.environment(), profile.user_agent(), session_id
    )


class TestValidator:
    """The wire contract, as enforced by :class:`WireIngest`."""

    def test_accepts_genuine_payload(self):
        ingest = WireIngest()
        reason, fields = ingest.ingest(_payload().to_wire())
        assert reason is None
        assert fields[0] == "s-1"
        assert ingest.accepted_count == 1

    def test_rejects_oversized(self):
        ingest = WireIngest()
        assert ingest.ingest(b"x" * 2000) == (RejectReason.OVERSIZED, None)

    def test_rejects_malformed_json(self):
        ingest = WireIngest()
        assert ingest.ingest(b"{oops")[0] is RejectReason.MALFORMED

    def test_rejects_wrong_arity(self):
        ingest = WireIngest()
        bad = FingerprintPayload("s-2", _payload().user_agent, (1, 2, 3), 0.0)
        assert ingest.ingest(bad.to_wire())[0] is RejectReason.WRONG_ARITY

    def test_rejects_out_of_range_values(self):
        ingest = WireIngest()
        good = _payload("s-3")
        bad = FingerprintPayload(
            "s-3", good.user_agent, (-5,) + good.values[1:], 0.0
        )
        assert ingest.ingest(bad.to_wire())[0] is RejectReason.VALUE_RANGE

    def test_rejects_unparseable_ua(self):
        ingest = WireIngest()
        good = _payload("s-4")
        bad = FingerprintPayload("s-4", "curl/8.0", good.values, 0.0)
        assert ingest.ingest(bad.to_wire())[0] is RejectReason.UNPARSEABLE_UA

    def test_rejects_bad_session_id(self):
        ingest = WireIngest()
        good = _payload("s-5")
        bad = FingerprintPayload("x" * 80, good.user_agent, good.values, 0.0)
        assert ingest.ingest(bad.to_wire())[0] is RejectReason.BAD_SESSION_ID

    def test_rejects_replayed_session_id(self):
        ingest = WireIngest()
        wire = _payload("s-6").to_wire()
        assert ingest.ingest(wire)[0] is None
        assert ingest.ingest(wire)[0] is RejectReason.DUPLICATE

    def test_dedup_window_expires(self):
        ingest = WireIngest(dedup_window=2)
        for sid in ("a", "b", "c"):
            assert ingest.ingest(_payload(sid).to_wire())[0] is None
        # "a" fell out of the window, so a replay of it is accepted again.
        assert ingest.ingest(_payload("a").to_wire())[0] is None

    def test_batch_preserves_order(self):
        ingest = WireIngest()
        wires = [_payload("b-1").to_wire(), b"garbage", _payload("b-2").to_wire()]
        outcomes = ingest.ingest_many(wires)
        assert [isinstance(o, tuple) for o in outcomes] == [True, False, True]

    def test_quarantine_counts(self):
        quarantine = QuarantineLog(capacity=2)
        ingest = WireIngest(quarantine=quarantine)
        for _ in range(3):
            ingest.ingest(b"junk")
        assert quarantine.total_rejects == 3
        assert len(quarantine.entries()) == 2  # capped retention
        assert quarantine.counts()[RejectReason.MALFORMED] == 3

    def test_quarantine_counts_reasons_outside_the_contract(self):
        quarantine = QuarantineLog()
        quarantine.record(RejectReason.MALFORMED, "x")
        quarantine.record("malformed")
        quarantine.record("internal_error: RuntimeError")
        assert quarantine.counts() == {
            "malformed": 2,
            "internal_error: RuntimeError": 1,
        }
        assert quarantine.total_rejects == 3


class TestSessionStore:
    def test_append_and_export(self, tmp_path):
        store = SessionStore(tmp_path)
        for i in range(5):
            store.append(_payload(f"st-{i}"), day=date(2023, 5, 1))
        assert len(store) == 5
        dataset = store.export_dataset()
        assert len(dataset) == 5
        assert set(dataset.ua_keys.tolist()) == {"chrome-112"}

    def test_rotation(self, tmp_path):
        store = SessionStore(tmp_path, max_records_per_segment=2)
        for i in range(5):
            store.append(_payload(f"rot-{i}"))
        assert len(store.segments()) == 3
        assert len(store) == 5

    def test_reopen_resumes_active_segment(self, tmp_path):
        store = SessionStore(tmp_path, max_records_per_segment=10)
        store.append(_payload("first"))
        reopened = SessionStore(tmp_path, max_records_per_segment=10)
        reopened.append(_payload("second"))
        assert len(reopened) == 2
        assert len(reopened.segments()) == 1

    def test_records_are_valid_jsonl(self, tmp_path):
        store = SessionStore(tmp_path)
        store.append(_payload("json-1"))
        line = store.segments()[0].read_text().strip()
        record = json.loads(line)
        assert record["sid"] == "json-1"

    def test_empty_export_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SessionStore(tmp_path).export_dataset()


class TestScoringService:
    @pytest.fixture(scope="class")
    def service(self, trained, tmp_path_factory):
        store = SessionStore(tmp_path_factory.mktemp("scoring"))
        return ScoringService(trained, store=store)

    def test_genuine_session_passes(self, service):
        verdict = service.score_wire(_payload("sc-1").to_wire())
        assert verdict.accepted and not verdict.flagged
        assert verdict.latency_ms < 100.0  # Section 3 budget

    def test_fraud_session_flagged(self, service):
        from repro.browsers.useragent import format_user_agent, parse_user_agent
        from repro.fraudbrowsers.base import FraudProfile
        from repro.fraudbrowsers.catalog import fraud_browser

        gologin = fraud_browser("GoLogin-3.3.23")
        victim = format_user_agent(Vendor.FIREFOX, 110)
        profile = FraudProfile(gologin.full_name, parse_user_agent(victim))
        payload = CollectionScript().run(gologin.environment(profile), victim, "sc-2")
        verdict = service.score_wire(payload.to_wire())
        assert verdict.actionable
        assert verdict.risk_factor == 20

    def test_garbage_rejected_without_scoring(self, service):
        before = service.scored_count
        verdict = service.score_wire(b"\x00\x01 not json")
        assert not verdict.accepted
        assert verdict.reject_reason == "malformed"
        assert service.scored_count == before

    def test_accepted_payloads_persisted(self, service):
        before = len(service.store)
        service.score_wire(_payload("sc-3").to_wire())
        assert len(service.store) == before + 1

    def test_unfitted_pipeline_rejected(self):
        from repro.core.pipeline import BrowserPolygraph

        with pytest.raises(ValueError):
            ScoringService(BrowserPolygraph())


class TestFlagRateMonitor:
    def test_healthy_rate_no_alarm(self):
        monitor = FlagRateMonitor(window=1000, min_observations=100)
        for i in range(1000):
            monitor.observe(i % 250 == 0)  # 0.4%
        assert not monitor.alarm

    def test_spike_raises_alarm(self):
        monitor = FlagRateMonitor(window=1000, min_observations=100)
        for i in range(1000):
            monitor.observe(i % 10 == 0)  # 10%
        assert monitor.alarm
        assert "ALARM" in monitor.describe()

    def test_silent_model_raises_alarm(self):
        # A model that never flags anything is as broken as one that
        # flags everything.
        monitor = FlagRateMonitor(window=5000, min_observations=4000)
        for _ in range(5000):
            monitor.observe(False)
        assert monitor.alarm

    def test_no_alarm_before_min_observations(self):
        monitor = FlagRateMonitor(window=1000, min_observations=500)
        for _ in range(100):
            monitor.observe(True)
        assert not monitor.alarm

    def test_window_slides(self):
        monitor = FlagRateMonitor(window=100, min_observations=10)
        for _ in range(100):
            monitor.observe(True)
        for _ in range(100):
            monitor.observe(False)
        assert monitor.windowed_rate == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FlagRateMonitor(window=0)
        with pytest.raises(ValueError):
            FlagRateMonitor(expected_rate=0.0)
        with pytest.raises(ValueError):
            FlagRateMonitor(tolerance_factor=1.0)


class TestDriftScheduler:
    def test_autumn_2023_schedule(self):
        scheduler = DriftScheduler()
        plans = scheduler.plan(date(2023, 7, 15), date(2023, 11, 10))
        assert len(plans) >= 4  # Firefox 115-119 anchor five checks
        all_releases = [key for plan in plans for key in plan.releases]
        assert "firefox-119" in all_releases
        assert "chrome-119" in all_releases

    def test_checks_follow_firefox_by_lag(self):
        from datetime import timedelta

        scheduler = DriftScheduler(lag_days=4)
        calendar = default_calendar()
        plans = scheduler.plan(date(2023, 7, 1), date(2023, 8, 15))
        ff115 = calendar.release(Vendor.FIREFOX, 115).released
        assert any(
            p.check_date == ff115 + timedelta(days=4) for p in plans
        )

    def test_releases_not_double_counted(self):
        plans = DriftScheduler().plan(date(2023, 7, 15), date(2023, 11, 10))
        seen = [key for plan in plans for key in plan.releases]
        assert len(seen) == len(set(seen))

    def test_next_check(self):
        plan = DriftScheduler().next_check(date(2023, 9, 1))
        assert plan is not None
        assert plan.check_date > date(2023, 9, 1)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            DriftScheduler().plan(date(2023, 9, 1), date(2023, 9, 1))
