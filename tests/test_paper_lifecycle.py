"""The paper's full lifecycle as one integration narrative.

Train on the March-July window, serve live traffic through the service
layer, watch drift through autumn, retrain on the October signal, and
confirm the retrained model absorbs the new releases — the complete
Sections 6.2-7.3 story in a single deterministic run.
"""

from datetime import date

import numpy as np
import pytest

from repro.core.pipeline import BrowserPolygraph
from repro.runtime.fastingest import WireIngest
from repro.service.monitoring import DriftScheduler, FlagRateMonitor
from repro.service.scoring import ScoringService
from repro.traffic.dataset import Dataset
from repro.traffic.generator import TrafficConfig, TrafficSimulator
from repro.traffic.replay import iter_wire_payloads


@pytest.fixture(scope="module")
def autumn_window():
    config = TrafficConfig(
        start=date(2023, 7, 20), end=date(2023, 11, 10), seed=31
    ).scaled(20_000)
    return TrafficSimulator(config).generate()


class TestLifecycle:
    def test_full_story(self, small_dataset, autumn_window, tmp_path):
        # --- 1. offline training (Section 6.4) -----------------------
        polygraph = BrowserPolygraph().fit(small_dataset)
        assert polygraph.accuracy > 0.985

        # --- 2. online serving (Sections 3 + 6.5) --------------------
        service = ScoringService(polygraph, ingest=WireIngest(dedup_window=0))
        monitor = FlagRateMonitor(window=3000, min_observations=1000)
        subset = small_dataset.subset(np.arange(3000))
        for wire in iter_wire_payloads(subset):
            verdict = service.score_wire(wire)
            assert verdict.accepted
            assert verdict.latency_ms < 100.0
            monitor.observe(verdict.flagged)
        assert not monitor.alarm  # flag rate inside the healthy band

        # --- 3. scheduled drift checks (Section 6.6) -----------------
        scheduler = DriftScheduler()
        plans = scheduler.plan(date(2023, 7, 20), date(2023, 11, 10))
        assert plans, "autumn must contain scheduled checks"
        records = polygraph.drift_report(autumn_window)
        assert polygraph.retrain_needed(records)  # the October signal

        # --- 4. retraining response (Section 7.3) --------------------
        extended = Dataset.concatenate([small_dataset, autumn_window])
        polygraph.retrain(extended)
        post = polygraph.drift_report(autumn_window)
        assert not post or not polygraph.retrain_needed(post)
        assert polygraph.cluster_model.expected_cluster("firefox-119") is not None

        # --- 5. persistence round trip -------------------------------
        path = str(tmp_path / "lifecycle-model.json")
        polygraph.save(path)
        reloaded = BrowserPolygraph.load(path)
        fresh = autumn_window.subset(np.arange(500))
        a = polygraph.detect(fresh)
        b = reloaded.detect(fresh)
        assert np.array_equal(a.flagged, b.flagged)

    def test_verdicts_stable_across_service_and_batch(
        self, trained, small_dataset
    ):
        subset = small_dataset.subset(np.arange(400))
        batch = trained.detect(subset)
        service = ScoringService(trained, ingest=WireIngest(dedup_window=0))
        online_flags = [
            service.score_wire(wire).flagged
            for wire in iter_wire_payloads(subset)
        ]
        assert online_flags == batch.flagged.tolist()
