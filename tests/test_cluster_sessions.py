"""Shard-affine session lanes behind the cluster router.

Pins the satellite contract that lifted the old ``--session-ttl
requires single-process mode`` restriction: lane placement follows the
ring, scoring still flows through the router (so verdicts match the
single-process session layer), ``GET /sessions`` aggregates across
lanes, and each lane's durable event log lives in its own
``shard-<id>`` subdirectory.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cluster import ClusterConfig, ClusterRouter, ShardSupervisor
from repro.cluster.sessions import ClusterSessionService
from repro.service.api import CollectionApp
from repro.service.scoring import ScoringService
from repro.sessions import SessionScoringService
from repro.traffic.events import (
    EventStreamConfig,
    StreamScenario,
    build_event_streams,
    interleave_events,
)


@pytest.fixture(scope="module")
def streams(small_dataset, trained):
    table = trained.cluster_model.ua_to_cluster

    def donor_ok(victim_key, donor_key):
        victim, donor = table.get(victim_key), table.get(donor_key)
        return victim is not None and donor is not None and victim != donor

    return build_event_streams(
        small_dataset, EventStreamConfig(seed=11), donor_ok=donor_ok
    )


@pytest.fixture()
def cluster(trained):
    supervisor = ShardSupervisor.from_polygraph(
        trained,
        config=ClusterConfig(n_shards=3, heartbeat_interval_s=5.0),
    )
    router = ClusterRouter(supervisor).start()
    yield router
    router.shutdown()


def _observe_all(service, streams, limit=12):
    observations = []
    for stream in streams[:limit]:
        for event in stream.events:
            observations.append(service.observe_wire(event.to_wire()))
    return observations


def _essence(observation):
    d = observation.to_dict()
    return (
        d["session_id"],
        d["accepted"],
        d["event_flagged"],
        d["event_risk"],
        d["session_flagged"],
        d["session_risk"],
        d["revision"],
        d["event_seq"],
        d["session_created"],
    )


class TestLanePlacement:
    def test_lane_follows_the_ring(self, cluster):
        sessions = ClusterSessionService(cluster, ttl_seconds=1e9)
        ring = cluster.supervisor.ring
        for i in range(50):
            sid = f"sess-{i}"
            assert sessions.lane_of(sid) == ring.node_for(sid.encode())

    def test_drained_ring_places_deterministically(self, cluster):
        sessions = ClusterSessionService(cluster, ttl_seconds=1e9)
        ring = cluster.supervisor.ring
        for shard_id in list(cluster.supervisor.shards):
            ring.remove(shard_id)
        lanes = {f"sess-{i}": sessions.lane_of(f"sess-{i}") for i in range(30)}
        # Stable across calls, valid lane ids, and not all one lane.
        assert all(
            sessions.lane_of(sid) == lane for sid, lane in lanes.items()
        )
        assert set(lanes.values()) <= set(cluster.supervisor.shards)
        assert len(set(lanes.values())) > 1

    def test_state_lands_in_the_owning_lane(self, cluster, streams):
        sessions = ClusterSessionService(cluster, ttl_seconds=1e9)
        stream = streams[0]
        sessions.observe_wire(stream.first.to_wire())
        owner = sessions.lane_of(stream.session_id)
        snapshot = sessions.session_snapshot(stream.session_id)
        assert snapshot is not None
        assert snapshot["shard"] == owner
        # The other lanes hold nothing for this session.
        for shard_id, lane in sessions._lanes.items():
            state = lane.session_snapshot(stream.session_id)
            assert (state is None) == (shard_id != owner)

    def test_snapshot_probes_other_lanes_after_ring_movement(
        self, cluster, streams
    ):
        sessions = ClusterSessionService(cluster, ttl_seconds=1e9)
        stream = streams[0]
        sessions.observe_wire(stream.first.to_wire())
        owner = sessions.lane_of(stream.session_id)
        cluster.supervisor.ring.remove(owner)
        try:
            snapshot = sessions.session_snapshot(stream.session_id)
            assert snapshot is not None
            assert snapshot["shard"] == owner
        finally:
            cluster.supervisor.ring.add(owner)


class TestClusterSessionParity:
    def test_observations_match_the_single_process_layer(
        self, cluster, trained, streams
    ):
        single = SessionScoringService(
            ScoringService(trained), ttl_seconds=1e9
        )
        sharded = ClusterSessionService(cluster, ttl_seconds=1e9)
        expected = [_essence(o) for o in _observe_all(single, streams)]
        actual = [_essence(o) for o in _observe_all(sharded, streams)]
        assert actual == expected

    def test_batches_match_the_single_process_layer(
        self, cluster, trained, streams
    ):
        """``observe_many`` splits by lane yet answers in wire order."""
        wires = [e.to_wire() for e in interleave_events(streams[:40])]
        wires.insert(3, b"garbage")
        single = SessionScoringService(
            ScoringService(trained), ttl_seconds=1e9
        )
        sharded = ClusterSessionService(cluster, ttl_seconds=1e9)
        expected = [_essence(single.observe_wire(w)) for w in wires]
        actual = []
        for begin in range(0, len(wires), 16):
            actual += [
                _essence(o)
                for o in sharded.observe_many(wires[begin:begin + 16])
            ]
        assert actual == expected
        assert len({sharded.lane_of(e.session_id)
                    for e in interleave_events(streams[:40])}) > 1

    def test_aggregate_status_sums_the_lanes(self, cluster, streams):
        sessions = ClusterSessionService(cluster, ttl_seconds=1e9)
        _observe_all(sessions, streams)
        status = sessions.status_dict()
        assert status["partitions"] == 3
        assert set(status["shards"]) == set(cluster.supervisor.shards)
        for field in (
            "active_sessions",
            "events_total",
            "revisions_total",
            "escalations_total",
        ):
            assert status[field] == sum(
                lane[field] for lane in status["shards"].values()
            )
        assert status["events_total"] == sum(
            len(s.events) for s in streams[:12]
        )
        # At least two lanes actually saw traffic.
        active = [
            lane
            for lane in status["shards"].values()
            if lane["events_total"] > 0
        ]
        assert len(active) > 1

    def test_metrics_keep_single_process_names_plus_per_shard(
        self, cluster, streams
    ):
        sessions = ClusterSessionService(cluster, ttl_seconds=1e9)
        _observe_all(sessions, streams, limit=4)
        text = "\n".join(sessions.metrics_lines())
        assert "polygraph_session_active " in text
        assert "polygraph_session_events_total " in text
        for shard_id in cluster.supervisor.shards:
            assert (
                f'polygraph_session_active_by_shard{{shard="{shard_id}"}}'
                in text
            )

    def test_one_lane_renders_the_single_process_block(
        self, trained, streams
    ):
        """Same events, same ``polygraph_session_*`` lines, plus one gauge."""
        supervisor = ShardSupervisor.from_polygraph(
            trained, config=ClusterConfig(n_shards=1, heartbeat_interval_s=5.0)
        )
        router = ClusterRouter(supervisor).start()
        try:
            sharded = ClusterSessionService(router, ttl_seconds=1e9)
            single = SessionScoringService(
                ScoringService(trained), ttl_seconds=1e9
            )
            # Streams that change surface mid-session, so revisions and
            # escalations show up in the block.
            swaps = [
                s for s in streams if s.scenario is StreamScenario.ENGINE_SWAP
            ][:4] + streams[:4]
            _observe_all(sharded, swaps)
            _observe_all(single, swaps)
            lines = sharded.metrics_lines()
        finally:
            router.shutdown()
        (shard_id,) = supervisor.shards
        assert single.revisions_total > 0
        assert lines == single.metrics_lines() + [
            "# TYPE polygraph_session_active_by_shard gauge",
            f'polygraph_session_active_by_shard{{shard="{shard_id}"}} '
            f"{single.tracker.stats()['active_sessions']}",
        ]


class TestEventLogSubdirectories:
    def test_each_lane_writes_its_own_subdirectory(
        self, cluster, streams, tmp_path
    ):
        sessions = ClusterSessionService(
            cluster, ttl_seconds=1e9, event_log_root=tmp_path / "logs"
        )
        observed = _observe_all(sessions, streams)
        assert observed
        touched = {
            sessions.lane_of(s.session_id) for s in streams[:12]
        }
        appended = 0
        for shard_id in touched:
            lane_dir = tmp_path / "logs" / f"shard-{shard_id}"
            assert lane_dir.is_dir(), shard_id
            lane_log = sessions._lanes[shard_id].event_log
            assert lane_log is not None
            assert lane_log.root == lane_dir
            appended += lane_log.appended
        assert appended == len(observed)


class TestSessionsEndpointThroughTheCluster:
    def _call(self, app, method, path, body=b""):
        captured = {}

        def start_response(status, headers):
            captured["status"] = status

        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "CONTENT_LENGTH": str(len(body)),
            "wsgi.input": io.BytesIO(body),
        }
        chunks = app(environ, start_response)
        return captured["status"], json.loads(b"".join(chunks))

    def test_event_and_sessions_endpoints(self, cluster, streams):
        app = CollectionApp(
            cluster,
            sessions=ClusterSessionService(cluster, ttl_seconds=1e9),
        )
        stream = next(s for s in streams if len(s.events) >= 2)
        for event in stream.events:
            status, document = self._call(
                app, "POST", "/event", event.to_wire()
            )
            assert status == "202 Accepted", document
            assert document["session_id"] == stream.session_id
        status, document = self._call(
            app, "GET", f"/session/{stream.session_id}"
        )
        assert status == "200 OK"
        assert document["event_count"] == len(stream.events)
        assert document["shard"] in cluster.supervisor.shards
        status, document = self._call(app, "GET", "/sessions")
        assert status == "200 OK"
        assert document["partitions"] == 3
        assert document["events_total"] == len(stream.events)
