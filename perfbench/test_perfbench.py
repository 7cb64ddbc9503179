"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py

They are not part of the program's test suite (``testpaths`` is
``tests``): they check the harness, not the server.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from argparse import Namespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from client import PhaseResult, closed_loop, open_loop  # noqa: E402
from repro.fingerprint.script import MAX_PAYLOAD_BYTES  # noqa: E402
from repro.service.ingest import MAX_FEATURE_VALUE  # noqa: E402
from workloads import (  # noqa: E402
    CollectWorkload,
    DistinctFingerprints,
    SessionWorkload,
    _suffix,
    _wire,
)


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    from repro.core.pipeline import BrowserPolygraph
    from repro.traffic.generator import TrafficConfig, TrafficSimulator

    dataset = TrafficSimulator(TrafficConfig(seed=3).scaled(8_000)).generate()
    path = str(tmp_path_factory.mktemp("model") / "model.json")
    BrowserPolygraph().fit(dataset).save(path)
    return path


# -- the comparator ---------------------------------------------------------


def _served(expected: dict) -> tuple:
    """A response as the server renders it for ``expected``."""
    document = {k: v for k, v in expected.items() if k != "status"}
    document["latency_ms"] = 0.123
    return expected["status"], json.dumps(document).encode()


def test_comparator_accepts_a_faithful_response_and_catches_tampering(model):
    from reference import Reference, compare

    workload = CollectWorkload(seed=5, distinct=False)
    requests = list(workload.phase("t", 400))
    reference = Reference(model, sessions=False)
    expected = [reference.expected(r.body) for r in requests]
    assert any(e["status"] == 400 for e in expected)  # invalid wires exist
    assert any(e["status"] == 202 for e in expected)
    for document in expected:
        assert compare(document, *_served(document)) is None
    accepted = next(e for e in expected if e["status"] == 202)
    for field, value in (
        ("flagged", not accepted["flagged"]),
        ("risk_factor", 99),
        ("status", 400),
        ("accepted", False),
    ):
        tampered = dict(accepted, **{field: value})
        assert compare(tampered, *_served(accepted)) is not None, field
    rejected = next(e for e in expected if e["status"] == 400)
    tampered = dict(rejected, reject_reason="duplicate"
                    if rejected["reject_reason"] != "duplicate" else "malformed")
    assert compare(tampered, *_served(rejected)) is not None
    assert compare(accepted, 202, b"not json") is not None


def test_comparator_covers_session_fields(model):
    from reference import Reference, compare

    workload = SessionWorkload(seed=5)
    reference = Reference(model, sessions=True)
    document = reference.expected(next(iter(workload.phase("t", 1))).body)
    assert compare(document, *_served(document)) is None
    for field, value in (("session_flagged", True), ("session_risk", 20),
                         ("revision", {"reason": "cluster_flip"})):
        assert compare(dict(document, **{field: value}), *_served(document))


# -- the distinct generator -------------------------------------------------


def test_distinct_pairs_never_repeat_and_stay_inside_the_wire_contract():
    from repro.traffic.generator import TrafficConfig, TrafficSimulator

    dataset = TrafficSimulator(TrafficConfig(seed=9).scaled(3_000)).generate()
    user_agents = [str(ua) for ua in dataset.user_agents]
    rows = dataset.features.copy()
    rows[0, :] = 10_000  # a base at the range edge must shift downwards
    pool = DistinctFingerprints(user_agents, rows)
    pool.grow(7_000)
    pool.grow(20_000)
    pairs, suffixes = pool.pairs, pool.suffixes
    assert len(pairs) == 20_000
    # Growing in steps makes the same pool as growing at once.
    at_once = DistinctFingerprints(user_agents, rows)
    at_once.grow(20_000)
    assert at_once.suffixes == suffixes
    assert len(set(pairs)) == len(pairs)
    base = set(zip(user_agents, map(tuple, rows.tolist())))
    assert not base & set(pairs)
    assert all(0 <= min(v) and max(v) <= MAX_FEATURE_VALUE for _, v in pairs)
    for pair, suffix in zip(pairs[:500], suffixes):
        assert suffix == _suffix(*pair)
    # The longest session id the wire contract admits still fits.
    assert max(len(_wire("s" * 64, s)) for s in suffixes) <= MAX_PAYLOAD_BYTES


def test_distinct_workload_is_seeded_and_unique_across_phases():
    def draw(seed):
        workload = CollectWorkload(seed=seed, distinct=True)
        # A closed loop stops pulling when its time is up: the rest of
        # the phase's requests are never sent, and their fingerprints
        # go to the next phase.
        cut = list(itertools.islice(workload.phase("x", 5_000), 1_000))
        return cut + list(workload.phase("y", 1_000))

    first = draw(4)
    assert [r.body for r in first] == [r.body for r in draw(4)]
    valid = [r.body.split(b'",', 1)[1] for r in first if not r.expect_reject]
    assert len(valid) == len(set(valid))
    assert len(valid) > 1_900


# -- pinning and order --------------------------------------------------------


class _RecordingServer:
    """Answers every request with ``status``, after ``delay`` seconds
    each; records (connection, body) arrivals."""

    def __init__(self, status: bytes = b"202 Accepted", delay: float = 0.0) -> None:
        self.status = status
        self.delay = delay
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen()
        self.port = self.sock.getsockname()[1]
        self.arrivals = []
        self.lock = threading.Lock()
        self.threads = []
        self.accepter = threading.Thread(target=self._accept, daemon=True)
        self.accepter.start()

    def _accept(self) -> None:
        conn_id = 0
        while True:
            try:
                conn, _ = self.sock.accept()
            except OSError:
                return
            thread = threading.Thread(target=self._serve, args=(conn, conn_id), daemon=True)
            thread.start()
            self.threads.append(thread)
            conn_id += 1

    def _serve(self, conn, conn_id) -> None:
        buf = b""
        with conn:
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                buf += chunk
                out = b""
                while b"\r\n\r\n" in buf:
                    head, rest = buf.split(b"\r\n\r\n", 1)
                    length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
                    if len(rest) < length:
                        break
                    with self.lock:
                        self.arrivals.append((conn_id, rest[:length]))
                    buf = rest[length:]
                    if self.delay:
                        time.sleep(self.delay)
                    out += b"HTTP/1.1 %s\r\nContent-Length: 2\r\n\r\n{}" % self.status
                conn.sendall(out)

    def close(self) -> None:
        self.sock.close()


@pytest.mark.parametrize("loop", ["closed", "open"])
def test_pinning_keeps_each_sessions_events_in_order(loop):
    workload = SessionWorkload(seed=6)
    server = _RecordingServer()
    try:
        requests = workload.phase("p", 6_000)
        result = PhaseResult("p")
        if loop == "closed":
            closed_loop(server.port, requests, result, 30.0, 8, 2)
        else:
            open_loop(server.port, requests, result, 2.0, 3_000, 2)
    finally:
        server.close()
    assert result.attempted == 6_000 and result.answered == 6_000
    seen = {}
    for conn_id, body in server.arrivals:
        event = json.loads(body)
        conn_of, last_seq = seen.get(event["sid"], (conn_id, -1))
        assert conn_of == conn_id, "a session moved between connections"
        assert event["seq"] > last_seq, "a session's events arrived out of order"
        seen[event["sid"]] = (conn_id, event["seq"])
    assert any(seq > 0 for _, seq in seen.values())
    assert len({c for c, _ in seen.values()}) == 2
    # An event leaves only once its session's previous event is answered,
    # so a server may score events of one session on any thread.
    for index, request in enumerate(result.requests):
        if request.after >= 0:
            assert result.sent_ns[index] >= result.done_ns[request.after]


def test_session_timestamps_never_go_back_across_phases():
    workload = SessionWorkload(seed=7)
    stamps = []
    for name in ("a", "b"):
        for request in workload.phase(name, len(workload.events)):
            stamps.append(json.loads(request.body)["ts"])
    assert all(b >= a for a, b in zip(stamps, stamps[1:]))


# -- what counts as a verdict, and when a run fails ---------------------------


class _FakeServe:
    """The parts of :class:`server.Server` that ``Bench.run_phases`` uses.

    ``peak_rss_mb`` returns how many requests had arrived, so a test can
    see how much work the RSS reading follows.
    """

    def __init__(self, backend: _RecordingServer) -> None:
        self.backend = backend
        self.port = backend.port

    def cpu_seconds(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        with self.backend.lock:
            return float(len(self.backend.arrivals))


def _bench(workload: str, seconds: float):
    from run import Bench

    args = Namespace(workload=workload, seed=1, seconds=seconds, trace=0, smoke=True)
    return Bench(args, work="")


def test_a_server_that_sheds_load_fails_the_run(model):
    server = _RecordingServer(status=b"503 Service Unavailable")
    try:
        result = closed_loop(server.port, CollectWorkload(seed=5, distinct=False)
                             .phase("c", 400), PhaseResult("c"), 30.0, 8, 2)
    finally:
        server.close()
    assert result.attempted == 400
    # A 503 is no verdict: it adds nothing to throughput, latency or the
    # CPU-per-verdict denominator.
    assert result.answered == 0 and result.throughput() == 0
    assert result.latencies_ms() == []
    result.kind = "closed"
    bench = _bench("replay", 1.0)
    bench.model = model
    children = _live_children()
    bench.check({"c": result})
    assert bench.failed == 400 and bench.mismatch_count == 0
    assert not bench.correct
    # The check's worker processes are all gone when it returns.
    assert _live_children() == children


def _live_children():
    """Pids of this process's live (not zombie) children."""
    out = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().decode("latin-1").rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and fields[1] == str(os.getpid()):
            out.add(int(entry))
    return out


def test_the_work_a_run_does_does_not_depend_on_the_servers_speed():
    """Every phase sends a fixed count, so the peak RSS at the end of a
    run (and the server's state along it) follows a fixed amount of
    work, not throughput."""
    from run import phase_plan

    arrived = {}
    wall = {}
    for delay in (0.0, 0.001):
        bench = _bench("sessions", 1.0)
        plan = phase_plan(1.0, bench.config)[:4]
        assert [p.kind for p in plan] == ["warmup", "low", "high", "closed"]
        backend = _RecordingServer(delay=delay)
        server = _FakeServe(backend)
        try:
            results = bench.run_phases(server, SessionWorkload(seed=2), plan)
            arrived[delay] = server.peak_rss_mb()
        finally:
            backend.close()
        assert bench.mismatch_count == 0, bench.mismatches
        wall[delay] = results["closed1"].wall_s
    fixed = sum(p.requests or int(p.rate * p.seconds) for p in plan)
    assert arrived[0.0] == arrived[0.001] == fixed
    assert wall[0.001] > 2 * wall[0.0]  # the closed loop did run slower


def test_a_closed_phase_that_cannot_finish_in_time_fails_the_run():
    from run import CLOSED_SLACK, Phase

    bench = _bench("replay", 1.0)
    backend = _RecordingServer(delay=0.02)  # 100 rps over two connections
    phase = Phase("closed", 1, 0.3 / CLOSED_SLACK, requests=200)
    try:
        bench.run_phases(_FakeServe(backend), CollectWorkload(seed=5, distinct=False),
                         [phase])
    finally:
        backend.close()
    assert bench.mismatch_count == 1 and "not sent" in bench.mismatches[0]
    assert not bench.correct


# -- end to end ---------------------------------------------------------------


def _run(args, cwd=ROOT):
    """Run the benchmark in a session of its own.  ``.survivors`` lists
    the processes it left alive, looked up the moment it exited (output
    goes to files, so no pipe waits for a leftover holding it open)."""
    with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
        proc = subprocess.Popen(
            [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
            cwd=cwd, stdout=stdout, stderr=stderr, start_new_session=True,
        )
        try:
            proc.wait(timeout=300)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        survivors = _survivors(proc.pid)
        stdout.seek(0)
        stderr.seek(0)
        out = subprocess.CompletedProcess(proc.args, proc.returncode,
                                          stdout.read().decode(), stderr.read().decode())
    out.survivors = survivors
    return out


def _survivors(pid):
    """Live processes a finished run left: members of its session (the
    check workers, any helper) or anything whose argv names its scratch
    directory (``serve``, shard children)."""
    left = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().decode("latin-1").rsplit(")", 1)[1].split()
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                argv = handle.read().decode("latin-1")
        except OSError:
            continue
        if fields[0] != "Z" and (fields[3] == str(pid) or f"-{pid}/" in argv):
            left.append(argv.replace("\0", " "))
    return left


@pytest.mark.parametrize("workload", ["replay", "distinct", "sessions", "sharded"])
def test_smoke_run_is_correct(workload):
    out = _run(["--workload", workload, "--seed", "3", "--seconds", "1.5",
                "--trace", "0", "--smoke"])
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert out.survivors == []
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_per_layer_metric():
    out = _run(["--workload", "sharded", "--seed", "3", "--seconds", "1.5",
                "--trace", "1", "--smoke"])
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["cluster.transport.zero_copy_rows"]["value"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(["--workload", "replay", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=str(tmp_path))
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
