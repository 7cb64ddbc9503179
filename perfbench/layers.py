"""Per-layer metrics of a traced run.

Span costs (per call or per row) are taken over the traced server's
whole run, warmup included, so a layer that only runs on cache misses
still reports a cost on the cache-friendly ``replay`` workload.  The
attribution of ``cpu_us_per_verdict`` to layers uses only spans that
started inside the closed-loop rounds, whose server CPU time is known.
Counters are ``GET /metrics`` deltas over the untraced server's run of
the whole plan, and the client's checks come from that run too.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

import tracer

# Spans of the HTTP edge, outside the scoring tier.
EDGE_SPANS = ("aingest.score_batch", "api.call")

Metric = Tuple[float, str, int]


def _delta(after: dict, before: dict, prefix: str) -> float:
    """Summed delta of every series whose name starts with ``prefix``."""
    return sum(
        value - before.get(key, 0.0)
        for key, value in after.items()
        if key == prefix or key.startswith(prefix + "{")
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _us(ns: float, count: float) -> float:
    return ns / 1e3 / count if count else 0.0


def baseline_vps(model: str, wires: List[bytes], passes: int = 3) -> float:
    """Single-process ``ingest_many → detect_vectors → Verdict`` rate.

    The plain batched chain every concurrency layer has to beat, over
    the same wires the closed loop sent, in 256-wire chunks.
    """
    from repro.core.pipeline import BrowserPolygraph
    from repro.runtime.fastingest import WireIngest
    from repro.service.scoring import Verdict

    polygraph = BrowserPolygraph.load(model)
    rates = []
    for _ in range(passes):
        ingest = WireIngest()
        started = time.perf_counter()
        for begin in range(0, len(wires), 256):
            outcomes = ingest.ingest_many(wires[begin : begin + 256])
            admitted = [o for o in outcomes if isinstance(o, tuple)]
            results = polygraph.detect_vectors(
                [o[2] for o in admitted], [o[4] for o in admitted]
            ) if admitted else []
            verdicts = []
            for (session_id, _, _, globs, _), result in zip(admitted, results):
                result = polygraph.escalate_result(result, globs)
                verdicts.append(Verdict(
                    session_id=session_id, accepted=True, flagged=result.flagged,
                    risk_factor=result.risk_factor, reject_reason=None,
                    latency_ms=0.0))
            verdicts += [
                Verdict(session_id="", accepted=False, flagged=False,
                        risk_factor=None, reject_reason=o.value, latency_ms=0.0)
                for o in outcomes if not isinstance(o, tuple)
            ]
        rates.append(len(wires) / (time.perf_counter() - started))
    return statistics.median(rates)


def per_layer(
    *,
    workload: str,
    arrays: List[np.ndarray],
    ml_spans: np.ndarray,
    traced: dict,
    untraced: dict,
    plain: Dict[str, Metric],
    before: dict,
    after: dict,
    revisions: int,
    model: str,
) -> Tuple[Dict[str, Metric], Dict[str, Metric]]:
    """``(json_metrics, report_only_metrics)`` of one traced run.

    ``traced`` holds the traced server's phases (warmup and closed
    rounds), ``untraced`` the phases of the plain server that ran the
    whole plan just before, and ``plain`` its end-to-end metrics.

    Report-only metrics are the costs of layers that only some
    workloads traverse; they read 0 elsewhere.
    """
    closed = [r for r in traced.values() if r.kind == "closed"]
    windows = [(r.start_ns, max(r.done_ns)) for r in closed]
    whole = tracer.aggregate(arrays)
    inside = tracer.aggregate(arrays, windows)
    ml = tracer.aggregate([ml_spans])
    verdicts = sum(r.answered for r in closed)
    cpu_us = sum(r.server_cpu_s for r in closed) * 1e6
    cpu_per_verdict = _ratio(cpu_us, verdicts)
    attributed_us = sum(inside.self_cpu.values()) / 1e3
    tier_us = sum(
        ns for name, ns in inside.self_cpu.items() if name not in EDGE_SPANS
    ) / 1e3
    d = lambda prefix: _delta(after, before, prefix)  # noqa: E731

    hits = d("polygraph_runtime_cache_hits") + d("polygraph_transport_cache_hits_total")
    misses = d("polygraph_runtime_cache_misses") + d("polygraph_transport_cache_misses_total")
    t_hits = d("polygraph_transport_cache_hits_total")
    t_misses = d("polygraph_transport_cache_misses_total")
    routed = [
        value - before.get(key, 0.0)
        for key, value in after.items()
        if key.startswith("polygraph_cluster_routed_total{")
    ]

    def per_row(name: str, table: str = "total_cpu") -> float:
        return _us(whole.get(table, name), whole.get("rows", name))

    def per_call(name: str, table: str = "total_cpu") -> float:
        return _us(whole.get(table, name), whole.get("calls", name))

    def rounds(kind: str) -> list:
        return [r for r in untraced.values() if r.kind == kind]

    def client(kind: str, late: bool) -> float:
        phases = rounds(kind)
        if late:
            return statistics.median(
                float(np.percentile(r.lateness_ms(), 99)) for r in phases)
        return statistics.median(r.cpu_share for r in phases)

    if workload == "sessions":
        from repro.traffic.events import SessionEvent

        wires = [SessionEvent.from_wire(r.requests[i].body).core_wire()
                 for r in closed for i in r.attempted_ids()]
    else:
        wires = [r.requests[i].body for r in closed for i in r.attempted_ids()]
    traced_rps = statistics.median(r.throughput() for r in closed)
    plain_rps = plain["throughput_rps"][0]
    n = verdicts
    rows = whole.get("rows", "core.detect")
    out: Dict[str, Metric] = {
        "aingest.batch_rows_mean": (_ratio(d("polygraph_ingest_batch_rows"), d("polygraph_ingest_batches")), "rows", n),
        "aingest.backpressure_pauses": (d("polygraph_ingest_backpressure_pauses"), "count", n),
        "aingest.edge_us_per_verdict": (cpu_per_verdict - _ratio(tier_us, verdicts), "us", n),
        "fastingest.ingest_us": (per_row("fastingest.ingest"), "us", whole.get("rows", "fastingest.ingest")),
        "fastingest.reject_share": (_ratio(whole.get("rejects", "fastingest.ingest"), whole.get("rows", "fastingest.ingest")), "ratio", whole.get("rows", "fastingest.ingest")),
        "cache.hit_rate": (_ratio(hits, hits + misses), "ratio", int(hits + misses)),
        "cache.get_us": (per_row("cache.get"), "us", whole.get("rows", "cache.get")),
        "cache.put_us": (per_call("cache.put"), "us", whole.get("calls", "cache.put")),
        "cache.evictions": (d("polygraph_runtime_cache_evictions"), "count", n),
        "runtime.queue_depth_peak": (after.get("polygraph_runtime_queue_depth_peak", 0.0), "count", 1),
        "batcher.batch_size_mean": (_ratio(d("polygraph_runtime_batched_requests_total"), d("polygraph_runtime_batches_total")), "rows", n),
        "core.detect_us_per_row": (per_row("core.detect"), "us", rows),
        "core.decide_self_us_per_row": (per_row("core.detect", "self_cpu"), "us", rows),
        "core.predict_us_per_row": (per_row("core.predict"), "us", whole.get("rows", "core.predict")),
        "core.rows_per_call": (_ratio(rows, whole.get("calls", "core.detect")), "rows", whole.get("calls", "core.detect")),
        "core.batched_baseline_vps": (baseline_vps(model, wires), "1/s", len(wires)),
        "sessions.revisions": (d("polygraph_session_revisions_total"), "count", revisions),
        "sessions.evictions": (d("polygraph_session_evictions_total"), "count", n),
        "cluster.transport.zero_copy_rows": (d("polygraph_transport_zero_copy_rows_total"), "count", n),
        "cluster.transport.backpressure_pauses": (d("polygraph_transport_backpressure_pauses_total"), "count", n),
        "cluster.transport.pickle_fallbacks": (d("polygraph_transport_pickle_fallbacks_total"), "count", n),
        "cluster.cache_hit_rate": (_ratio(t_hits, t_hits + t_misses), "ratio", int(t_hits + t_misses)),
        "cluster.shard_imbalance": (_ratio(max(routed), statistics.mean(routed)) if routed else 0.0, "ratio", len(routed)),
        "cluster.failovers": (d("polygraph_cluster_failovers_total"), "count", n),
        "ml.preprocess_fit_s": (ml.get("total_ns", "ml.preprocess_fit") / 1e9, "s", 1),
        "ml.pca_fit_s": (ml.get("total_ns", "ml.pca_fit") / 1e9, "s", 1),
        "ml.kmeans_fit_s": (ml.get("total_ns", "ml.kmeans_fit") / 1e9, "s", 1),
        "setup.model_load_s": (whole.get("total_ns", "setup.model_load") / 1e9 / max(1, whole.get("calls", "setup.model_load")), "s", whole.get("calls", "setup.model_load")),
        "client.closed.cpu_share": (client("closed", False), "ratio", len(rounds("closed"))),
        "client.low.cpu_share": (client("low", False), "ratio", len(rounds("low"))),
        "client.low.gen_late_p99_ms": (client("low", True), "ms", len(rounds("low"))),
        "client.high.cpu_share": (client("high", False), "ratio", len(rounds("high"))),
        "client.high.gen_late_p99_ms": (client("high", True), "ms", len(rounds("high"))),
        "trace.overhead_share": (1.0 - _ratio(traced_rps, plain_rps), "ratio", len(closed)),
        "trace.unattributed_share": (1.0 - _ratio(attributed_us, cpu_us), "ratio", verdicts),
    }
    report_only: Dict[str, Metric] = {
        "trace.cpu_us_per_verdict": (cpu_per_verdict, "us", n),
        "trace.throughput_rps": (traced_rps, "1/s", n),
        "untraced.throughput_rps": plain["throughput_rps"],
        "untraced.cpu_us_per_verdict": plain["cpu_us_per_verdict"],
        "api.call_self_us": (per_call("api.call", "self_cpu"), "us", whole.get("calls", "api.call")),
        "runtime.submit_self_us": (per_call("runtime.submit", "self_cpu"), "us", whole.get("calls", "runtime.submit")),
        "runtime.result_wait_us": (per_call("runtime.result_wait", "total_ns"), "us", whole.get("calls", "runtime.result_wait")),
        "batcher.flush_self_us_per_row": (per_row("batcher.flush", "self_cpu"), "us", whole.get("rows", "batcher.flush")),
        "sessions.observe_self_us": (per_call("sessions.observe", "self_cpu"), "us", whole.get("calls", "sessions.observe")),
        "sessions.tracker_us": (per_call("sessions.tracker"), "us", whole.get("calls", "sessions.tracker")),
        "cluster.router_self_us_per_row": (per_row("cluster.router", "self_cpu"), "us", whole.get("rows", "cluster.router")),
        "cluster.chunk_us_per_row": (per_row("cluster.chunk", "total_ns"), "us", whole.get("rows", "cluster.chunk")),
        "setup.shard_spawn_s": (whole.get("total_ns", "setup.shard_spawn") / 1e9, "s", whole.get("calls", "setup.shard_spawn")),
    }
    return out, report_only
