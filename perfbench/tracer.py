"""Spans around the public entry points of each serving layer.

:func:`install` replaces a fixed list of methods with wrappers that
record one span per call: ``(id, name, start_ns, end_ns, parent_id,
rows, rejects, cpu_ns)``.  ``perf_counter_ns`` is ``CLOCK_MONOTONIC`` on
Linux, so server spans and the client's phase windows share one clock;
``cpu_ns`` is the calling thread's CPU time over the span, which leaves
out time spent waiting for the interpreter lock, a lock or another
process.  The parent is the innermost open span on the same thread; a
span's *self time* (wall or CPU) is its own minus its children's.  Spans stay
in memory and are written once, as a ``.npy`` array per process, when
the server (or a forked shard child) exits.

Nothing here touches the program's files: the wrappers are installed
in the hosting process before ``repro.cli.main(["serve", ...])`` runs.
"""

from __future__ import annotations

import importlib
import itertools
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

# Layer spans: (module, class, method, span name, rows, kind).  ``rows``
# "arg"/"arg2" counts the items of the first/second argument (one row
# per call otherwise); ``kind`` "classmethod" re-wraps a classmethod and
# "reject_one"/"reject_many" count the rejected outcomes of an ingest.
SPANS: Tuple[Tuple[str, str, str, str, Optional[str], str], ...] = (
    ("repro.service.aingest", "AsyncIngestServer", "_score_batch", "aingest.score_batch", "arg", ""),
    ("repro.service.api", "CollectionApp", "__call__", "api.call", None, ""),
    ("repro.sessions.service", "SessionScoringService", "observe_wire", "sessions.observe", None, ""),
    ("repro.sessions.tracker", "SessionTracker", "get_or_create", "sessions.tracker", None, ""),
    ("repro.runtime.fastingest", "WireIngest", "ingest", "fastingest.ingest", None, "reject_one"),
    ("repro.runtime.fastingest", "WireIngest", "ingest_many", "fastingest.ingest", "arg", "reject_many"),
    ("repro.runtime.cache", "VerdictCache", "get", "cache.get", None, ""),
    ("repro.runtime.cache", "VerdictCache", "get_many", "cache.get", "arg", ""),
    ("repro.runtime.cache", "VerdictCache", "put", "cache.put", None, ""),
    ("repro.runtime.service", "RuntimeScoringService", "submit_wire", "runtime.submit", None, ""),
    ("repro.runtime.service", "RuntimeScoringService", "score_wire", "runtime.score_wire", None, ""),
    ("repro.runtime.service", "PendingVerdict", "result", "runtime.result_wait", None, ""),
    ("repro.runtime.batcher", "MicroBatcher", "_run", "batcher.flush", "arg", ""),
    ("repro.core.detection", "FraudDetector", "evaluate_vectors", "core.detect", "arg2", ""),
    ("repro.core.clustering", "ClusterModel", "predict_clusters", "core.predict", "arg", ""),
    ("repro.cluster.router", "ClusterRouter", "score_many", "cluster.router", "arg", ""),
    ("repro.cluster.supervisor", "ProcessShard", "score_chunk", "cluster.chunk", "arg", ""),
    ("repro.core.pipeline", "BrowserPolygraph", "load", "setup.model_load", None, "classmethod"),
    ("repro.cluster.supervisor", "ShardSupervisor", "start", "setup.shard_spawn", None, ""),
)

# Fit steps of training, traced in the benchmark process itself.
TRAIN_SPANS = (
    ("repro.core.preprocessing", "Preprocessor", "fit", "ml.preprocess_fit", None, ""),
    ("repro.ml.pca", "PCA", "fit", "ml.pca_fit", None, ""),
    ("repro.ml.kmeans", "KMeans", "fit", "ml.kmeans_fit", None, ""),
)

NAMES = sorted({spec[3] for spec in SPANS + TRAIN_SPANS})
_NAME_ID = {name: i for i, name in enumerate(NAMES)}


class Recorder:
    """In-memory span log of one process."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, function: Callable, name: str, rows: Optional[str], kind: str) -> Callable:
        name_id = _NAME_ID[name]
        recorder = self
        clock = time.perf_counter_ns
        cpu_clock = time.thread_time_ns

        def traced(*args, **kwargs):
            local = recorder._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            outcome = None
            start = clock()
            cpu_start = cpu_clock()
            try:
                outcome = function(*args, **kwargs)
                return outcome
            finally:
                cpu = cpu_clock() - cpu_start
                end = clock()
                stack.pop()
                n = 1
                if rows == "arg":
                    n = len(args[1])
                elif rows == "arg2":
                    n = len(args[2])
                rejects = 0
                if kind == "reject_one" and outcome is not None:
                    rejects = 0 if outcome[0] is None else 1
                elif kind == "reject_many" and outcome is not None:
                    rejects = sum(1 for item in outcome if not isinstance(item, tuple))
                recorder.spans.append(
                    (span_id, name_id, start, end, parent, n, rejects, cpu)
                )

        traced.__wrapped__ = function
        return traced

    def dump(self, path: str) -> None:
        array = as_array(self)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            np.save(handle, array)
        os.replace(tmp, path)


def install(recorder: Recorder, specs=SPANS) -> None:
    """Replace every entry point in ``specs`` on its class with a wrapper."""
    for module_name, class_name, method, name, rows, kind in specs:
        cls = getattr(importlib.import_module(module_name), class_name)
        if kind == "classmethod":
            function = cls.__dict__[method].__func__
            wrapped = recorder.wrap(function, name, rows, kind)
            setattr(cls, method, classmethod(wrapped))
        else:
            setattr(cls, method, recorder.wrap(cls.__dict__[method], name, rows, kind))


def trace_shard_children(recorder: Recorder, path: str) -> None:
    """Give each forked shard child its own span log, dumped on exit."""
    from repro.cluster import supervisor

    worker = supervisor._shard_worker

    def traced_worker(*args, **kwargs):
        recorder.reset()  # drop the spans inherited through fork
        try:
            return worker(*args, **kwargs)
        finally:
            recorder.dump(f"{path}.{os.getpid()}.npy")

    supervisor._shard_worker = traced_worker


# ----------------------------------------------------------------------
# analysis


class LayerStats:
    """Per span name: calls, rows, rejects, total and self nanoseconds
    of wall time (``*_ns``) and of thread CPU time (``*_cpu``)."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.rows: Dict[str, int] = {}
        self.rejects: Dict[str, int] = {}
        self.total_ns: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.total_cpu: Dict[str, int] = {}
        self.self_cpu: Dict[str, int] = {}

    def get(self, table: str, name: str) -> int:
        return getattr(self, table).get(name, 0)


def load_spans(paths: List[str]) -> List[np.ndarray]:
    return [np.load(path) for path in paths]


def as_array(recorder: Recorder) -> np.ndarray:
    return np.asarray(recorder.spans, dtype=np.int64).reshape(-1, 8)


def aggregate(
    arrays: List[np.ndarray], windows: Optional[List[Tuple[int, int]]] = None
) -> LayerStats:
    """Fold span arrays (one per process) into per-name totals.

    With ``windows=[(start_ns, end_ns), ...]`` only spans that started
    inside one of them count.  Self time is computed within each
    process's log, where span ids are unique.
    """
    stats = LayerStats()
    for array in arrays:
        if not len(array):
            continue
        ids, names, starts, ends, parents, rows, rejects, cpus = array.T
        durations = ends - starts
        child_ns: Dict[int, int] = {}
        child_cpu: Dict[int, int] = {}
        for parent, duration, cpu in zip(
            parents.tolist(), durations.tolist(), cpus.tolist()
        ):
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + duration
                child_cpu[parent] = child_cpu.get(parent, 0) + cpu
        if windows is None:
            keep = np.ones(len(array), dtype=bool)
        else:
            keep = np.zeros(len(array), dtype=bool)
            for low, high in windows:
                keep |= (starts >= low) & (starts <= high)
        for span_id, name_id, duration, n, rej, cpu in zip(
            ids[keep].tolist(), names[keep].tolist(), durations[keep].tolist(),
            rows[keep].tolist(), rejects[keep].tolist(), cpus[keep].tolist(),
        ):
            name = NAMES[name_id]
            for table, value in (
                (stats.calls, 1),
                (stats.rows, n),
                (stats.rejects, rej),
                (stats.total_ns, duration),
                (stats.self_ns, duration - child_ns.get(span_id, 0)),
                (stats.total_cpu, cpu),
                (stats.self_cpu, cpu - child_cpu.get(span_id, 0)),
            ):
                table[name] = table.get(name, 0) + value
    return stats
