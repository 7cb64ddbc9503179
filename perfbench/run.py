"""Client-side serving benchmark for ``browser-polygraph serve``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 10 --trace 0

One run trains a model on the seeded 205k-session window, starts
``serve`` as a child process with the workload's fixed flags, drives it
over loopback HTTP from this process (two keep-alive connections,
HTTP/1.1 pipelining), checks every response against an in-process
reference, and prints a report followed by one JSON line.  ``--trace 1``
runs the same traffic against a server with layer spans installed and
prints the per-layer metrics instead.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import collections
import glob
import json
import os
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Fixed per workload; later changes to the program are measured against
# these exact flags, rates and counts.  ``closed_rps`` is about the
# closed-loop throughput the parent commit reached on a 2-CPU machine;
# a closed-loop phase sends ``closed_rps`` times its share of
# ``--seconds`` requests, a fixed count.  ``high_rps`` is about 60% of it.
WORKLOADS: Dict[str, dict] = {
    "replay": {
        "flags": ["--runtime", "--ingest", "async"],
        "depth": 64, "low_rps": 1000, "high_rps": 10000, "closed_rps": 20000,
    },
    "distinct": {
        "flags": ["--runtime", "--ingest", "async"],
        "depth": 64, "low_rps": 1000, "high_rps": 5000, "closed_rps": 9000,
    },
    "sessions": {
        "flags": ["--runtime", "--ingest", "async",
                  "--session-ttl", "1e12", "--session-max", "2000000"],
        "depth": 8, "low_rps": 1000, "high_rps": 2400, "closed_rps": 4000,
    },
    "sharded": {
        "flags": ["--shards", "2", "--shard-backend", "process",
                  "--transport", "shm", "--affinity", "fingerprint",
                  "--ingest", "async"],
        "depth": 64, "low_rps": 1000, "high_rps": 6000, "closed_rps": 11000,
    },
}

LATENCY_BUDGET_MS = 100.0  # paper Section 3
CHECK_WORKERS = 2
ROUNDS = 3
LATE_LIMIT_MS = 1.0  # generator lateness (p99) above which a rate is unmet
# A closed-loop phase that has not sent its requests within this many
# times its share of --seconds fails the run.
CLOSED_SLACK = 10

# The end-to-end metrics the JSON line carries with --trace 0.  The
# throughput and latency figures are printed too, but how much CPU a
# shared 2-vCPU machine hands out moves them by more than any usable
# bound, so they travel with the per-layer metrics of --trace 1
# (measured there on the untraced server).
GATED = ("cpu_us_per_verdict", "setup_s", "train_s", "server_rss_mb")
UNBOUNDED = ("throughput_rps", "latency_low_p50_ms", "latency_low_p99_ms",
             "latency_high_p50_ms", "latency_high_p99_ms")


@dataclass
class Phase:
    kind: str  # "warmup", "closed", "low" or "high"
    round: int
    seconds: float
    rate: Optional[float] = None  # None: closed loop
    requests: int = 0  # closed loop: how many to send

    @property
    def name(self) -> str:
        return self.kind if self.kind == "warmup" else f"{self.kind}{self.round}"

    @property
    def closed(self) -> bool:
        return self.rate is None


def phase_plan(seconds: float, workload: dict) -> List[Phase]:
    """A closed-loop warmup, then ROUNDS rounds of low, high and closed.

    Each figure but CPU per verdict is the median of its per-round
    values, so a stall of the machine that hits one round does not move
    the result.  Shares of ``seconds``: warmup 10%, then per round low
    8%, high 6% and closed 16%.  Every phase sends a fixed number of
    requests, so the server's state along the run (sessions held, cache
    contents, peak RSS) does not depend on how fast it ran.
    """
    def closed(kind: str, index: int, share: float) -> Phase:
        return Phase(kind, index, share * seconds,
                     requests=int(workload["closed_rps"] * share * seconds))

    plan = [closed("warmup", 0, 0.10)]
    for index in range(1, ROUNDS + 1):
        plan += [
            Phase("low", index, 0.08 * seconds, workload["low_rps"]),
            Phase("high", index, 0.06 * seconds, workload["high_rps"]),
            closed("closed", index, 0.16),
        ]
    return plan


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


class Bench:
    """One run of one workload."""

    def __init__(self, args: argparse.Namespace, work: str) -> None:
        self.args = args
        self.work = work
        self.name = args.workload
        self.config = WORKLOADS[self.name]
        self.plan = phase_plan(args.seconds, self.config)
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.report: List[str] = []
        self.failed = 0
        self.attempted = 0
        self.mismatches: List[str] = []
        self.mismatch_count = 0
        self.ml_spans = None
        self.setup_cpu: List[float] = []
        self.setup_wall: List[float] = []
        self.probe_s = 0.0
        self.laps: List[str] = []
        self.lap_at = time.perf_counter()

    # -- set-up ---------------------------------------------------------

    def train(self) -> float:
        """Generate the seeded training window, fit, save; returns fit seconds."""
        from workloads import TRAIN_SESSIONS, training_dataset

        self.dataset = training_dataset(
            self.args.seed, 20_000 if self.args.smoke else TRAIN_SESSIONS)
        if self.args.trace:
            import tracer

            self.ml_spans = tracer.Recorder()
            tracer.install(self.ml_spans, tracer.TRAIN_SPANS)
        fit_s, pipeline = self.fit()
        self.model = os.path.join(self.work, "model.json")
        pipeline.save(self.model)
        return fit_s

    def fit(self) -> tuple:
        from repro.core.pipeline import BrowserPolygraph

        started = time.perf_counter()
        pipeline = BrowserPolygraph().fit(self.dataset)
        return time.perf_counter() - started, pipeline

    def server(self, traced: bool = False, tag: str = "serve"):
        from server import Server

        argv = ["-m", "repro"]
        if traced:
            self.spans_prefix = os.path.join(self.work, "spans")
            argv = [os.path.join(HERE, "traced_serve.py"), self.spans_prefix]
        return Server(ROOT, argv, self.model, self.config["flags"],
                      os.path.join(self.work, f"{tag}.log"), self.env)

    # -- traffic --------------------------------------------------------

    def spawn(self, server) -> None:
        """Start ``server``; one sample of the set-up time."""
        self.setup_wall.append(server.start())
        self.setup_cpu.append(server.setup_cpu_s)

    def probe_setup(self) -> None:
        """One more set-up sample: spawn a server, wait for health, stop."""
        started = time.perf_counter()
        server = self.server(tag="probe")
        try:
            self.spawn(server)
        finally:
            server.stop()
        self.probe_s += time.perf_counter() - started

    def run_phases(self, server, source, plan: List[Phase], prefix: str = "",
                   between_rounds=None):
        """Run ``plan`` against ``server``; ``between_rounds()`` is called
        before each round while the server idles."""
        from client import PhaseResult, closed_loop, open_loop
        from workloads import N_CONNECTIONS

        results = {}
        for phase in plan:
            if between_rounds is not None and phase.kind == "low":
                between_rounds()
            name = prefix + phase.name
            if phase.closed:
                limit = phase.requests
                requests = source.phase(name, limit)
                cpu0 = server.cpu_seconds()
                result = closed_loop(server.port, requests, PhaseResult(name),
                                     phase.seconds * CLOSED_SLACK,
                                     self.config["depth"], N_CONNECTIONS)
                if not result.sent_all:
                    self.mismatch(f"{name}: {limit} requests not sent within "
                                  f"{phase.seconds * CLOSED_SLACK:.1f}s")
            else:
                requests = source.phase(name, int(phase.rate * phase.seconds))
                cpu0 = server.cpu_seconds()
                result = open_loop(server.port, requests, PhaseResult(name),
                                   phase.seconds, phase.rate, N_CONNECTIONS)
            result.server_cpu_s = server.cpu_seconds() - cpu0
            result.kind = phase.kind
            results[phase.name] = result
        return results

    def check(self, results: dict) -> int:
        """Compare every response with the reference, in send order.

        The work is split by session id over CHECK_WORKERS child
        processes (``reference.py``, fed a pickle on stdin), each waited
        for before this returns.  Returns the number of session
        revisions the reference made.
        """
        import pickle
        import subprocess
        import zlib

        parts: List[list] = [[] for _ in range(CHECK_WORKERS)]
        for result in results.values():
            order = sorted(result.attempted_ids(),
                           key=lambda i: (result.sent_ns[i], i))
            for index in order:
                request = result.requests[index]
                sid = request.body[8 : request.body.find(b'"', 8)]
                parts[zlib.crc32(sid) % CHECK_WORKERS].append((
                    f"{result.name}#{index}", request.body,
                    request.expect_reject, result.status[index],
                    result.body[index],
                ))
        env = dict(self.env, PYTHONPATH=os.pathsep.join([SRC, HERE]))
        command = [sys.executable, os.path.join(HERE, "reference.py")]
        workers = []
        try:
            for part in parts:
                worker = subprocess.Popen(command, cwd=ROOT, env=env,
                                          stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE)
                workers.append(worker)
                pickle.dump((self.model, self.name == "sessions", part),
                            worker.stdin, protocol=pickle.HIGHEST_PROTOCOL)
                worker.stdin.close()
            outcomes = []
            for worker in workers:
                output = worker.stdout.read()
                if worker.wait() != 0:
                    raise RuntimeError(f"reference check exited with {worker.returncode}")
                outcomes.append(pickle.loads(output))
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
                worker.wait()
            for worker in workers:
                for pipe in (worker.stdin, worker.stdout):
                    try:
                        pipe.close()
                    except OSError:  # unflushed input to a killed worker
                        pass
        revisions = 0
        for outcome in outcomes:
            self.attempted += outcome["attempted"]
            self.failed += outcome["failed"]
            revisions += outcome["revisions"]
            for message in outcome["messages"]:
                self.mismatch(message)
            self.mismatch_count += outcome["mismatches"] - len(outcome["messages"])
        return revisions

    @property
    def correct(self) -> bool:
        """No response differed from the reference, no gate failed, and
        no request failed (reset, timeout, 5xx)."""
        return self.mismatch_count == 0 and self.failed == 0

    def mismatch(self, message: str) -> None:
        self.mismatch_count += 1
        if len(self.mismatches) < 5:
            self.mismatches.append(message)

    # -- reporting helpers ----------------------------------------------

    def phase_lines(self, results: dict, tag: str = "") -> None:
        from client import is_verdict

        for name, result in results.items():
            lat = result.latencies_ms()
            errors = collections.Counter(
                result.status[i] for i in result.attempted_ids()
                if not is_verdict(result.status[i]))
            line = (
                f"  phase {tag}{name:<8} n={result.attempted:<7} "
                f"errors={sum(errors.values())}{dict(errors) or ''} "
                f"p50={percentile(lat, 50):.3f}ms p99={percentile(lat, 99):.3f}ms "
                f"client_cpu_share={result.cpu_share:.2f} "
                f"srv_cpu_us={result.server_cpu_s / max(result.answered, 1) * 1e6:.1f}"
            )
            if result.closed:
                line += f" rps={result.throughput():.0f}"
            else:
                late = percentile(result.lateness_ms(), 99)
                line += (f" target={result.target_rps:.0f}rps gen_late_p99="
                         f"{late:.3f}ms rate={'met' if late <= LATE_LIMIT_MS else 'UNMET'}")
            self.report.append(line)

    # -- the two kinds of run --------------------------------------------

    def lap(self, label: str) -> None:
        """Wall time of each step of the run, for the report."""
        now = time.perf_counter()
        self.laps.append(f"{label} {now - self.lap_at:.1f}s")
        self.lap_at = now

    def end_to_end(self) -> Dict[str, tuple]:
        # train_s and setup_s are medians of samples spread over the
        # run, so one slow stretch of a shared machine moves them less:
        # 5 fits (before the traffic, before each round, after it) and
        # 7 spawns (before the traffic, before each round, 3 after it).
        fits = [self.train()]
        self.lap("train")
        source = self.workload()
        self.lap("inputs")

        def between_rounds():
            self.probe_setup()
            fits.append(self.fit()[0])

        server = self.server()
        try:
            self.spawn(server)
            before = server.metrics()
            results = self.run_phases(server, source, self.plan,
                                      between_rounds=between_rounds)
            after = server.metrics()
            rss = server.peak_rss_mb()
        finally:
            server.stop()
        self.lap("traffic")
        self.probe_setup()
        fits.append(self.fit()[0])
        self.probe_setup()
        self.gate_sessions(after, before, self.check(results))
        self.probe_setup()
        self.lap("check+fit+spawns")
        self.laps.append(f"(set-up samples {self.probe_s:.1f}s)")
        self.report.append("  samples: train_s " + " ".join(f"{v:.3f}" for v in fits)
                           + "  setup_s " + " ".join(f"{v:.2f}" for v in self.setup_cpu)
                           + "  setup_wall_s "
                           + " ".join(f"{v:.3f}" for v in self.setup_wall))
        self.gate_budget(results)
        self.phase_lines(results)
        metrics = traffic_metrics(results)
        n = len(self.setup_cpu)
        metrics["setup_s"] = (median(self.setup_cpu), "s", n)
        metrics["setup_wall_s"] = (median(self.setup_wall), "s", n)
        metrics["train_s"] = (median(fits), "s", len(fits))
        metrics["server_rss_mb"] = (rss, "MB", 1)
        return split(metrics, GATED)

    def workload(self):
        from workloads import workload

        return workload(self.name, self.args.seed)

    def gate_budget(self, results: dict) -> None:
        """The closed loop is valid only under the paper's 100 ms budget.

        Throughput is the median over rounds, so the median round's p99
        must stay under the budget.
        """
        p99 = median([percentile(r.latencies_ms(), 99)
                      for r in results.values() if r.kind == "closed"])
        if not p99 < LATENCY_BUDGET_MS:
            self.mismatch(f"closed-loop p99 {p99:.1f}ms (median round) exceeds "
                          f"the {LATENCY_BUDGET_MS:.0f}ms budget")

    def gate_sessions(self, after: dict, before: dict, revisions: int) -> None:
        if self.name != "sessions":
            return
        delta = lambda key: after.get(key, 0.0) - before.get(key, 0.0)  # noqa: E731
        evictions = delta('polygraph_session_evictions_total{kind="ttl"}') + delta(
            'polygraph_session_evictions_total{kind="capacity"}')
        if evictions:
            self.mismatch(f"{evictions:.0f} session evictions (must be 0)")
        served = delta("polygraph_session_revisions_total")
        if served != revisions:
            self.mismatch(f"server made {served:.0f} revisions, reference {revisions}")

    def traced(self) -> Dict[str, tuple]:
        """A plain server runs the whole plan (end-to-end latencies and
        the ``/metrics`` counters); then a traced server runs the warmup
        and the closed-loop rounds (spans, and the tracing overhead)."""
        import layers
        import tracer

        self.train()
        self.lap("train")
        source = self.workload()
        self.lap("inputs")
        plain = self.server(tag="plain")
        try:
            plain.start()
            before = plain.metrics()
            untraced = self.run_phases(plain, source, self.plan, prefix="u")
            after = plain.metrics()
        finally:
            plain.stop()
        self.lap("plain")
        server = self.server(traced=True, tag="traced")
        try:
            server.start()
            results = self.run_phases(
                server, source, [p for p in self.plan if p.closed])
        finally:
            server.stop()
        self.lap("traced")
        revisions = self.check(untraced)
        self.check(results)
        self.lap("check")
        self.gate_sessions(after, before, revisions)
        self.gate_budget(untraced)
        self.phase_lines(untraced, tag="untraced ")
        self.phase_lines(results, tag="traced ")
        plain_metrics = traffic_metrics(untraced)
        out, report_only = layers.per_layer(
            workload=self.name,
            arrays=tracer.load_spans(sorted(glob.glob(self.spans_prefix + "*.npy"))),
            ml_spans=tracer.as_array(self.ml_spans),
            traced=results,
            untraced=untraced,
            plain=plain_metrics,
            before=before,
            after=after,
            revisions=revisions,
            model=self.model,
        )
        out.update({name: plain_metrics[name] for name in UNBOUNDED})
        return out, report_only


def median(values: List[float]) -> float:
    return statistics.median(values)


def traffic_metrics(results: dict) -> Dict[str, tuple]:
    """Per-round medians of throughput and latencies; CPU per verdict
    pooled over the closed rounds (all their server CPU over all their
    verdicts), which a host stall that pauses the server does not move."""
    def rounds(kind):
        return [r for r in results.values() if r.kind == kind]

    closed = rounds("closed")
    n_closed = sum(r.answered for r in closed)
    metrics = {
        "throughput_rps": (median([r.throughput() for r in closed]), "1/s", n_closed),
        "cpu_us_per_verdict": (  # a run without verdicts fails anyway
            sum(r.server_cpu_s for r in closed) / max(n_closed, 1) * 1e6,
            "us", n_closed),
    }
    for kind in ("low", "high"):
        phases = rounds(kind)
        n = sum(r.answered for r in phases)
        for q in (50, 99):
            metrics[f"latency_{kind}_p{q}_ms"] = (
                median([percentile(r.latencies_ms(), q) for r in phases]), "ms", n)
    return metrics


def split(metrics: Dict[str, tuple], names) -> tuple:
    """``(metrics named in names, the rest)``, for the JSON and the report."""
    return (
        {k: v for k, v in metrics.items() if k in names},
        {k: v for k, v in metrics.items() if k not in names},
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="train on 20k sessions instead of 205k (self-tests)")
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so every server and check worker
    # this run started is stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    bench = Bench(args, work)
    extra: Dict[str, tuple] = {}
    try:
        metrics, extra = bench.traced() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    correct = bench.correct
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  nproc {os.cpu_count()}  flags {' '.join(bench.config['flags'])}")
    for line in bench.report:
        print(line)
    print("  steps: " + ", ".join(bench.laps))
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<42} {value:>14.4f} {unit:<6} n={samples}")
    for name, (value, unit, samples) in extra.items():
        print(f"  {name:<42} {value:>14.4f} {unit:<6} n={samples}  (report only)")
    error_rate = bench.failed / bench.attempted if bench.attempted else 0.0
    print(f"  {'error_rate':<42} {error_rate:>14.6f} share  "
          f"n={bench.attempted} failed={bench.failed}")
    for line in bench.mismatches:
        print(f"FAIL {line}", file=sys.stderr)
    if bench.mismatch_count > len(bench.mismatches):
        print(f"FAIL ... {bench.mismatch_count} in all", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
