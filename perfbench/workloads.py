"""Seeded request streams for the serving benchmark.

Every workload turns ``--seed`` into the same inputs on every machine:
a training window for the model and, per measured phase, a stream of
:class:`Request` records.  The server only ever sees the bytes built
here.  Phases never share a session id: each phase gets its own
prefix, because the validator's dedup window would otherwise answer a
replayed id with a cheap ``duplicate`` reject instead of a verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from repro.fingerprint.script import MAX_PAYLOAD_BYTES
from repro.service.ingest import MAX_FEATURE_VALUE
from repro.traffic.events import (
    EventStreamConfig,
    build_event_streams,
    interleave_events,
)
from repro.traffic.generator import TrafficConfig, TrafficSimulator

N_CONNECTIONS = 2
TRAIN_SESSIONS = 205_000
# One replay window: about 250 distinct (UA, fingerprint) pairs, so the
# verdict cache and the wire-suffix memo warm up within the warmup phase.
REPLAY_SESSIONS = 30_000
SESSION_ROWS = 20_000
INVALID_SHARE = 0.01
# An intentional duplicate trails its original by this many requests of
# the phase and goes out on the original's connection; the client also
# holds it until the original is answered, so the expected ``duplicate``
# depends on order alone and never on how batches race in the server.
DUPLICATE_LAG = 150
# Sessions never expire and never overflow during a run, so the verdicts
# cannot depend on how the two connections interleave.
SESSION_TTL = 1e12
SESSION_MAX = 2_000_000

INVALID_KINDS = ("malformed", "oversized", "value_range", "duplicate")


@dataclass(frozen=True)
class Request:
    """One planned request.

    ``after`` is the index (within the phase) of a request that must be
    answered before this one is sent, or ``-1``.  ``expect_reject``
    marks deliberately invalid wires.
    """

    conn: int
    path: bytes
    body: bytes
    after: int = -1
    expect_reject: bool = False


def training_dataset(seed: int, sessions: int = TRAIN_SESSIONS):
    """The seeded training window the model is fitted on."""
    return TrafficSimulator(TrafficConfig(seed=seed).scaled(sessions)).generate()


def _suffix(user_agent: str, values: Sequence[int]) -> bytes:
    """Wire bytes after the session id: ``",ua":...,"f":[...]}``."""
    body = json.dumps(
        {"ua": user_agent, "f": [int(v) for v in values]}, separators=(",", ":")
    )
    return b'",' + body[1:].encode("utf-8")


def _wire(session_id: str, suffix: bytes) -> bytes:
    return b'{"sid":"' + session_id.encode("ascii") + suffix


class DistinctFingerprints:
    """A pool of (UA, fingerprint) pairs, none repeated, none a base row.

    Pair ``k`` follows replay row ``k % len(rows)``, so the UA mix is
    the replay mix.  The ``v``-th variant of a given base pair shifts
    feature ``v % F`` by ``1 + v // F``, downwards when upwards would
    leave ``[0, MAX_FEATURE_VALUE]``; a variant that collides with an
    earlier pair (or any base) is skipped, so the output stays
    deterministic and unique.  :meth:`grow` extends the pool; the pairs
    and their wire suffixes never change once made.
    """

    def __init__(self, user_agents: Sequence[str], rows: np.ndarray) -> None:
        self._n_features = rows.shape[1]
        self._base = [(ua, tuple(row)) for ua, row in zip(user_agents, rows.tolist())]
        self._seen = set(self._base)
        self._variant: Dict[Tuple[str, Tuple[int, ...]], int] = {}
        self._heads: Dict[str, bytes] = {}
        self.pairs: List[Tuple[str, Tuple[int, ...]]] = []
        self.suffixes: List[bytes] = []

    def grow(self, size: int) -> None:
        """Make the pool hold at least ``size`` pairs."""
        base, seen, variant = self._base, self._seen, self._variant
        n_features = self._n_features
        for k in range(len(self.pairs), size):
            pair = base[k % len(base)]
            ua, values = pair
            v = variant.get(pair, 0)
            while True:
                feature = v % n_features
                delta = 1 + v // n_features
                v += 1
                value = values[feature] + delta
                if value > MAX_FEATURE_VALUE:
                    value = values[feature] - delta
                if value < 0:
                    continue
                candidate = (ua, values[:feature] + (value,) + values[feature + 1:])
                if candidate not in seen:
                    break
            variant[pair] = v
            seen.add(candidate)
            self.pairs.append(candidate)
            head = self._heads.get(ua)
            if head is None:
                head = self._heads[ua] = _suffix(ua, [])[:-2]
            self.suffixes.append(
                head + ",".join(map(str, candidate[1])).encode() + b"]}")


class CollectWorkload:
    """``POST /collect`` traffic for the ``replay``/``distinct``/``sharded`` runs.

    ``distinct=False`` cycles the replay window: the same few hundred
    coarse fingerprints recur, as in production.  ``distinct=True``
    gives every request its own fingerprint, drawn from one pool that
    is shared across phases so nothing repeats within a run.  The pool
    grows before each phase to cover the phase's whole ``limit``, so no
    fingerprint is made while a phase is being timed.
    """

    path = b"/collect"

    def __init__(self, seed: int, distinct: bool) -> None:
        dataset = TrafficSimulator(
            TrafficConfig(seed=seed + 1_000).scaled(REPLAY_SESSIONS)
        ).generate()
        self.seed = seed
        self.distinct = distinct
        user_agents = [str(ua) for ua in dataset.user_agents]
        self.pool = None
        if distinct:
            self.pool = DistinctFingerprints(user_agents, dataset.features)
            self.suffixes = self.pool.suffixes
        else:
            self.suffixes = [
                _suffix(ua, row)
                for ua, row in zip(user_agents, dataset.features.tolist())
            ]
        self._cursor = 0

    def phase(self, name: str, limit: int) -> Iterator[Request]:
        """Up to ``limit`` requests for one phase, with ~1% invalid wires.

        The pool grows here, before the caller starts its clock; the
        requests themselves are made as the caller pulls them.
        """
        if self.pool is not None:
            self.pool.grow(self._cursor + limit)
        rng = np.random.default_rng([self.seed, sum(name.encode())])
        draws = rng.random(limit)
        kinds = rng.integers(0, len(INVALID_KINDS), size=limit)
        return self._requests(f"s{self.seed}-{name}-", limit, draws, kinds)

    def _requests(self, prefix: str, limit: int, draws: np.ndarray,
                  kinds: np.ndarray) -> Iterator[Request]:
        sent: Dict[int, bytes] = {}
        pending_dups: List[Tuple[int, int]] = []  # (due index, original)
        suffixes = self.suffixes
        for index in range(limit):
            conn = index % N_CONNECTIONS
            if pending_dups and pending_dups[0][0] <= index:
                _, original = pending_dups.pop(0)
                yield Request(
                    original % N_CONNECTIONS,
                    self.path,
                    sent.pop(original),
                    after=original,
                    expect_reject=True,
                )
                continue
            if self.distinct:
                suffix = suffixes[self._cursor]
            else:
                suffix = suffixes[self._cursor % len(suffixes)]
            self._cursor += 1
            wire = _wire(f"{prefix}{index}", suffix)
            if draws[index] >= INVALID_SHARE:
                yield Request(conn, self.path, wire)
                continue
            kind = INVALID_KINDS[kinds[index]]
            if kind == "duplicate":
                # Emit the original now; its copy follows DUPLICATE_LAG
                # requests later.
                sent[index] = wire
                pending_dups.append((index + DUPLICATE_LAG, index))
                yield Request(conn, self.path, wire)
                continue
            yield Request(conn, self.path, invalid_wire(kind, wire), expect_reject=True)


def invalid_wire(kind: str, wire: bytes) -> bytes:
    """A deliberately invalid variant of a valid ``wire``."""
    if kind == "malformed":
        return wire[:-7]
    if kind == "oversized":
        # Over the 1KB wire contract but under the front end's envelope
        # allowance, so the validator (not the HTTP layer) rejects it.
        return wire + b" " * (MAX_PAYLOAD_BYTES + 17 - len(wire))
    if kind == "value_range":
        head = wire.rpartition(b",")[0]
        return head + b"," + str(MAX_FEATURE_VALUE + 1).encode() + b"]}"
    raise ValueError(f"unknown invalid kind {kind!r}")


class SessionWorkload:
    """``POST /event`` streams from ``build_event_streams``.

    Phases walk one interleaved event list in timestamp order, each
    under its own session prefix.  When the list runs out a new lap
    starts with every timestamp shifted past the previous lap, because
    the session tracker ages sessions by the largest event time it has
    seen.  A session is pinned to one connection and each event waits
    for the previous event of its session.
    """

    path = b"/event"

    def __init__(self, seed: int) -> None:
        dataset = TrafficSimulator(
            TrafficConfig(seed=seed + 2_000).scaled(SESSION_ROWS)
        ).generate()
        # The fraud mix of the repository's own session-stream benchmark
        # (benchmarks/bench_session_stream.py): 12 engine swaps per 20k
        # sessions, plus EventStreamConfig's default 4 spoofed updates
        # and 4 hijacks, and its 20% benign multi-event sessions.
        config = EventStreamConfig(seed=seed, engine_swap_sessions=12)
        streams = build_event_streams(dataset, config)
        self.events = interleave_events(streams)
        self.seed = seed
        first = min(e.timestamp for e in self.events)
        last = max(e.timestamp for e in self.events)
        self._t0 = first
        self._span = last - first + 1.0
        self._cursor = 0
        sessions = sorted({e.session_id for e in self.events})
        self._conn = {sid: i % N_CONNECTIONS for i, sid in enumerate(sessions)}

    def phase(self, name: str, limit: int) -> Iterator[Request]:
        events = self.events
        last_of: Dict[str, int] = {}
        for index in range(limit):
            lap, position = divmod(self._cursor, len(events))
            self._cursor += 1
            event = events[position]
            sid = f"s{self.seed}-{name}-{lap}-{event.session_id}"
            body = {
                "sid": sid,
                "ev": event.event_type.value,
                "seq": event.seq,
                "ts": round(event.timestamp - self._t0 + lap * self._span, 3),
                "ua": event.user_agent,
                "f": list(event.values),
            }
            yield Request(
                self._conn[event.session_id],
                self.path,
                json.dumps(body, separators=(",", ":")).encode("utf-8"),
                after=last_of.get(sid, -1),
            )
            last_of[sid] = index


def workload(name: str, seed: int):
    """The request source of one named workload."""
    if name == "replay":
        return CollectWorkload(seed, distinct=False)
    if name in ("distinct", "sharded"):
        return CollectWorkload(seed, distinct=True)
    if name == "sessions":
        return SessionWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")

