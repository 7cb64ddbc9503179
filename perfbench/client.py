"""Pipelined HTTP/1.1 load generator over a few keep-alive connections.

One thread, non-blocking sockets and ``select`` (whose timeout has
microsecond resolution, unlike ``epoll``'s milliseconds).  Every
request is timed on this side of the socket with ``perf_counter_ns``.

* :func:`closed_loop` keeps ``depth`` requests in flight on each
  connection until its requests are all sent (or a time limit passes);
  the server sets the pace.  Latency runs from send to response.
* :func:`open_loop` sends on a fixed-rate schedule whatever the server
  does.  Latency runs from when the request was *due*, so a stall in the
  server or in this generator is charged to every request it delays,
  and how late the generator ran is recorded per request.

Responses on one connection come back in request order, so each
connection matches responses to a FIFO of its in-flight request ids.
A request with ``after >= 0`` is held back until that earlier request
has been answered (session order, intentional duplicates).
"""

from __future__ import annotations

import gc
import select
import socket
import time
from collections import deque
from typing import Iterator, List, Optional

from workloads import Request

FAILED = -1  # connection reset or closed with the request in flight
TIMED_OUT = -2  # no answer within the drain timeout
DRAIN_TIMEOUT_S = 30.0
_RECV = 1 << 20


def is_verdict(status: int) -> bool:
    """A 2xx or 4xx reply carries a verdict (an acceptance or a reject).

    Resets, timeouts and 5xx replies (a 503 overload shed included) are
    failures: they count towards no throughput, latency or CPU figure.
    """
    return 200 <= status < 500


class PhaseResult:
    """Everything one phase measured, indexed by request id."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.requests: List[Request] = []
        self.due_ns: List[int] = []
        self.sent_ns: List[int] = []
        self.done_ns: List[int] = []
        self.status: List[int] = []
        self.body: List[bytes] = []
        self.late_ns: List[int] = []
        self.start_ns = 0
        self.end_ns = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.target_rps: Optional[float] = None  # None: closed loop
        self.kind = ""  # set by the caller: warmup, closed, low or high
        self.server_cpu_s = 0.0  # set by the caller from /proc
        self.sent_all = False  # closed loop: the whole source went out in time

    def add(self, request: Request, due_ns: int) -> int:
        self.requests.append(request)
        self.due_ns.append(due_ns)
        self.sent_ns.append(0)
        self.done_ns.append(0)
        self.status.append(0)
        self.body.append(b"")
        return len(self.requests) - 1

    def attempted_ids(self) -> List[int]:
        """Requests that were scheduled (a closed loop pulls a few extra
        into a connection's queue that are never scheduled)."""
        return [i for i, due in enumerate(self.due_ns) if due]

    @property
    def attempted(self) -> int:
        return sum(1 for due in self.due_ns if due)

    def latencies_ms(self) -> List[float]:
        """Per verdict: response time minus due time."""
        return [
            (done - due) / 1e6
            for done, due, status in zip(self.done_ns, self.due_ns, self.status)
            if is_verdict(status)
        ]

    def lateness_ms(self) -> List[float]:
        """Open loop: how long after its due time the generator got to
        each request (sent, or held for an earlier request)."""
        return [late / 1e6 for late in self.late_ns]

    @property
    def answered(self) -> int:
        """Requests answered with a verdict (see :func:`is_verdict`)."""
        return sum(1 for status in self.status if is_verdict(status))

    def throughput(self) -> float:
        """Verdicts per second inside the closed-loop window."""
        done = sum(
            1 for end, status in zip(self.done_ns, self.status)
            if is_verdict(status) and end <= self.end_ns
        )
        return done / ((self.end_ns - self.start_ns) / 1e9)

    @property
    def closed(self) -> bool:
        return self.target_rps is None

    @property
    def cpu_share(self) -> float:
        return self.cpu_s / self.wall_s if self.wall_s else 0.0


class _Conn:
    __slots__ = ("sock", "buf", "inflight", "out", "queue", "held", "dead")

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.buf = bytearray()
        self.inflight: deque = deque()
        self.out = bytearray()
        self.queue: deque = deque()  # pulled, not yet sent (closed loop)
        self.held: deque = deque()  # waiting for their ``after`` request
        self.dead = False


class _Connections:
    """Shared plumbing of both loops."""

    def __init__(self, port: int, n_conns: int, result: PhaseResult) -> None:
        self.conns = [_Conn(port) for _ in range(n_conns)]
        self.result = result
        self.outstanding = 0  # sent or held, not yet answered

    def close(self) -> None:
        for conn in self.conns:
            conn.sock.close()

    def ready(self, index: int) -> bool:
        after = self.result.requests[index].after
        return after < 0 or self.result.status[after] != 0

    def send(self, conn: _Conn, index: int, now: int) -> None:
        request = self.result.requests[index]
        self.result.sent_ns[index] = now
        if conn.dead:
            self.result.status[index] = FAILED
            self.result.done_ns[index] = now
            self.outstanding -= 1
            return
        conn.out += b"POST %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n" % (
            request.path, len(request.body))
        conn.out += request.body
        conn.inflight.append(index)

    def release_held(self, conn: _Conn, now: int) -> None:
        if not conn.held:
            return
        keep = deque()
        for index in conn.held:
            if self.ready(index):
                self.send(conn, index, now)
            else:
                keep.append(index)
        conn.held = keep

    def flush(self) -> None:
        for conn in self.conns:
            if conn.out and not conn.dead:
                try:
                    sent = conn.sock.send(conn.out)
                except BlockingIOError:
                    continue
                except OSError:
                    self.kill(conn, time.perf_counter_ns())
                    continue
                del conn.out[:sent]

    def kill(self, conn: _Conn, now: int) -> None:
        conn.dead = True
        result = self.result
        for index in conn.inflight:
            result.status[index] = FAILED
            result.done_ns[index] = now
            self.outstanding -= 1
        conn.inflight.clear()
        conn.out.clear()

    def poll(self, timeout: float) -> List[_Conn]:
        """Wait for responses; returns the connections that got some."""
        live = [c for c in self.conns if not c.dead]
        if not live:
            return []
        readers = [c.sock for c in live]
        writers = [c.sock for c in live if c.out]
        readable, writable, _ = select.select(readers, writers, [], max(0.0, timeout))
        if writable:
            self.flush()
        now = time.perf_counter_ns()
        got = []
        for conn in live:
            if conn.sock not in readable:
                continue
            try:
                chunk = conn.sock.recv(_RECV)
            except BlockingIOError:
                continue
            except OSError:
                chunk = b""
            if not chunk:
                self.kill(conn, now)
                continue
            conn.buf += chunk
            if self._parse(conn, now):
                got.append(conn)
        return got

    def _parse(self, conn: _Conn, now: int) -> int:
        buf = conn.buf
        pos = 0
        answered = 0
        result = self.result
        while True:
            head_end = buf.find(b"\r\n\r\n", pos)
            if head_end < 0:
                break
            marker = buf.find(b"Content-Length: ", pos, head_end)
            if marker < 0:
                raise RuntimeError("response without Content-Length")
            line_end = buf.find(b"\r\n", marker)
            end = head_end + 4 + int(buf[marker + 16 : line_end])
            if end > len(buf):
                break
            index = conn.inflight.popleft()
            result.status[index] = int(buf[pos + 9 : pos + 12])
            result.body[index] = bytes(buf[head_end + 4 : end])
            result.done_ns[index] = now
            answered += 1
            pos = end
        if pos:
            del buf[:pos]
        self.outstanding -= answered
        return answered

    def drain(self) -> None:
        """Wait for every outstanding request; time out the rest."""
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while self.outstanding > 0:
            left = deadline - time.perf_counter()
            if left <= 0:
                break
            now = time.perf_counter_ns()
            for conn in self.conns:
                self.release_held(conn, now)
            self.flush()
            self.poll(min(left, 0.05))
        now = time.perf_counter_ns()
        result = self.result
        for index, status in enumerate(result.status):
            if status == 0 and result.due_ns[index]:
                result.status[index] = TIMED_OUT
                result.done_ns[index] = now
                if not result.sent_ns[index]:
                    result.sent_ns[index] = now


def _timed(run):
    """Run a loop with the collector off, recording wall and CPU time."""
    def wrapper(port, source, result, *args, **kwargs):
        gc.collect()
        gc.disable()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            run(port, source, result, *args, **kwargs)
        finally:
            result.wall_s = time.perf_counter() - wall0
            result.cpu_s = time.process_time() - cpu0
            gc.enable()
        return result
    return wrapper


@_timed
def closed_loop(
    port: int,
    source: Iterator[Request],
    result: PhaseResult,
    seconds: float,
    depth: int,
    n_conns: int,
) -> PhaseResult:
    """``depth`` in flight per connection for ``seconds`` or until the
    source runs out (``result.sent_all``), whichever comes first; then
    drain."""
    net = _Connections(port, n_conns, result)
    conns = net.conns
    exhausted = False

    def pull(conn: _Conn) -> Optional[int]:
        nonlocal exhausted
        while not conn.queue:
            if exhausted:
                return None
            request = next(source, None)
            if request is None:
                exhausted = True
                return None
            index = result.add(request, 0)
            conns[request.conn].queue.append(index)
        return conn.queue.popleft()

    def fill(conn: _Conn, now: int) -> None:
        net.release_held(conn, now)
        pulls = 0
        while len(conn.inflight) < depth and pulls < 4 * depth:
            index = pull(conn)
            if index is None:
                return
            pulls += 1
            result.due_ns[index] = now
            net.outstanding += 1
            if net.ready(index):
                net.send(conn, index, now)
            else:
                conn.held.append(index)

    try:
        start = time.perf_counter_ns()
        stop = start + int(seconds * 1e9)
        result.start_ns = start
        for conn in conns:
            fill(conn, start)
        net.flush()
        while True:
            now = time.perf_counter_ns()
            if now >= stop or (exhausted and net.outstanding == 0):
                break
            got = net.poll((stop - now) / 1e9)
            if not got and exhausted and not any(c.inflight for c in conns):
                break
            now = time.perf_counter_ns()
            if now < stop:
                for conn in got:
                    fill(conn, now)
                net.flush()
        result.end_ns = min(time.perf_counter_ns(), stop)
        result.sent_all = exhausted
        net.drain()
    finally:
        net.close()
    return result


@_timed
def open_loop(
    port: int,
    source: Iterator[Request],
    result: PhaseResult,
    seconds: float,
    rate: float,
    n_conns: int,
) -> PhaseResult:
    """Fixed-rate schedule of ``rate * seconds`` requests; then drain."""
    net = _Connections(port, n_conns, result)
    conns = net.conns
    total = int(rate * seconds)
    interval = 1e9 / rate
    result.target_rps = rate
    try:
        start = time.perf_counter_ns()
        result.start_ns = start
        issued = 0
        while issued < total:
            now = time.perf_counter_ns()
            while issued < total:
                due = start + int(issued * interval)
                if due > now:
                    break
                request = next(source, None)
                if request is None:
                    total = issued
                    break
                index = result.add(request, due)
                result.late_ns.append(now - due)
                net.outstanding += 1
                conn = conns[request.conn]
                if net.ready(index):
                    net.send(conn, index, now)
                else:
                    conn.held.append(index)
                issued += 1
            net.flush()
            if issued >= total:
                break
            due = start + int(issued * interval)
            got = net.poll((due - time.perf_counter_ns()) / 1e9)
            if got:
                now = time.perf_counter_ns()
                for conn in got:
                    net.release_held(conn, now)
        result.end_ns = time.perf_counter_ns()
        net.drain()
    finally:
        net.close()
    return result
