"""Pipelined asyncio ingest front end for the collection endpoint.

The WSGI path (``wsgiref`` + :class:`~repro.service.api.CollectionApp`)
scores one request per server thread: parse, score, respond, repeat.
That serializes the socket on the model call and caps ingest well below
what the sharded scoring tier can absorb.  This module replaces the
front of that pipeline with a single-threaded asyncio server that keeps
many requests in flight per connection:

* **streaming request parsing** — headers via ``readuntil``, bodies via
  ``readexactly``; nothing is buffered beyond the request being read;
* **batch coalescing** — ``POST /collect`` bodies from *all*
  connections land in one coalescing buffer; a batcher slices it into
  chunks and feeds them to the scoring service's widest interface
  (:func:`~repro.service.scoring.score_wires`) on a small thread pool,
  several batches in flight at once;
* **one ordered event lane** — ``POST /event`` bodies from all
  connections land in a second buffer, scored one batch at a time
  through the session layer's ``observe_many`` on the same pool, so
  events are scored in the order they arrived and a session's
  pipelined events can never race each other;
* **read-side backpressure** — when the number of admitted-but-
  unanswered wires crosses the high watermark the server simply *stops
  reading sockets* (TCP flow control propagates to clients) until the
  backlog drains below the low watermark, instead of accepting work
  only to shed it with 503s.  Pause episodes are counted and exported.

Responses stay ordered per connection: each parsed request enqueues a
future into that connection's response lane, and a per-connection
writer drains the lane in arrival order — so HTTP/1.1 pipelining is
safe even though scoring completes out of order across batches.

``POST /collect`` and ``POST /event`` answers are rendered by the WSGI
app's own :func:`~repro.service.api.collect_response` and
:func:`~repro.service.api.event_response`, with its JSON headers, so
both front ends answer byte for byte alike.  Every other endpoint (and
an ``/event`` the app answers without scoring: session streaming off,
an empty body) is delegated to the existing
:class:`~repro.service.api.CollectionApp` through a minimal in-process
WSGI bridge, so ``/health``, ``/metrics``, ``/cluster`` and the session
read endpoints behave identically under either front end.
``GET /metrics`` responses additionally carry this server's
``polygraph_ingest_*`` counters.
"""

from __future__ import annotations

import asyncio
import io
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, Tuple

from repro.fingerprint.script import MAX_PAYLOAD_BYTES
from repro.service.api import collect_response, event_response, json_headers
from repro.service.scoring import score_wires

__all__ = ["AsyncIngestServer"]

# Mirrors the WSGI app: the body cap IS the wire-contract cap, plus the
# fixed envelope allowance the /event and /check endpoints enjoy.
_MAX_BODY = MAX_PAYLOAD_BYTES + 128

# Hard parse limits: a request line + headers beyond this is hostile.
_MAX_HEAD = 8192


def _render(status: str, headers: List[Tuple[str, str]], body: bytes,
            keep_alive: bool) -> bytes:
    """One HTTP/1.1 response as bytes; Content-Length always explicit."""
    lines = [f"HTTP/1.1 {status}"]
    has_length = False
    for name, value in headers:
        if name.lower() == "content-length":
            has_length = True
        lines.append(f"{name}: {value}")
    if not has_length:
        lines.append(f"Content-Length: {len(body)}")
    lines.append("Connection: " + ("keep-alive" if keep_alive else "close"))
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _render_json(status: str, body: bytes,
                 extra_headers: Iterable[Tuple[str, str]] = ()) -> bytes:
    """A scored answer, with the WSGI app's own JSON headers."""
    return _render(status, json_headers(body, extra_headers), body, True)


def _error(status: str, message: str, keep_alive: bool) -> bytes:
    body = ('{"error": "%s"}' % message).encode("utf-8")
    return _render(status, [("Content-Type", "application/json")], body,
                   keep_alive)


class AsyncIngestServer:
    """Asyncio front end feeding a scoring service in coalesced batches.

    ``service`` is anything speaking ``score_wire`` — the cluster
    router, the micro-batched runtime, or the per-request service; the
    widest batch interface it offers is used.  ``app`` is the WSGI
    :class:`CollectionApp` wrapping the *same* service; its session
    layer scores ``POST /event``, and it answers every endpoint other
    than ``POST /collect`` and ``POST /event`` verbatim.

    The server owns one event-loop thread; ``start()``/``close()``
    manage it directly, while ``serve_forever()``/``shutdown()`` match
    the ``wsgiref`` surface the CLI's signal plumbing expects.
    """

    def __init__(
        self,
        service,
        app: Callable,
        *,
        host: str = "127.0.0.1",
        port: int = 8040,
        batch_max: int = 256,
        linger_ms: float = 0.5,
        max_pending: int = 8192,
        score_threads: int = 4,
    ) -> None:
        if batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if max_pending < batch_max:
            raise ValueError("max_pending must be >= batch_max")
        self.service = service
        self.app = app
        self.host = host
        self.port = port
        self.batch_max = int(batch_max)
        self.linger_s = max(0.0, float(linger_ms)) / 1000.0
        self.max_pending = int(max_pending)
        # Resume reading only once the backlog has properly drained;
        # flapping around a single watermark would pause per-request.
        self.resume_pending = max(1, self.max_pending // 2)
        self._score_threads = max(1, int(score_threads))
        # -- counters (ints: GIL-atomic, read from any thread) --
        self.requests_total = 0
        self.collect_total = 0
        self.batches_total = 0
        self.batch_rows_total = 0
        self.event_batches_total = 0
        self.event_rows_total = 0
        self.backpressure_pauses = 0
        self.open_connections = 0
        # -- lifecycle --
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: Optional[BaseException] = None
        # -- loop-thread state (created in _main) --
        self._pending = 0
        self._buffer: List[Tuple[bytes, asyncio.Future]] = []
        self._wakeup: Optional[asyncio.Event] = None
        self._events: List[Tuple[bytes, asyncio.Future]] = []
        self._event_wakeup: Optional[asyncio.Event] = None
        self._drained: Optional[asyncio.Event] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> "AsyncIngestServer":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._run_loop, name="polygraph-aingest", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)
        if self._startup_error is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
            raise self._startup_error
        if not self._started.is_set():
            raise RuntimeError("async ingest server failed to start")
        return self

    def close(self) -> None:
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._request_stop)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._stopped.set()

    # wsgiref-compatible surface for the CLI's signal plumbing.
    def serve_forever(self) -> None:
        self.start()
        self._stopped.wait()

    def shutdown(self) -> None:
        self.close()

    def __enter__(self) -> "AsyncIngestServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request_stop(self) -> None:
        if self._stop_async is not None:
            self._stop_async.set()

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced by start()
            if not self._started.is_set():
                self._startup_error = exc
                self._started.set()
        finally:
            self._stopped.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wakeup = asyncio.Event()
        self._event_wakeup = asyncio.Event()
        self._drained = asyncio.Event()
        self._drained.set()
        self._stop_async = asyncio.Event()
        self._executor = ThreadPoolExecutor(
            max_workers=self._score_threads,
            thread_name_prefix="polygraph-score",
        )
        try:
            server = await asyncio.start_server(
                self._handle, self.host, self.port, limit=_MAX_HEAD + _MAX_BODY
            )
        except OSError as exc:
            self._startup_error = exc
            self._started.set()
            self._executor.shutdown(wait=False)
            return
        self.port = server.sockets[0].getsockname()[1]
        batchers = [
            asyncio.ensure_future(self._batch_loop()),
            asyncio.ensure_future(self._event_loop()),
        ]
        self._started.set()
        try:
            await self._stop_async.wait()
        finally:
            server.close()
            await server.wait_closed()
            for batcher in batchers:
                batcher.cancel()
            for buffer in (self._buffer, self._events):
                for _, fut in buffer:
                    if not fut.done():
                        fut.cancel()
                buffer.clear()
            self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # connection handling

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self.open_connections += 1
        lane: asyncio.Queue = asyncio.Queue()
        sender = asyncio.ensure_future(self._write_loop(writer, lane))
        try:
            while True:
                # Read-side backpressure: past the high watermark the
                # socket simply stops being read.  The kernel's receive
                # window fills and the client slows down — no request
                # is parsed only to be shed.
                if self._pending >= self.max_pending:
                    self._drained.clear()
                    self.backpressure_pauses += 1
                    await self._drained.wait()
                request = await self._read_request(reader, lane)
                if request is None:
                    break
                method, path, body, keep_alive = request
                self.requests_total += 1
                if method == "POST" and path == "/collect":
                    if body:
                        self.collect_total += 1
                        await self._enqueue(
                            self._buffer, self._wakeup, body, keep_alive, lane
                        )
                    else:
                        await lane.put((_error(
                            "400 Bad Request", "bad content length",
                            keep_alive), keep_alive))
                elif (method == "POST" and path == "/event" and body
                      and getattr(self.app, "sessions", None) is not None):
                    await self._enqueue(
                        self._events, self._event_wakeup, body, keep_alive,
                        lane,
                    )
                else:
                    fut = self._loop.run_in_executor(
                        self._executor, self._wsgi_call, method, path, body
                    )
                    await lane.put((fut, keep_alive))
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass
        except asyncio.CancelledError:
            # Loop teardown with the connection still open (keep-alive):
            # exit quietly; the transport is closed by the server.
            pass
        finally:
            try:
                lane.put_nowait(None)
                await sender
            except (Exception, asyncio.CancelledError):
                sender.cancel()
            self.open_connections -= 1

    async def _read_request(
        self, reader: asyncio.StreamReader, lane: asyncio.Queue
    ) -> Optional[Tuple[str, str, bytes, bool]]:
        """Parse one request; ``None`` ends the connection cleanly."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if exc.partial:
                raise
            return None  # clean EOF between requests
        if len(head) > _MAX_HEAD:
            await self._refuse(lane, "400 Bad Request", "malformed request")
            return None
        try:
            text = head.decode("latin-1")
            request_line, *header_lines = text.split("\r\n")
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            await self._refuse(lane, "400 Bad Request", "malformed request")
            return None
        headers = {}
        for line in header_lines:
            if ":" in line:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        keep_alive = headers.get("connection", "keep-alive").lower() != "close"
        path = target.split("?", 1)[0]
        body = b""
        raw_length = headers.get("content-length")
        if raw_length is not None:
            try:
                length = int(raw_length)
            except ValueError:
                await self._refuse(lane, "400 Bad Request", "malformed request")
                return None
            if length < 0 or length > _MAX_BODY:
                # The body can't be skipped without reading it; close.
                await self._refuse(lane, "400 Bad Request",
                                   "bad content length")
                return None
            if length:
                body = await reader.readexactly(length)
        elif method == "POST":
            await self._refuse(lane, "411 Length Required",
                               "content-length required")
            return None
        return method, path, body, keep_alive

    @staticmethod
    async def _refuse(lane: asyncio.Queue, status: str, message: str) -> None:
        """Queue a final error response; the connection closes after it."""
        await lane.put((_error(status, message, False), False))

    async def _write_loop(self, writer: asyncio.StreamWriter,
                          lane: asyncio.Queue) -> None:
        """Drain one connection's response lane in arrival order."""
        try:
            while True:
                item = await lane.get()
                if item is None:
                    break
                pending, keep_alive = item
                if isinstance(pending, bytes):
                    raw = pending  # answered without scoring
                else:
                    try:
                        raw = await pending
                    except (asyncio.CancelledError, Exception):
                        raw = _error("500 Internal Server Error",
                                     "scoring failed", keep_alive)
                writer.write(raw)
                await writer.drain()
                if not keep_alive:
                    break
        except ConnectionError:
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # ------------------------------------------------------------------
    # /collect and /event: coalesce across connections, score in batches

    async def _enqueue(self, buffer: List[Tuple[bytes, asyncio.Future]],
                       wakeup: asyncio.Event, body: bytes, keep_alive: bool,
                       lane: asyncio.Queue) -> None:
        self._pending += 1
        fut = self._loop.create_future()
        buffer.append((body, fut))
        wakeup.set()
        await lane.put((fut, keep_alive))

    def _take(self, buffer: List[Tuple[bytes, asyncio.Future]]
              ) -> Tuple[List[bytes], List[asyncio.Future]]:
        """Cut the next batch, up to ``batch_max``, off ``buffer``."""
        batch = buffer[: self.batch_max]
        del buffer[: len(batch)]
        return [wire for wire, _ in batch], [fut for _, fut in batch]

    async def _linger(self, buffer: List[Tuple[bytes, asyncio.Future]]
                      ) -> None:
        if len(buffer) < self.batch_max and self.linger_s > 0.0:
            # A short linger lets concurrent connections pile on so
            # the scoring tier sees wide batches, not single wires.
            await asyncio.sleep(self.linger_s)

    async def _batch_loop(self) -> None:
        """Slice the /collect buffer into batches; several in flight."""
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if not self._buffer:
                continue
            await self._linger(self._buffer)
            while self._buffer:
                wires, futures = self._take(self._buffer)
                self.batches_total += 1
                self.batch_rows_total += len(wires)
                task = self._loop.run_in_executor(
                    self._executor, self._score_batch, wires
                )
                task.add_done_callback(
                    lambda done, futures=futures: self._deliver(done, futures)
                )

    async def _event_loop(self) -> None:
        """Score the /event buffer one batch at a time, in arrival order.

        Session state is order-sensitive (a session's first event
        creates it, later ones revise it), so unlike ``/collect`` only
        one event batch is ever in flight; events arriving meanwhile
        pile up into the next batch.
        """
        while True:
            await self._event_wakeup.wait()
            self._event_wakeup.clear()
            if not self._events:
                continue
            await self._linger(self._events)
            while self._events:
                wires, futures = self._take(self._events)
                self.event_batches_total += 1
                self.event_rows_total += len(wires)
                task = self._loop.run_in_executor(
                    self._executor, self._score_events, wires
                )
                task.add_done_callback(
                    lambda done, futures=futures: self._deliver(done, futures)
                )
                await asyncio.wait((task,))

    def _score_batch(self, wires: List[bytes]) -> List[bytes]:
        """Runs on the scoring thread pool; returns rendered responses."""
        return [
            _render_json(*collect_response(verdict))
            for verdict in score_wires(self.service, wires)
        ]

    def _score_events(self, wires: List[bytes]) -> List[bytes]:
        """Runs on the scoring thread pool; returns rendered responses."""
        return [
            _render_json(*event_response(observation))
            for observation in self.app.sessions.observe_many(wires)
        ]

    def _deliver(self, done, futures: List[asyncio.Future]) -> None:
        """Executor-completion callback; runs on the event loop."""
        try:
            rendered = done.result()
        except Exception:
            rendered = None
        for index, fut in enumerate(futures):
            if fut.done():
                continue
            if rendered is None:
                fut.set_result(_error("500 Internal Server Error",
                                      "scoring failed", True))
            else:
                fut.set_result(rendered[index])
        self._pending -= len(futures)
        if self._pending <= self.resume_pending:
            self._drained.set()

    # ------------------------------------------------------------------
    # WSGI bridge for every other endpoint

    def _wsgi_call(self, method: str, path: str, body: bytes) -> bytes:
        environ = {
            "REQUEST_METHOD": method,
            "PATH_INFO": path,
            "QUERY_STRING": "",
            "CONTENT_LENGTH": str(len(body)),
            "SERVER_PROTOCOL": "HTTP/1.1",
            "wsgi.input": io.BytesIO(body),
        }
        captured: List = []

        def start_response(status, headers, exc_info=None):
            captured[:] = [status, list(headers)]

        chunks = self.app(environ, start_response)
        payload = b"".join(chunks)
        status, headers = captured
        if path == "/metrics" and status.startswith("200"):
            payload += ("\n".join(self.metrics_lines()) + "\n").encode("utf-8")
            headers = [
                (k, v) for k, v in headers if k.lower() != "content-length"
            ]
        return _render(status, headers, payload, True)

    # ------------------------------------------------------------------

    def metrics_lines(self) -> List[str]:
        return [
            "# TYPE polygraph_ingest_requests counter",
            f"polygraph_ingest_requests {self.requests_total}",
            "# TYPE polygraph_ingest_collect_requests counter",
            f"polygraph_ingest_collect_requests {self.collect_total}",
            "# TYPE polygraph_ingest_batches counter",
            f"polygraph_ingest_batches {self.batches_total}",
            "# TYPE polygraph_ingest_batch_rows counter",
            f"polygraph_ingest_batch_rows {self.batch_rows_total}",
            "# TYPE polygraph_ingest_event_batches counter",
            f"polygraph_ingest_event_batches {self.event_batches_total}",
            "# TYPE polygraph_ingest_event_rows counter",
            f"polygraph_ingest_event_rows {self.event_rows_total}",
            "# TYPE polygraph_ingest_backpressure_pauses counter",
            f"polygraph_ingest_backpressure_pauses {self.backpressure_pauses}",
            "# TYPE polygraph_ingest_open_connections gauge",
            f"polygraph_ingest_open_connections {self.open_connections}",
            "# TYPE polygraph_ingest_pending_wires gauge",
            f"polygraph_ingest_pending_wires {self._pending}",
        ]
