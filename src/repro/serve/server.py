"""The control-plane service: a concurrent experiment server.

``repro serve`` turns the batch harness into a long-lived service: clients
POST experiment requests as JSON, the server schedules them onto a worker
pool reusing the parallel engine's task machinery, and three mechanisms
keep throughput scaling with load instead of degrading:

1. **Request coalescing** — a request's identity is its
   :func:`~repro.runtime.task_key` fingerprint (the checkpoint journal's
   own SHA-256 content address).  Identical in-flight requests share one
   execution; completed results persist in a
   :class:`~repro.cache.DesignCache` result store, so warm requests are
   answered from disk without touching a worker.
2. **Cross-request bank batching** — bankable cells from *different*
   concurrent requests are packed into one
   :func:`~repro.experiments.bank_runner.run_cells_banked` group, so the
   service rides the fused :class:`~repro.board.bank.BoardBank` kernel's
   B-sweep: throughput scales with how many requests are in flight, not
   with per-request B.
3. **Backpressure and admission** — a bounded queue rejects overflow with
   a structured 429 (``Retry-After`` included); per-request deadlines
   produce structured 504s that mirror
   :class:`~repro.runtime.CellFailure` semantics; execution exceptions
   are retried under a :class:`~repro.runtime.RetryPolicy` before
   becoming structured 500s.

The HTTP layer is a deliberately small HTTP/1.1 implementation over
``asyncio`` streams — JSON bodies, keep-alive, an NDJSON event stream on
``/watch`` — matching the repo's stdlib-only rule.  Endpoints:

======================  =====================================================
``POST /run``           execute (or coalesce) one experiment request
``GET /healthz``        liveness + uptime
``GET /stats``          service counters (coalesce/batch/queue/store)
``GET /status``         campaign health rollup (``repro status`` body)
``GET /report``         full campaign report (markdown; ``?html=1``)
``GET /metrics``        Prometheus rendering of the telemetry registry
``GET /watch``          live NDJSON event stream (``max_events``/``timeout``)
``POST /shutdown``      graceful stop
======================  =====================================================

Responses are **bit-identical to the CLI**: a served result equals the
``run_workload`` result for the same fingerprint, float for float (JSON
round-trips every float64 exactly; the ``serve-vs-cli`` oracle in ``repro
verify`` enforces this, cold, banked, and warm).
"""

from __future__ import annotations

import asyncio
import json
import pickle
import tempfile
import threading
import time
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from ..cache import MISS, DesignCache
from ..experiments.metrics import RunMetrics
from ..obs.events import CampaignEvents, events_path
from ..runtime.executor import CellFailure, RetryPolicy
from .protocol import (
    ProtocolError,
    ServeRequest,
    failure_to_wire,
    parse_request,
    result_to_wire,
)

__all__ = ["ExperimentServer", "ServerHandle", "serve_background"]

_SERVER_NAME = "repro-serve"

# Largest request body the server reads.  A larger declared
# Content-Length is refused with 413 before any of the body is read.
MAX_BODY_BYTES = 1 << 20


class _Work:
    """One admitted request waiting for (or sharing) an execution."""

    __slots__ = ("request", "key", "future", "enqueued_at", "deadline")

    def __init__(self, request, key, future, deadline=None):
        self.request = request
        self.key = key
        self.future = future  # resolves to (http_status, wire_dict)
        self.enqueued_at = time.perf_counter()
        self.deadline = deadline  # absolute loop.time(), or None


class ExperimentServer:
    """Asyncio experiment server over one :class:`DesignContext`.

    ``jobs=0`` (the default) executes cells on a single in-process worker
    thread against the live context — no pickling, instant startup, ideal
    for tests and the differential oracle.  ``jobs >= 1`` fans cells over
    a ``ProcessPoolExecutor`` primed exactly like the parallel engine's
    (same initializer, same worker task function), so results are
    bit-identical in every mode.
    """

    def __init__(self, context, host="127.0.0.1", port=0, jobs=0, batch=1,
                 batch_wait=0.02, queue_limit=64, cache=None, serve_dir=None,
                 default_deadline=None, retry=None, telemetry=None):
        self.context = context
        self.host = host
        self.port = int(port)
        self.jobs = max(int(jobs), 0)
        self.batch = max(int(batch), 1)
        self.batch_wait = float(batch_wait)
        self.queue_limit = max(int(queue_limit), 1)
        self.default_deadline = default_deadline
        self.retry = retry if retry is not None else RetryPolicy(max_retries=0)
        self.telemetry = telemetry
        self.store = DesignCache.resolve(cache)
        self.serve_dir = Path(serve_dir) if serve_dir is not None else \
            Path(tempfile.mkdtemp(prefix="repro-serve-"))
        self.stats = {
            "requests_total": 0,
            "bad_requests": 0,
            "executed": 0,
            "coalesced": 0,
            "cached": 0,
            "rejected": 0,
            "deadline_timeouts": 0,
            "failures": 0,
            "retries": 0,
            "batches": 0,
            "bank_batches": 0,
            "banked_cells": 0,
            "solo_cells": 0,
        }
        self._counters = None
        if telemetry is not None:
            reg = telemetry.registry
            self._counters = reg.counter(
                "serve_requests_total",
                "control-plane service requests by outcome",
                labels=("outcome",))
        self._inflight = {}  # fingerprint -> asyncio.Future
        self._outstanding = 0  # admitted work not yet resolved
        self._queue = None  # asyncio.Queue of _Work, created on start()
        self._watchers = []  # list[asyncio.Queue] of /watch subscribers
        self._writers = set()  # open connection writers (for shutdown)
        self._events = CampaignEvents(events_path(self.serve_dir))
        self._batcher = None
        self._dispatches = set()
        self._pool = None
        self._pool_runner = None
        self._server = None
        self._loop = None
        self._stopping = None
        self._started_at = time.time()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self):
        """Bind the listener, start the worker pool and the batcher."""
        self._loop = asyncio.get_running_loop()
        self._stopping = asyncio.Event()
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._init_pool()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._batcher = asyncio.create_task(self._batch_loop())
        self._started_at = time.time()
        self._emit("campaign.begin", cells=0, resumed=0, jobs=self.jobs,
                   mode="serve", batch=self.batch, port=self.port)
        return self

    def _init_pool(self):
        from ..experiments import engine

        if self.jobs <= 0:
            # In-process worker thread: executes against the live context.
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve-worker")
            context = self.context

            def _run(task):
                return engine.execute_task(context, task)

            self._pool_runner = _run
        else:
            from concurrent.futures import ProcessPoolExecutor

            from ..experiments.schemes import prime_designs

            # Prime every design before pickling, exactly like the engine's
            # plain pool path, so workers never re-synthesize and stay
            # bit-identical to the parent.
            prime_designs(self.context, None)
            blob = pickle.dumps(self.context,
                                protocol=pickle.HIGHEST_PROTOCOL)
            tel_dir = None
            if self.telemetry is not None and \
                    self.telemetry.out_dir is not None:
                tel_dir = str(self.telemetry.out_dir)
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=engine._init_worker,
                initargs=(blob, tel_dir),
            )
            self._pool_runner = engine._run_cell

    @property
    def url(self):
        return f"http://{self.host}:{self.port}"

    def request_stop(self):
        """Signal a graceful stop (thread-safe only via call_soon)."""
        if self._stopping is not None:
            self._stopping.set()

    async def wait_stopped(self):
        await self._stopping.wait()

    async def stop(self):
        """Stop accepting, drain dispatches, shut the pool down."""
        self._stopping.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Nudge keep-alive handlers off their readline so they finish
        # cleanly before the loop tears down (wait_closed() does not wait
        # for connection handlers until 3.12).
        for writer in list(self._writers):
            try:
                writer.close()
            except OSError:
                pass
        for _ in range(100):
            if not self._writers:
                break
            await asyncio.sleep(0.01)
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
        if self._dispatches:
            await asyncio.gather(*self._dispatches, return_exceptions=True)
        # Timed-out-but-still-queued work gets a terminal answer.
        while self._queue is not None and not self._queue.empty():
            work = self._queue.get_nowait()
            self._finish_timeout(work, reason="server-stopped")
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._emit("campaign.end", cells=self.stats["executed"],
                   failed=self.stats["failures"])
        self._events.close()

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def _emit(self, event, **fields):
        """Append to events.jsonl and fan out to /watch subscribers."""
        self._events.emit(event, **fields)
        if self._watchers:
            record = {"event": event, "t": round(time.time(), 3)}
            record.update(fields)
            for queue in list(self._watchers):
                try:
                    queue.put_nowait(record)
                except asyncio.QueueFull:
                    pass  # slow watcher: drop, never block the service

    def _count(self, outcome, amount=1):
        self.stats[outcome] += amount
        if self._counters is not None:
            self._counters.labels(outcome=outcome).inc(amount)

    # ------------------------------------------------------------------
    # Batcher + dispatch
    # ------------------------------------------------------------------
    async def _batch_loop(self):
        """Pull admitted work; pack compatible bankable cells together.

        Natural dynamic batching: while the pool is busy, requests pile
        up in the queue, so later pulls see full batches.  ``batch_wait``
        additionally holds the first cell of a would-be bank briefly so
        near-simultaneous arrivals pack instead of running solo.
        """
        loop = asyncio.get_running_loop()
        while True:
            work = await self._queue.get()
            group = [work]
            if self.batch > 1 and work.request.bankable:
                hold_until = loop.time() + self.batch_wait
                while len(group) < self.batch:
                    remaining = hold_until - loop.time()
                    if remaining <= 0 and self._queue.empty():
                        break
                    try:
                        nxt = await asyncio.wait_for(
                            self._queue.get(), max(remaining, 0.0))
                    except asyncio.TimeoutError:
                        break
                    if (nxt.request.bankable
                            and nxt.request.bank_group
                            == work.request.bank_group):
                        group.append(nxt)
                    else:
                        # Incompatible cell: runs solo, the bank keeps
                        # collecting (slight reorder, same results).
                        self._spawn_dispatch([nxt])
            self._spawn_dispatch(group)

    def _spawn_dispatch(self, group):
        task = asyncio.get_running_loop().create_task(self._dispatch(group))
        self._dispatches.add(task)
        task.add_done_callback(self._dispatches.discard)

    def _finish_timeout(self, work, reason="deadline"):
        """Resolve a work item as a structured timeout (HTTP 504)."""
        self._count("deadline_timeouts")
        failure = CellFailure(
            index=0, label=work.request.label(), reason="timeout",
            attempts=0, error=f"request {reason} expired before execution",
            key=work.key,
            elapsed=time.perf_counter() - work.enqueued_at)
        self._emit("request.timeout", label=work.request.label(),
                   reason=reason, fingerprint=work.key[:16])
        self._resolve(work.key, work.future, 504, failure_to_wire(failure))

    def _resolve(self, key, future, status, wire):
        self._outstanding = max(self._outstanding - 1, 0)
        self._inflight.pop(key, None)
        if not future.done():
            future.set_result((status, wire))

    async def _dispatch(self, group):
        """Execute one group (a bank pack or a solo task) on the pool."""
        loop = asyncio.get_running_loop()
        # Shed work whose deadline already expired while queued.
        live = []
        for work in group:
            if work.deadline is not None and loop.time() > work.deadline:
                self._finish_timeout(work)
            else:
                live.append(work)
        if not live:
            return
        self._count("batches")
        banked = len(live) > 1
        if banked:
            from ..experiments.engine import _bank_group

            self._count("bank_batches")
            self._count("banked_cells", len(live))
            cells = [(w.request.scheme, w.request.workload, w.request.seed)
                     for w in live]
            max_time, record = live[0].request.bank_group
            task = ("call", (_bank_group, (cells, max_time, record),
                             {"on_error": "collect"}))
            self._emit("batch.dispatched", size=len(live), batch=self.batch,
                       fill=round(len(live) / self.batch, 3))
        else:
            self._count("solo_cells")
            task = live[0].request.task()
        for work in live:
            self._emit("cell.started", label=work.request.label(),
                       fingerprint=work.key[:16])

        results = None
        attempt = 0
        while True:
            try:
                raw = await loop.run_in_executor(
                    self._pool, self._pool_runner, task)
                results = raw if banked else [raw]
                break
            except Exception as exc:  # noqa: BLE001 - worker failure
                if attempt < self.retry.max_retries:
                    self._count("retries")
                    for work in live:
                        self._emit("cell.retried", label=work.request.label(),
                                   reason="exception", attempt=attempt + 1)
                    await asyncio.sleep(self.retry.delay(0, attempt))
                    attempt += 1
                    continue
                results = [CellFailure(
                    index=i, label=w.request.label(), reason="exception",
                    attempts=attempt + 1,
                    error=f"{type(exc).__name__}: {exc}", key=w.key)
                    for i, w in enumerate(live)]
                break

        for work, result in zip(live, results):
            wire = result_to_wire(result)
            if isinstance(result, CellFailure):
                self._count("failures")
                self._emit("cell.failed", label=work.request.label(),
                           reason=result.reason, attempts=result.attempts,
                           error=result.error[:500])
                self._resolve(work.key, work.future, 500, wire)
                continue
            self._count("executed")
            if (self.store is not None and not work.request.no_cache
                    and isinstance(result, RunMetrics)):
                self.store.put(work.key, wire)
            self._emit("cell.completed", label=work.request.label(),
                       fingerprint=work.key[:16])
            self._resolve(work.key, work.future, 200, wire)

    # ------------------------------------------------------------------
    # /run
    # ------------------------------------------------------------------
    async def _handle_run(self, payload):
        loop = asyncio.get_running_loop()
        try:
            request = parse_request(payload)
        except ProtocolError as exc:
            self._count("bad_requests")
            return 400, {"ok": False, "error": "bad-request",
                         "detail": str(exc)}, {}
        t0 = time.perf_counter()
        key = request.fingerprint(self.context)

        def _ok(source, status, wire):
            body = {
                "ok": status == 200,
                "source": source,
                "fingerprint": key,
                "elapsed_s": round(time.perf_counter() - t0, 6),
                "result": wire,
            }
            if status != 200:
                body["error"] = wire.get("reason", "failed") \
                    if isinstance(wire, dict) else "failed"
            return status, body, {}

        # 1. Warm path: the persistent result store.
        if self.store is not None and not request.no_cache:
            wire = self.store.get(key)
            if wire is not MISS:
                self._count("cached")
                self._emit("request.cached", label=request.label(),
                           fingerprint=key[:16])
                return _ok("cache", 200, wire)

        # 2. Coalesce onto an identical in-flight execution.
        future = self._inflight.get(key)
        if future is not None:
            self._count("coalesced")
            self._emit("request.coalesced", label=request.label(),
                       fingerprint=key[:16])
            source = "coalesced"
        else:
            # 3. Admission control: bounded queue, structured overflow.
            deadline = request.deadline_s
            if deadline is None:
                deadline = self.default_deadline
            abs_deadline = (loop.time() + float(deadline)
                            if deadline is not None else None)
            # Admission counts *outstanding* work — admitted but not yet
            # resolved — not just what currently sits in the queue: the
            # batcher pulls eagerly, so queue depth alone would never
            # reflect a saturated pool.  (Coalesced and cached requests
            # never count against the bound; they add no execution.)
            if self._outstanding >= self.queue_limit:
                self._count("rejected")
                self._emit("request.rejected", label=request.label(),
                           outstanding=self._outstanding)
                retry_after = max(self.batch_wait * 4, 0.25)
                return 429, {
                    "ok": False, "error": "queue-full",
                    "outstanding": self._outstanding,
                    "queue_limit": self.queue_limit,
                    "retry_after_s": retry_after,
                }, {"Retry-After": f"{retry_after:.3f}"}
            future = loop.create_future()
            work = _Work(request, key, future, deadline=abs_deadline)
            self._outstanding += 1
            self._queue.put_nowait(work)  # cannot overflow: size <= outstanding
            self._inflight[key] = future
            self._emit("request.received", label=request.label(),
                       fingerprint=key[:16],
                       queue_depth=self._queue.qsize())
            source = "executed"

        # 4. Wait for the shared execution, bounded by this request's
        #    deadline (the execution itself keeps running and still
        #    populates the store for future warm requests).
        timeout = request.deadline_s
        if timeout is None:
            timeout = self.default_deadline
        try:
            if timeout is not None:
                status, wire = await asyncio.wait_for(
                    asyncio.shield(future), float(timeout))
            else:
                status, wire = await asyncio.shield(future)
        except asyncio.TimeoutError:
            self._count("deadline_timeouts")
            self._emit("request.timeout", label=request.label(),
                       reason="deadline", fingerprint=key[:16])
            failure = CellFailure(
                index=0, label=request.label(), reason="timeout", attempts=1,
                error=f"deadline of {timeout}s expired while "
                      f"{'coalesced' if source == 'coalesced' else 'running'}",
                key=key, elapsed=time.perf_counter() - t0)
            return _ok(source, 504, failure_to_wire(failure))
        return _ok(source, status, wire)

    # ------------------------------------------------------------------
    # Introspection endpoints
    # ------------------------------------------------------------------
    def _stats_body(self):
        run_total = (self.stats["executed"] + self.stats["coalesced"]
                     + self.stats["cached"] + self.stats["failures"])
        hits = self.stats["coalesced"] + self.stats["cached"]
        packing = None
        if self.stats["bank_batches"]:
            packing = self.stats["banked_cells"] / (
                self.stats["bank_batches"] * self.batch)
        body = dict(self.stats)
        body.update({
            "uptime_s": round(time.time() - self._started_at, 3),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "outstanding": self._outstanding,
            "queue_limit": self.queue_limit,
            "inflight": len(self._inflight),
            "jobs": self.jobs,
            "batch": self.batch,
            "coalesce_hit_rate": round(hits / run_total, 4) if run_total
            else 0.0,
            "bank_packing_efficiency": round(packing, 4)
            if packing is not None else None,
            "store": None if self.store is None else {
                "root": str(self.store.root),
                "hits": self.store.hits,
                "misses": self.store.misses,
            },
            "watchers": len(self._watchers),
        })
        return body

    def _status_body(self, fmt):
        from ..obs.health import load_health, render_status

        try:
            if fmt == "json":
                health = load_health(self.serve_dir).to_dict()
                health["serve"] = self._stats_body()
                return 200, health, "application/json"
            return 200, render_status(self.serve_dir), "text/plain"
        except FileNotFoundError as exc:
            return 404, {"ok": False, "error": "no-events",
                         "detail": str(exc)}, "application/json"

    def _report_body(self, html):
        from ..obs.report import build_report, to_html

        try:
            markdown = build_report(self.serve_dir,
                                    title=f"repro serve on :{self.port}")
        except FileNotFoundError as exc:
            return 404, {"ok": False, "error": "no-artifacts",
                         "detail": str(exc)}, "application/json"
        if html:
            return 200, to_html(markdown), "text/html"
        return 200, markdown, "text/markdown"

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader, writer):
        self._writers.add(writer)
        try:
            while True:
                request_line = await reader.readline()
                if not request_line or request_line in (b"\r\n", b"\n"):
                    break
                try:
                    method, target, _version = \
                        request_line.decode("latin-1").split(None, 2)
                except ValueError:
                    await self._respond(writer, 400, {"ok": False,
                                        "error": "bad-request-line"})
                    break
                headers = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = line.decode("latin-1").partition(":")
                    headers[name.strip().lower()] = value.strip()
                body = b""
                raw_length = headers.get("content-length", "0")
                if not (raw_length.isascii() and raw_length.isdigit()):
                    self._count("bad_requests")
                    await self._respond(writer, 400, {
                        "ok": False, "error": "bad-content-length",
                        "detail": f"Content-Length {raw_length!r} is not "
                                  "a non-negative integer"},
                        keep_alive=False)
                    break
                length = int(raw_length)
                if length > MAX_BODY_BYTES:
                    self._count("bad_requests")
                    await self._respond(writer, 413, {
                        "ok": False, "error": "body-too-large",
                        "detail": f"Content-Length {length} exceeds "
                                  f"{MAX_BODY_BYTES} bytes",
                        "limit": MAX_BODY_BYTES},
                        keep_alive=False)
                    break
                if length:
                    body = await reader.readexactly(length)
                keep_alive = headers.get("connection", "").lower() != "close"
                done = await self._route(
                    writer, method.upper(), target, body, keep_alive)
                if not keep_alive or done == "close":
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError,
                BrokenPipeError):
            pass
        except asyncio.CancelledError:
            return  # loop teardown: exit quietly, the writer is closed below
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    async def _route(self, writer, method, target, body, keep_alive):
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(split.query).items()}
        self.stats["requests_total"] += 1

        if path == "/run" and method == "POST":
            try:
                payload = json.loads(body.decode("utf-8")) if body else {}
            except (ValueError, UnicodeDecodeError) as exc:
                self._count("bad_requests")
                await self._respond(writer, 400, {
                    "ok": False, "error": "bad-json", "detail": str(exc)},
                    keep_alive=keep_alive)
                return None
            status, out, extra = await self._handle_run(payload)
            await self._respond(writer, status, out, extra_headers=extra,
                                keep_alive=keep_alive)
            return None

        if path == "/healthz":
            await self._respond(writer, 200, {
                "ok": True, "service": _SERVER_NAME,
                "uptime_s": round(time.time() - self._started_at, 3)},
                keep_alive=keep_alive)
            return None

        if path == "/stats":
            await self._respond(writer, 200, self._stats_body(),
                                keep_alive=keep_alive)
            return None

        if path == "/status":
            status, out, ctype = self._status_body(query.get("format"))
            await self._respond(writer, status, out, content_type=ctype,
                                keep_alive=keep_alive)
            return None

        if path == "/report":
            status, out, ctype = self._report_body(html="html" in query)
            await self._respond(writer, status, out, content_type=ctype,
                                keep_alive=keep_alive)
            return None

        if path == "/metrics":
            if self.telemetry is None:
                await self._respond(writer, 404, {
                    "ok": False, "error": "no-telemetry",
                    "detail": "start the server with --telemetry to "
                              "expose /metrics"}, keep_alive=keep_alive)
                return None
            await self._respond(
                writer, 200, self.telemetry.registry.render_prometheus(),
                content_type="text/plain; version=0.0.4",
                keep_alive=keep_alive)
            return None

        if path == "/watch":
            await self._handle_watch(writer, query)
            return "close"

        if path == "/shutdown" and method == "POST":
            await self._respond(writer, 200, {"ok": True, "stopping": True},
                                keep_alive=False)
            self._stopping.set()
            return "close"

        if path == "/":
            await self._respond(writer, 200, {
                "ok": True, "service": _SERVER_NAME,
                "endpoints": ["/run", "/healthz", "/stats", "/status",
                              "/report", "/metrics", "/watch", "/shutdown"],
            }, keep_alive=keep_alive)
            return None

        await self._respond(writer, 404, {
            "ok": False, "error": "not-found", "path": path},
            keep_alive=keep_alive)
        return None

    async def _handle_watch(self, writer, query):
        """Stream service events as NDJSON until a bound is hit.

        The stream ends after ``max_events`` events or ``timeout``
        seconds (default 30), whichever comes first; framing is
        connection-close, so plain ``urlopen(...).read()`` clients work.
        """
        loop = asyncio.get_running_loop()
        try:
            max_events = int(query.get("max_events", 0)) or None
            timeout = float(query.get("timeout", 30.0))
        except ValueError:
            await self._respond(writer, 400, {
                "ok": False, "error": "bad-query"}, keep_alive=False)
            return
        queue = asyncio.Queue(maxsize=1024)
        self._watchers.append(queue)
        writer.write(b"HTTP/1.1 200 OK\r\n"
                     b"Content-Type: application/x-ndjson\r\n"
                     b"Connection: close\r\n\r\n")
        try:
            await writer.drain()
            end = loop.time() + timeout
            sent = 0
            while max_events is None or sent < max_events:
                remaining = end - loop.time()
                if remaining <= 0 or self._stopping.is_set():
                    break
                try:
                    record = await asyncio.wait_for(
                        queue.get(), min(remaining, 0.25))
                except asyncio.TimeoutError:
                    continue
                writer.write(json.dumps(record).encode("utf-8") + b"\n")
                await writer.drain()
                sent += 1
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            try:
                self._watchers.remove(queue)
            except ValueError:
                pass

    _REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                413: "Content Too Large", 429: "Too Many Requests",
                500: "Internal Server Error", 504: "Gateway Timeout"}

    async def _respond(self, writer, status, body,
                       content_type="application/json", extra_headers=None,
                       keep_alive=True):
        if isinstance(body, (dict, list)):
            payload = json.dumps(body).encode("utf-8")
        elif isinstance(body, str):
            payload = body.encode("utf-8")
        else:
            payload = bytes(body)
        reason = self._REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                f"Content-Type: {content_type}",
                f"Content-Length: {len(payload)}",
                f"Server: {_SERVER_NAME}",
                "Connection: " + ("keep-alive" if keep_alive else "close")]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + payload)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass


# ---------------------------------------------------------------------------
# Background-thread harness (tests, benchmarks, the verify oracle)
# ---------------------------------------------------------------------------
class ServerHandle:
    """A running server on a daemon thread; ``stop()`` joins it."""

    def __init__(self, server, loop, thread):
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def url(self):
        return self.server.url

    @property
    def port(self):
        return self.server.port

    def stop(self, timeout=10.0):
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
            self._thread.join(timeout)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()
        return False


def serve_background(context, timeout=30.0, **kwargs):
    """Start an :class:`ExperimentServer` on a daemon thread.

    Returns a :class:`ServerHandle` once the listener is bound (so
    ``handle.url`` is immediately usable).  The server event loop runs on
    its own thread; ``handle.stop()`` requests a graceful shutdown.
    """
    started = threading.Event()
    holder = {}

    async def _amain():
        server = ExperimentServer(context, **kwargs)
        await server.start()
        holder["server"] = server
        holder["loop"] = asyncio.get_running_loop()
        started.set()
        await server.wait_stopped()
        await server.stop()

    def _runner():
        try:
            asyncio.run(_amain())
        except Exception as exc:  # pragma: no cover - startup failure
            holder["error"] = exc
            started.set()

    thread = threading.Thread(target=_runner, daemon=True,
                              name="repro-serve")
    thread.start()
    if not started.wait(timeout):
        raise RuntimeError("server failed to start within "
                           f"{timeout}s")
    if "error" in holder:
        raise holder["error"]
    return ServerHandle(holder["server"], holder["loop"], thread)
