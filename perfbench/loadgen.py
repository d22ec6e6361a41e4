"""The benchmark's open-loop load generator.

One asyncio loop in one process sends every request over at most
``connections`` keep-alive HTTP/1.1 connections.  Requests are due on a
schedule fixed in advance (Poisson arrivals from the workload seed);
each is timed from when it was due, so a stalled server, a busy
connection and a late generator all count against latency.  Three waits
are kept apart per request:

* ``late``: due time until the generator picked the request up (the
  generator's own lateness; a run where its median on a reported rung
  exceeds ``MAX_LATE_S`` is invalid);
* ``conn_wait``: picked up until a connection was free;
* ``server``: request sent until the last response byte.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field

__all__ = ["Outcome", "Rung", "run_rung", "MAX_LATE_S"]

# Generator lateness above this (median over a reported rung) invalidates
# a run: it would be a sizeable share of the ~70 ms median latency.
MAX_LATE_S = 0.010
# A rung is cut once this many requests are outstanding at the client: at
# least ABORT_BACKLOG_MIN, or ABORT_BACKLOG_S seconds of arrivals.  Such a
# backlog can only grow, and sending the rest would only lengthen the run.
ABORT_BACKLOG_MIN = 16
ABORT_BACKLOG_S = 4.0


@dataclass
class Outcome:
    """What happened to one scheduled request."""

    rid: int
    rate: float
    due: float  # time.perf_counter() clock throughout
    picked: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0  # 0: never sent; -1: transport error
    body: dict = None

    @property
    def latency(self):
        return self.done - self.due


@dataclass
class Rung:
    rate: float
    outcomes: list = field(default_factory=list)
    cut: bool = False  # stopped early: the backlog passed the abort bound
    backlog_at_end: int = 0


async def _exchange(conn, method, path, body=b""):
    reader, writer = conn
    head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
    writer.write(head + body)
    await writer.drain()
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed the connection")
    status = int(status_line.split()[1])
    length = 0
    keep = True
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        name = name.strip().lower()
        if name == "content-length":
            length = int(value.strip())
        elif name == "connection":
            keep = value.strip().lower() != "close"
    payload = await reader.readexactly(length) if length else b""
    return status, payload, keep


async def _rung(host, port, rate, schedule, connections):
    loop = asyncio.get_running_loop()
    abort_backlog = max(ABORT_BACKLOG_MIN, int(ABORT_BACKLOG_S * rate))
    clock = time.perf_counter
    free = asyncio.Queue()
    for _ in range(connections):
        free.put_nowait(await asyncio.open_connection(host, port))
    rung = Rung(rate=rate)
    start = clock() + 0.05
    pending = {}
    outstanding = [0]

    async def _send(out, body):
        conn = await free.get()
        out.sent = clock()
        try:
            out.status, payload, keep = await _exchange(conn, "POST", "/run",
                                                        body)
        except (OSError, ConnectionError, asyncio.IncompleteReadError,
                ValueError, IndexError):
            out.status, keep, payload = -1, False, b""
        out.done = clock()
        outstanding[0] -= 1
        if out.status == 200:
            out.body = json.loads(payload)
        if not keep:
            conn[1].close()
            conn = await asyncio.open_connection(host, port)
        free.put_nowait(conn)

    for rid, offset, body in schedule:
        out = Outcome(rid=rid, rate=rate, due=start + offset)
        rung.outcomes.append(out)
        delay = out.due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        out.picked = clock()
        if outstanding[0] >= abort_backlog:
            rung.cut = True
            break
        outstanding[0] += 1
        pending[loop.create_task(_send(out, body))] = out
    rung.backlog_at_end = outstanding[0]
    if rung.cut:
        # Requests still waiting for a connection are never sent.
        for task, out in pending.items():
            if not out.sent:
                task.cancel()
    results = await asyncio.gather(*pending, return_exceptions=True)
    for result in results:
        if isinstance(result, Exception) and \
                not isinstance(result, asyncio.CancelledError):
            raise result
    while not free.empty():
        free.get_nowait()[1].close()
    rung.outcomes = [o for o in rung.outcomes if o.status != 0]
    return rung


def run_rung(host, port, rate, schedule, connections):
    """Send ``schedule`` (``(rid, offset_s, body_bytes)``) open-loop over
    ``connections`` keep-alive connections.

    A rung whose client-side backlog reaches the abort bound is cut:
    requests due after that point, and those still waiting for a
    connection, are never sent and do not count as attempted.
    """
    return asyncio.run(_rung(host, port, rate, schedule, connections))
