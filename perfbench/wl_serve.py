"""The ``serve`` workload: open-loop Poisson load on ``repro serve``.

The server is the SERVING.md quickstart configuration (``python -m repro
serve --batch 16``, one in-process worker) with a warm design cache and
a fresh result store.  One generator process offers open-loop load
(stratified Poisson arrivals, see ``_schedule``) over at most two
keep-alive connections.  Requests are ``max_time=60`` cells drawn
from the six schemes x 14 evaluation programs with fresh seeds; a
quarter are exact repeats of earlier requests, so the result store is
used but does not dominate the median.

Rates follow a fixed ladder.  The 4 and 8 req/s rungs always run (the
first for 1.5 x ``--seconds``, the others for a quarter of it); the
ladder continues while a rung meets the limit -- p90 <= 500 ms, every
request answered 200, no growing backlog -- and stops after the first
rung that misses it.  The end-to-end metrics are the median latency at
4 req/s and the service rate (requests answered, and simulated seconds
delivered, per second that at least one request was at the server, over
the 4 and 8 req/s rungs).  The ledger keeps the rest: the p90 at 4 req/s
(queueing multiplies this host's speed swings in it several times over),
the 8 req/s latencies, and the highest rung that meets the limit
(``serve.max_rps``, which moves a whole rung between runs near the
knee).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from statistics import median

import numpy as np

from common import (
    BENCH_DIR,
    child_env,
    process_peak_mb,
    rss_peaks_mb,
    timed_ready,
)
from ledger import SERVE_COUNTERS, covered_time
from loadgen import MAX_LATE_S, run_rung

__all__ = ["run", "LADDER"]

LADDER = (4, 8, 12, 16)
ALWAYS = (4, 8)  # rungs that always run
# Rung length as a share of ``--seconds``: the 4 req/s rung gives the
# end-to-end latency and runs longest -- 120 requests at the default
# 20 s, so its p90 has 12 beyond it; the other rungs place the knee and
# feed the ledger.
RUNG_SHARE = {4: 1.5, 8: 0.25, 12: 0.25, 16: 0.25}
LIMIT_S = 0.5  # p90 latency limit
REPEAT_EVERY = 4  # one request in four repeats an earlier one
MAX_TIME = 60.0
BATCH = 16
CONNECTIONS = 2
SETUPS = 5  # set-up is cheap here; five launches steady the median
CHECK_SAMPLE = 3  # executed and cache-sourced responses re-run directly


def _requests(seed):
    """An endless, seeded stream of request body dicts.

    Stratified like the arrivals: fresh requests deal the 6 x 14 (scheme,
    program) pairs from a seeded shuffle, each with a fresh cell seed, and
    exactly one request in every four -- at a seeded position -- repeats
    an earlier one.  Every seed so offers the same mix of work.
    """
    from repro.experiments.schemes import SCHEMES
    from repro.workloads import program_names

    pairs = [(scheme, program) for scheme in SCHEMES
             for program in program_names("evaluation")]
    rng = np.random.default_rng([int(seed), 0x5e7e])
    deck = []
    history = []
    while True:
        repeat_at = int(rng.integers(1 if not history else 0, REPEAT_EVERY))
        for k in range(REPEAT_EVERY):
            if k == repeat_at:
                yield history[int(rng.integers(len(history)))]
                continue
            if not deck:
                deck = [pairs[i] for i in rng.permutation(len(pairs))]
            scheme, program = deck.pop()
            body = {"scheme": scheme, "workload": program,
                    "seed": int(rng.integers(1, 2**31 - 1)),
                    "max_time": MAX_TIME}
            history.append(body)
            yield body


def _schedule(rng, rate, duration, bodies, requests):
    """Stratified Poisson arrivals: ``rate`` req/s for ``duration`` s.

    The gaps are the exponential distribution's quantiles at the
    midpoints of ``n = rate * duration`` equal strata, in an order drawn
    from the seed.  Every seed so sees the same multiset of gaps -- the
    same number of near-collisions, which set the p90 at these loads --
    while which requests collide, and the requests themselves, come from
    the seed.  Each request body is also stored in ``requests`` under its
    id.
    """
    n = max(int(round(rate * duration)), 1)
    gaps = -np.log1p(-(np.arange(n) + 0.5) / n) / rate
    offsets = np.cumsum(rng.permutation(gaps))
    out = []
    for offset in offsets:
        rid = len(requests)
        requests[rid] = next(bodies)
        out.append((rid, float(offset), json.dumps(requests[rid]).encode()))
    return out


class Server:
    """A ``repro serve`` child process with its own serve directory."""

    def __init__(self, argv, env):
        from repro.serve.client import ServeClient

        seconds, self.proc, line = timed_ready(
            argv, env, marker="listening on", stream="stderr")
        match = re.search(r"http://([\d.]+):(\d+)", line)
        self.host, self.port = match.group(1), int(match.group(2))
        self.client = ServeClient(f"{self.host}:{self.port}", timeout=30.0)
        t0 = time.perf_counter()
        status, _ = self.client.request("GET", "/healthz")
        if status != 200:
            self.stop()
            raise RuntimeError(f"/healthz answered {status}")
        self.setup_s = seconds + time.perf_counter() - t0

    def stats(self):
        return self.client.stats()

    def peak_rss_mb(self):
        return process_peak_mb(self.proc.pid)

    def stop(self):
        self.client.shutdown()
        self.client.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def _server_argv(serve_dir, trace_dir=None):
    args = ["serve", "--port", "0", "--batch", str(BATCH),
            "--serve-dir", str(serve_dir)]
    if trace_dir is None:
        return [sys.executable, "-m", "repro"] + args
    return [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
            "--trace-dir", str(trace_dir), "--"] + args


def prepare(workspace):
    """Untimed: a warm design cache for the server (and the check).

    Built once per workspace; a traced run reuses the reference run's.
    """
    cache = getattr(workspace, "serve_design_cache", None)
    if cache is not None:
        return cache
    cache = workspace.serve_design_cache = workspace.fresh("design-cache")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_child.py"), "campaign"],
        env=child_env(cache, workspace), stdout=subprocess.DEVNULL,
        timeout=170)
    if proc.returncode != 0:
        raise RuntimeError("warm design cache build failed")
    return cache


def _rung_summary(rung):
    lat = [o.latency for o in rung.outcomes]
    ok = [o for o in rung.outcomes if o.status == 200]
    statuses = {"200": 0, "429": 0, "504": 0, "other": 0, "transport": 0}
    for o in rung.outcomes:
        key = str(o.status) if o.status in (200, 429, 504) else (
            "transport" if o.status == -1 else "other")
        statuses[key] += 1
    p90 = float(np.percentile(lat, 90)) if lat else float("inf")
    growing = rung.cut or rung.backlog_at_end > max(2, rung.rate * LIMIT_S)
    return {
        "rate": rung.rate,
        "requests": len(rung.outcomes),
        "statuses": statuses,
        "p50_ms": median(lat) * 1e3 if lat else float("inf"),
        "p90_ms": p90 * 1e3,
        "cut": rung.cut,
        "backlog_at_end": rung.backlog_at_end,
        "meets_limit": (p90 <= LIMIT_S and len(ok) == len(rung.outcomes)
                        and not growing and bool(lat)),
        "late_ms": median(o.picked - o.due for o in rung.outcomes) * 1e3
        if lat else 0.0,
    }


def _ladder(server, seed, seconds, tracer=None):
    """Run the ladder; returns per-rung summaries and all outcomes."""
    bodies = _requests(seed)
    rng = np.random.default_rng([int(seed), 0xa441])
    rungs = []
    outcomes = []
    requests = {}
    before = server.stats()
    for rate in LADDER:
        rung_seconds = RUNG_SHARE[rate] * seconds
        schedule = _schedule(rng, rate, rung_seconds, bodies, requests)
        rung = run_rung(server.host, server.port, rate, schedule,
                        connections=CONNECTIONS)
        after = server.stats()
        summary = _rung_summary(rung)
        summary["server"] = {k: after[k] - before[k] for k in SERVE_COUNTERS}
        before = after
        rungs.append(summary)
        outcomes.extend(rung.outcomes)
        if tracer is not None:
            for o in rung.outcomes:
                root = tracer.record("serve.request", o.due, o.done,
                                     ident=f"req{o.rid}")
                for name, t0, t1 in (("serve.gen_late", o.due, o.picked),
                                     ("serve.conn_wait", o.picked, o.sent),
                                     ("serve.http", o.sent, o.done)):
                    tracer.record(name, t0, t1, ident=f"req{o.rid}",
                                  parent=root)
        if not summary["meets_limit"] and rate >= ALWAYS[-1]:
            break
    return rungs, outcomes, requests


def _check(outcomes, requests, cache_dir):
    """Re-run sampled responses directly; returns the mismatch count."""
    from repro.cache import DesignCache
    from repro.experiments import run_workload
    from repro.experiments.schemes import DesignContext
    from repro.serve.protocol import metrics_to_wire

    context = DesignContext.create(cache=DesignCache(cache_dir))
    sampled = {"executed": [], "cache": []}
    for o in outcomes:
        if o.body is not None and o.body.get("source") in sampled \
                and len(sampled[o.body["source"]]) < CHECK_SAMPLE:
            sampled[o.body["source"]].append(o)
    mismatches = 0
    checked = 0
    for outs in sampled.values():
        for o in outs:
            request = requests[o.rid]
            direct = run_workload(request["scheme"], request["workload"],
                                  context, seed=request["seed"],
                                  max_time=request["max_time"],
                                  record=False)
            want = json.loads(json.dumps(metrics_to_wire(direct)))
            checked += 1
            if o.body["result"] != want:
                mismatches += 1
                print(f"serve request {o.rid}: response differs from direct "
                      "run_workload", flush=True)
    return mismatches, checked, {k: len(v) for k, v in sampled.items()}


def run(workspace, seed, seconds, setups=SETUPS, tracer=None):
    """Set up the server, run the ladder, check sampled responses.

    The last of ``setups`` launches serves the ladder.  With ``tracer``
    the server runs under the tracing launcher and the generator records
    one span per request; the tracer is off again before the check, so
    the check's direct runs stay out of the ledger.
    """
    cache = prepare(workspace)
    env = child_env(cache, workspace)
    trace_dir = tracer.out_dir if tracer is not None else None
    setup_times = []
    t_setup = time.perf_counter()
    for i in range(setups):
        server = Server(_server_argv(workspace.fresh("serve"), trace_dir),
                        env)
        setup_times.append(server.setup_s)
        if i < setups - 1:
            server.stop()
    setup_window = (t_setup, time.perf_counter())
    t0 = time.perf_counter()
    try:
        rungs, outcomes, requests = _ladder(server, seed, max(seconds, 2.0),
                                            tracer=tracer)
        wall = time.perf_counter() - t0
        # Peak RSS of the two processes that serve and offer the load;
        # the untimed cache build and the check below are not counted.
        server_rss = server.peak_rss_mb()
        generator_rss = rss_peaks_mb()[0]
    finally:
        server.stop()
    if tracer is not None:
        tracer.enabled = False
    mismatches, checked, sampled = _check(outcomes, requests, cache)
    failed_requests = sum(1 for o in outcomes if o.status != 200)
    late = max(r["late_ms"] for r in rungs if r["rate"] in ALWAYS)
    valid = late <= MAX_LATE_S * 1e3
    max_rps = 0
    for r in rungs:
        if not r["meets_limit"]:
            break
        max_rps = r["rate"]
    by_rate = {r["rate"]: r for r in rungs}
    ok = [o for o in outcomes if o.status == 200]
    # Service time of the always-run rungs: what tracing could slow.
    basis = [o.done - o.sent for o in ok if o.rate in ALWAYS]
    executed = [o for o in ok if o.rate in ALWAYS
                and o.body.get("source") == "executed"]
    base, high = by_rate[ALWAYS[0]], by_rate[ALWAYS[-1]]
    busy = covered_time([{"t0": o.sent, "t1": o.done} for o in ok
                         if o.rate in ALWAYS])
    metrics = {
        "setup_s": (median(setup_times), "s"),
        "sim_s_per_s": (
            sum(o.body["result"]["execution_time"] for o in executed) / busy,
            "board-s/s"),
        "p50_ms": (base["p50_ms"], "ms"),
        "ops_per_s": (len(basis) / busy, "op/s"),
        "peak_rss_mb": (server_rss + generator_rss, "MB"),
    }
    return {
        "attempted": len(outcomes),
        "failed": failed_requests + mismatches,
        "valid": valid,
        "metrics": metrics,
        "layer_extra": {"serve.p90_ms_r4": base["p90_ms"],
                        "serve.p50_ms_r8": high["p50_ms"],
                        "serve.p90_ms_r8": high["p90_ms"],
                        "serve.max_rps": float(max_rps)},
        "settings": {"batch": BATCH, "connections": CONNECTIONS,
                     "jobs": 0},
        "wall": wall,
        "windows": {"setup": setup_window, "measure": (t0, t0 + wall)},
        "basis": sum(basis) / len(basis) if basis else 0.0,
        "workers": 1,
        "busy_wall": wall,
        "serve": {
            "counters": {k: sum(r["server"][k] for r in rungs)
                         for k in SERVE_COUNTERS},
            "batch": BATCH,
            "server_ms": 1e3 * (sum(o.done - o.sent for o in ok) / len(ok)
                                if ok else 0.0),
            "conn_wait_ms": 1e3 * (sum(o.sent - o.picked for o in ok)
                                   / len(ok) if ok else 0.0),
            "gen_late_ms": 1e3 * (sum(o.picked - o.due for o in outcomes)
                                  / len(outcomes) if outcomes else 0.0),
        },
        "detail": {
            "setup_runs_s": setup_times,
            "rss_server_mb": server_rss,
            "rss_generator_mb": generator_rss,
            "rungs": rungs,
            "checked_responses": checked,
            "checked_by_source": sampled,
            "correctness_mismatches": mismatches,
            "generator_valid": valid,
        },
    }
