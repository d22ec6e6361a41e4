"""The ``rack`` workload: facility campaigns through ``repro.rack.Rack.run``.

Each stream is an 8-board heterogeneous rack under the SSV cap
distributor, fed a 24-job stream generated from the workload seed
(workload rotation with jittered ``@scale`` suffixes, spaced arrivals,
70 s SLA), with the facility cap stepping to 0.7x at 45 s and one board
offline from 30 s to 50 s.  Windows are one rack period long, per-board
budgets diverge and one lane is faulted, which is where banked stepping
is weakest.  No call reaches ``core``, ``experiments``, ``serve``,
``cache`` or ``runtime``.
"""

from __future__ import annotations

import sys
import time
from statistics import median

import numpy as np

from common import BENCH_DIR, child_env, rss_peaks_mb, timed_ready

__all__ = ["build_spec", "run", "run_stream", "streams_for"]

N_BOARDS = 8
N_JOBS = 24
SLA = 70.0
MAX_TIME = 150.0
CAP_STEP_TIME = 45.0
CAP_STEP_FRACTION = 0.7
FAULT_START = 30.0
FAULT_DURATION = 20.0
# One stream takes about a second of host time on a 2-core x86 box, so
# one stream per requested second keeps a run near ``--seconds`` while
# the stream count (and so every simulated sum) stays a pure function of
# the arguments.
STREAMS_PER_SECOND = 1
SETUPS = 5  # set-up is cheap here; five launches steady the median


def streams_for(seconds):
    return max(2, STREAMS_PER_SECOND * int(seconds))


def _rng(seed, stream):
    return np.random.default_rng([int(seed), int(stream), 0x7ac])


def build_spec(seed, stream):
    """The rack spec (jobs and fault included) of one stream."""
    from repro.experiments.rack import STREAM_WORKLOADS
    from repro.rack import JobSpec, RackBoardFault, heterogeneous_rack_spec

    rng = _rng(seed, stream)
    offset = int(rng.integers(len(STREAM_WORKLOADS)))
    jobs = []
    arrival = 0.0
    for i in range(N_JOBS):
        name, _, scale = STREAM_WORKLOADS[
            (offset + i) % len(STREAM_WORKLOADS)].partition("@")
        scale = round(float(scale) * float(rng.uniform(0.8, 1.2)), 4)
        jobs.append(JobSpec(name=f"job{i}", workload=f"{name}@{scale}",
                            arrival=round(arrival, 3), sla=SLA))
        arrival += float(rng.uniform(1.5, 3.5))
    fault = RackBoardFault(board=int(rng.integers(N_BOARDS)),
                           start=FAULT_START, duration=FAULT_DURATION,
                           kind="offline")
    return heterogeneous_rack_spec(n_boards=N_BOARDS, jobs=tuple(jobs),
                                   faults=(fault,))


def run_stream(seed, stream, use_bank=True):
    """Run one stream: spec, controller synthesis, facility loop, analysis.

    Returns ``(result, quality, loop seconds, stream seconds)``.
    """
    from repro.obs import analyze_rack
    from repro.rack import Rack, SSVRackController

    t_stream = time.perf_counter()
    spec = build_spec(seed, stream)
    rack = Rack(spec, controller=SSVRackController(spec), use_bank=use_bank,
                record=True, seed=int(_rng(seed, stream).integers(1 << 30)))
    schedule = [(0.0, spec.power_cap),
                (CAP_STEP_TIME, CAP_STEP_FRACTION * spec.power_cap)]
    t0 = time.perf_counter()
    result = rack.run(max_time=MAX_TIME, cap_schedule=schedule)
    wall = time.perf_counter() - t0
    quality = analyze_rack(result, spec=spec)
    return result, quality, wall, time.perf_counter() - t_stream


def same_stream(a, b):
    """Bit-for-bit equality of energy, budget trace and cap exposure."""
    (ra, qa), (rb, qb) = a, b
    return (
        ra.energy == rb.energy
        and ra.trace.budgets == rb.trace.budgets
        and qa.cap_exposure.integral == qb.cap_exposure.integral
    )


def _setup(workspace):
    """Imports plus spec build in a fresh process; returns seconds."""
    argv = [sys.executable, str(BENCH_DIR / "setup_child.py"), "rack"]
    seconds, proc, _ = timed_ready(argv, child_env(workspace.root, workspace))
    proc.wait(timeout=60)
    if proc.returncode != 0:
        raise RuntimeError("rack set-up process failed")
    return seconds


def run(workspace, seed, seconds, setups=SETUPS, tracer=None):
    """Measure ``streams_for(seconds)`` streams, then check one."""
    t_setup = time.perf_counter()
    setup_times = [_setup(workspace) for _ in range(setups)]
    setup_window = (t_setup, time.perf_counter())
    results = []
    failed = 0
    sim_s = 0.0
    loop_s = 0.0
    stream_s = []
    exposure = 0.0
    n = streams_for(seconds)
    if tracer is not None:
        tracer.enabled = False
    run_stream(seed, 0)  # warm-up: first-call costs are not a stream's
    if tracer is not None:
        tracer.enabled = True
    t_start = time.perf_counter()
    for stream in range(n):
        try:
            result, quality, loop_i, stream_i = run_stream(seed, stream)
        except Exception as exc:  # noqa: BLE001 - a stream is one operation
            print(f"rack stream {stream} failed: {exc!r}", flush=True)
            failed += 1
            continue
        sim_s += sum(result.board_time)
        loop_s += loop_i
        stream_s.append(stream_i)
        exposure += quality.cap_exposure.integral
        results.append((stream, result, quality))
    wall = time.perf_counter() - t_start
    if tracer is not None:
        tracer.enabled = False
    # The streams run in this process; the set-up children only import
    # and build a spec, and the scalar check below is not counted.
    own_rss, children_rss = rss_peaks_mb()
    mismatches = 0
    if results:
        stream, result, quality = results[0]
        scalar, scalar_quality, _, _ = run_stream(seed, stream,
                                                  use_bank=False)
        if not same_stream((result, quality), (scalar, scalar_quality)):
            mismatches = 1
            print(f"rack stream {stream}: banked and scalar stepping "
                  "disagree", flush=True)
    return {
        "attempted": n,
        "failed": failed + mismatches,
        "valid": True,
        "metrics": {
            "setup_s": (median(setup_times), "s"),
            "sim_s_per_s": (sim_s / loop_s, "board-s/s"),
            "p50_ms": (median(stream_s) * 1e3, "ms"),
            "ops_per_s": (len(stream_s) / sum(stream_s), "op/s"),
            "peak_rss_mb": (own_rss, "MB"),
        },
        "sim_results": {"rack.cap_exposure_ws": exposure},
        "wall": wall,
        "windows": {"setup": setup_window,
                    "measure": (t_start, t_start + wall)},
        "basis": wall,
        "workers": 1,
        "busy_wall": 0.0,
        "detail": {
            "setup_runs_s": setup_times,
            "rss_self_mb": own_rss,
            "rss_setup_children_mb": children_rss,
            "streams": n,
            "jobs_completed": sum(r.jobs_completed for _, r, _ in results),
            "jobs_admitted": sum(r.jobs_admitted for _, r, _ in results),
            "sla_misses": sum(r.sla_misses for _, r, _ in results),
            "checked_streams": 1 if results else 0,
            "correctness_mismatches": mismatches,
        },
    }
