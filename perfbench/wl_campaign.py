"""The ``campaign`` workload: the paper's evaluation matrix, regenerated.

All six schemes x the 14 evaluation programs run to completion
(``max_time=600``) through ``run_matrix(jobs=2, batch=16)`` with a fresh
checkpoint journal, the way a researcher regenerates the evaluation.
Set-up builds the design context from an empty design cache in a fresh
process.  Host time goes to 16-lane fused banks (``board``), the
per-lane controllers (``core``), engine fan-out and checkpoint writes;
there are no HTTP calls, no result-store reads and no ``rack`` code.

The matrix runs ``passes_for(--seconds)`` passes, each with a cell seed
drawn from the workload seed, so the work of a run is a pure function of
its arguments: a faster commit runs the same cells as a slower one.  The
simulated results (``exd_ratio``, ``time_ratio``) come from the first
pass, so they are a pure function of the seed.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from statistics import median

import numpy as np

from common import BENCH_DIR, child_env, rss_peaks_mb, timed_ready

__all__ = ["run", "passes_for", "JOBS", "BATCH"]

JOBS = 2
BATCH = 16
MAX_TIME = 600.0
SETUPS = 2
# One pass of the full matrix takes 3.5-6 s of wall time on a 2-core x86
# box, as the host's speed swings, so one pass per PASS_SECONDS requested
# seconds keeps the measured part of a run near ``--seconds``.
PASS_SECONDS = 5
CHECK_CELLS = 6  # cells re-run through serial run_workload
PROGRAMS = None  # all 14 evaluation programs; the self-test takes fewer
PROPOSED = "yukta-hwssv-osssv"
BASELINE = "coordinated-heuristic"


def passes_for(seconds):
    return max(2, round(seconds / PASS_SECONDS))


def _setup(workspace, tracer):
    """One cold set-up in a fresh process; returns (seconds, cache dir)."""
    cache = workspace.fresh("design-cache")
    argv = [sys.executable, str(BENCH_DIR / "setup_child.py"), "campaign"]
    if tracer is not None:
        argv += ["--trace-dir", str(tracer.out_dir)]
    seconds, proc, _ = timed_ready(argv, child_env(cache, workspace),
                                   timeout=170)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("campaign set-up process failed")
    return seconds, cache


def _geo_ratio(results, programs, attr):
    logs = [math.log(getattr(results[p][PROPOSED], attr)
                     / getattr(results[p][BASELINE], attr))
            for p in programs]
    return math.exp(sum(logs) / len(logs))


def run(workspace, seed, seconds, setups=SETUPS, tracer=None):
    """Set up cold, run ``passes_for(seconds)`` matrix passes, check a
    sample of cells."""
    from repro.cache import DesignCache
    from repro.experiments import run_workload
    from repro.experiments.engine import run_matrix
    from repro.experiments.schemes import SCHEMES, DesignContext, prime_designs
    from repro.runtime import CellFailure
    from repro.workloads import program_names

    setup_times = []
    t_setup = time.perf_counter()
    for _ in range(setups):
        seconds_i, cache = _setup(workspace, tracer)
        setup_times.append(seconds_i)
    setup_window = (t_setup, time.perf_counter())
    setup_children_rss = rss_peaks_mb()[1]
    if tracer is not None:
        tracer.enabled = False
    context = prime_designs(DesignContext.create(cache=DesignCache(cache)),
                            SCHEMES)
    programs = program_names("evaluation")[:PROGRAMS]
    rng = np.random.default_rng([int(seed), 0xca4])

    if tracer is not None:
        tracer.enabled = True
    passes = []
    t_start = time.perf_counter()
    for _ in range(passes_for(seconds)):
        cell_seed = int(rng.integers(1, 2**31 - 1))
        checkpoint = workspace.fresh("checkpoint")
        t0 = time.perf_counter()
        results = run_matrix(SCHEMES, programs, context, seed=cell_seed,
                             max_time=MAX_TIME, record=False, jobs=JOBS,
                             batch=BATCH, checkpoint=str(checkpoint))
        passes.append((cell_seed, results, time.perf_counter() - t0))
    wall = time.perf_counter() - t_start
    if tracer is not None:
        tracer.enabled = False
    # The matrix runs in this process and its pool workers; the serial
    # check below is not counted.
    own_rss, children_rss = rss_peaks_mb()

    cells = [m for _, results, _ in passes
             for row in results.values() for m in row.values()]
    failures = [m for m in cells if isinstance(m, CellFailure)]
    ok = [m for m in cells if not isinstance(m, CellFailure)]
    matrix_wall = sum(w for _, _, w in passes)
    sim_s = sum(m.execution_time for m in ok)

    # Correctness: a fixed sample of first-pass cells, re-run serially.
    cell_seed, first, _ = passes[0]
    pick = np.random.default_rng([int(seed), 0xc4ec])
    mismatches = 0
    for scheme in SCHEMES[:CHECK_CELLS]:
        program = programs[int(pick.integers(len(programs)))]
        got = first[program][scheme]
        want = run_workload(scheme, program, context, seed=cell_seed,
                            max_time=MAX_TIME, record=False)
        if isinstance(got, CellFailure) or (
                got.execution_time, got.energy, got.completed) != (
                want.execution_time, want.energy, want.completed):
            mismatches += 1
            print(f"campaign cell {scheme}:{program}:s{cell_seed} differs "
                  "from serial run_workload", flush=True)

    pass_ms = [w * 1e3 for _, _, w in passes]
    metrics = {"setup_s": (median(setup_times), "s"),
               "sim_s_per_s": (sim_s / matrix_wall, "board-s/s"),
               "p50_ms": (median(pass_ms), "ms"),
               "ops_per_s": (len(ok) / matrix_wall, "op/s"),
               "peak_rss_mb": (own_rss + children_rss, "MB")}
    sims = {}
    if not any(isinstance(first[p][s], CellFailure)
               for p in programs for s in (PROPOSED, BASELINE)):
        sims["experiments.exd_ratio"] = _geo_ratio(first, programs, "exd")
        sims["experiments.time_ratio"] = _geo_ratio(first, programs,
                                                    "execution_time")
    return {
        "attempted": len(cells),
        "failed": len(failures) + mismatches,
        "valid": True,
        "metrics": metrics,
        "sim_results": sims,
        "settings": {"jobs": JOBS, "batch": BATCH},
        "wall": wall,
        "windows": {"setup": setup_window,
                    "measure": (t_start, t_start + wall)},
        "basis": matrix_wall,
        "workers": JOBS,
        "busy_wall": matrix_wall,
        "detail": {
            "setup_runs_s": setup_times,
            "rss_self_mb": own_rss,
            # Equal to rss_setup_children_mb when a set-up process, not a
            # pool worker, is the largest child.
            "rss_children_mb": children_rss,
            "rss_setup_children_mb": setup_children_rss,
            "passes": len(passes),
            "cell_seeds": [s for s, _, _ in passes],
            "incomplete_cells": sum(1 for m in ok if not m.completed),
            "checked_cells": min(CHECK_CELLS, len(SCHEMES)),
            "correctness_mismatches": mismatches,
        },
    }
