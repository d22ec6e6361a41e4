"""Differential oracles: implementation pairs that must agree.

Each oracle replays identical inputs through two implementations of the
same computation and reports the first divergence — step index, signal
name, both values, and the ULP distance between them:

* :func:`oracle_fastpath` — vectorized window stepping
  (:mod:`repro.board.fastpath`) vs scalar :meth:`Board.step`, under a
  randomized-but-legal actuation schedule.  Must be **bit-exact**.
* :func:`oracle_parallel_matrix` — the process-pool experiment engine vs
  the serial matrix loop.  Must be **bit-exact**.
* :func:`oracle_resume` — a matrix campaign interrupted mid-run (chaos
  harness) and then resumed from its checkpoint journal vs an
  uninterrupted serial run.  Must be **bit-exact**.
* :func:`oracle_cache` — a design context rebuilt from the persistent
  cache vs the same artifacts computed fresh.  Must be **bit-exact**
  (pickle round-trips preserve float bits).
* :func:`oracle_serve` — the control-plane service answering concurrent
  requests (coalescing, bank batching, JSON wire round-trip, warm result
  store) vs direct in-process :func:`run_workload` calls.  Must be
  **bit-exact** — JSON's shortest-round-trip float repr preserves every
  bit.
* :func:`oracle_lqg_reference` — the production LQG synthesis
  (:mod:`repro.lqg.synthesis`, scipy Riccati solvers) vs an independent
  textbook fixed-point Riccati recursion.  Agrees within a documented
  tolerance (iterative vs direct solvers).
* :func:`oracle_mu_batch` — the lockstep mu upper-bound kernel
  (:func:`repro.robust.mu_upper_bounds`) vs a per-matrix coordinate
  descent, on the rack's gain-selection channels and the D-K closed
  loops.  Must be **bit-exact**.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OracleResult",
    "ulp_distance",
    "oracle_fastpath",
    "oracle_bank",
    "oracle_bank_matrix",
    "oracle_bank_schedule",
    "oracle_parallel_matrix",
    "oracle_resume",
    "oracle_cache",
    "oracle_serve",
    "oracle_lqg_reference",
    "oracle_mu_batch",
]


def _ordered_bits(x):
    """Map a float64 onto the integers so ULP distance is subtraction."""
    (bits,) = struct.unpack("<q", struct.pack("<d", float(x)))
    return bits if bits >= 0 else (-0x8000000000000000) - bits


def ulp_distance(a, b):
    """Units-in-the-last-place distance between two float64 values.

    Identical values (including ``-0.0`` vs ``+0.0``) are 0 ULP apart;
    adjacent representable doubles are 1 apart.  A single NaN is
    infinitely far from everything; two NaNs count as equal.
    """
    a, b = float(a), float(b)
    if np.isnan(a) or np.isnan(b):
        return 0 if (np.isnan(a) and np.isnan(b)) else float("inf")
    return abs(_ordered_bits(a) - _ordered_bits(b))


@dataclass
class Divergence:
    """Where two implementations first disagreed."""

    step: object  # step index, or a (workload, scheme, field) locator
    signal: str
    value_a: float
    value_b: float
    ulp: float

    def __str__(self):
        return (
            f"first divergence at {self.step} signal {self.signal!r}: "
            f"{self.value_a!r} vs {self.value_b!r} ({self.ulp} ULP)"
        )


@dataclass
class OracleResult:
    """Outcome of one differential-oracle run."""

    name: str
    agree: bool
    compared: int  # scalar comparisons performed
    max_ulp: float = 0.0
    tolerance_ulp: float = 0.0  # 0 = bit-exactness required
    divergence: Divergence = None
    details: dict = field(default_factory=dict)

    def render(self):
        status = "OK" if self.agree else "FAIL"
        if self.tolerance_ulp != self.tolerance_ulp:  # NaN: relative tol
            tol = f"tol rtol={self.details.get('rtol', '?')}"
        elif self.tolerance_ulp == 0:
            tol = "bit-exact"
        else:
            tol = f"tol {self.tolerance_ulp:g} ULP"
        line = (
            f"oracle {self.name:18s} {status}  "
            f"({self.compared} comparisons, max {self.max_ulp:g} ULP, {tol})"
        )
        if self.divergence is not None:
            line += f"\n  {self.divergence}"
        return line


class _Comparator:
    """Accumulates comparisons, tracking the first and worst divergence."""

    def __init__(self, tolerance_ulp=0.0):
        self.tolerance_ulp = tolerance_ulp
        self.compared = 0
        self.max_ulp = 0.0
        self.first = None

    def check(self, step, signal, a, b):
        self.compared += 1
        ulp = ulp_distance(a, b)
        if ulp > self.max_ulp:
            self.max_ulp = ulp
        if ulp > self.tolerance_ulp and self.first is None:
            self.first = Divergence(step, signal, float(a), float(b), ulp)

    def check_array(self, signal, a, b, step_offset=0):
        a = np.asarray(a, dtype=float).ravel()
        b = np.asarray(b, dtype=float).ravel()
        if a.size != b.size:
            self.compared += 1
            if self.first is None:
                self.first = Divergence(
                    step_offset, signal, float(a.size), float(b.size),
                    float("inf"),
                )
            return
        for i in range(a.size):
            self.check(step_offset + i, signal, a[i], b[i])

    def result(self, name, details=None):
        return OracleResult(
            name=name,
            agree=self.first is None,
            compared=self.compared,
            max_ulp=self.max_ulp,
            tolerance_ulp=self.tolerance_ulp,
            divergence=self.first,
            details=details or {},
        )


# ---------------------------------------------------------------------------
# Oracle 1: fastpath vs scalar stepping
# ---------------------------------------------------------------------------
def _actuation_schedule(spec, periods, seed):
    """A deterministic, grid-legal actuation schedule for both boards."""
    rng = np.random.default_rng(seed)
    schedule = []
    for _ in range(periods):
        schedule.append({
            "freq_big": float(rng.choice(spec.big.freq_range.levels)),
            "freq_little": float(rng.choice(spec.little.freq_range.levels)),
            "cores_big": int(rng.integers(1, spec.big.n_cores + 1)),
            "cores_little": int(rng.integers(1, spec.little.n_cores + 1)),
            "placement": (
                float(rng.integers(0, 9)),
                float(rng.choice([1.0, 1.5, 2.0, 3.0])),
                float(rng.choice([1.0, 1.5, 2.0, 3.0])),
            ),
        })
    return schedule


def oracle_fastpath(spec=None, workload="blackscholes", seed=3, periods=40,
                    schedule_seed=11):
    """Replay one run through fastpath and scalar stepping; must be 0 ULP."""
    from ..board import BIG, LITTLE, Board, default_xu3_spec
    from ..workloads import make_application

    spec = spec or default_xu3_spec()
    period_steps = spec.period_steps()
    schedule = _actuation_schedule(spec, periods, schedule_seed)

    def _run(enable_fast_path):
        board = Board(make_application(workload), spec=spec, seed=seed,
                      record=True, telemetry=None)
        board.enable_fast_path = enable_fast_path
        for command in schedule:
            if board.done:
                break
            board.set_cluster_frequency(BIG, command["freq_big"])
            board.set_cluster_frequency(LITTLE, command["freq_little"])
            board.set_active_cores(BIG, command["cores_big"])
            board.set_active_cores(LITTLE, command["cores_little"])
            board.set_placement_knobs(*command["placement"])
            board.run_period(period_steps)
        return board

    fast = _run(True)
    scalar = _run(False)
    cmp = _Comparator(tolerance_ulp=0.0)
    cmp.check("final", "time", fast.time, scalar.time)
    cmp.check("final", "energy", fast.energy, scalar.energy)
    cmp.check("final", "temperature", fast.thermal.temperature,
              scalar.thermal.temperature)
    for name in (BIG, LITTLE):
        cmp.check("final", f"instructions_{name}",
                  fast.perf_counters[name].read_cumulative(),
                  scalar.perf_counters[name].read_cumulative())
        cmp.check("final", f"power_sensor_{name}",
                  fast.power_sensors[name].read(),
                  scalar.power_sensors[name].read())
    cmp.check("final", "temp_sensor", fast.temp_sensor.read(),
              scalar.temp_sensor.read())
    fast_trace = fast.trace.as_arrays()
    scalar_trace = scalar.trace.as_arrays()
    for signal in sorted(fast_trace):
        cmp.check_array(signal, fast_trace[signal], scalar_trace[signal])
    return cmp.result("fastpath-vs-scalar", details={
        "workload": workload, "periods": periods,
        "steps": len(fast_trace["times"]),
    })


# ---------------------------------------------------------------------------
# Oracle 1b: the lockstep board bank vs per-board stepping
# ---------------------------------------------------------------------------
def oracle_bank(spec=None, workloads=("blackscholes", "mcf", "fluidanimate",
                                      "gamess"), seed0=3, periods=30,
                schedule_seed=11):
    """Replay one bank run against per-board ``run_period``; must be 0 ULP.

    Every board gets its own workload, seed, and actuation schedule; the
    bank advances them in vectorized lockstep while the reference boards
    advance one at a time through the scalar/fastpath machinery.  The
    first divergence is located by (board, step, signal) with its ULP
    distance.
    """
    from ..board import BIG, LITTLE, Board, BoardBank, default_xu3_spec
    from ..workloads import make_application

    spec = spec or default_xu3_spec()
    period_steps = spec.period_steps()
    n = len(workloads)
    schedules = [
        _actuation_schedule(spec, periods, schedule_seed + 13 * k)
        for k in range(n)
    ]

    def _make_boards():
        return [
            Board(make_application(w), spec=spec, seed=seed0 + k, record=True,
                  telemetry=None)
            for k, w in enumerate(workloads)
        ]

    def _actuate(board, command):
        board.set_cluster_frequency(BIG, command["freq_big"])
        board.set_cluster_frequency(LITTLE, command["freq_little"])
        board.set_active_cores(BIG, command["cores_big"])
        board.set_active_cores(LITTLE, command["cores_little"])
        board.set_placement_knobs(*command["placement"])

    banked = _make_boards()
    bank = BoardBank(banked, telemetry=None)
    for p in range(periods):
        live = [k for k in range(n) if not banked[k].done]
        if not live:
            break
        for k in live:
            _actuate(banked[k], schedules[k][p])
        bank.run_period_bank(period_steps, only=live)

    reference = _make_boards()
    for k, board in enumerate(reference):
        for p in range(periods):
            if board.done:
                break
            _actuate(board, schedules[k][p])
            board.run_period(period_steps)

    cmp = _Comparator(tolerance_ulp=0.0)
    for k, (a, b) in enumerate(zip(banked, reference)):
        loc = f"board {k}"
        cmp.check(loc, "time", a.time, b.time)
        cmp.check(loc, "energy", a.energy, b.energy)
        cmp.check(loc, "temperature", a.thermal.temperature,
                  b.thermal.temperature)
        cmp.check(loc, "temp_sensor", a.temp_sensor.read(),
                  b.temp_sensor.read())
        for name in (BIG, LITTLE):
            cmp.check(loc, f"instructions_{name}",
                      a.perf_counters[name].read_cumulative(),
                      b.perf_counters[name].read_cumulative())
            cmp.check(loc, f"power_sensor_{name}",
                      a.power_sensors[name].read(),
                      b.power_sensors[name].read())
        cmp.check(loc, "emergency_trips", a.emergency.state.trip_count,
                  b.emergency.state.trip_count)
        trace_a = a.trace.as_arrays()
        trace_b = b.trace.as_arrays()
        for signal in sorted(trace_a):
            cmp.check_array(f"{loc}/{signal}", trace_a[signal],
                            trace_b[signal])
    return cmp.result("bank-vs-scalar", details={
        "boards": n, "periods": periods,
        "counters": bank.counters(),
    })


def oracle_bank_schedule(spec=None, workloads=("blackscholes", "mcf",
                                               "mix:blmc", "gamess",
                                               "fluidanimate", "x264"),
                         seed0=5, periods=40, schedule_seed=23,
                         block_periods=16):
    """Fused ``run_schedule_bank`` vs per-board fastpath; must be 0 ULP.

    One shared DVFS schedule drives every lane through the fused
    multi-period kernel.  The schedule deliberately includes
    out-of-range commands (which must clamp *and* count as rejected on
    every board) and one non-finite entry (which must fall back to the
    exact per-period path so the previous frequency carries forward).
    The reference boards replay the identical commands one period at a
    time through ``run_period``.
    """
    from ..board import BIG, LITTLE, Board, BoardBank, default_xu3_spec
    from ..workloads import make_application, make_mix

    spec = spec or default_xu3_spec()
    period_steps = spec.period_steps()
    rng = np.random.default_rng(schedule_seed)
    rb = spec.cluster(BIG).freq_range
    rl = spec.cluster(LITTLE).freq_range
    # Stay in the lower half of the grid so blocks are provably quiet
    # (a hot operating point forces the exact per-period path — correct,
    # but then the fused kernel itself would go untested); the below-low
    # excursions exercise clamp-and-count inside fused blocks.
    fb = [float(f) for f in rng.uniform(
        rb.low - 0.3, rb.low + 0.55 * (rb.high - rb.low), periods)]
    fl = [float(f) for f in rng.uniform(
        rl.low - 0.3, rl.low + 0.55 * (rl.high - rl.low), periods)]
    fb[periods // 2] = float("nan")  # carry-forward must stay exact

    def _make_boards():
        return [
            Board(make_mix(w[4:]) if w.startswith("mix:")
                  else make_application(w),
                  spec=spec, seed=seed0 + k, record=True, telemetry=None)
            for k, w in enumerate(workloads)
        ]

    banked = _make_boards()
    bank = BoardBank(banked, telemetry=None)
    bank.run_schedule_bank(fb, fl, block_periods=block_periods)

    reference = _make_boards()
    for board in reference:
        for p in range(periods):
            if board.done:
                break
            board.set_cluster_frequency(BIG, fb[p])
            board.set_cluster_frequency(LITTLE, fl[p])
            board.run_period(period_steps)

    cmp = _Comparator(tolerance_ulp=0.0)
    for k, (a, b) in enumerate(zip(banked, reference)):
        loc = f"board {k}"
        cmp.check(loc, "time", a.time, b.time)
        cmp.check(loc, "energy", a.energy, b.energy)
        cmp.check(loc, "temperature", a.thermal.temperature,
                  b.thermal.temperature)
        cmp.check(loc, "temp_sensor", a.temp_sensor.read(),
                  b.temp_sensor.read())
        cmp.check(loc, "rejected_frequency",
                  a.rejected_actuations["frequency"],
                  b.rejected_actuations["frequency"])
        cmp.check(loc, "nonfinite_frequency",
                  a.nonfinite_commands["frequency"],
                  b.nonfinite_commands["frequency"])
        for name in (BIG, LITTLE):
            cmp.check(loc, f"instructions_{name}",
                      a.perf_counters[name].read_cumulative(),
                      b.perf_counters[name].read_cumulative())
            cmp.check(loc, f"power_sensor_{name}",
                      a.power_sensors[name].read(),
                      b.power_sensors[name].read())
            cmp.check(loc, f"frequency_{name}",
                      a.clusters[name].frequency, b.clusters[name].frequency)
        trace_a = a.trace.as_arrays()
        trace_b = b.trace.as_arrays()
        for signal in sorted(trace_a):
            cmp.check_array(f"{loc}/{signal}", trace_a[signal],
                            trace_b[signal])
    # Agreement without coverage proves nothing: a kernel that silently
    # never fuses would pass every comparison above.
    cmp.check("schedule", "fused_kernel_engaged",
              float(bank.fused_ticks > 0), 1.0)
    return cmp.result("bank-schedule", details={
        "boards": len(workloads), "periods": periods,
        "block_periods": block_periods,
        "fused_blocks": bank.fused_blocks,
        "fused_ticks": bank.fused_ticks,
        "counters": bank.counters(),
    })


# A cell whose banked run once diverged from serial only late in the
# program (a cached plan was served without the placement-membership
# refresh), far past the short matrix horizon, so the bank-matrix
# oracle always runs it to the end.
_FULL_LENGTH_CELL = ("decoupled-heuristic", "x264", 13)


def oracle_bank_matrix(context, schemes=None, workloads=None, seed=7,
                       max_time=10.0, batch=8):
    """Run the same matrix serially and banked (``--batch``); must be 0 ULP.

    One more cell, :data:`_FULL_LENGTH_CELL`, runs to completion as a
    1-lane bank against :func:`run_workload`.
    """
    from ..experiments.bank_runner import run_cells_banked
    from ..experiments.runner import run_scheme_matrix, run_workload

    schemes = list(schemes or ["coordinated-heuristic", "decoupled-heuristic"])
    workloads = list(workloads or ["blackscholes"])
    serial = run_scheme_matrix(schemes, workloads, context, seed=seed,
                               max_time=max_time, record=True, jobs=None)
    banked = run_scheme_matrix(schemes, workloads, context, seed=seed,
                               max_time=max_time, record=True, jobs=None,
                               batch=batch)
    pairs = [
        ((wname, scheme), a, banked[wname][scheme])
        for wname, per_scheme in serial.items()
        for scheme, a in per_scheme.items()
    ]
    scheme, workload, cell_seed = _FULL_LENGTH_CELL
    [full_banked] = run_cells_banked([_FULL_LENGTH_CELL], context,
                                     record=True)
    pairs.append((
        (workload, scheme),
        run_workload(scheme, workload, context, seed=cell_seed, record=True),
        full_banked,
    ))
    cmp = _Comparator(tolerance_ulp=0.0)
    for loc, a, b in pairs:
        wname, scheme = loc
        cmp.check(loc, "execution_time", a.execution_time,
                  b.execution_time)
        cmp.check(loc, "energy", a.energy, b.energy)
        cmp.check(loc, "completed", float(a.completed), float(b.completed))
        cmp.check(loc, "emergency_trips",
                  float(a.notes["emergency_trips"]),
                  float(b.notes["emergency_trips"]))
        for signal in sorted(a.trace):
            cmp.check_array(f"{wname}/{scheme}/{signal}",
                            a.trace[signal], b.trace[signal])
    return cmp.result("bank-matrix-vs-serial", details={
        "schemes": schemes, "workloads": workloads, "batch": batch,
        "full_length_cell": list(_FULL_LENGTH_CELL),
    })


# ---------------------------------------------------------------------------
# Oracle 2: parallel engine vs serial matrix
# ---------------------------------------------------------------------------
def oracle_parallel_matrix(context, schemes=None, workloads=None, seed=7,
                           max_time=10.0, jobs=2):
    """Run the same matrix serially and through the pool; must be 0 ULP."""
    from ..experiments.runner import run_scheme_matrix

    schemes = list(schemes or ["coordinated-heuristic", "decoupled-heuristic"])
    workloads = list(workloads or ["blackscholes"])
    serial = run_scheme_matrix(schemes, workloads, context, seed=seed,
                               max_time=max_time, record=True, jobs=None)
    parallel = run_scheme_matrix(schemes, workloads, context, seed=seed,
                                 max_time=max_time, record=True, jobs=jobs)
    cmp = _Comparator(tolerance_ulp=0.0)
    for wname, per_scheme in serial.items():
        for scheme, a in per_scheme.items():
            b = parallel[wname][scheme]
            loc = (wname, scheme)
            cmp.check(loc, "execution_time", a.execution_time,
                      b.execution_time)
            cmp.check(loc, "energy", a.energy, b.energy)
            cmp.check(loc, "completed", float(a.completed),
                      float(b.completed))
            for signal in sorted(a.trace):
                cmp.check_array(f"{wname}/{scheme}/{signal}",
                                a.trace[signal], b.trace[signal])
    return cmp.result("parallel-vs-serial", details={
        "schemes": schemes, "workloads": workloads, "jobs": jobs,
    })


# ---------------------------------------------------------------------------
# Oracle 2b: interrupted + resumed campaign vs uninterrupted serial
# ---------------------------------------------------------------------------
def oracle_resume(context, schemes=None, workloads=None, seed=7,
                  max_time=10.0, jobs=2, checkpoint_dir=None):
    """Interrupt a matrix mid-campaign, resume it, compare; must be 0 ULP.

    Pass 1 runs the matrix under a chaos policy that fails every other
    cell with no retry budget (``on_error="collect"``), leaving the
    checkpoint journal genuinely partial — the "interrupted" campaign.
    Pass 2 resumes against the same journal: completed cells come back
    from disk, missing cells run fresh.  The stitched result must match
    an uninterrupted serial run bit-exactly, and the oracle refuses to
    pass vacuously — it fails unless the interruption dropped at least
    one cell *and* the resume actually replayed journaled cells.
    """
    import tempfile

    from ..experiments.engine import run_matrix
    from ..experiments.runner import run_scheme_matrix
    from ..runtime import (
        CellFailure,
        ChaosPolicy,
        CheckpointJournal,
        RetryPolicy,
    )

    schemes = list(schemes or ["coordinated-heuristic", "decoupled-heuristic"])
    workloads = list(workloads or ["blackscholes"])
    tmp = None
    if checkpoint_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-resume-oracle-")
        checkpoint_dir = tmp.name
    try:
        serial = run_scheme_matrix(schemes, workloads, context, seed=seed,
                                   max_time=max_time, record=True, jobs=None)
        n_cells = len(schemes) * len(workloads)
        journal = CheckpointJournal(checkpoint_dir)
        chaos = ChaosPolicy(error_cells=tuple(range(1, n_cells, 2)))
        interrupted = run_matrix(
            schemes, workloads, context, seed=seed, max_time=max_time,
            record=True, jobs=jobs, checkpoint=journal, chaos=chaos,
            backoff=RetryPolicy(max_retries=0), on_error="collect")
        dropped = sum(
            1 for per_scheme in interrupted.values()
            for cell in per_scheme.values() if isinstance(cell, CellFailure)
        )
        resumption = CheckpointJournal(checkpoint_dir)
        resumed = run_matrix(
            schemes, workloads, context, seed=seed, max_time=max_time,
            record=True, jobs=jobs, checkpoint=resumption, resume=True)
        cmp = _Comparator(tolerance_ulp=0.0)
        for wname, per_scheme in serial.items():
            for scheme, a in per_scheme.items():
                b = resumed[wname][scheme]
                loc = (wname, scheme)
                if isinstance(b, CellFailure):
                    cmp.compared += 1
                    if cmp.first is None:
                        cmp.first = Divergence(loc, "cell", 1.0, 0.0,
                                               float("inf"))
                    continue
                cmp.check(loc, "execution_time", a.execution_time,
                          b.execution_time)
                cmp.check(loc, "energy", a.energy, b.energy)
                cmp.check(loc, "completed", float(a.completed),
                          float(b.completed))
                for signal in sorted(a.trace):
                    cmp.check_array(f"{wname}/{scheme}/{signal}",
                                    a.trace[signal], b.trace[signal])
        result = cmp.result("resume-vs-fresh", details={
            "schemes": schemes, "workloads": workloads, "jobs": jobs,
            "interrupted_cells": dropped,
            "resumed_cells": resumption.resumed,
        })
        if dropped == 0 or resumption.resumed == 0:
            result.agree = False  # the interruption/resume never happened
        return result
    finally:
        if tmp is not None:
            tmp.cleanup()


# ---------------------------------------------------------------------------
# Oracle 3: cached vs fresh synthesis
# ---------------------------------------------------------------------------
def _controller_matrices(controller):
    sm = getattr(controller, "state_machine", controller)
    return [np.asarray(sm.A), np.asarray(sm.B), np.asarray(sm.C),
            np.asarray(sm.D)]


def oracle_cache(cache_dir, samples=24, seed=321):
    """Build a context fresh, then again through the cache; must be 0 ULP."""
    from ..experiments.schemes import DesignContext

    fresh = DesignContext.create(samples_per_program=samples, seed=seed,
                                 cache=None)
    primed = DesignContext.create(samples_per_program=samples, seed=seed,
                                  cache=cache_dir)
    primed.get_lqg_hw()  # compute once, populating the cache
    cached = DesignContext.create(samples_per_program=samples, seed=seed,
                                  cache=cache_dir)
    cached.get_lqg_hw()  # must come back from disk
    cmp = _Comparator(tolerance_ulp=0.0)
    for label, attr in (("hw", "hw_data"), ("sw", "sw_data")):
        a = getattr(fresh.characterization, attr)
        b = getattr(cached.characterization, attr)
        cmp.check_array(f"characterization.{label}.inputs", a.inputs, b.inputs)
        cmp.check_array(f"characterization.{label}.outputs", a.outputs,
                        b.outputs)
    for i, (ma, mb) in enumerate(zip(
        _controller_matrices(fresh.get_lqg_hw()[0]),
        _controller_matrices(cached.lqg_hw[0]),
    )):
        cmp.check_array(f"lqg_hw.controller.{'ABCD'[i]}", ma, mb)
    return cmp.result("cache-vs-fresh", details={
        "samples": samples,
        "cache_hits": cached.cache.hits if cached.cache else 0,
        "cache_misses": cached.cache.misses if cached.cache else 0,
    })


# ---------------------------------------------------------------------------
# Oracle 3b: the control-plane service vs direct in-process execution
# ---------------------------------------------------------------------------
def oracle_serve(context, schemes=None, workloads=None, seed=7,
                 max_time=10.0, batch=3, cache_dir=None):
    """Answer a concurrent request burst through ``repro serve`` and
    compare every response against a direct :func:`run_workload` call;
    must be **0 ULP** across the JSON wire.

    The burst is fired from parallel client threads so the service's
    concurrent machinery genuinely engages: cells queue together, the
    batcher packs bankable cells from *different* requests into shared
    BoardBank lanes, and a duplicated request exercises the coalescing /
    result-store path.  Afterwards one cell is re-requested warm and must
    come back from the store bit-identical.  The oracle refuses to pass
    vacuously: it fails unless at least one response was answered without
    a fresh execution and at least one bank batch actually formed.
    """
    import tempfile
    import threading

    from ..experiments.runner import run_workload
    from ..serve import ServeClient, serve_background
    from ..serve.protocol import metrics_from_wire

    schemes = list(schemes or ["coordinated-heuristic",
                               "decoupled-heuristic",
                               "yukta-hwssv-osheur"])
    workloads = list(workloads or ["blackscholes", "mcf"])
    cells = [(s, w) for s in schemes for w in workloads]

    direct = {
        (s, w): run_workload(s, w, context, seed=seed, max_time=max_time,
                             record=True)
        for s, w in cells
    }

    tmp = None
    if cache_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-serve-oracle-")
        cache_dir = tmp.name
    try:
        with serve_background(context, jobs=0, batch=batch,
                              batch_wait=0.25, cache=cache_dir) as handle:
            # The burst: every cell once, plus the first cell duplicated —
            # its twin must coalesce onto the in-flight execution (or hit
            # the store if it raced past completion; both are non-fresh).
            burst = cells + [cells[0]]
            responses = [None] * len(burst)

            def _fire(i, scheme, workload):
                request = {"kind": "run", "scheme": scheme,
                           "workload": workload, "seed": seed,
                           "max_time": max_time, "record": True}
                with ServeClient(handle.url, timeout=600.0) as client:
                    responses[i] = client.run(request, timeout=600.0)

            threads = [
                threading.Thread(target=_fire, args=(i, s, w), daemon=True)
                for i, (s, w) in enumerate(burst)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(600.0)

            with ServeClient(handle.url) as client:
                warm = client.run({"kind": "run", "scheme": cells[0][0],
                                   "workload": cells[0][1], "seed": seed,
                                   "max_time": max_time, "record": True})
                stats = client.stats()

        cmp = _Comparator(tolerance_ulp=0.0)
        sources = {}
        checked = list(zip(burst, responses)) + [(cells[0], warm)]
        for (scheme, workload), response in checked:
            loc = (workload, scheme)
            status = response.get("status", -1) \
                if isinstance(response, dict) else -1
            if status != 200:
                cmp.compared += 1
                if cmp.first is None:
                    cmp.first = Divergence(loc, "http_status", 200.0,
                                           float(status), float("inf"))
                continue
            source = response.get("source", "?")
            sources[source] = sources.get(source, 0) + 1
            a = direct[(scheme, workload)]
            b = metrics_from_wire(response["result"])
            cmp.check(loc, "execution_time", a.execution_time,
                      b.execution_time)
            cmp.check(loc, "energy", a.energy, b.energy)
            cmp.check(loc, "completed", float(a.completed),
                      float(b.completed))
            for signal in sorted(a.trace):
                cmp.check_array(f"{workload}/{scheme}/{signal}",
                                a.trace[signal], b.trace[signal])
        serve_stats = stats if isinstance(stats, dict) else {}
        result = cmp.result("serve-vs-direct", details={
            "schemes": schemes, "workloads": workloads, "batch": batch,
            "sources": sources,
            "bank_batches": serve_stats.get("bank_batches", 0),
            "banked_cells": serve_stats.get("banked_cells", 0),
        })
        non_fresh = sources.get("coalesced", 0) + sources.get("cache", 0)
        if non_fresh == 0 or serve_stats.get("bank_batches", 0) == 0:
            result.agree = False  # coalescing / batching never engaged
        return result
    finally:
        if tmp is not None:
            tmp.cleanup()


# ---------------------------------------------------------------------------
# Oracle 4: LQG synthesis vs the textbook Riccati recursion
# ---------------------------------------------------------------------------
def _riccati_recursion(A, B, Q, R, iterations=20000, tol=1e-13):
    """Textbook DARE fixed point: P = Q + A'PA - A'PB (R+B'PB)^-1 B'PA."""
    P = Q.copy()
    for _ in range(iterations):
        BtP = B.T @ P
        gain = np.linalg.solve(R + BtP @ B, BtP @ A)
        P_next = Q + A.T @ P @ (A - B @ gain)
        P_next = 0.5 * (P_next + P_next.T)
        if np.max(np.abs(P_next - P)) <= tol * max(np.max(np.abs(P)), 1.0):
            return P_next
        P = P_next
    return P


def _reference_lqg_gains(model, n_u, output_weights, input_weights,
                         integral_weight=0.05, process_noise=1e-2,
                         measurement_noise=1e-2):
    """Independent re-derivation of the LQG gains by value iteration.

    Replicates the documented augmentation of
    :func:`repro.lqg.synthesis.lqg_synthesize` (leaky output-error
    integrators, weight construction) but solves both Riccati equations by
    the textbook recursion instead of scipy's direct solver.
    """
    A = np.asarray(model.A)
    B = np.asarray(model.B)[:, :n_u]
    C = np.asarray(model.C)
    n, n_y = A.shape[0], C.shape[0]
    output_weights = np.asarray(output_weights, dtype=float)
    input_weights = np.asarray(input_weights, dtype=float)
    rho = 0.985
    A_aug = np.block([[A, np.zeros((n, n_y))], [C, rho * np.eye(n_y)]])
    B_aug = np.vstack([B, np.asarray(model.D)[:, :n_u]])
    Q = np.block([
        [C.T @ np.diag(output_weights) @ C, np.zeros((n, n_y))],
        [np.zeros((n_y, n)), integral_weight * np.eye(n_y)],
    ]) + 1e-9 * np.eye(n + n_y)
    R = np.diag(input_weights**2) + 1e-9 * np.eye(n_u)
    P = _riccati_recursion(A_aug, B_aug, Q, R)
    K_full = np.linalg.solve(R + B_aug.T @ P @ B_aug, B_aug.T @ P @ A_aug)
    W = process_noise * np.eye(n)
    V = measurement_noise * np.eye(n_y)
    S = _riccati_recursion(A.T, C.T, W, V)
    L = S @ C.T @ np.linalg.inv(C @ S @ C.T + V)
    return K_full[:, :n], K_full[:, n:], L


def _default_lqg_model(seed=5, n=4, n_u=2, n_y=2, dt=0.5):
    from ..lti import StateSpace

    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= 0.7 / max(np.max(np.abs(np.linalg.eigvals(A))), 1e-9)
    return StateSpace(A, rng.normal(size=(n, n_u)),
                      rng.normal(size=(n_y, n)),
                      np.zeros((n_y, n_u)), dt=dt)


def oracle_lqg_reference(model=None, n_u=None, output_weights=None,
                         input_weights=None, rtol=1e-6):
    """Compare :func:`lqg_synthesize` gains against the textbook recursion.

    The production path uses scipy's direct DARE solver; the reference is
    a fixed-point value iteration, so agreement is within ``rtol``
    relative (documented tolerance), not bit-exact.
    """
    from ..lqg import lqg_synthesize

    if model is None:
        model = _default_lqg_model()
    n_u = n_u if n_u is not None else model.n_inputs
    output_weights = (
        output_weights if output_weights is not None
        else [1.0] * model.n_outputs
    )
    input_weights = (
        input_weights if input_weights is not None else [1.0] * n_u
    )
    result = lqg_synthesize(model, n_u=n_u, output_weights=output_weights,
                            input_weights=input_weights)
    K_x_ref, K_i_ref, L_ref = _reference_lqg_gains(
        model, n_u, output_weights, input_weights
    )
    # Express the tolerance in ULP relative to each matrix's scale so the
    # shared comparator machinery applies: |a-b| <= rtol*max(|a|,|b|,1).
    cmp = _Comparator(tolerance_ulp=0.0)
    worst_rel = 0.0
    first = None
    compared = 0
    for name, got, ref in (
        ("lqr_gain", result.lqr_gain, K_x_ref),
        ("integral_gain", result.integral_gain, K_i_ref),
        ("kalman_gain", result.kalman_gain, L_ref),
    ):
        got = np.asarray(got, dtype=float)
        ref = np.asarray(ref, dtype=float)
        for idx in np.ndindex(got.shape):
            compared += 1
            a, b = got[idx], ref[idx]
            rel = abs(a - b) / max(abs(a), abs(b), 1.0)
            cmp.check((name, idx), name, a, b)
            if rel > worst_rel:
                worst_rel = rel
            if rel > rtol and first is None:
                first = Divergence((name, idx), name, float(a), float(b),
                                   ulp_distance(a, b))
    return OracleResult(
        name="lqg-vs-textbook",
        agree=first is None and bool(result.closed_loop_stable),
        compared=compared,
        max_ulp=cmp.max_ulp,
        tolerance_ulp=float("nan"),  # tolerance is relative, not ULP
        divergence=first,
        details={"rtol": rtol, "worst_rel_error": worst_rel,
                 "closed_loop_stable": result.closed_loop_stable},
    )


# ---------------------------------------------------------------------------
# Rack oracles: the third layer on the bank vs on scalar boards
# ---------------------------------------------------------------------------
def oracle_rack(seed=3, max_time=120.0, n_boards=4):
    """Rack-on-BoardBank vs rack-on-scalar-boards; must be 0 ULP.

    One heterogeneous rack (mixed board specs), a job stream, and both
    fault kinds (a board dropping offline, a power sensor dropping out)
    run twice: once with the bank's lane×tick kernel underneath, once
    stepping each board through scalar ``run_period``.  Every rack trace
    signal, every per-board budget row, and every board's physical end
    state must agree to the bit.  Non-vacuity: the banked run must have
    stepped through the vector kernel with more than one lane per window
    on average, the rack must actually be heterogeneous (≥ 2 distinct
    specs), and both faults must have fired.
    """
    from ..board.specs import BIG, LITTLE
    from ..rack import (
        JobSpec,
        Rack,
        RackBoardFault,
        SSVRackController,
        heterogeneous_rack_spec,
    )

    workloads = ("blackscholes@0.08", "mcf@0.1", "streamcluster@0.08",
                 "x264@0.08", "canneal@0.08", "bodytrack@0.1")
    jobs = tuple(
        JobSpec(name=f"j{i}", workload=workloads[i % len(workloads)],
                arrival=3.0 * i, sla=70.0)
        for i in range(6)
    )
    faults = (
        RackBoardFault(board=1, start=10.0, duration=14.0, kind="offline"),
        RackBoardFault(board=2, start=8.0, duration=10.0,
                       kind="power-sensor"),
    )
    spec = heterogeneous_rack_spec(n_boards=n_boards, jobs=jobs,
                                   faults=faults)

    def _run(use_bank):
        rack = Rack(spec, controller=SSVRackController(spec),
                    use_bank=use_bank, record=True, record_boards=True,
                    seed=seed, telemetry=None)
        return rack, rack.run(max_time=max_time)

    rack_banked, banked = _run(True)
    rack_scalar, scalar = _run(False)

    cmp = _Comparator(tolerance_ulp=0.0)
    a_arrays = banked.trace.as_arrays()
    b_arrays = scalar.trace.as_arrays()
    for signal in sorted(a_arrays):
        cmp.check_array(f"rack/{signal}", a_arrays[signal],
                        b_arrays[signal])
    for k, (a, b) in enumerate(zip(rack_banked.boards, rack_scalar.boards)):
        loc = f"board {k}"
        cmp.check(loc, "time", a.time, b.time)
        cmp.check(loc, "energy", a.energy, b.energy)
        cmp.check(loc, "temperature", a.thermal.temperature,
                  b.thermal.temperature)
        for name in (BIG, LITTLE):
            cmp.check(loc, f"power_sensor_{name}",
                      a.power_sensors[name].read(),
                      b.power_sensors[name].read())
            cmp.check(loc, f"frequency_{name}",
                      a.clusters[name].frequency, b.clusters[name].frequency)
        trace_a = a.trace.as_arrays()
        trace_b = b.trace.as_arrays()
        for signal in sorted(trace_a):
            cmp.check_array(f"{loc}/{signal}", trace_a[signal],
                            trace_b[signal])
    cmp.check("rack", "jobs_completed", float(banked.jobs_completed),
              float(scalar.jobs_completed))
    cmp.check("rack", "sla_misses", float(banked.sla_misses),
              float(scalar.sla_misses))
    cmp.check("rack", "requeues", float(banked.requeues),
              float(scalar.requeues))

    # Agreement without coverage proves nothing.
    counters = banked.bank_counters or {}
    bank = rack_banked.bank
    cmp.check("coverage", "multilane_vector_kernel",
              float(bank.vector_ticks > 0
                    and bank.vector_lanes > bank.windows), 1.0)
    distinct_specs = len({id(b) for b in spec.boards})
    cmp.check("coverage", "heterogeneous_rack",
              float(distinct_specs >= 2), 1.0)
    cmp.check("coverage", "offline_fault_fired",
              float(banked.requeues > 0), 1.0)
    sensor_scalars = counters.get("events", {}).get("plan_refused", 0)
    cmp.check("coverage", "sensor_fault_forced_scalar",
              float(sensor_scalars > 0), 1.0)
    return cmp.result("rack-bank-vs-scalar", details={
        "boards": n_boards, "jobs": len(jobs),
        "distinct_specs": distinct_specs,
        "counters": counters,
        "lanes_per_window": bank.vector_lanes / max(bank.windows, 1),
        "requeues": banked.requeues,
    })


def oracle_rack_resume(seed=5, max_time=200.0, jobs=2, checkpoint_dir=None):
    """Interrupt a rack campaign, resume it, compare; must be 0 ULP.

    The rack job-stream cells run as engine ``("call", ...)`` tasks under
    a chaos policy that fails every other cell with no retry budget,
    journaling the survivors (the PR 6 checkpoint machinery).  The resume
    pass must stitch journaled + fresh cells into results bit-identical
    to an uninterrupted serial run.  Non-vacuous: fails unless the chaos
    actually dropped at least one cell and the resume actually replayed
    journaled cells from disk.
    """
    import tempfile

    from ..experiments.engine import parallel_map
    from ..experiments.rack import CONTROLLERS, _stream_cell
    from ..runtime import (
        CellFailure,
        ChaosPolicy,
        CheckpointJournal,
        RetryPolicy,
    )

    tmp = None
    if checkpoint_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-rack-resume-")
        checkpoint_dir = tmp.name
    try:
        tasks = [
            ("call", (_stream_cell, (controller, 4, 6, True, True, seed,
                                     max_time), {}))
            for controller in CONTROLLERS
        ]
        fresh = parallel_map(tasks, None, jobs=None, prime=())
        journal = CheckpointJournal(checkpoint_dir)
        chaos = ChaosPolicy(error_cells=tuple(range(1, len(tasks), 2)))
        interrupted = parallel_map(
            tasks, None, jobs=jobs, prime=(), checkpoint=journal,
            chaos=chaos, backoff=RetryPolicy(max_retries=0),
            on_error="collect")
        dropped = sum(1 for cell in interrupted
                      if isinstance(cell, CellFailure))
        resumption = CheckpointJournal(checkpoint_dir)
        resumed = parallel_map(tasks, None, jobs=jobs, prime=(),
                               checkpoint=resumption, resume=True)
        cmp = _Comparator(tolerance_ulp=0.0)
        for controller, a, b in zip(CONTROLLERS, fresh, resumed):
            if isinstance(b, CellFailure):
                cmp.compared += 1
                if cmp.first is None:
                    cmp.first = Divergence(controller, "cell", 1.0, 0.0,
                                           float("inf"))
                continue
            for key in sorted(a):
                if isinstance(a[key], str):
                    cmp.check(controller, key, float(a[key] == b[key]), 1.0)
                else:
                    cmp.check(controller, key, float(a[key]), float(b[key]))
        result = cmp.result("rack-resume-vs-fresh", details={
            "controllers": list(CONTROLLERS), "jobs": jobs,
            "interrupted_cells": dropped,
            "resumed_cells": resumption.resumed,
        })
        if dropped == 0 or resumption.resumed == 0:
            result.agree = False  # the interruption/resume never happened
        return result
    finally:
        if tmp is not None:
            tmp.cleanup()


# ---------------------------------------------------------------------------
# mu oracle: the lockstep kernel vs the per-matrix coordinate descent
# ---------------------------------------------------------------------------
def _reference_scaled_norm(M, structure, log_scales):
    """sigma_max(D M D^-1) with dense diagonal products, one matrix."""
    scales = np.exp(np.asarray(log_scales, dtype=float))
    d_left = np.zeros(structure.total_rows)
    d_right = np.zeros(structure.total_cols)
    for (block, row_sl, col_sl), scale in zip(structure.block_slices(),
                                              scales):
        d_left[row_sl] = scale
        d_right[col_sl] = scale
    d_left, d_right_inv = np.diag(d_left), np.diag(1.0 / d_right)
    return float(np.linalg.svd(d_left @ M @ d_right_inv, compute_uv=False)[0])


def _reference_mu_upper_bound(M, structure, iterations=60):
    """Per-matrix mu upper bound: Osborne seed, then coordinate descent.

    The one-matrix-at-a-time algorithm that
    :func:`repro.robust.mu_upper_bounds` runs in lockstep over a stack;
    kept here only as the oracle's reference.
    """
    M = np.asarray(M, dtype=complex)
    n_blocks = len(structure)
    log_scales = np.zeros(n_blocks)
    if n_blocks == 1:
        return float(np.linalg.svd(M, compute_uv=False)[0]), log_scales
    for _ in range(10):
        for i, (block, row_sl, col_sl) in enumerate(structure.block_slices()):
            row_norm = np.linalg.norm(M[row_sl, :]) * np.exp(log_scales[i])
            col_norm = np.linalg.norm(M[:, col_sl]) * np.exp(-log_scales[i])
            if row_norm > 1e-14 and col_norm > 1e-14:
                log_scales[i] += 0.5 * (np.log(col_norm) - np.log(row_norm))
    log_scales -= log_scales[-1]
    best = _reference_scaled_norm(M, structure, log_scales)
    step = 0.5
    for _ in range(iterations):
        improved = False
        for i in range(n_blocks - 1):
            for direction in (+1.0, -1.0):
                trial = log_scales.copy()
                trial[i] += direction * step
                value = _reference_scaled_norm(M, structure, trial)
                if value < best - 1e-12:
                    best = value
                    log_scales = trial
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-4:
                break
    return float(best), log_scales


def _reference_select_integral_gain(n_boards, guardband, gain_grid, points):
    """Frequency-by-frequency gain sweep over the reference mu bound."""
    import math

    from ..rack.controllers import _closed_loop_channel
    from ..robust import BlockStructure, UncertaintyBlock

    n = n_boards
    weights = [1.0 / n] * n
    structure = BlockStructure([
        UncertaintyBlock("repeated", 1, 1, name=f"g_{i}") for i in range(n)
    ])
    omegas = np.linspace(0.02, math.pi, points)
    history = []
    chosen = None
    for gain in sorted(gain_grid, reverse=True):
        peak = 0.0
        for omega in omegas:
            z = complex(math.cos(omega), math.sin(omega))
            M = guardband * _closed_loop_channel(n, gain, weights, z)
            bound, _ = _reference_mu_upper_bound(M, structure)
            peak = max(peak, bound)
            if peak > 1.0:
                break
        history.append((gain, peak))
        if peak <= 1.0 and chosen is None:
            chosen = gain
            break
    if chosen is None:
        chosen = min(gain_grid)
    return chosen, history


def _check_mu_stack(cmp, label, Ms, structure):
    """Kernel on the whole stack vs the reference matrix by matrix."""
    from ..robust import mu_upper_bounds

    bounds, scales = mu_upper_bounds(Ms, structure)
    for k, M in enumerate(Ms):
        ref_bound, ref_scales = _reference_mu_upper_bound(M, structure)
        cmp.check((label, k), "bound", bounds[k], ref_bound)
        cmp.check_array(f"{label}[{k}]/log_scales", scales[k], ref_scales)
    return bounds


def oracle_mu_batch(context, rack_boards=(1, 4, 8, 16), guardband=0.4,
                    points=24):
    """Lockstep mu kernel vs the per-matrix reference; must be 0 ULP.

    Three inputs, each compared bound by bound and log-scale by
    log-scale: the rack's budget-loop channels at every grid gain and
    frequency, stacked whole per rack size; the closed-loop channels of
    the context's hardware and software D-K runs at every grid
    frequency; and ``select_integral_gain``'s ``(gain, mu_history)``
    against the frequency-by-frequency sweep.  Non-vacuity: the D-K
    channels must be multi-block, and the kernel's bounds must equal the
    ones D-K recorded for its design.
    """
    import math

    from ..rack.controllers import _closed_loop_channel, select_integral_gain
    from ..robust import BlockStructure, UncertaintyBlock

    gain_grid = (1.0, 0.8, 0.65, 0.5, 0.4, 0.3, 0.2)
    omegas = np.linspace(0.02, math.pi, points)
    cmp = _Comparator(tolerance_ulp=0.0)
    matrices = 0
    for n in rack_boards:
        structure = BlockStructure([
            UncertaintyBlock("repeated", 1, 1, name=f"g_{i}")
            for i in range(n)
        ])
        weights = [1.0 / n] * n
        Ms = [
            guardband * _closed_loop_channel(
                n, gain, weights, complex(math.cos(omega), math.sin(omega)))
            for gain in gain_grid for omega in omegas
        ]
        _check_mu_stack(cmp, f"rack n={n}", Ms, structure)
        matrices += len(Ms)
        gain, history = select_integral_gain(n, guardband=guardband,
                                             gain_grid=gain_grid,
                                             points=points)
        ref_gain, ref_history = _reference_select_integral_gain(
            n, guardband, gain_grid, points)
        cmp.check(f"select n={n}", "gain", gain, ref_gain)
        cmp.check(f"select n={n}", "history_length", float(len(history)),
                  float(len(ref_history)))
        for (g, peak), (ref_g, ref_peak) in zip(history, ref_history):
            cmp.check(f"select n={n}", f"history[{ref_g}].gain", g, ref_g)
            cmp.check(f"select n={n}", f"history[{ref_g}].peak", peak,
                      ref_peak)
    blocks = {}
    for label, design in (("hw", context.get_hw_design()),
                          ("sw", context.get_sw_design())):
        mu = design.dk_result.mu
        if mu.channel is None:  # a design from before channels were kept
            cmp.check(f"dk {label}", "channel_recorded", 0.0, 1.0)
            continue
        Ms = [mu.channel.at_frequency(omega) for omega in mu.omegas]
        bounds = _check_mu_stack(cmp, f"dk {label}", Ms, mu.structure)
        cmp.check_array(f"dk {label}/recorded_upper", bounds, mu.upper)
        matrices += len(Ms)
        blocks[label] = len(mu.structure)
        cmp.check("coverage", f"dk_{label}_multiblock",
                  float(len(mu.structure) >= 2), 1.0)
    return cmp.result("mu-batch-vs-reference", details={
        "rack_boards": list(rack_boards), "matrices": matrices,
        "dk_blocks": blocks,
    })
