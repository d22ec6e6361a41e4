"""The rack runtime: a third control layer over a bank of boards.

:class:`Rack` composes the facility plant declared by a
:class:`~repro.rack.spec.RackSpec` — N boards, one power cap, a cooling
envelope, a job arrival queue — with a rack-layer controller
(:class:`~repro.rack.controllers.SSVRackController` or the heuristic
baseline) and the per-board budget governors underneath.

Control-loop shape (one rack period)
------------------------------------
1. fault schedule edges (boards drop offline / sensors drop out);
2. job admission (arrivals enter the queue) and dispatch (idle online
   boards take the queue head);
3. declared sensing: per-board power / headroom / queue depth;
4. cooling state update and cap derate (the envelope);
5. rack controller: budgets from declared sensors, floors and cap
   enforced;
6. budget governors: each board turns its budget into one DVFS pair;
7. plant stepping: each busy board is actuated once with its pair, then
   every busy online board advances ``rack_period / sim_dt`` ticks — in
   one :meth:`~repro.board.bank.BoardBank.run_period_bank` call (the
   bank's lane×tick kernel, every lane on its own command), or one
   ``Board.run_period`` call per board on the scalar reference path
   (``use_bank=False``);
8. job completion + SLA accounting, trace row, invariant checks.

Exactness contract
------------------
``use_bank=True`` and ``use_bank=False`` produce bit-identical rack
traces and board states: ``run_period_bank`` is bit-exact versus
per-board ``run_period`` (lanes carrying a sensor fault fall back to
scalar stepping inside the bank), every rack-layer computation is plain
float arithmetic over identical readings, and dispatch order is
deterministic.  Actuating once per rack period equals re-sending the
same command every board period: a repeated, already-snapped level is a
no-op, governor commands are on-grid and in range (never counted as
rejected), and the rack installs no actuator fault hooks.  The
``rack-bank-vs-scalar`` oracle in ``repro verify`` holds this at 0 ULP.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from ..board import Board, BoardBank
from ..board.specs import BIG, LITTLE
from ..faults.hooks import SensorFault
from ..workloads import Application
from .controllers import BoardReading, BudgetGovernor, SSVRackController
from .spec import RackSpec

_OFFLINE_READING = BoardReading(power=0.0, headroom=0.0, queue_depth=0,
                                online=False)

__all__ = [
    "Rack",
    "RackJob",
    "RackRunResult",
    "RackTrace",
    "instantiate_job_workload",
]


def instantiate_job_workload(workload):
    """Resolve a job workload name into fresh Application instances.

    Accepts every program/mix name the workload library knows, plus an
    optional ``@<scale>`` suffix (e.g. ``"blackscholes@0.1"``) that
    scales each phase's instruction budget — rack job streams want runs
    of tens of seconds, not the paper's full 120-250 s programs.
    """
    return [Application(name, phases)
            for name, phases in _job_phases(workload)]


@lru_cache(maxsize=256)
def _job_phases(workload):
    """``(app name, scaled phases)`` per application of one job workload.

    Phases are frozen, so one scaled tuple serves every instantiation.
    """
    name, _, scale_text = workload.partition("@")
    from ..experiments.runner import instantiate_workload

    apps = instantiate_workload(name)
    scale = None
    if scale_text:
        scale = float(scale_text)
        if not (scale > 0):
            raise ValueError(f"workload scale must be positive: {workload!r}")
    return tuple(
        (app.name, tuple(
            ph if scale is None
            else replace(ph, instructions=ph.instructions * scale)
            for ph in app.phases
        ))
        for app in apps
    )


@dataclass
class RackJob:
    """Runtime state of one queued/running/completed job."""

    spec: object  # JobSpec
    state: str = "queued"  # queued | running | completed
    board: int = None
    apps: list = None
    dispatched_at: float = None
    completed_at: float = None
    requeues: int = 0

    @property
    def missed_sla(self):
        if self.completed_at is None:
            return False
        return self.completed_at > self.spec.deadline + 1e-9


@dataclass
class RackTrace:
    """Per-rack-period history of the facility loop."""

    times: list = field(default_factory=list)
    cap: list = field(default_factory=list)
    cap_eff: list = field(default_factory=list)
    inlet: list = field(default_factory=list)
    power_declared: list = field(default_factory=list)  # controller's view
    power_true: list = field(default_factory=list)  # energy-derived mean
    budget_total: list = field(default_factory=list)
    budgets: list = field(default_factory=list)  # per-board rows
    board_power: list = field(default_factory=list)  # per-board true rows
    queue_depth: list = field(default_factory=list)
    running: list = field(default_factory=list)
    completed: list = field(default_factory=list)
    sla_misses: list = field(default_factory=list)
    churn: list = field(default_factory=list)  # sum |delta budget| this edge
    online: list = field(default_factory=list)  # online board count

    def as_arrays(self):
        out = {}
        for name in ("times", "cap", "cap_eff", "inlet", "power_declared",
                     "power_true", "budget_total", "queue_depth", "running",
                     "completed", "sla_misses", "churn", "online"):
            out[name] = np.asarray(getattr(self, name), dtype=float)
        out["budgets"] = np.asarray(self.budgets, dtype=float)
        out["board_power"] = np.asarray(self.board_power, dtype=float)
        return out


@dataclass
class RackRunResult:
    """Outcome of one rack campaign."""

    controller: str
    periods: int
    elapsed: float  # simulated seconds the loop covered
    energy: float
    makespan: float  # completion time of the last finished job (0 if none)
    jobs_admitted: int
    jobs_completed: int
    jobs_unfinished: int
    sla_misses: int
    requeues: int
    rejected_budgets: int
    trace: RackTrace
    jobs: list
    bank_counters: dict = None
    controller_info: dict = field(default_factory=dict)
    board_energy: tuple = ()
    board_time: tuple = ()
    step_wall: float = 0.0  # wall seconds inside plant stepping
    loop_wall: float = 0.0  # wall seconds for the whole rack loop

    @property
    def exd(self):
        """The rack-level energy x delay product (J x s)."""
        horizon = self.makespan if self.makespan > 0 else self.elapsed
        return self.energy * horizon

    def summary(self):
        return (
            f"{self.controller}: {self.jobs_completed}/{self.jobs_admitted} "
            f"jobs, {self.sla_misses} SLA miss(es), "
            f"E={self.energy:.1f} J, makespan={self.makespan:.1f} s, "
            f"ExD={self.exd:.0f}"
        )


class Rack:
    """N boards, one cap, one queue — and a third-layer controller."""

    def __init__(self, spec: RackSpec, controller=None, use_bank=True,
                 record=False, record_boards=False, seed=0, telemetry=None):
        self.spec = spec
        self.seed = int(seed)
        self.controller = (controller if controller is not None
                           else SSVRackController(spec))
        self.use_bank = bool(use_bank)
        self.record = bool(record)
        if telemetry is None:
            from ..telemetry import active_session

            telemetry = active_session()
        self.telemetry = telemetry
        self.boards = [
            Board([], spec=bs, seed=self.seed + i, record=record_boards,
                  telemetry=telemetry)
            for i, bs in enumerate(spec.boards)
        ]
        self.bank = (BoardBank(self.boards, telemetry=telemetry)
                     if self.use_bank else None)
        self.governors = [BudgetGovernor(bs) for bs in spec.boards]
        # Declared power sensing per board: (big sensor, little sensor,
        # static draw).  Sensor faults swap a sensor's fault hook, never
        # the sensor itself, so the handles stay valid.
        self._power_taps = [
            (b.power_sensors[BIG], b.power_sensors[LITTLE],
             bs.board_static_power)
            for b, bs in zip(self.boards, spec.boards)
        ]
        # One shared sim_dt (RackSpec enforces it), so every lane steps
        # the same number of ticks per rack period.
        self._ticks = int(round(spec.rack_period / spec.boards[0].sim_dt))
        self.jobs = [RackJob(spec=j) for j in sorted(
            spec.jobs, key=lambda j: (j.arrival, j.name)
        )]
        self._arrivals = [j.spec.arrival for j in self.jobs]
        self.queue = []  # admitted, undispatched RackJobs (FIFO)
        self._admitted = 0  # jobs[:_admitted] have arrived and been admitted
        self._job_on_board = [None] * spec.n_boards
        self._online = [True] * spec.n_boards
        self._sensor_reverters = {}
        self._last_energy = [0.0] * spec.n_boards
        self.inlet_temp = spec.cooling.supply_temp
        self._cooling_alpha = min(spec.rack_period / spec.cooling.tau, 1.0)
        self._min_cap = spec.min_cap()
        self.time = 0.0
        self.trace = RackTrace() if record else None
        self._last_budgets = (list(self.controller.budgets) if record
                              else None)
        # Wall-clock split, filled by run(): plant stepping vs everything
        # else (sensing, control, dispatch, bookkeeping).  The rack
        # benchmark holds the ratio down.
        self.step_wall = 0.0
        self.loop_wall = 0.0

    # ------------------------------------------------------------------
    # Fault schedule
    # ------------------------------------------------------------------
    def _update_faults(self, now):
        for fault in self.spec.faults:
            active = fault.active_at(now)
            i = fault.board
            if fault.kind == "offline":
                if active and self._online[i]:
                    self._take_offline(i)
                elif not active and not self._online[i]:
                    self._online[i] = True
            else:  # power-sensor dropout
                installed = fault in self._sensor_reverters
                if active and not installed:
                    sensor = self.boards[i].power_sensors[BIG]
                    previous = sensor.fault_hook
                    sensor.fault_hook = SensorFault("dropout")
                    self._sensor_reverters[fault] = (sensor, previous)
                elif not active and installed:
                    sensor, previous = self._sensor_reverters.pop(fault)
                    sensor.fault_hook = previous

    def _take_offline(self, i):
        """Drop a board: requeue its job, reclaim its budget."""
        self._online[i] = False
        job = self._job_on_board[i]
        if job is not None:
            board = self.boards[i]
            # Abandon the half-run applications (restart-from-scratch
            # semantics) and retire the lane's cached plans.
            for app in job.apps:
                if app in board.applications:
                    board.applications.remove(app)
            if self.bank is not None:
                self.bank.invalidate_board(i)
            job.state = "queued"
            job.board = None
            job.apps = None
            job.requeues += 1
            self._job_on_board[i] = None
            self.queue.insert(0, job)

    # ------------------------------------------------------------------
    # Queue admission and dispatch
    # ------------------------------------------------------------------
    def _admit(self, now):
        # ``jobs`` is arrival-sorted and a job is admitted exactly once
        # (requeues go straight back into ``queue``), so admission is a
        # pointer walk.
        arrivals = self._arrivals
        while (self._admitted < len(arrivals)
               and arrivals[self._admitted] <= now + 1e-9):
            self.queue.append(self.jobs[self._admitted])
            self._admitted += 1

    def _dispatch(self, now):
        if not self.queue or None not in self._job_on_board:
            return
        for i, board in enumerate(self.boards):
            if not self.queue:
                break
            if not self._online[i] or self._job_on_board[i] is not None:
                continue
            if not board.done:
                continue  # residual foreign work; never co-schedule
            job = self.queue.pop(0)
            apps = instantiate_job_workload(job.spec.workload)
            board.applications.extend(apps)
            if self.bank is not None:
                self.bank.invalidate_board(i)
            job.apps = apps
            job.board = i
            job.state = "running"
            job.dispatched_at = now
            self._job_on_board[i] = job

    def _complete(self, now_end):
        for i, job in enumerate(self._job_on_board):
            if job is None:
                continue
            for app in job.apps:
                if not app.done:
                    break
            else:
                job.state = "completed"
                job.completed_at = now_end
                self._job_on_board[i] = None

    # ------------------------------------------------------------------
    # Declared sensing and the cooling envelope
    # ------------------------------------------------------------------
    def _read(self):
        """Declared sensing: one reading per board, plus the summed power
        of the trusted readings (online, finite)."""
        readings = []
        trusted_power = []
        depth = len(self.queue)
        for (big, little, static), online, budget, job in zip(
            self._power_taps, self._online, self.controller.budgets,
            self._job_on_board,
        ):
            if not online:
                readings.append(_OFFLINE_READING)
                continue
            power = big.read() + little.read() + static
            if math.isfinite(power):
                trusted_power.append(power)
                headroom = budget - power
            else:
                headroom = math.nan
            readings.append(BoardReading(power, headroom, depth, True,
                                         job is not None))
        return readings, sum(trusted_power)

    def _cooled_cap(self, declared, cap):
        """Advance the inlet toward the declared draw's steady state and
        return the cap derated by the cooling envelope."""
        cooling = self.spec.cooling
        target = cooling.steady_inlet(declared)
        self.inlet_temp = (self.inlet_temp
                           + self._cooling_alpha * (target - self.inlet_temp))
        derated = cap * cooling.derate_fraction(self.inlet_temp)
        return max(derated, self._min_cap)

    # ------------------------------------------------------------------
    # Plant stepping
    # ------------------------------------------------------------------
    def _advance(self, commands):
        """Advance every busy online board one rack period.

        ``commands`` maps board index -> (freq_big, freq_little), held
        constant for the whole rack period: each lane is actuated once,
        then every lane advances ``rack_period / sim_dt`` ticks in one
        :meth:`~repro.board.bank.BoardBank.run_period_bank` call (banked)
        or one :meth:`~repro.board.board.Board.run_period` call per board
        (scalar reference path).

        Commands exist only for online boards holding a job, and a job's
        board always has unfinished work: :meth:`_complete` frees the
        board in the period its applications finish.
        """
        if not commands:
            return
        t0 = _time.perf_counter()
        try:
            for i, (fb, fl) in commands.items():
                board = self.boards[i]
                board.set_cluster_frequency(BIG, fb)
                board.set_cluster_frequency(LITTLE, fl)
            if self.bank is None:
                for i in commands:
                    self.boards[i].run_period(self._ticks)
            else:
                self.bank.run_period_bank(self._ticks, only=commands)
        finally:
            self.step_wall += _time.perf_counter() - t0

    # ------------------------------------------------------------------
    # The campaign loop
    # ------------------------------------------------------------------
    def run(self, max_time=120.0, cap_schedule=None):
        """Run the rack loop for ``max_time`` simulated seconds.

        ``cap_schedule`` is an optional sorted list of ``(time, cap)``
        pairs overriding the spec cap from each time onward — the cap
        step-response experiment's knob.  Stops early once every admitted
        job has completed and no arrivals remain.
        """
        from ..verify.invariants import active_monitor

        spec = self.spec
        rp = spec.rack_period
        periods = max(int(round(max_time / rp)), 1)
        monitor = active_monitor()
        last_arrival = self._arrivals[-1] if self._arrivals else 0.0
        governors = self.governors
        faults = spec.faults
        trace = self.trace
        t_loop = _time.perf_counter()
        for p in range(periods):
            now = p * rp
            cap = spec.power_cap
            if cap_schedule:
                for t, value in cap_schedule:
                    if t <= now + 1e-9:
                        cap = value
            if faults:
                self._update_faults(now)
            self._admit(now)
            self._dispatch(now)
            readings, declared = self._read()
            cap_eff = self._cooled_cap(declared, cap)
            budgets = self.controller.step(readings, cap_eff)
            commands = {}
            for i, r in enumerate(readings):
                if r.busy:  # online and holding a job
                    commands[i] = governors[i].command(budgets[i], r.power)
            if monitor is not None:
                running = sum(1 for j in self._job_on_board if j is not None)
                done_jobs = sum(1 for j in self.jobs
                                if j.state == "completed")
                monitor.check_rack(
                    time=now,
                    budgets=budgets,
                    floors=spec.floors(),
                    cap=cap_eff,
                    online=list(self._online),
                    admitted=self._admitted,
                    queued=len(self.queue),
                    running=running,
                    completed=done_jobs,
                )
            if trace is not None:
                energy_before = [b.energy for b in self.boards]
            self._advance(commands)
            now_end = now + rp
            self.time = now_end
            self._complete(now_end)
            if trace is not None:
                board_power = [
                    (b.energy - e0) / rp
                    for b, e0 in zip(self.boards, energy_before)
                ]
                churn = sum(abs(b - lb) for b, lb in
                            zip(budgets, self._last_budgets))
                trace.times.append(now)
                trace.cap.append(cap)
                trace.cap_eff.append(cap_eff)
                trace.inlet.append(self.inlet_temp)
                trace.power_declared.append(declared)
                trace.power_true.append(sum(board_power))
                trace.budget_total.append(sum(budgets))
                trace.budgets.append(list(budgets))
                trace.board_power.append(board_power)
                trace.queue_depth.append(len(self.queue))
                trace.running.append(sum(
                    1 for j in self._job_on_board if j is not None
                ))
                trace.completed.append(sum(
                    1 for j in self.jobs if j.state == "completed"
                ))
                trace.sla_misses.append(sum(
                    1 for j in self.jobs if j.missed_sla
                ))
                trace.churn.append(churn)
                trace.online.append(sum(self._online))
                self._last_budgets = list(budgets)
            if (
                self.jobs
                and now_end >= last_arrival
                and not self.queue
                and self._admitted == len(self.jobs)
                and all(j is None for j in self._job_on_board)
            ):
                periods = p + 1
                break
        self.loop_wall += _time.perf_counter() - t_loop
        return self._result(periods)

    def _result(self, periods):
        completed = [j for j in self.jobs if j.state == "completed"]
        makespan = max((j.completed_at for j in completed), default=0.0)
        info = {}
        controller = self.controller
        if hasattr(controller, "gain"):
            info["gain"] = controller.gain
        if hasattr(controller, "mu_peak"):
            info["mu_peak"] = controller.mu_peak
        return RackRunResult(
            controller=getattr(controller, "name", type(controller).__name__),
            periods=periods,
            elapsed=periods * self.spec.rack_period,
            energy=sum(b.energy for b in self.boards),
            makespan=makespan,
            jobs_admitted=self._admitted,
            jobs_completed=len(completed),
            jobs_unfinished=self._admitted - len(completed),
            sla_misses=sum(1 for j in self.jobs if j.missed_sla),
            requeues=sum(j.requeues for j in self.jobs),
            rejected_budgets=controller.rejected_budgets,
            trace=self.trace,
            jobs=list(self.jobs),
            bank_counters=(self.bank.counters()
                           if self.bank is not None else None),
            controller_info=info,
            board_energy=tuple(b.energy for b in self.boards),
            board_time=tuple(b.time for b in self.boards),
            step_wall=self.step_wall,
            loop_wall=self.loop_wall,
        )
