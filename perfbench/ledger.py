"""The per-layer ledger: layer metrics computed from recorded spans.

Every workload reports the same metric names (a layer a workload does
not call reports zeros), so a change to one layer can be read off every
workload side by side.  ``LAYER_METRICS`` is the single list of names
and units; ``BENCHMARK.json`` carries the same list.

Board, core, experiments, runtime, obs and rack numbers cover the
measured phase only.  Cache and design numbers also cover set-up, which
is where a cold design cache is filled and a warm one is read.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["LAYER_METRICS", "SERVE_COUNTERS", "layer_metrics",
           "self_times", "check_nesting", "covered_time"]

SERVE_COUNTERS = ("executed", "cached", "coalesced", "rejected",
                  "deadline_timeouts", "failures", "bank_batches",
                  "banked_cells", "solo_cells")

LAYER_METRICS = (
    ("board.steps", "count"),
    ("board.busy_s", "s"),
    ("board.us_per_step", "us"),
    ("board.bank_calls", "count"),
    ("board.lanes_per_call", "lanes"),
    ("board.fused_tick_frac", "ratio"),
    ("board.scalar_tick_frac", "ratio"),
    ("core.control_steps", "count"),
    ("core.coordinator_self_us", "us"),
    ("core.controller_us", "us"),
    ("core.optimizer_us", "us"),
    ("experiments.tasks", "count"),
    ("experiments.cells_per_bank", "cells"),
    ("experiments.worker_busy_frac", "ratio"),
    ("experiments.dispatch_s", "s"),
    ("runtime.records", "count"),
    ("runtime.record_ms", "ms"),
    ("runtime.bytes", "bytes"),
    ("cache.gets", "count"),
    ("cache.hit_frac", "ratio"),
    ("cache.get_ms", "ms"),
    ("cache.puts", "count"),
    ("cache.put_ms", "ms"),
    ("design.characterize_s", "s"),
    ("design.ssv_s", "s"),
    ("design.lqg_s", "s"),
    ("obs.events", "count"),
    ("obs.emit_us", "us"),
) + tuple((f"serve.{name}", "count") for name in SERVE_COUNTERS) + (
    ("serve.bank_packing_efficiency", "ratio"),
    ("serve.server_ms", "ms"),
    ("serve.conn_wait_ms", "ms"),
    ("serve.gen_late_ms", "ms"),
    ("serve.p90_ms_r4", "ms"),
    ("serve.p50_ms_r8", "ms"),
    ("serve.p90_ms_r8", "ms"),
    ("serve.max_rps", "req/s"),
    ("experiments.exd_ratio", "ratio"),
    ("experiments.time_ratio", "ratio"),
    ("rack.cap_exposure_ws", "W.s"),
    ("rack.periods", "count"),
    ("rack.step_frac", "ratio"),
    ("rack.controller_us", "us"),
    ("rack.governor_us", "us"),
    ("rack.synth_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("unaccounted_s", "s"),
)

_BOARD_SPANS = ("board.run_period", "board.run_period_bank",
                "board.run_schedule_bank")
_SETUP_LAYERS = ("cache.", "design.")


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _key(span, sid=None):
    return (span["proc"], span["sid"] if sid is None else sid)


def self_times(spans):
    """``{(proc, sid): self seconds}``: duration minus child coverage."""
    child_time = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[_key(span, span["parent"])] += span["t1"] - span["t0"]
    return {
        _key(span): max(span["t1"] - span["t0"] - child_time[_key(span)],
                        0.0)
        for span in spans
    }


def check_nesting(spans, slack=1e-6):
    """Spans whose interval does not lie inside their parent's."""
    by_key = {_key(span): span for span in spans}
    bad = []
    for span in spans:
        if span["parent"] is None:
            continue
        parent = by_key.get(_key(span, span["parent"]))
        if (parent is None or span["t0"] < parent["t0"] - slack
                or span["t1"] > parent["t1"] + slack):
            bad.append(span)
    return bad


def covered_time(spans):
    """Length of the union of the spans' intervals (seconds)."""
    total = 0.0
    end = None
    for t0, t1 in sorted((s["t0"], s["t1"]) for s in spans):
        if end is None or t0 > end:
            total += t1 - t0
            end = t1
        elif t1 > end:
            total += t1 - end
            end = t1
    return total


def layer_metrics(spans, workers=1, matrix_wall=0.0, serve=None):
    """Every per-layer metric (except the trace pair) from ``spans``.

    ``workers`` is the number of processes or threads that run engine
    tasks, and ``matrix_wall`` the wall time those workers were
    available; together they give the engine's busy fraction.  ``serve``
    carries the service counters and generator timings of the serve
    workload (``None`` elsewhere).
    """
    measured = [s for s in spans if s["phase"] == "measure"
                or s["name"].startswith(_SETUP_LAYERS)]
    by_key = {_key(s): s for s in measured}
    selfs = self_times(measured)
    named = defaultdict(list)
    for span in measured:
        named[span["name"]].append(span)

    def dur(span):
        return span["t1"] - span["t0"]

    out = {}
    # board: only the outermost board span counts (a bank falls back to
    # Board.run_period for stalled lanes).
    top_board = []
    for span in measured:
        if span["name"] not in _BOARD_SPANS:
            continue
        parent = by_key.get(_key(span, span["parent"])) \
            if span["parent"] is not None else None
        if parent is None or parent["name"] not in _BOARD_SPANS:
            top_board.append(span)
    steps = sum(s["extra"]["ticks"] for s in top_board)
    busy = sum(dur(s) for s in top_board)
    bank = [s for s in top_board if s["name"] != "board.run_period"]
    fused = sum(s["extra"]["fused"] for s in bank)
    scalar = (sum(s["extra"]["scalar"] for s in bank)
              + sum(s["extra"]["ticks"] for s in top_board
                    if s["name"] == "board.run_period"))
    out["board.steps"] = steps
    out["board.busy_s"] = busy
    out["board.us_per_step"] = busy / steps * 1e6 if steps else 0.0
    out["board.bank_calls"] = len(bank)
    out["board.lanes_per_call"] = _mean(s["extra"]["lanes"] for s in bank)
    out["board.fused_tick_frac"] = fused / steps if steps else 0.0
    out["board.scalar_tick_frac"] = scalar / steps if steps else 0.0

    control = named["core.control_step"]
    out["core.control_steps"] = len(control)
    out["core.coordinator_self_us"] = _mean(
        selfs[_key(s)] for s in control) * 1e6
    out["core.controller_us"] = _mean(
        dur(s) for s in named["core.controller_step"]) * 1e6
    out["core.optimizer_us"] = _mean(
        dur(s) for s in named["core.optimizer_update"]) * 1e6

    tasks = named["experiments.execute_task"]
    task_busy = sum(dur(s) for s in tasks)
    out["experiments.tasks"] = len(tasks)
    out["experiments.cells_per_bank"] = _mean(
        s["extra"]["cells"] for s in named["experiments.run_cells_banked"])
    out["experiments.worker_busy_frac"] = (
        task_busy / (workers * matrix_wall) if matrix_wall else 0.0)
    matrix = sum(dur(s) for s in named["experiments.run_matrix"])
    out["experiments.dispatch_s"] = (
        max(matrix - task_busy / workers, 0.0) if matrix else 0.0)

    records = named["runtime.record"]
    out["runtime.records"] = len(records)
    out["runtime.record_ms"] = _mean(dur(s) for s in records) * 1e3
    out["runtime.bytes"] = sum(s["extra"]["bytes"] for s in records)

    gets = named["cache.get"]
    puts = named["cache.put"]
    out["cache.gets"] = len(gets)
    out["cache.hit_frac"] = _mean(1.0 if s["extra"]["hit"] else 0.0
                                  for s in gets)
    out["cache.get_ms"] = _mean(dur(s) for s in gets) * 1e3
    out["cache.puts"] = len(puts)
    out["cache.put_ms"] = _mean(dur(s) for s in puts) * 1e3

    out["design.characterize_s"] = sum(
        dur(s) for s in named["design.characterize"])
    out["design.ssv_s"] = sum(dur(s) for s in named["design.ssv"])
    out["design.lqg_s"] = sum(dur(s) for s in named["design.lqg"])

    emits = named["obs.emit"]
    out["obs.events"] = len(emits)
    out["obs.emit_us"] = _mean(dur(s) for s in emits) * 1e6

    serve = serve or {}
    counters = serve.get("counters", {})
    for name in SERVE_COUNTERS:
        out[f"serve.{name}"] = counters.get(name, 0)
    batches = counters.get("bank_batches", 0)
    out["serve.bank_packing_efficiency"] = (
        counters.get("banked_cells", 0) / (batches * serve["batch"])
        if batches else 0.0)
    for name in ("server_ms", "conn_wait_ms", "gen_late_ms"):
        out[f"serve.{name}"] = serve.get(name, 0.0)

    runs = named["rack.run"]
    loop_wall = sum(s["extra"]["loop_wall"] for s in runs)
    out["rack.periods"] = sum(s["extra"]["periods"] for s in runs)
    out["rack.step_frac"] = (sum(s["extra"]["step_wall"] for s in runs)
                             / loop_wall if loop_wall else 0.0)
    out["rack.controller_us"] = _mean(
        dur(s) for s in named["rack.controller_step"]) * 1e6
    out["rack.governor_us"] = _mean(
        dur(s) for s in named["rack.governor_command"]) * 1e6
    out["rack.synth_ms"] = _mean(
        dur(s) for s in named["rack.controller_synth"]) * 1e3
    return out
