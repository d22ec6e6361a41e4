"""Span recording around the public entry points of each ``repro`` layer.

The benchmark measures every layer from outside: :func:`install` replaces
a fixed list of public functions and methods with thin wrappers that
record one span per call.  Nothing inside ``src/`` is edited.

A span is ``(sid, parent, name, t0, t1, ident, phase, extra)``: ``sid``
is unique within its process, ``parent`` is the enclosing span of the
same thread (or ``None``), ``ident`` is the cell or request the work
belongs to (inherited from the parent when the wrapper cannot see one),
``phase`` is ``"setup"`` or ``"measure"``, and ``extra`` holds the few
numbers a layer's counters need (ticks, lanes, bytes, cache hit).

Spans stay in memory and are written out once, when the workload ends
(:meth:`Tracer.dump`).  Forked pool workers inherit the wrappers; each
worker writes its own file from a ``multiprocessing`` finalizer when the
pool shuts it down.  ``Board.step`` (once per simulator tick) is never
wrapped.
"""

from __future__ import annotations

import importlib
import itertools
import marshal
import os
import pickle
import sys
import threading
import time
from pathlib import Path

__all__ = ["Tracer", "install", "load_spans"]


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self, out_dir, phase="measure"):
        self.out_dir = Path(out_dir)
        self.phase = phase
        self.enabled = True
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- span bookkeeping --------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, args, kwargs, ident=None, pre=None,
             post=None):
        """Call ``fn(*args, **kwargs)`` inside one recorded span.

        ``pre(args, kwargs)`` runs before the call and ``post(state,
        args, kwargs, result)`` after it; ``post`` returns the span's
        ``extra`` numbers.
        """
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1][0] if stack else None
        if ident is None and stack:
            ident = stack[-1][1]
        stack.append((sid, ident))
        state = pre(args, kwargs) if pre is not None else None
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
        extra = post(state, args, kwargs, result) if post else None
        self.spans.append((sid, parent, name, t0, t1, ident, self.phase,
                           extra))
        return result

    def record(self, name, t0, t1, ident=None, parent=None, extra=None):
        """Append a span measured by the caller (e.g. the load generator)."""
        sid = next(self._ids)
        self.spans.append((sid, parent, name, t0, t1, ident, self.phase,
                           extra))
        return sid

    # -- output ------------------------------------------------------------
    def dump(self):
        """Write this process's spans to ``spans-<pid>-<ns>.bin`` (marshal).

        ``marshal`` writes a list of plain tuples in milliseconds, so a
        pool worker's exit -- inside the measured pool shutdown -- stays
        cheap.
        """
        self.out_dir.mkdir(parents=True, exist_ok=True)
        # The clock suffix keeps a reused process id from overwriting.
        path = self.out_dir / f"spans-{os.getpid()}-{time.time_ns()}.bin"
        with open(path, "wb") as fh:
            marshal.dump(self.spans, fh)
        self.spans = []
        return path

    def _after_mp_fork(self):
        # A forked pool worker: drop the parent's spans, dump at exit.
        from multiprocessing.util import Finalize

        self.spans = []
        self._local = threading.local()
        Finalize(self, Tracer.dump, args=(self,), exitpriority=10)


def load_spans(out_dir):
    """Every span written under ``out_dir``.

    Each span is tagged with its process id and with ``proc``, the name
    of the file it came from, which stays unique if an id is reused.
    """
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.bin")):
        pid = int(path.stem.split("-")[1])
        with open(path, "rb") as fh:
            records = marshal.load(fh)
        for sid, parent, name, t0, t1, ident, phase, extra in records:
            spans.append({
                "pid": pid, "proc": path.stem, "sid": sid, "parent": parent, "name": name,
                "t0": t0, "t1": t1, "ident": ident, "phase": phase,
                "extra": extra,
            })
    return spans


# ---------------------------------------------------------------------------
# Wrapper installation
# ---------------------------------------------------------------------------
def _replace_everywhere(original, wrapped):
    """Point every loaded ``repro`` module attribute at the wrapper."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _wrap_function(tracer, module_name, attr, span_name, ident_fn=None,
                   pre=None, post=None):
    module = importlib.import_module(module_name)
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        ident = ident_fn(args, kwargs) if ident_fn else None
        return tracer.span(span_name, original, args, kwargs, ident=ident,
                           pre=pre, post=post)

    wrapper.__wrapped__ = original
    _replace_everywhere(original, wrapper)


def _wrap_method(tracer, module_name, class_name, attr, span_name, pre=None,
                 post=None):
    cls = getattr(importlib.import_module(module_name), class_name)
    original = cls.__dict__[attr]

    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return original(*args, **kwargs)
        return tracer.span(span_name, original, args, kwargs, pre=pre,
                           post=post)

    wrapper.__wrapped__ = original
    setattr(cls, attr, wrapper)


# -- extra fields ------------------------------------------------------------
def _ticks(state, args, kwargs, result):
    return {"ticks": int(result)}


def _bank_counts(args, kwargs):
    counters = args[0].counters()
    return counters["fused_ticks"], counters["scalar_ticks"]


def _bank_post(only_index):
    def post(state, args, kwargs, result):
        bank = args[0]
        only = kwargs.get("only")
        if only is None and len(args) > only_index:
            only = args[only_index]
        fused, scalar = _bank_counts(args, kwargs)
        return {
            "ticks": int(sum(result)),
            "lanes": len(list(only)) if only is not None
            else len(bank.boards),
            "fused": fused - state[0],
            "scalar": scalar - state[1],
        }

    return post


def _cache_get_post(state, args, kwargs, result):
    from repro.cache import MISS

    return {"hit": result is not MISS}


def _journal_post(state, args, kwargs, result):
    # Payload size, measured without relying on the journal's file layout.
    return {"bytes": len(pickle.dumps(args[2], pickle.HIGHEST_PROTOCOL))}


def _banked_post(state, args, kwargs, result):
    return {"cells": len(result)}


def _rack_post(state, args, kwargs, result):
    return {"periods": result.periods, "step_wall": result.step_wall,
            "loop_wall": result.loop_wall}


def _task_ident(args, kwargs):
    task = args[1] if len(args) > 1 else kwargs.get("task")
    kind, payload = task
    if kind == "cell":
        return f"{payload[0]}:{payload[1]}:s{payload[2]}"
    fn, fn_args, _ = payload
    if getattr(fn, "__name__", "") != "_bank_group":
        return f"call:{getattr(fn, '__name__', fn)}"
    return "bank:" + ",".join(f"{s}:{w}:s{seed}" for s, w, seed in fn_args[0])


def _matrix_ident(args, kwargs):
    return f"matrix:s{kwargs.get('seed')}"


def install(tracer):
    """Wrap the public calls of every layer the workloads measure."""
    import repro.baselines  # noqa: F401  (load before patching)
    import repro.experiments  # noqa: F401
    import repro.rack  # noqa: F401
    import repro.serve  # noqa: F401

    # board
    _wrap_method(tracer, "repro.board.board", "Board", "run_period",
                 "board.run_period", post=_ticks)
    # ``only`` is the third positional argument of run_period_bank and the
    # fourth of run_schedule_bank.
    for attr, only_index in (("run_period_bank", 2),
                             ("run_schedule_bank", 3)):
        _wrap_method(tracer, "repro.board.bank", "BoardBank", attr,
                     f"board.{attr}", pre=_bank_counts,
                     post=_bank_post(only_index))
    # core
    _wrap_method(tracer, "repro.core.coordinator", "MultilayerCoordinator",
                 "control_step", "core.control_step")
    _wrap_method(tracer, "repro.core.controller", "RuntimeController",
                 "step", "core.controller_step")
    _wrap_method(tracer, "repro.core.optimizer", "ExDOptimizer", "update",
                 "core.optimizer_update")
    # experiments
    _wrap_function(tracer, "repro.experiments.engine", "execute_task",
                   "experiments.execute_task", ident_fn=_task_ident)
    _wrap_function(tracer, "repro.experiments.bank_runner",
                   "run_cells_banked", "experiments.run_cells_banked",
                   post=_banked_post)
    _wrap_function(tracer, "repro.experiments.runner", "run_workload",
                   "experiments.run_workload")
    _wrap_function(tracer, "repro.experiments.engine", "run_matrix",
                   "experiments.run_matrix", ident_fn=_matrix_ident)
    # runtime
    _wrap_method(tracer, "repro.runtime.checkpoint", "CheckpointJournal",
                 "record", "runtime.record", post=_journal_post)
    # cache
    _wrap_method(tracer, "repro.cache", "DesignCache", "get", "cache.get",
                 post=_cache_get_post)
    _wrap_method(tracer, "repro.cache", "DesignCache", "put", "cache.put")
    # design
    _wrap_function(tracer, "repro.core.characterize", "characterize_board",
                   "design.characterize")
    _wrap_function(tracer, "repro.core.design", "design_layer", "design.ssv")
    for attr in ("design_lqg_hw", "design_lqg_sw", "design_monolithic_lqg"):
        _wrap_function(tracer, "repro.baselines.lqg_runtime", attr,
                       "design.lqg")
    # obs
    _wrap_method(tracer, "repro.obs.events", "CampaignEvents", "emit",
                 "obs.emit")
    # rack
    _wrap_method(tracer, "repro.rack.rack", "Rack", "run", "rack.run",
                 post=_rack_post)
    _wrap_method(tracer, "repro.rack.controllers", "SSVRackController",
                 "__init__", "rack.controller_synth")
    _wrap_method(tracer, "repro.rack.controllers", "SSVRackController",
                 "step", "rack.controller_step")
    _wrap_method(tracer, "repro.rack.controllers", "BudgetGovernor",
                 "command", "rack.governor_command")

    from multiprocessing.util import register_after_fork

    register_after_fork(tracer, Tracer._after_mp_fork)
    return tracer
