"""Benchmark: rack-scale throughput and control overhead.

Two gates on the third layer:

* **aggregate throughput** — board-steps per wall-second through a full
  rack campaign (sensing + control + governors + bank stepping) at
  N in {1, 4, 8} boards, banked and scalar; both paths must clear an
  absolute floor and agree bit-exactly (the exactness contract,
  re-checked here because a perf regression that breaks it would
  otherwise hide in the oracle's smaller scenario).  The banked/scalar
  ratio is reported, not gated: each rack period is one bank window of
  ``rack_period / sim_dt`` ticks with every lane on its own DVFS pair,
  and at a few lanes per window the scalar per-board fast path is
  legitimately competitive;
* **control overhead** — the rack layer's own work (declared sensing,
  cap distribution, budget governors, dispatch, trace bookkeeping) must
  cost < 5 % of plant stepping.  :class:`~repro.rack.rack.Rack` splits
  its wall clock into ``step_wall`` (inside the bank / scalar stepping)
  and ``loop_wall`` (the whole period loop); the gate holds their ratio.

A third section records, ungated, what the SSV controller's gain
synthesis costs: ``select_integral_gain`` (the lockstep mu sweep) at
N in {1, 4, 8}, best of three, with the gain it chose and its
``mu_history``.  There is no time floor: wall time on a shared machine
swings too much to gate, and the chosen gain is pinned bit-exactly by
the ``mu-batch-vs-reference`` oracle instead.

Methodology matches the other benches: a warm-up run swallows import and
plan-cache cold costs, GC is disabled inside timed regions, each gate
takes the best of several attempts (noise only inflates a sample), and
the verdict numbers land in ``BENCH_rack.json`` for the trajectory
ledger.

    PYTHONPATH=src python benchmarks/bench_rack.py [--quick] [--out FILE]
"""

import gc
import json
import os
import sys
import time
from pathlib import Path

OVERHEAD_LIMIT = 0.05  # rack-layer wall time as a fraction of stepping
STEPS_PER_SEC_FLOOR = 2000.0  # very conservative absolute throughput floor
BOARD_COUNTS = (1, 4, 8)
ATTEMPTS = 3
MAX_SIM_TIME = 24.0  # simulated seconds per measured campaign


def _saturated_rack(n_boards):
    """A rack where every board stays busy for the whole horizon."""
    from repro.rack import JobSpec, default_rack_spec

    jobs = tuple(
        JobSpec(name=f"load{i}", workload="blackscholes@0.5", arrival=0.0,
                sla=1e4)
        for i in range(n_boards + 2)
    )
    return default_rack_spec(n_boards=n_boards, jobs=jobs)


def _timed_campaign(n_boards, use_bank, max_time, seed=3):
    from repro.rack import Rack

    rack = Rack(_saturated_rack(n_boards), use_bank=use_bank, seed=seed)
    gc.collect()
    gc.disable()
    try:
        result = rack.run(max_time=max_time)
    finally:
        gc.enable()
    sim_dt = rack.spec.boards[0].sim_dt
    steps = sum(result.board_time) / sim_dt
    return result, steps


def measure_throughput(attempts=ATTEMPTS, max_time=MAX_SIM_TIME,
                       verbose=True):
    """Steps/s banked vs scalar per board count, plus the exactness bit."""
    _timed_campaign(2, True, 4.0)  # warm-up: imports, plan caches
    cells = []
    for n in BOARD_COUNTS:
        best = {}
        identical = True
        for _ in range(attempts):
            banked, steps_b = _timed_campaign(n, True, max_time)
            scalar, steps_s = _timed_campaign(n, False, max_time)
            identical = identical and (
                banked.energy == scalar.energy
                and banked.board_time == scalar.board_time
            )
            rate_b = steps_b / banked.loop_wall
            rate_s = steps_s / scalar.loop_wall
            if not best or rate_b > best["banked_steps_per_sec"]:
                best = {
                    "n_boards": n,
                    "banked_steps_per_sec": rate_b,
                    "scalar_steps_per_sec": rate_s,
                    "bank_speedup": rate_b / rate_s,
                    "periods": banked.periods,
                }
        best["bit_identical"] = identical
        cells.append(best)
        if verbose:
            print(f"n={n}: banked {best['banked_steps_per_sec']:9,.0f} "
                  f"steps/s, scalar {best['scalar_steps_per_sec']:9,.0f}, "
                  f"speedup {best['bank_speedup']:.2f}x, "
                  f"identical={identical}")
    return cells


def measure_control_overhead(attempts=ATTEMPTS, max_time=MAX_SIM_TIME,
                             n_boards=4, verbose=True):
    """Rack-layer wall time over stepping wall time, best attempt."""
    _timed_campaign(n_boards, True, 4.0)  # warm-up
    best = None
    for attempt in range(attempts):
        result, _ = _timed_campaign(n_boards, True, max_time)
        frac = (result.loop_wall - result.step_wall) / result.step_wall
        cand = {
            "n_boards": n_boards,
            "loop_wall_ms": result.loop_wall * 1000,
            "step_wall_ms": result.step_wall * 1000,
            "overhead_frac": frac,
            "limit_frac": OVERHEAD_LIMIT,
        }
        if best is None or frac < best["overhead_frac"]:
            best = cand
        if verbose:
            print(f"attempt {attempt + 1}/{attempts}: loop "
                  f"{cand['loop_wall_ms']:.1f} ms, stepping "
                  f"{cand['step_wall_ms']:.1f} ms, rack-layer overhead "
                  f"{frac * 100:.2f}% (limit {OVERHEAD_LIMIT * 100:.0f}%)")
        if frac < OVERHEAD_LIMIT:
            break  # noise only inflates; a clean attempt is conclusive
    best["ok"] = best["overhead_frac"] < OVERHEAD_LIMIT
    return best


def measure_synthesis(board_counts=BOARD_COUNTS, attempts=3,
                      verbose=True):
    """Seconds per ``select_integral_gain`` call (best of ``attempts``)."""
    from repro.rack import select_integral_gain

    cells = []
    for n in board_counts:
        best = None
        for _ in range(attempts):
            t0 = time.perf_counter()
            gain, history = select_integral_gain(n)
            elapsed = time.perf_counter() - t0
            best = elapsed if best is None else min(best, elapsed)
        cells.append({
            "n_boards": n,
            "seconds": best,
            "gain": gain,
            "mu_history": [[g, peak] for g, peak in history],
        })
        if verbose:
            print(f"synthesis n={n}: {best * 1000:.1f} ms, gain {gain} "
                  f"after {len(history)} candidate(s)")
    return {"cells": cells, "attempts": attempts}


def run_benchmarks(quick=False, verbose=True):
    attempts = 2 if quick else ATTEMPTS
    max_time = 12.0 if quick else MAX_SIM_TIME
    t0 = time.perf_counter()
    cells = measure_throughput(attempts=attempts, max_time=max_time,
                               verbose=verbose)
    overhead = measure_control_overhead(attempts=attempts,
                                        max_time=max_time, verbose=verbose)
    synthesis = measure_synthesis(verbose=verbose)
    return {
        "bench": "rack",
        "quick": bool(quick),
        "cpu_count": os.cpu_count(),
        "elapsed_s": time.perf_counter() - t0,
        "throughput": {
            "cells": cells,
            "floor_steps_per_sec": STEPS_PER_SEC_FLOOR,
            "bit_identical": all(c["bit_identical"] for c in cells),
        },
        "overhead": overhead,
        "synthesis": synthesis,
    }


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------
def test_rack_control_overhead():
    """The rack layer costs < 5% of plant stepping."""
    print()
    best = measure_control_overhead()
    assert best["ok"], (
        f"rack-layer overhead {best['overhead_frac'] * 100:.2f}% exceeds "
        f"{OVERHEAD_LIMIT * 100:.0f}% of stepping"
    )


def test_rack_throughput_and_exactness():
    """Both stepping paths clear the floor and stay bit-identical.

    The banked/scalar ratio is reported, not gated: the rack steps each
    period as one bank window of ``rack_period / sim_dt`` ticks with a
    handful of lanes, where the scalar per-board fast path is
    legitimately competitive (the bank's 4x floor lives in
    ``bench_perf.py`` at B=16 with a shared schedule).
    """
    print()
    cells = measure_throughput(attempts=2, max_time=12.0)
    for cell in cells:
        assert cell["bit_identical"]
        assert cell["banked_steps_per_sec"] > STEPS_PER_SEC_FLOOR
        assert cell["scalar_steps_per_sec"] > STEPS_PER_SEC_FLOOR


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke configuration (smaller budgets)")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write results JSON here "
                             "(default BENCH_rack.json at the repo root)")
    args = parser.parse_args(argv)

    results = run_benchmarks(quick=args.quick)
    out = Path(args.out) if args.out else (
        Path(__file__).resolve().parents[1] / "BENCH_rack.json")
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results written to {out}")
    failures = []
    if not results["overhead"]["ok"]:
        failures.append(
            f"rack-layer overhead "
            f"{results['overhead']['overhead_frac'] * 100:.2f}% >= "
            f"{OVERHEAD_LIMIT * 100:.0f}%")
    if not results["throughput"]["bit_identical"]:
        failures.append("banked rack diverged from scalar stepping")
    for cell in results["throughput"]["cells"]:
        for path in ("banked", "scalar"):
            rate = cell[f"{path}_steps_per_sec"]
            if rate < STEPS_PER_SEC_FLOOR:
                failures.append(
                    f"{path} throughput at n={cell['n_boards']} "
                    f"{rate:.0f} steps/s < {STEPS_PER_SEC_FLOOR:.0f}")
    if failures:
        print("FAIL:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
