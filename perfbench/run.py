"""The repo benchmark: one command, three workloads, a per-layer ledger.

    python3 perfbench/run.py --workload campaign|serve|rack \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout (the program is imported from ``src/``).
``--trace 0`` prints every end-to-end metric; ``--trace 1`` repeats the
workload with the layer wrappers of ``tracing.py`` installed and prints
every per-layer metric (``ledger.py``), including the tracing overhead
against an untraced run of the same work and the wall time no top-level
span covers.  Every run checks its outputs (see each ``wl_*.py``) and
counts a mismatch as a failed operation.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

End-to-end metrics (every workload reports each for its own unit of
work -- a matrix pass, a request at 4 req/s, a rack stream):
``setup_s``, ``norm_sim_s_per_s``, ``norm_p50_ms``, ``norm_ops_per_s``
and ``peak_rss_mb``.  ``setup_s`` and the ``norm_`` metrics are times
taken at the nominal host speed (``common.HostSpeed``); the run prints
their raw wall time counterparts too.  ``perfbench/README.md`` defines
each, per workload, and maps every per-layer metric to the calls it
times.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
import traceback

from common import ROOT, SRC, HostSpeed, Workspace, environment

WORKLOADS = ("campaign", "serve", "rack")
# Simulated outcomes: pure functions of the seed, compared between the
# traced and untraced runs and reported in the ledger.
SIM_RESULTS = ("experiments.exd_ratio", "experiments.time_ratio",
               "rack.cap_exposure_ws")
END_TO_END = (
    ("setup_s", "s"),
    ("norm_sim_s_per_s", "board-s/s"),
    ("norm_p50_ms", "ms"),
    ("norm_ops_per_s", "op/s"),
    ("peak_rss_mb", "MB"),
)


# Raw metric -> (normalized name, unit, phase whose host factor applies,
# exponent of that factor).
NORMALIZED = {
    "setup_s": ("setup_s", "s", "setup", -1),
    "sim_s_per_s": ("norm_sim_s_per_s", "board-s/s", "measure", 1),
    "p50_ms": ("norm_p50_ms", "ms", "measure", -1),
    "ops_per_s": ("norm_ops_per_s", "op/s", "measure", 1),
}


def _module(name):
    import wl_campaign
    import wl_rack
    import wl_serve

    return {"campaign": wl_campaign, "serve": wl_serve,
            "rack": wl_rack}[name]


def _run(name, workspace, seed, seconds, **kwargs):
    """Run one workload with the host-speed sampler beside it."""
    with HostSpeed() as host:
        result = _module(name).run(workspace, seed, seconds, **kwargs)
    result["host_factor"] = {phase: host.factor(*window) for phase, window
                             in result["windows"].items()}
    result["detail"]["host_factor"] = result["host_factor"]
    return result


def _traced(name, workspace, seed, seconds):
    """Run untraced (reference) then traced; the per-layer ledger."""
    from ledger import covered_time, layer_metrics
    from tracing import Tracer, install, load_spans

    reference = _run(name, workspace, seed, seconds, setups=1)
    trace_dir = workspace.fresh("spans")
    tracer = install(Tracer(trace_dir))
    result = _run(name, workspace, seed, seconds, setups=1, tracer=tracer)
    tracer.dump()
    spans = load_spans(trace_dir)
    metrics = layer_metrics(spans, workers=result["workers"],
                            matrix_wall=result["busy_wall"],
                            serve=result.get("serve"))
    for name in SIM_RESULTS + ("serve.p90_ms_r4", "serve.p50_ms_r8",
                               "serve.p90_ms_r8", "serve.max_rps"):
        metrics[name] = 0.0
    metrics.update(result.get("sim_results", {}))
    metrics.update(result.get("layer_extra", {}))
    # Both at the nominal host speed: the two runs are minutes apart.
    metrics["trace.overhead_frac"] = (
        (result["basis"] / result["host_factor"]["measure"])
        / (reference["basis"] / reference["host_factor"]["measure"]) - 1.0
        if reference["basis"] else 0.0)
    top = [s for s in spans if s["pid"] == os.getpid()
           and s["parent"] is None and s["phase"] == "measure"]
    metrics["unaccounted_s"] = max(result["wall"] - covered_time(top), 0.0)
    # Tracing must not change what is simulated.
    same = reference.get("sim_results") == result.get("sim_results")
    if not same:
        print("traced and untraced runs simulated different results",
              flush=True)
    result["failed"] += reference["failed"] + (0 if same else 1)
    result["attempted"] += reference["attempted"]
    result["valid"] = result["valid"] and reference["valid"]
    result["trace_dir"] = trace_dir
    result["ledger"] = metrics
    return result


def _report(name, result, env, trace):
    """Human-readable lines; returns the final JSON object."""
    from ledger import LAYER_METRICS

    print(f"workload: {name}  (trace={int(trace)})")
    print("environment: " + json.dumps(env, sort_keys=True))
    if trace:
        expected = LAYER_METRICS
        values = result["ledger"]
    else:
        expected = END_TO_END
        values = {k: v for k, (v, _) in result["metrics"].items()}
        for raw, (norm, _, phase, power) in NORMALIZED.items():
            values[norm] = (values.pop(raw)
                            * result["host_factor"][phase] ** power)
    metrics = {}
    for metric, unit in expected:
        if not math.isfinite(values.get(metric, math.nan)):
            continue  # missing or not measured: the run is not correct
        metrics[metric] = {"value": values[metric], "unit": unit}
        print(f"  {metric:34s} {values[metric]:.6g} {unit}")
    if not trace:
        print("  host speed factor " + ", ".join(
            f"{phase} {f:.4f}" for phase, f in result["host_factor"].items())
            + "; raw wall time metrics: " + ", ".join(
                f"{raw} {result['metrics'][raw][0]:.6g} {unit}"
                for raw, (_, unit, _, _) in NORMALIZED.items()))
    sims = result.get("sim_results", {})
    for metric, paper in (("experiments.exd_ratio", 0.50),
                          ("experiments.time_ratio", 0.62)):
        if sims.get(metric):
            print(f"  {metric} = {sims[metric]:.6f}  (paper: {paper:.2f}; "
                  "simulated board, not validated against hardware -- "
                  "EXPERIMENTS.md documents the gap)")
    if "rack.cap_exposure_ws" in sims:
        print(f"  rack.cap_exposure_ws = {sims['rack.cap_exposure_ws']!r}")
    print("detail: " + json.dumps(result["detail"], sort_keys=True,
                                  default=str))
    correct = (result["failed"] == 0 and result["valid"]
               and len(metrics) == len(expected))
    return {"correct": bool(correct), "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workspace = Workspace()
    # Isolated state: no run reads or writes another run's stores, the
    # user's ~/.cache/repro, or anything outside the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(workspace.fresh("main-cache"))
    os.environ["TMPDIR"] = str(workspace.root)
    tempfile.tempdir = None
    t0 = time.perf_counter()
    try:
        if args.trace:
            result = _traced(args.workload, workspace, args.seed,
                             args.seconds)
        else:
            result = _run(args.workload, workspace, args.seed,
                          args.seconds)
        env = environment(args.seed, workload=args.workload,
                          seconds=args.seconds, trace=args.trace,
                          **result.get("settings", {}))
        out = _report(args.workload, result, env, args.trace)
    except Exception:  # noqa: BLE001 - report and fail without a result
        traceback.print_exc()
        return 1
    finally:
        workspace.close()
    print(f"run wall: {time.perf_counter() - t0:.1f} s", flush=True)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
