"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

For each workload, in a fresh process, it runs the workload untraced and
traced at reduced size and asserts that:

* the untraced run emits every end-to-end metric, with its unit;
* the traced run emits every per-layer metric, with its unit;
* every traced span lies inside its parent;
* on serve, every layer span comes from the server process;
* layers the workload does not call report zero counts (for example
  ``core.*`` and ``runtime.*`` on rack, ``serve.*`` on campaign), and
  the layers it is built around report non-zero work;
* no operation failed and every output check passed.

Exits 0 when every workload passes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

from common import ROOT, SRC, Workspace

SEED = 3
SECONDS = 2

# Layer metrics that must read zero / non-zero on each workload.
ZERO = {
    "campaign": ("serve.executed", "serve.cached", "serve.bank_batches",
                 "serve.server_ms", "rack.periods", "rack.controller_us",
                 "rack.governor_us", "rack.synth_ms"),
    "serve": ("runtime.records", "runtime.bytes", "design.characterize_s",
              "design.ssv_s", "design.lqg_s", "rack.periods",
              "rack.controller_us", "experiments.exd_ratio"),
    "rack": ("core.control_steps", "core.controller_us",
             "core.optimizer_us", "experiments.tasks",
             "experiments.cells_per_bank", "runtime.records",
             "runtime.bytes", "cache.gets", "cache.puts",
             "design.characterize_s", "design.ssv_s", "obs.events",
             "serve.executed", "serve.cached", "serve.server_ms"),
}
NONZERO = {
    "campaign": ("board.steps", "board.bank_calls", "core.control_steps",
                 "experiments.tasks", "experiments.cells_per_bank",
                 "runtime.records", "cache.puts", "design.ssv_s",
                 "design.lqg_s", "obs.events", "experiments.exd_ratio"),
    "serve": ("board.steps", "core.control_steps", "experiments.tasks",
              "cache.gets", "serve.executed", "serve.cached",
              "serve.server_ms"),
    "rack": ("board.steps", "board.bank_calls", "rack.periods",
             "rack.controller_us", "rack.governor_us",
             "rack.cap_exposure_ws"),
}


def check_one(name):
    """Run one workload small, untraced and traced; raise on a failure."""
    sys.path.insert(0, str(SRC))
    import run
    import wl_campaign
    from ledger import LAYER_METRICS, check_nesting
    from tracing import load_spans

    wl_campaign.PROGRAMS = 2  # 6 schemes x 2 programs
    workspace = Workspace()
    os.environ["REPRO_CACHE_DIR"] = str(workspace.fresh("main-cache"))
    os.environ["TMPDIR"] = str(workspace.root)
    tempfile.tempdir = None
    problems = []
    try:
        plain = run._run(name, workspace, SEED, SECONDS, setups=1)
        out = run._report(name, plain, {}, trace=False)
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        if got != dict(run.END_TO_END):
            problems.append(f"end-to-end metrics/units differ: {got}")
        if not out["correct"] or out["failed"]:
            problems.append("untraced run not correct")
        for metric, value in out["metrics"].items():
            if not value["value"] > 0:
                problems.append(f"end-to-end {metric} is not positive")

        traced = run._traced(name, workspace, SEED, SECONDS)
        spans = load_spans(traced["trace_dir"])
        out = run._report(name, traced, {}, trace=True)
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        if got != dict(LAYER_METRICS):
            problems.append(f"per-layer metrics/units differ: {got}")
        if not out["correct"] or out["failed"]:
            problems.append("traced run not correct")
        bad = check_nesting(spans)
        if bad:
            problems.append(f"{len(bad)} spans lie outside their parent, "
                            f"e.g. {bad[0]}")
        if not spans:
            problems.append("no spans recorded")
        if name == "serve":
            # Layer work belongs to the server; the benchmark process
            # records only its own per-request spans.
            own = {s["name"] for s in spans if s["pid"] == os.getpid()
                   and not s["name"].startswith("serve.")}
            if own:
                problems.append("the serve ledger holds layer spans of "
                                f"the benchmark process: {sorted(own)}")
        values = {k: v["value"] for k, v in out["metrics"].items()}
        for metric in ZERO[name]:
            if values.get(metric) != 0:
                problems.append(f"{metric} should be 0, is "
                                f"{values.get(metric)}")
        for metric in NONZERO[name]:
            if not values.get(metric):
                problems.append(f"{metric} should be non-zero")
    finally:
        workspace.close()
    if problems:
        raise AssertionError(f"{name}: " + "; ".join(problems))


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--one"]:
        check_one(argv[1])
        print(f"selftest {argv[1]}: ok", flush=True)
        return 0
    failed = []
    for name in ("campaign", "serve", "rack"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "selftest.py"),
             "--one", name], cwd=str(ROOT), capture_output=True, text=True,
            timeout=600)
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-3:]
        print(f"{name}: {'ok' if proc.returncode == 0 else 'FAILED'}")
        if proc.returncode != 0:
            failed.append(name)
            print("\n".join("  " + line for line in tail))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
