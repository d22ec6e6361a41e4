"""Shared plumbing: the checkout layout, isolated state, child processes
and the run environment record."""

from __future__ import annotations

import os
import platform
import queue
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

__all__ = [
    "BENCH_DIR", "ROOT", "SRC", "HostSpeed", "Workspace", "child_env",
    "environment", "reference_s", "rss_peaks_mb", "process_peak_mb",
    "timed_ready",
]

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


# The reference kernel's time on a quiet 2-core 2.1 GHz Xeon VM: the
# host speed the normalized metrics are expressed at.
REF_NOMINAL_S = 0.004


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_s():
    """CPU seconds one run of the fixed reference kernel takes right now.

    The kernel mixes the kinds of host work the program does -- an
    integer loop, small numpy matrix products and short-lived objects in
    a dict -- and calls no program code, so a change to the program
    never changes it, while the host's speed (neighbours on a shared
    machine, which a VM sees as slower CPU time) moves it together with
    the program's times.  CPU time, not wall time: time spent waiting
    for a CPU the workload itself holds does not count.
    """
    import numpy as np

    t0 = time.thread_time()
    acc = 0
    for i in range(15_000):
        acc += i * i
    a = np.arange(64.0).reshape(8, 8)
    v = np.ones(8)
    for _ in range(250):
        a = (a @ a) * 1e-3 + 1.0
        v = np.clip(a @ v, 0.0, 5.0)
    table = {}
    for i in range(4_000):
        pair = _Pair(i, float(i))
        table[i % 97] = pair.a + pair.b
    sorted(table.values())
    return time.thread_time() - t0


class HostSpeed:
    """The host's speed while a workload runs: a context manager.

    On a shared 2-core VM, CPU time swings by half from one minute to
    the next, the same for the program and for any fixed code, and each
    CPU of the VM swings on its own.  Inside the ``with`` block a sampler
    process (``host_sampler.py``) times the reference kernel several
    times a second, pinned to each CPU in turn, beside the workload.
    ``factor(t0, t1)`` is the mean kernel time of the samples taken in
    that ``time.perf_counter()`` window, over ``REF_NOMINAL_S``.
    Dividing a time measured in the window by it gives the time at the
    nominal host speed: a change to the program still moves that in
    full, a change in host speed mostly cancels.  The sampler takes
    about 3% of one CPU, on every commit alike.
    """

    def __enter__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "host_sampler.py")],
            stdout=subprocess.PIPE, text=True, cwd=str(ROOT))
        # Sampling has begun once the first line is out.
        self._first = self._proc.stdout.readline()
        if not self._first:
            self._proc.wait()
            raise RuntimeError("the host-speed sampler did not start")
        return self

    def __exit__(self, *exc):
        self._proc.terminate()
        out, _ = self._proc.communicate(timeout=30)
        # Complete lines only: the last may have been cut by the signal.
        self.samples = [tuple(map(float, line.split()))
                        for line in (self._first + out).split("\n")[:-1]]
        return False

    def factor(self, t0, t1):
        """Above 1: the host ran slower than nominal in ``[t0, t1]``."""
        inside = [s for t, s in self.samples if t0 <= t <= t1]
        if not inside:
            raise RuntimeError("the host-speed sampler took no sample in "
                               f"a {t1 - t0:.2f} s window")
        return sum(inside) / len(inside) / REF_NOMINAL_S


def rss_peaks_mb():
    """``(own, children)``: peak RSS so far of this process and of its
    largest waited-for child (MB)."""
    # ru_maxrss is in KiB on Linux.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, kids / 1024.0


def process_peak_mb(pid):
    """Peak RSS (``VmHWM``) so far of a running process (MB)."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # kB
    raise RuntimeError(f"no VmHWM for process {pid}")


class Workspace:
    """A private state root for one run, inside the checkout.

    Every store the program touches (design cache, result store,
    checkpoint journal, temp files, spans) lives under it, so no run sees
    another's state and nothing is written outside the checkout.
    """

    def __init__(self):
        base = ROOT / ".perfbench-work"
        self.root = base / f"run-{os.getpid()}-{time.time_ns()}"
        self.root.mkdir(parents=True)
        self._count = 0

    def fresh(self, name):
        self._count += 1
        path = self.root / f"{name}-{self._count}"
        path.mkdir()
        return path

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            self.root.parent.rmdir()
        except OSError:
            pass


def child_env(cache_dir, workspace):
    """Environment for a child process: repo sources, isolated stores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["TMPDIR"] = str(workspace.root)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def timed_ready(argv, env, marker="ready", stream="stdout", timeout=120.0):
    """Start ``argv`` and time it until it prints a line containing
    ``marker`` on ``stream``.

    Returns ``(seconds, proc, line)``; the process keeps running and the
    caller owns it.  A daemon thread keeps draining ``stream`` so the
    child never blocks on a full pipe.  Raises ``RuntimeError`` (after
    killing the child) if it exits or stalls first.
    """
    lines = queue.Queue()
    t0 = time.perf_counter()
    pipe = {stream: subprocess.PIPE}
    proc = subprocess.Popen(argv, env=env, cwd=str(ROOT), text=True, **pipe)
    source = getattr(proc, stream)

    def _drain():
        for line in source:
            lines.put(line)
        lines.put(None)

    threading.Thread(target=_drain, daemon=True).start()
    deadline = t0 + timeout
    while True:
        try:
            line = lines.get(timeout=max(deadline - time.perf_counter(), 0))
        except queue.Empty:
            line = None
        if line is not None and marker in line:
            return time.perf_counter() - t0, proc, line.strip()
        if line is None:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{' '.join(argv[1:3])} exited or stalled "
                               "before it was ready")


def _git_sha():
    try:
        # The ceiling stops git from reporting an enclosing repository
        # when the checkout itself is not one.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def environment(seed, **settings):
    """The run environment: host, versions, source revision, settings."""
    import numpy
    import scipy

    env = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "seed": seed,
    }
    env.update(settings)
    return env

