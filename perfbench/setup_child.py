"""Set-up probe: one fresh process doing a workload's set-up, then exit.

``python perfbench/setup_child.py campaign`` builds the design context
from the (empty) design cache named by ``$REPRO_CACHE_DIR`` and
synthesizes every scheme's controllers; ``... rack`` imports the rack
layer and builds the facility spec.  Either prints ``ready`` on stdout
when done, so the parent can time the set-up from process start.  With
``--trace-dir DIR`` the layer calls are recorded as set-up spans.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("what", choices=("campaign", "rack"))
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args(argv)
    tracer = None
    if args.trace_dir:
        from tracing import Tracer, install

        tracer = install(Tracer(args.trace_dir, phase="setup"))
    if args.what == "campaign":
        from repro.cache import DesignCache
        from repro.experiments.schemes import (
            SCHEMES,
            DesignContext,
            prime_designs,
        )

        prime_designs(DesignContext.create(cache=DesignCache()), SCHEMES)
    else:
        from wl_rack import build_spec

        build_spec(seed=0, stream=0)
    if tracer is not None:
        tracer.dump()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
