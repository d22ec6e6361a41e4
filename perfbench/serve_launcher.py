"""Traced ``repro serve``: install the layer wrappers, then serve.

``python perfbench/serve_launcher.py --trace-dir DIR -- <serve args>``
wraps the same public calls as the rest of the benchmark, runs ``repro``'s
own command-line entry point with ``<serve args>``, and writes the
server's spans to ``DIR`` once the server has stopped.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    from tracing import Tracer, install

    tracer = install(Tracer(args.trace_dir))
    from repro.__main__ import main as repro_main

    try:
        return repro_main(serve_args)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
