"""Launch ``repro serve`` in this process, optionally traced.

Usage (from the checkout root, ``src`` and the root on PYTHONPATH)::

    python3 -m perfbench.daemon [--trace-out FILE] -- <repro serve args>

Prints ``perfbench-boot <perf_counter>`` once the imports are done and
just before the service is built (ledger replay starts there), then
hands over to ``repro.cli.main(["serve", ...])``.  With ``--trace-out``
the probes of :mod:`perfbench.probes` are installed first and the spans
are written to FILE when the daemon stops.  Forked supervisor workers
inherit the probes, but their spans die with them.
"""

import argparse
import json
import sys
import time


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench.daemon")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]

    import repro.cli
    import repro.service  # noqa: F401  (imported lazily by `repro serve`)

    tracer = None
    if args.trace_out:
        from perfbench.probes import Tracer, install

        tracer = Tracer()
        install(tracer)
    print(f"perfbench-boot {time.perf_counter()!r}", flush=True)
    status = repro.cli.main(["serve", *serve_args])
    if tracer is not None:
        with open(args.trace_out, "w") as handle:
            json.dump(tracer.dump(), handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
