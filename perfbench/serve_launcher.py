"""Start the sweep service with the per-layer tracer installed.

``python3 perfbench/serve_launcher.py --store DIR --trace-out FILE``
(from the checkout root) installs the wrappers of ``tracer.py``, opens
the root span and calls ``repro.serve.server.serve_forever`` on an
ephemeral port with the inline dispatcher (``workers`` unset).  On
SIGTERM it stops serving, waits for running job threads, closes the
root span and writes the spans and counters to ``FILE``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading


def _stop(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace-out", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import tracer as tracing
    from repro.serve.server import serve_forever

    tracer = tracing.Tracer()
    tracing.install(tracer)
    signal.signal(signal.SIGTERM, _stop)
    tracer.start()
    try:
        serve_forever(args.store, port=0)
    finally:
        # A job's coordinator thread keeps assembling frames after the
        # client has seen ``done``; let it finish so its span closes.
        for thread in threading.enumerate():
            if thread.name.startswith("job-"):
                thread.join(timeout=60)
        tracer.stop()
        tracer.dump(args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
