"""Run ``repro.cli`` with the benchmark's layer hooks installed.

    python3 perfbench/traced_server.py SPANS_JSON serve --port 0 ...

The hooks are installed from the start, so set-up spans carry op
``"setup"``.  SIGUSR2 removes them; SIGUSR1 installs them again with op
``"traced"``.  When the command returns, spans and counts are written to
``SPANS_JSON``.
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from repro import cli

    tracer = Tracer()
    tracer.op = "setup"
    tracer.install()

    def trace_on(signum, frame):
        tracer.op = "traced"
        tracer.install()

    def trace_off(signum, frame):
        tracer.uninstall()
        tracer.op = None

    signal.signal(signal.SIGUSR1, trace_on)
    signal.signal(signal.SIGUSR2, trace_off)
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
