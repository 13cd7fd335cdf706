"""``python -m repro ...`` with the layer tracer installed.

    python3 paperbench/server_boot.py DUMP serve --port P --cache-dir D

Hooks the program's layers (``layers.install``) into a tracer that
times spans in per-thread CPU seconds (the server's event loop and its
batch threads share one interpreter lock), runs the command line
with the remaining arguments, and when it returns (``serve`` returns
after SIGTERM has drained it) writes the tracer's totals as JSON to
``DUMP``.  The traced serve-zipf run starts its server this way; the
untraced run starts plain ``python -m repro serve``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import jobs
import layers
from spans import Tracer


def main(argv) -> int:
    dump = Path(argv[0])
    jobs.use_source_tree()
    tracer = Tracer(clock=time.thread_time)
    layers.install(tracer)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[1:])
    finally:
        tracer.close()
        dump.write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
