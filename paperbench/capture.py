"""Prepare what a checkout's runs reuse, once per checkout.

    python3 paperbench/capture.py traces STORE_DIR BUDGET
    python3 paperbench/capture.py reference OUT_JSON BUDGET

``traces`` runs the suite programs once through the runner with a
trace store at ``STORE_DIR`` (and a throwaway result store beside it),
so ``STORE_DIR`` ends up holding exactly the traces this checkout's
code captures; the sweep-replay workload copies them into a fresh
store before it runs.  ``reference`` runs every job the service
workload asks for serially in this process and writes their digests
to ``OUT_JSON``; serve-zipf checks every answer against them.  Both
run as their own process, so their memory high-water mark stays out
of the benchmark's.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import jobs


def capture_traces(store_dir: Path, budget: int) -> None:
    from repro.runner import (
        ExperimentConfig,
        ExperimentRunner,
        ResultStore,
        TraceStore,
    )

    results = store_dir.with_name(store_dir.name + ".results")
    try:
        runner = ExperimentRunner(store=ResultStore(results),
                                  trace_store=TraceStore(store_dir))
        runner.run(ExperimentConfig(
            max_instructions=budget, workloads=jobs.SUITE_PROGRAMS,
        )).require()
    finally:
        shutil.rmtree(results, ignore_errors=True)


def write_reference(out: Path, budget: int) -> None:
    stores = out.with_name(out.name + ".stores")
    try:
        out.write_text(json.dumps(jobs.serve_reference(budget, stores)))
    finally:
        shutil.rmtree(stores, ignore_errors=True)


def main(argv) -> int:
    kind, target, budget = argv[0], Path(argv[1]), int(argv[2])
    jobs.use_source_tree()
    {"traces": capture_traces, "reference": write_reference}[kind](
        target, budget)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
