"""Paper-regime benchmark: one workload, one seed, one JSON line.

    python3 paperbench/run.py --workload suite-cold --seed 1 \\
        --seconds 20 --trace 0

Runs from the root of a checkout (it imports the program from
``src/``) and prints, as the last line of standard output,
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with no tracing
installed.  With ``--trace 1`` they are the per-layer ones: the run
first repeats itself untraced in a child process (for
``trace.overhead_s`` and to check that tracing changes no result),
then measures with every layer hooked.  A wrong or missing result sets
``correct`` to false and the exit code to 1.

Every run measures the same fixed work, whatever ``--seconds`` says
(the time it is given; the work takes about 8 to 15 s of host time).  The run and
every process it starts are pinned to one CPU, and times are reported
in reference seconds, rescaled by host-speed samples taken on that CPU
while the run goes on (``hostspeed.py``).

``--tiny`` shrinks every job to a small budget (the self-test);
``--tamper`` alters one result before it is checked, which must make
the run fail.  Scratch files live under ``.bench_build/paperbench/``
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import hostspeed
import jobs
from workloads import WORKLOADS

END_TO_END = {
    "wall_s": "s",
    "instr_per_s": "instr/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "req_per_s": "req/s",
    "latency_p50_s": "s",
    "latency_p99_s": "s",
}

#: Per-layer time metrics -> the span whose self time they report.
LAYER_SPANS = {
    "cpu.machine_s": "cpu.machine",
    "cpu.simulate_s": "cpu.simulate",
    "tracestore.put_s": "tracestore.put",
    "tracestore.get_s": "tracestore.get",
    "kernel.layout_s": "kernel.layout",
    "kernel.bank.last_s": "kernel.bank.last",
    "kernel.bank.stride_s": "kernel.bank.stride",
    "kernel.bank.context_s": "kernel.bank.context",
    "kernel.branch_s": "kernel.branch",
    "kernel.classify_s": "kernel.classify",
    "gc.pause_s": "gc",
    "minic.compile_s": "minic.compile",
    "gen.emit_s": "gen.emit",
    "runner.key_s": "runner.key",
    "export.to_dict_s": "export.to_dict",
    "resultstore.put_s": "resultstore.put",
    "resultstore.get_s": "resultstore.get",
}
#: Per-layer counts, read straight from the tracer's counters.
LAYER_COUNTS = {
    "cpu.instructions": "count",
    "tracestore.put_bytes": "bytes",
    "tracestore.get_bytes": "bytes",
    "kernel.arcs": "count",
    "gc.collections": "count",
}
PER_LAYER = {
    **{name: "s" for name in LAYER_SPANS},
    **LAYER_COUNTS,
    "resultstore.hit_ratio": "ratio",
    "service.warm_p50_s": "s",
    "service.cold_p50_s": "s",
    "service.warm_ratio": "ratio",
    "service.coalesced_ratio": "ratio",
    "service.retries": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def end_to_end(outcome, speed) -> dict:
    """The end-to-end metrics, times in reference seconds."""

    def seconds(start, end):
        return (end - start) * speed.factor(start, end)

    wall = sum(seconds(start, end) for start, end, __ in outcome.parts)
    cpu = sum(cpu * speed.factor(start, end)
              for start, end, cpu in outcome.parts)
    latencies = [math.inf if call is None else seconds(*call)
                 for call in outcome.calls]
    # A failed job or request has no latency: it counts as beyond every
    # percentile, and a percentile that lands on one reads as the whole
    # wall time.  The median averages the two middle values of an even
    # count (the suites have six jobs).
    p50 = statistics.median(latencies)
    p99 = percentile(latencies, 0.99)
    return {
        "wall_s": wall,
        "instr_per_s": outcome.nodes / wall,
        "cpu_s": cpu,
        "peak_rss_mb": outcome.peak_rss_mb,
        "setup_s": statistics.median(seconds(*s) for s in outcome.setups),
        "req_per_s": sum(map(math.isfinite, latencies)) / wall,
        "latency_p50_s": p50 if math.isfinite(p50) else wall,
        "latency_p99_s": p99 if math.isfinite(p99) else wall,
    }


def per_layer(outcome, tracer, overhead: float) -> dict:
    """The per-layer metrics: span self times (host seconds) and
    counts."""
    from workloads import ROOT_SPAN

    values = {name: tracer.self_seconds(span)
              for name, span in LAYER_SPANS.items()}
    values.update({name: tracer.counts.get(name, 0)
                   for name in LAYER_COUNTS})
    gets = tracer.counts.get("resultstore.gets", 0)
    values["resultstore.hit_ratio"] = (
        tracer.counts.get("resultstore.hits", 0) / gets if gets else 0.0)
    values.update({name: outcome.layer.get(name, 0.0)
                   for name in PER_LAYER if name.startswith("service.")})
    # Coverage: the share of the timed parts spent inside a layer span
    # (GC pauses included).  In-process that is the root span's child
    # time over its wall time; for the service, the server's span CPU
    # time over its CPU time.
    __, total, own = tracer.totals.get(ROOT_SPAN, (0, 0.0, 0.0))
    covered = total - own
    if outcome.server_spans:
        total = outcome.server_cpu
        covered = sum(entry[2] for entry
                      in outcome.server_spans["spans"].values())
    values["trace.overhead_s"] = overhead
    values["trace.coverage"] = covered / total if total else 0.0
    return values


def untraced_twin(args, work: Path) -> tuple[dict, dict]:
    """Run this benchmark again with tracing off, in a child process:
    its result line and its digests."""
    digests = work / "untraced-digests.json"
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0",
               "--digests-out", str(digests)]
    if args.tiny:
        command.append("--tiny")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          cwd=jobs.ROOT)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"untraced run exited {done.returncode}")
    return json.loads(lines[-1]), json.loads(digests.read_text())


def measure(args, work: Path) -> tuple[dict, object]:
    """Run the workload; the result line's fields and the outcome."""
    import layers
    from hostspeed import HostSpeed
    from spans import Tracer
    from workloads import Context

    twin = untraced_twin(args, work) if args.trace else None
    ctx = Context(seed=args.seed, tiny=args.tiny, work=work,
                  tamper=args.tamper)
    if args.trace:
        ctx.tracer = Tracer()
        ctx.tracer.active = False
        layers.install(ctx.tracer)
    speed = HostSpeed(work / "host-speed.txt")
    try:
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        speed.stop()
        if ctx.tracer:
            ctx.tracer.close()
    e2e = end_to_end(outcome, speed)
    if twin is None:
        metrics = e2e
        units = END_TO_END
    else:
        twin_line, twin_digests = twin
        if twin_digests != outcome.digests:
            outcome.problems.append("traced results differ from the "
                                    "untraced run's")
        if outcome.server_spans:
            ctx.tracer.merge(outcome.server_spans)
        overhead = e2e["wall_s"] - twin_line["metrics"]["wall_s"]["value"]
        metrics = per_layer(outcome, ctx.tracer, overhead)
        units = PER_LAYER
    host_wall = sum(end - start for start, end, __ in outcome.parts)
    print(f"measured work: {host_wall:.3f} host seconds, "
          f"{e2e['wall_s']:.3f} reference seconds "
          f"({speed.samples()} host-speed samples)", file=sys.stderr)
    correct = not outcome.problems and outcome.failed == 0
    line = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return line, outcome


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time the run is given (the work is fixed)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test budget: every job tiny")
    parser.add_argument("--tamper", action="store_true",
                        help="alter one result before the check")
    parser.add_argument("--digests-out", type=Path, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (jobs.SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {jobs.SRC / 'repro'} is "
              f"missing (run from a full checkout)", file=sys.stderr)
        return 2
    jobs.use_source_tree()
    hostspeed.pin()
    scratch = jobs.ROOT / ".bench_build" / "paperbench"
    scratch.mkdir(parents=True, exist_ok=True)
    # Temporary files of this process and every child (the server, the
    # preparations) stay inside the checkout.
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = None
    work = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-",
                                 dir=scratch))
    try:
        line, outcome = measure(args, work)
        if args.digests_out is not None:
            args.digests_out.write_text(json.dumps(outcome.digests))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
