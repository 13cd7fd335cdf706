"""Self-test of the benchmark itself, at a tiny budget.

    python3 paperbench/selftest.py

For every workload, with tracing off and on, a ``--tiny`` run must exit
0 and print a result line that is correct, counts no failure, and
carries exactly the metrics (names and units) that ``BENCHMARK.json``
lists for that mode, each a finite number.  A ``--tamper`` run of
every workload must fail the correctness gate (exit 1,
``"correct": false``).  Run in a directory holding only
``BENCHMARK.json`` and the benchmark's files, the benchmark must exit
non-zero without printing a result.  Prints one line per check and
exits 1 if any failed.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import jobs

WORKLOADS = ("suite-cold", "sweep-replay", "serve-zipf")


def run(root: Path, workload: str, *flags: str):
    """The benchmark's exit code and its last stdout line (or None)."""
    done = subprocess.run(
        [sys.executable, "paperbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", *flags],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else None


def check_metrics(line: dict, expected: list) -> str | None:
    """Why ``line`` does not carry exactly ``expected``, or None."""
    want = {metric["name"]: metric["unit"] for metric in expected}
    got = {name: entry["unit"] for name, entry in line["metrics"].items()}
    if got != want:
        return f"metrics {sorted(got.items())} != {sorted(want.items())}"
    for name, entry in line["metrics"].items():
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{name} is {value!r}"
    return None


def main() -> int:
    spec = json.loads((jobs.ROOT / "BENCHMARK.json").read_text())
    failures = 0

    def report(what: str, problem: str | None) -> None:
        nonlocal failures
        failures += problem is not None
        print(f"{'FAIL' if problem else 'ok  '} {what}"
              + (f": {problem}" if problem else ""), flush=True)

    for workload in WORKLOADS:
        for trace, expected in (("0", spec["end_to_end"]),
                                ("1", spec["per_layer"])):
            code, last = run(jobs.ROOT, workload, "--tiny", "--trace", trace)
            problem = None
            if code != 0 or last is None:
                problem = f"exit {code}"
            else:
                line = json.loads(last)
                if set(line) != {"correct", "attempted", "failed",
                                 "metrics"}:
                    problem = f"keys {sorted(line)}"
                elif not line["correct"] or line["failed"]:
                    problem = "run not correct"
                elif line["attempted"] < 1:
                    problem = "nothing attempted"
                else:
                    problem = check_metrics(line, expected)
            report(f"{workload} --trace {trace}", problem)
        code, last = run(jobs.ROOT, workload, "--tiny", "--tamper")
        tripped = (code == 1 and last is not None
                   and json.loads(last)["correct"] is False)
        report(f"{workload} --tamper trips the gate",
               None if tripped else f"exit {code}, line {last}")

    scratch = jobs.ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        bare = Path(bare)
        shutil.copy(jobs.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(jobs.BENCH, bare / "paperbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, last = run(bare, "suite-cold", "--trace", "0")
        report("bare directory exits non-zero without a result",
               None if code != 0 and last is None
               else f"exit {code}, line {last}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
