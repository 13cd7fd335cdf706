"""Write ``golden.json``: the digest of every benchmark job's result.

For each budget (the paper's and the self-test's), each suite program
runs under the four sweep configs, and for each
service budget each served generated program under its two configs,
serially and from empty stores; each result is digested as canonical
``result_to_dict`` JSON.  The committed file was generated from the
code the benchmark was written against; results must stay
byte-identical, so regenerate it only when a change to the analysis'
output is intended and reviewed.

    python3 paperbench/golden.py
"""

from __future__ import annotations

import json
import sys
import tempfile

import jobs


def main() -> int:
    jobs.use_source_tree()
    table = {}
    scratch = jobs.ROOT / ".bench_build"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as root:
        for index, budget in enumerate((jobs.PAPER_BUDGET,
                                        jobs.TINY_BUDGET)):
            table[str(budget)] = jobs.serial_digests(
                jobs.sweep_configs(budget), jobs.SUITE_PROGRAMS,
                f"{root}/suite{index}")
        for index, budget in enumerate((jobs.SERVE_BUDGET,
                                        jobs.TINY_SERVE_BUDGET)):
            table[str(budget)] = jobs.serve_reference(
                budget, f"{root}/serve{index}")
    jobs.GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {jobs.GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
