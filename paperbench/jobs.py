"""The benchmark's jobs: which programs run under which configs.

Shared by the workloads, the checkout preparation (``capture.py``) and
the golden-digest generator.  Only :func:`serial_digests` runs work.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden.json"

#: The SPEC95 analogues the suite workloads run: four integer and two
#: floating-point programs, half the suite, so that every run of all
#: three workloads fits the time the benchmark is given (README.md).
SUITE_PROGRAMS = ("com", "gcc", "go", "xli", "app", "swm")
#: Per-job instruction budget: the paper regime, and the tiny budget of
#: the self-test.
PAPER_BUDGET = 100_000
TINY_BUDGET = 2_000
#: Budget of the generated programs the service answers.
SERVE_BUDGET = 20_000
TINY_SERVE_BUDGET = 1_000
#: Generated programs the service answers: this many per preset, drawn
#: (with their popularity ranks) from a fixed seed, not the run's.
PROGRAMS_PER_PRESET = 3
CATALOGUE_SEED = "serve-zipf"


def use_source_tree() -> None:
    """Import the program from this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def sweep_configs(budget: int) -> dict:
    """Label -> config of the trace-warm sweep: the full bank plus three
    single-predictor variants (the same four configs as the runner's
    own sweep benchmark)."""
    from repro.runner import ExperimentConfig

    return {
        "default": ExperimentConfig(max_instructions=budget),
        "last": ExperimentConfig(max_instructions=budget,
                                 predictors=("last",), trees_for=()),
        "stride": ExperimentConfig(max_instructions=budget,
                                   predictors=("stride",), trees_for=()),
        "context32": ExperimentConfig(max_instructions=budget,
                                      predictors=("context",), gen_cap=32),
    }


def serve_configs(budget: int) -> dict:
    """Label -> ``(ExperimentConfig, request config dict)`` of the two
    configs every served program is asked for."""
    from repro.runner import ExperimentConfig

    return {
        "default": (ExperimentConfig(max_instructions=budget),
                    {"max_instructions": budget}),
        "context32": (ExperimentConfig(max_instructions=budget,
                                       predictors=("context",), gen_cap=32),
                      {"max_instructions": budget,
                       "predictors": ["context"], "gen_cap": 32}),
    }


def serve_catalogue(budget: int) -> list:
    """The 48 served jobs, most popular first:
    ``(program, label, request config)``."""
    from repro.gen import PRESETS

    rng = random.Random(CATALOGUE_SEED)
    programs = [f"gen:{preset}@{rng.randrange(1_000_000)}"
                for preset in sorted(PRESETS)
                for __ in range(PROGRAMS_PER_PRESET)]
    catalogue = [(program, label, body)
                 for program in programs
                 for label, (__, body) in serve_configs(budget).items()]
    rng.shuffle(catalogue)
    return catalogue


def suite_order(seed: int) -> list[str]:
    """The suite programs in the seed's order."""
    names = list(SUITE_PROGRAMS)
    random.Random(seed).shuffle(names)
    return names


def pinned(config, name: str):
    """``config`` restricted to the one workload ``name``."""
    return dataclasses.replace(config, workloads=(name,))


def job_id(name: str, label: str) -> str:
    return f"{name}|{label}"


def digest(payload: dict) -> str:
    """sha256 of the canonical JSON of a ``result_to_dict`` payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def serial_digests(configs: dict, programs, root) -> dict:
    """Run every program under every labelled config serially in this
    process (one ``run_many``, stores under ``root``); job id -> digest."""
    from repro.core.export import result_to_dict
    from repro.runner import ExperimentRunner, ResultStore, TraceStore

    programs = tuple(programs)
    runner = ExperimentRunner(store=ResultStore(root),
                              trace_store=TraceStore(root))
    runs = runner.run_many([dataclasses.replace(config, workloads=programs)
                            for config in configs.values()])
    out = {}
    for label, run in zip(configs, runs):
        for name, result in run.require().items():
            out[job_id(name, label)] = digest(result_to_dict(result))
    return dict(sorted(out.items()))


def serve_reference(budget: int, root) -> dict:
    """:func:`serial_digests` of every served job."""
    configs = {label: config
               for label, (config, __) in serve_configs(budget).items()}
    programs = dict.fromkeys(
        program for program, __, __ in serve_catalogue(budget))
    return serial_digests(configs, programs, root)


def golden(budget: int) -> dict:
    """Committed digests, job id -> sha256, for one budget."""
    return json.loads(GOLDEN.read_text())[str(budget)]
