"""End-to-end profiles: counters reconcile with RunMetrics, and the
disabled recorder stays within the required overhead budget."""

from __future__ import annotations

import time

import pytest

from repro.obs import NULL_RECORDER, Recorder, recording, set_recorder
from repro.runner import (
    ExperimentConfig,
    ExperimentRunner,
    ResultStore,
    TraceStore,
)
from repro.runner.metrics import (
    STATUS_CACHE_HIT,
    STATUS_COMPUTED,
    STATUS_MEMO_HIT,
    STATUS_REPLAYED,
)

BUDGET = 1_500
WORKLOADS = ("com", "app")


@pytest.fixture(autouse=True)
def _clean_recorder():
    previous = set_recorder(None)
    yield
    set_recorder(previous)


def _runner(tmp_path, **kwargs) -> ExperimentRunner:
    return ExperimentRunner(
        store=ResultStore(tmp_path / "cache"),
        trace_store=TraceStore(tmp_path / "cache"),
        **kwargs,
    )


def _config() -> ExperimentConfig:
    return ExperimentConfig(workloads=WORKLOADS, max_instructions=BUDGET)


def _span_names(spans) -> set[str]:
    """Every span name anywhere in a profile's span forest."""
    names = set()
    for span in spans:
        names.add(span["name"])
        names |= _span_names(span["children"])
    return names


class TestProfileReconciliation:
    def test_cold_run_counters_match_metrics(self, tmp_path):
        run = _runner(tmp_path, observe=True).run(_config())
        assert not run.failures
        profile = run.metrics.profile
        counters = profile["counters"]

        # Resolution counters mirror the per-job metrics exactly.
        assert counters[f"runner.resolve.{STATUS_COMPUTED}"] == \
            run.metrics.count(STATUS_COMPUTED) == len(WORKLOADS)

        # Simulation and analysis agree with the metrics' instruction
        # accounting: every computed job simulated and analysed its
        # full budget.
        assert counters["sim.instructions"] == \
            run.metrics.total_instructions
        assert counters["analyze.nodes"] == run.metrics.total_instructions
        assert counters["sim.traces"] == len(WORKLOADS)
        assert counters["analyze.passes"] == len(WORKLOADS)

        # Per-predictor classifications partition the analysed nodes.
        for kind in ("last", "stride", "context"):
            classified = sum(
                value for name, value in counters.items()
                if name.startswith(f"analyze.pred.{kind}.")
            )
            assert classified == counters["analyze.nodes"]

        # Cold caches: every lookup missed, every job wrote through.
        assert counters["store.result.misses"] == len(WORKLOADS)
        assert counters["store.result.puts"] == len(WORKLOADS)
        assert counters["store.trace.misses"] == len(WORKLOADS)
        assert counters["store.trace.puts"] == len(WORKLOADS)
        assert "store.result.hits" not in counters

        # Spans cover the pipeline: run > simulate/analyze/stores.
        root = profile["spans"][0]
        assert root["name"] == "runner.run"
        child_names = {span["name"] for span in root["children"]}
        assert {"simulate", "analyze",
                "store.trace.put", "store.result.put"} <= child_names

    def test_replayed_run_decodes_instead_of_simulating(self, tmp_path):
        runner = _runner(tmp_path)
        assert not runner.run(_config()).failures  # warm the trace tier
        # New runner (cold memo), smaller budget, results keyed anew.
        replay = _runner(
            tmp_path, observe=True
        ).run(ExperimentConfig(workloads=WORKLOADS,
                               max_instructions=BUDGET - 500))
        counters = replay.metrics.profile["counters"]
        assert counters[f"runner.resolve.{STATUS_REPLAYED}"] == \
            replay.metrics.replays == len(WORKLOADS)
        assert "sim.instructions" not in counters  # no simulation at all
        # The stored BUDGET-instruction traces were decoded in full,
        # then re-truncated to each config's own budget by the analyzer.
        assert counters["trace.decode.records"] == BUDGET * len(WORKLOADS)
        assert counters["analyze.nodes"] == \
            (BUDGET - 500) * len(WORKLOADS)
        root = replay.metrics.profile["spans"][0]
        child_names = {span["name"] for span in root["children"]}
        assert "trace.decode" in {s["name"] for c in root["children"]
                                  for s in c["children"]} | child_names
        assert "simulate" not in child_names

    def test_cold_run_decodes_nothing(self, tmp_path):
        # A cold job simulates straight into columns and packs the
        # trace file from them: it simulates and encodes, and only a
        # replay decodes.
        cold = _runner(tmp_path, observe=True).run(_config())
        names = _span_names(cold.metrics.profile["spans"])
        assert {"simulate", "trace.encode"} <= names
        assert "trace.decode" not in names
        assert "analyze.kernel.layout" not in names
        assert not any(name.startswith("trace.decode")
                       for name in cold.metrics.profile["counters"])
        replay = _runner(tmp_path, observe=True).run(
            ExperimentConfig(workloads=WORKLOADS,
                             max_instructions=BUDGET - 500))
        names = _span_names(replay.metrics.profile["spans"])
        assert "trace.decode" in names
        assert not {"simulate", "trace.encode"} & names

    def test_hits_are_counted_without_work(self, tmp_path):
        runner = _runner(tmp_path, observe=True)
        assert not runner.run(_config()).failures
        warm = runner.run(_config())
        counters = warm.metrics.profile["counters"]
        assert counters[f"runner.resolve.{STATUS_MEMO_HIT}"] == \
            warm.metrics.count(STATUS_MEMO_HIT) == len(WORKLOADS)
        assert "analyze.passes" not in counters
        cold_memo = _runner(tmp_path, observe=True)
        disk = cold_memo.run(_config())
        counters = disk.metrics.profile["counters"]
        assert counters[f"runner.resolve.{STATUS_CACHE_HIT}"] == \
            disk.metrics.count(STATUS_CACHE_HIT) == len(WORKLOADS)
        assert counters["store.result.hits"] == len(WORKLOADS)

    def test_sweep_profile_reconciles(self, tmp_path):
        configs = [
            ExperimentConfig(workloads=("com",), max_instructions=n)
            for n in (500, 1000)
        ]
        runs = _runner(tmp_path, observe=True).run_many(configs)
        profile = runs[0].metrics.profile
        assert profile is runs[1].metrics.profile  # one shared profile
        counters = profile["counters"]
        resolved = sum(value for name, value in counters.items()
                       if name.startswith("runner.resolve."))
        assert resolved == sum(len(r.metrics.jobs) for r in runs)
        # One capture (largest budget) fanned out to both analyzers.
        assert counters["sim.traces"] == 1
        assert counters["sim.instructions"] == 1000
        assert counters["analyze.nodes"] == 1500

    def test_unobserved_runs_carry_no_profile(self, tmp_path):
        run = _runner(tmp_path).run(_config())
        assert run.metrics.profile is None
        assert "profile" not in run.metrics.to_dict()

    def test_events_path_written(self, tmp_path):
        from repro.obs import ObsConfig, from_jsonl

        events = tmp_path / "events.jsonl"
        runner = _runner(tmp_path,
                         observe=ObsConfig(events_path=str(events)))
        runner.run(_config())
        rebuilt = from_jsonl(events.read_text())
        assert rebuilt["counters"]["sim.instructions"] == \
            BUDGET * len(WORKLOADS)


class TestDisabledOverhead:
    def test_null_recorder_overhead_is_within_noise(self, tmp_path):
        """Instrumentation off must cost <5% of a budget-capped run.

        Rather than compare two noisy wall-clock runs, bound the cost
        analytically: (number of recorder calls the run makes) x
        (measured per-call cost of the null recorder) must be under 5%
        of the run's wall time.  The product is a strict upper bound
        on what the disabled instrumentation can add.
        """
        config = _config()

        start = time.perf_counter()
        run = ExperimentRunner().run(config)  # null recorder throughout
        wall = time.perf_counter() - start
        assert not run.failures

        rec = Recorder()
        with recording(rec):
            ExperimentRunner().run(config)
        calls = rec.calls

        null = NULL_RECORDER
        trials = max(10_000, calls)
        start = time.perf_counter()
        for __ in range(trials):
            with null.span("x"):
                null.count("x", 1)
        per_pair = (time.perf_counter() - start) / trials

        # Each recorded call is at most one span-enter/exit plus one
        # count; per_pair covers both, so calls * per_pair over-counts.
        overhead = calls * per_pair
        assert overhead < 0.05 * wall, (
            f"{calls} calls x {per_pair * 1e9:.0f}ns = "
            f"{overhead * 1e3:.2f}ms >= 5% of {wall * 1e3:.0f}ms"
        )
