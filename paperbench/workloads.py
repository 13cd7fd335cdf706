"""The three workloads, each measured from outside the program.

Each workload times its set-ups, then runs one fixed amount of work
(``--seconds`` changes nothing).  Every timed part is kept as a pair of
``time.monotonic()`` values (and its CPU seconds); ``run.py`` turns
them into reference seconds with the host-speed samples taken around
them (``hostspeed.py``).  Results are digested afterwards, outside the
timed parts, with the program's own ``result_to_dict``.

* ``suite-cold``: six SPEC95 analogues, paper budget, empty result
  and trace stores, serial, one ``ExperimentRunner.run`` per job in
  the seed's order.
* ``sweep-replay``: the same six programs under the four sweep configs
  from stored traces (captured once per checkout by ``capture.py``)
  into an empty result store, serial, one ``run_many`` per program.
* ``serve-zipf``: ``python -m repro serve`` with its own empty cache
  dir; one client process with two threads, each in a closed loop
  (a request waits for its reply), sends zipf(1.1)-distributed
  requests over 48 jobs (24 generated programs x 2 configs).  Answers
  are checked against a serial in-process run of the same jobs.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import random
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import jobs

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 7
ZIPF_S = 1.1
CLIENT_THREADS = 2
REQUESTS = 1000
TINY_REQUESTS = 60
#: The p99 latency must leave at least this many requests beyond it.
TAIL_SAMPLES = 10
SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 60.0
#: The span around each timed part of a traced run.
ROOT_SPAN = "bench.timed"


@dataclass
class Context:
    seed: int
    tiny: bool
    work: Path          # this run's scratch directory, inside the checkout
    tracer: object = None
    tamper: bool = False

    @contextmanager
    def timed(self):
        """A timed part: GC pauses count and spans nest under the
        ``bench.timed`` root."""
        if not self.tracer:
            yield
            return
        self.tracer.active = True
        try:
            with self.tracer.span(ROOT_SPAN):
                yield
        finally:
            self.tracer.active = False

    def fresh_dir(self, prefix: str) -> Path:
        index = len(list(self.work.glob(prefix + "*")))
        path = self.work / f"{prefix}{index}"
        path.mkdir()
        return path


@dataclass
class Outcome:
    """What a run measured; every time a ``(start, end)`` pair of
    ``time.monotonic()`` values."""

    #: the timed parts of the measured work: ``(start, end, cpu
    #: seconds)``; the work's wall and CPU time are their sums.
    parts: list = field(default_factory=list)
    #: ``(start, end)`` of each job or request; None for a failed one.
    calls: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    #: instructions the program processed in the measured work.
    nodes: int = 0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: job id -> digest of what this run produced for it.
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    #: workload-specific per-layer values (the ``service.*`` metrics).
    layer: dict = field(default_factory=dict)
    #: the tracer snapshot written by a traced server, and the server's
    #: CPU seconds over the measured work.
    server_spans: dict | None = None
    server_cpu: float = 0.0

    def record(self, job: str, payload: dict | None, tamper: bool) -> None:
        """Digest one produced result; a second, different answer for
        the same job is a problem in its own right."""
        self.attempted += 1
        if payload is None:
            self.failed += 1
            return
        if tamper and not self.digests:
            payload = dict(payload, nodes=payload["nodes"] + 1)
        value = jobs.digest(payload)
        previous = self.digests.setdefault(job, value)
        if previous != value:
            self.failed += 1
            self.problems.append(f"{job}: answers differ between requests")

    def check(self, expected: dict, what: str) -> None:
        for job, value in self.digests.items():
            if expected.get(job) != value:
                self.failed += 1
                self.problems.append(f"{job}: result differs from {what}")


# ----------------------------------------------------------------------
# Host measurements.
# ----------------------------------------------------------------------

def cpu_seconds() -> float:
    """User+sys CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def children_peak_rss_mb() -> float:
    """Largest peak RSS among the children reaped so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def peak_rss_mb(kids_before: float, *others: float) -> float:
    """The largest peak RSS of this process, of ``others`` (live
    children measured directly), and of the children reaped during the
    measured work if one of them outgrew every earlier child
    (``kids_before`` is :func:`children_peak_rss_mb` before the work)."""
    kids = children_peak_rss_mb()
    return max(own_peak_rss_mb(), *others,
               kids if kids > kids_before else 0.0)


def proc_cpu_seconds(pid: int) -> float:
    """User+sys CPU of a live child, from ``/proc/<pid>/stat``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    """High-water RSS of a live child, from ``/proc/<pid>/status``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(jobs.SRC)
    return env


def import_probe(modules: str) -> None:
    """Import ``modules`` in a fresh interpreter: what every command
    using these layers pays before doing any work."""
    subprocess.run([sys.executable, "-c", f"import {modules}"],
                   env=program_env(), cwd=jobs.ROOT, check=True)


def timed_setups(outcome: Outcome, stage, modules: str, release=None):
    """Time SETUP_REPEATS set-ups, each an import probe and then
    ``stage()``; what the last one staged.  ``release(staged)`` tears
    an earlier staging down before the next set-up starts, outside its
    timing."""
    staged = None
    for __ in range(SETUP_REPEATS):
        if staged is not None and release is not None:
            release(staged)
        start = time.monotonic()
        import_probe(modules)
        staged = stage()
        outcome.setups.append((start, time.monotonic()))
    return staged


def timed_calls(ctx: Context, outcome: Outcome, calls) -> None:
    """Time each of ``calls`` (thunks returning ``(nodes, ok)``) as one
    part of the measured work."""
    kids = children_peak_rss_mb()
    for call in calls:
        cpu0 = cpu_seconds()
        start = time.monotonic()
        with ctx.timed():
            nodes, ok = call()
        end = time.monotonic()
        outcome.parts.append((start, end, cpu_seconds() - cpu0))
        outcome.calls.append((start, end) if ok else None)
        outcome.nodes += nodes
    outcome.peak_rss_mb = peak_rss_mb(kids)


# ----------------------------------------------------------------------
# suite-cold
# ----------------------------------------------------------------------

def suite_cold(ctx: Context) -> Outcome:
    from repro.core.export import result_to_dict
    from repro.runner import (
        ExperimentConfig,
        ExperimentRunner,
        ResultStore,
        TraceStore,
    )

    budget = jobs.TINY_BUDGET if ctx.tiny else jobs.PAPER_BUDGET
    config = ExperimentConfig(max_instructions=budget)
    order = jobs.suite_order(ctx.seed)
    outcome = Outcome()

    def stage():
        root = ctx.fresh_dir("cold")
        return ExperimentRunner(store=ResultStore(root),
                                trace_store=TraceStore(root))

    runner = timed_setups(outcome, stage, "repro.runner")
    produced = {}

    def call(name):
        def thunk():
            run = runner.run(jobs.pinned(config, name))
            result = produced[name] = run.results.get(name)
            return (0, False) if result is None else (result.nodes, True)
        return thunk

    timed_calls(ctx, outcome, [call(name) for name in order])
    for name in order:
        result = produced[name]
        outcome.record(jobs.job_id(name, "default"),
                       None if result is None else result_to_dict(result),
                       ctx.tamper)
    outcome.check(jobs.golden(budget), "golden digest")
    return outcome


# ----------------------------------------------------------------------
# sweep-replay
# ----------------------------------------------------------------------

def source_hash() -> str:
    """Digest of the program's and the benchmark's sources: names what
    ``prepared`` keeps, so a checkout never reuses what other code made."""
    digest = hashlib.sha256()
    for tree in (jobs.SRC, jobs.BENCH):
        for path in sorted(tree.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(jobs.ROOT)).encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
    return digest.hexdigest()


def prepared(ctx: Context, kind: str, budget: int) -> Path:
    """What ``capture.py kind`` makes for ``budget`` with this
    checkout's code, made on first use and kept beside the runs'
    scratch directories (named by the source digest, so other code
    never reuses it)."""
    cache = ctx.work.parent / f"{kind}-{source_hash()[:20]}-{budget}"
    if not cache.exists():
        building = ctx.work / kind
        subprocess.run(
            [sys.executable, str(jobs.BENCH / "capture.py"), kind,
             str(building), str(budget)],
            env=program_env(), cwd=jobs.ROOT, check=True,
        )
        try:
            building.rename(cache)
        except OSError:  # another run published it first
            shutil.rmtree(building, ignore_errors=True)
    return cache


def sweep_replay(ctx: Context) -> Outcome:
    from repro.core.export import result_to_dict
    from repro.runner import ExperimentRunner, ResultStore, TraceStore

    budget = jobs.TINY_BUDGET if ctx.tiny else jobs.PAPER_BUDGET
    configs = jobs.sweep_configs(budget)
    order = jobs.suite_order(ctx.seed)
    traces = prepared(ctx, "traces", budget) / "traces"
    outcome = Outcome()

    def stage():
        root = ctx.fresh_dir("sweep")
        shutil.copytree(traces, root / "traces")
        return root

    root = timed_setups(outcome, stage, "repro.runner")
    runner = ExperimentRunner(store=ResultStore(root),
                              trace_store=TraceStore(root))
    produced = {}

    def call(name):
        def thunk():
            runs = runner.run_many(
                [jobs.pinned(c, name) for c in configs.values()])
            results = produced[name] = [run.results.get(name)
                                        for run in runs]
            done = [r for r in results if r is not None]
            return sum(r.nodes for r in done), len(done) == len(results)
        return thunk

    timed_calls(ctx, outcome, [call(name) for name in order])
    for name in order:
        for label, result in zip(configs, produced[name]):
            outcome.record(jobs.job_id(name, label),
                           None if result is None else result_to_dict(result),
                           ctx.tamper)
    outcome.check(jobs.golden(budget), "golden digest")
    return outcome


# ----------------------------------------------------------------------
# serve-zipf
# ----------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _http_get(port: int, path: str, timeout: float = 5.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One ``repro serve`` child with its own cache directory."""

    def __init__(self, ctx: Context, cache_dir: Path):
        self.port = _free_port()
        self.dump = cache_dir.with_suffix(".spans.json")
        self.log_path = cache_dir.with_suffix(".log")
        serve = ["serve", "--port", str(self.port),
                 "--cache-dir", str(cache_dir)]
        if ctx.tracer:
            command = [sys.executable, str(jobs.BENCH / "server_boot.py"),
                       str(self.dump), *serve]
        else:
            command = [sys.executable, "-m", "repro", *serve]
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(command, env=program_env(),
                                         cwd=jobs.ROOT, stdout=log,
                                         stderr=subprocess.STDOUT)
        self._wait_healthy()

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                break
            try:
                if _http_get(self.port, "/healthz", 1.0)[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"server did not become healthy; log:\n"
                           f"{self.log_path.read_text()[-2000:]}")

    def cpu_seconds(self) -> float:
        return proc_cpu_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def counters(self) -> dict:
        from repro.obs.export import parse_prometheus

        status, body = _http_get(self.port, "/metrics")
        if status != 200:
            return {}
        return {name: value for name, labels, value
                in parse_prometheus(body.decode()) if not labels}

    def stop(self) -> None:
        """SIGTERM (the server drains), then wait for it to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def zipf_requests(seed: int, n_jobs: int, count: int) -> list:
    """``count`` job indices drawn zipf(ZIPF_S) over ranks 0..n_jobs-1."""
    rng = random.Random(seed)
    weights = [1 / (rank ** ZIPF_S) for rank in range(1, n_jobs + 1)]
    return rng.choices(range(n_jobs), weights=weights, k=count)


def closed_loops(port: int, bodies: list) -> list:
    """Send ``bodies`` in order from CLIENT_THREADS closed loops; per
    request ``(start, end, status, result, attempts)``, or None if it
    failed."""
    from repro.service import ServiceClient, ServiceError

    answers = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()

    def loop():
        client = ServiceClient(port=port, timeout=120.0, retries=3)
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            start = time.monotonic()
            try:
                response = client.request("POST", "/v1/analyze",
                                          bodies[index])
            except ServiceError:
                continue
            payload = response.payload
            answers[index] = (start, time.monotonic(),
                              payload.get("status"), payload.get("result"),
                              response.attempts)

    threads = [threading.Thread(target=loop) for __ in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return answers


def serve_zipf(ctx: Context) -> Outcome:
    budget = jobs.TINY_SERVE_BUDGET if ctx.tiny else jobs.SERVE_BUDGET
    catalogue = jobs.serve_catalogue(budget)
    requests = zipf_requests(ctx.seed, len(catalogue),
                             TINY_REQUESTS if ctx.tiny else REQUESTS)
    bodies = [{"workload": catalogue[job][0], "config": catalogue[job][2]}
              for job in requests]
    reference = json.loads(prepared(ctx, "reference", budget).read_text())
    outcome = Outcome()

    def stage():
        return Server(ctx, ctx.fresh_dir("serve"))

    server = timed_setups(outcome, stage, "repro.service.client",
                          release=Server.stop)
    try:
        kids = children_peak_rss_mb()
        cpu0, server_cpu0 = cpu_seconds(), server.cpu_seconds()
        start = time.monotonic()
        with ctx.timed():
            answers = closed_loops(server.port, bodies)
        end = time.monotonic()
        outcome.server_cpu = server.cpu_seconds() - server_cpu0
        outcome.parts.append((start, end,
                              cpu_seconds() - cpu0 + outcome.server_cpu))
        outcome.peak_rss_mb = peak_rss_mb(kids, server.peak_rss_mb())
        counters = server.counters()
    finally:
        server.stop()
    if server.dump.is_file():
        outcome.server_spans = json.loads(server.dump.read_text())

    statuses, retries = [], 0
    for answer, job in zip(answers, requests):
        program, label, __ = catalogue[job]
        started, ended, status, result, attempts = answer or (
            None, None, None, None, 1)
        outcome.calls.append(answer and (started, ended))
        statuses.append((status, answer and ended - started))
        retries += attempts - 1
        # Instructions the program processed: those of the answers it
        # computed (a warm or coalesced answer simulates nothing).
        if status == "computed":
            outcome.nodes += result["nodes"]
        outcome.record(jobs.job_id(program, label), result, ctx.tamper)
    outcome.check(reference, "the serial in-process run")
    outcome.check(jobs.golden(budget), "golden digest")
    tail = len(statuses) - math.ceil(0.99 * len(statuses))
    if not ctx.tiny and tail < TAIL_SAMPLES:
        outcome.problems.append(f"only {tail} requests beyond p99")

    def p50(status):
        values = [seconds for s, seconds in statuses if s == status]
        return statistics.median(values) if values else 0.0

    served = counters.get("repro_service_requests_total", 0.0) or 1.0
    outcome.layer = {
        "service.warm_p50_s": p50("warm"),
        "service.cold_p50_s": p50("computed"),
        "service.warm_ratio":
            counters.get("repro_service_warm_total", 0.0) / served,
        "service.coalesced_ratio":
            counters.get("repro_service_coalesced_total", 0.0) / served,
        "service.retries": retries,
    }
    return outcome


WORKLOADS = {
    "suite-cold": suite_cold,
    "sweep-replay": sweep_replay,
    "serve-zipf": serve_zipf,
}
