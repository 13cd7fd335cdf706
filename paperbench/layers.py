"""Where the tracer hooks into the program: one span per layer.

Every hook wraps a public function or method of a layer module; no
program file changes.  Span names are the per-layer metric names
without their ``_s`` suffix (see ``run.LAYER_SPANS``).

The predictor banks are split from outside: before the kernel's
``analyze_columns`` runs, :func:`_prewarmed` asks the columns object
for every hit stream the analysis is about to need
(``TraceColumns.input_hits`` / ``output_hits`` / ``branch_hits``),
each under its own ``kernel.bank.<spec>`` or ``kernel.branch`` span.
The streams are cached on the columns object and prefix-closed, so the
kernel then finds them computed, and what remains of its time — bit
assembly, classification and the paths walk — is ``kernel.classify``.
"""

from __future__ import annotations

from bisect import bisect_left


def _simulating(trace, tracer, name):
    """``Machine.trace`` as a span from the first record to close."""
    def wrapper(machine, *args, **kwargs):
        inner = trace(machine, *args, **kwargs)
        start = machine.uid
        with tracer.span(name):
            try:
                yield from inner
            finally:
                tracer.count("cpu.instructions", machine.uid - start)
    return wrapper


def _sized(method, tracer, name):
    """Time a trace-store call keyed by its first argument, then add the
    size of the stored trace to ``<span>_bytes`` (when a ``get`` served
    nothing, nothing)."""
    def wrapper(store, key, *args, **kwargs):
        with tracer.span(name):
            result = method(store, key, *args, **kwargs)
        if result is not None:
            try:
                size = store.path_for(key).stat().st_size
            except OSError:
                size = 0
            tracer.count(f"{name}_bytes", size)
        return result
    return wrapper


def _result_get(method, tracer, name):
    def wrapper(store, *args, **kwargs):
        with tracer.span(name):
            payload = method(store, *args, **kwargs)
        tracer.count("resultstore.gets", 1)
        tracer.count("resultstore.hits", payload is not None)
        return payload
    return wrapper


def _warm_banks(tracer, columns, config) -> None:
    """Compute the hit streams ``analyze_columns(columns, config)``
    will ask for, with the same lengths, each under a bank span."""
    n = columns.n_records
    m = n if config.max_instructions is None else min(
        config.max_instructions, n)
    arcs = columns.src_start[m]
    tracer.count("kernel.arcs", arcs)
    specs = config.predictors
    if not specs:
        return
    ov_cnt = bisect_left(columns.ov_idx, m)
    for spec in specs:
        with tracer.span(f"kernel.bank.{spec}"):
            columns.input_hits(spec, arcs)
            if ov_cnt:
                columns.output_hits(spec, ov_cnt)
    br_cnt = bisect_left(columns.br_idx, m)
    if br_cnt:
        with tracer.span("kernel.branch"):
            columns.branch_hits(config.branch_predictor,
                                config.gshare_bits, br_cnt)


def _prewarmed(many: bool):
    def make(analyze, tracer, name):
        def wrapper(columns, configs, *args, **kwargs):
            for config in (configs if many else (configs,)):
                _warm_banks(tracer, columns, config)
            with tracer.span(name):
                return analyze(columns, configs, *args, **kwargs)
        return wrapper
    return make


def install(tracer) -> None:
    """Hook every measured layer of the program into ``tracer``."""
    import repro.core.analysis as analysis
    import repro.gen.workload as gen_workload
    import repro.runner.api as runner_api
    import repro.service.broker as broker
    import repro.workloads.suite as suite
    from repro.core.kernel import TraceColumns
    from repro.cpu import Machine
    from repro.runner import ResultStore, TraceStore

    tracer.patch(suite, "compile_program", "minic.compile")
    tracer.patch(gen_workload, "generate_source", "gen.emit")
    for module in (runner_api, broker):
        tracer.patch(module, "job_key", "runner.key")
        tracer.patch(module, "result_to_dict", "export.to_dict")
    tracer.patch(suite.Workload, "machine", "cpu.machine")
    tracer.patch(Machine, "trace", "cpu.simulate", _simulating)
    tracer.patch(TraceStore, "put", "tracestore.put", _sized)
    tracer.patch(TraceStore, "get", "tracestore.get", _sized)
    tracer.patch(TraceColumns, "from_records", "kernel.layout")
    tracer.patch(analysis, "analyze_columns", "kernel.classify",
                 _prewarmed(many=False))
    tracer.patch(analysis, "analyze_columns_many", "kernel.classify",
                 _prewarmed(many=True))
    tracer.patch(ResultStore, "put", "resultstore.put")
    tracer.patch(ResultStore, "get", "resultstore.get", _result_get)
