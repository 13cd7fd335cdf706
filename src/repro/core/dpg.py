"""Explicit dynamic prediction graph for small traces.

The streaming :class:`~repro.core.analysis.Analyzer` never materialises
the DPG — it cannot, at hundreds of thousands of nodes.  For small
traces, though, an explicit graph is invaluable: the examples use it to
print the paper's Fig. 3, and the test suite cross-validates the
streaming classification against an independent graph-based one.

Nodes are dynamic instruction uids (``int``) plus ``("D", key)`` tuples
for input-data nodes.  Edges carry the ``<x,y>`` label, the value
passed, and the operand slot.  :func:`classify_uses` adds the
single/repeated-use classification, which needs the whole graph.
"""

from __future__ import annotations

from collections import Counter

import networkx as nx

from repro.core.events import (
    ARC_BEHAVIOR,
    ARC_LABELS,
    Behavior,
    UseClass,
    arc_code,
    in_kind,
    node_behavior,
    node_class_name,
)
from repro.cpu.trace import DynInst
from repro.isa.opcodes import Category
from repro.predictors import GsharePredictor, PredictorBank


def build_dpg(
    trace,
    predictor: str = "stride",
    gshare_bits: int = 16,
) -> nx.MultiDiGraph:
    """Build the DPG of ``trace`` under one value predictor.

    Every dynamic instruction becomes a node with attributes ``pc``,
    ``op``, ``out``, ``out_predicted`` (None when the node has no
    predictable output), ``kind`` (:class:`InKind`), ``behavior`` and
    ``label``.  Every true dependence becomes an edge with ``x``, ``y``
    (bools), ``label`` (``"<p,n>"`` style), ``value`` and ``slot``.
    """
    graph = nx.MultiDiGraph()
    bank = PredictorBank(predictor)
    gshare = GsharePredictor(gshare_bits)
    for dyn in trace:
        _add_node(graph, dyn, bank, gshare)
    classify_uses(graph)
    return graph


def _add_node(graph, dyn: DynInst, bank, gshare) -> None:
    pc = dyn.pc
    y_flags = [
        bank.see_input(pc, slot, src.value)
        for slot, src in enumerate(dyn.srcs)
    ]
    category = dyn.category
    if category is Category.BRANCH:
        out_predicted = gshare.see(pc, dyn.taken)
    elif dyn.out is None:
        out_predicted = None
    elif dyn.passthrough is not None:
        out_predicted = y_flags[dyn.passthrough]
    elif category in (Category.LOAD, Category.STORE, Category.JUMP_REG):
        out_predicted = False  # pass-through of an immediate input
    else:
        out_predicted = bank.see_output(pc, dyn.out)
    has_p = any(y_flags)
    has_n = not all(y_flags)
    kind = in_kind(has_p, has_n, dyn.has_imm)
    if out_predicted is None:
        behavior = Behavior.OTHER
        label = None
    else:
        behavior = node_behavior(kind, out_predicted)
        label = node_class_name(kind, out_predicted)
    graph.add_node(
        dyn.uid,
        pc=pc,
        op=dyn.op,
        category=category,
        out=dyn.out,
        taken=dyn.taken,
        has_imm=dyn.has_imm,
        out_predicted=out_predicted,
        kind=kind,
        behavior=behavior,
        label=label,
    )
    for slot, src in enumerate(dyn.srcs):
        if src.producer is None:
            producer = ("D", src.d_key())
            if producer not in graph:
                graph.add_node(producer, kind="data", behavior=None)
            x_flag = False
        else:
            producer = src.producer
            x_flag = bool(graph.nodes[producer]["out_predicted"])
        y_flag = y_flags[slot]
        code = arc_code(x_flag, y_flag)
        graph.add_edge(
            producer,
            dyn.uid,
            slot=slot,
            x=x_flag,
            y=y_flag,
            value=src.value,
            label=ARC_LABELS[code],
            behavior=ARC_BEHAVIOR[code],
        )


def classify_uses(graph: nx.MultiDiGraph) -> None:
    """Annotate every edge with its :class:`UseClass`.

    Arcs from one producer node to dynamic instances of the same static
    consumer form a use group; groups of size > 1 are repeated-use,
    subdivided into write-once (real producer whose static instruction
    executed exactly once in the graph) and input-data (``D`` producer).
    """
    static_counts: Counter = Counter(
        data["pc"] for __, data in graph.nodes(data=True) if "pc" in data
    )
    groups: Counter = Counter()
    for producer, consumer in graph.edges():
        consumer_pc = graph.nodes[consumer].get("pc")
        groups[(producer, consumer_pc)] += 1
    for producer, consumer, key in graph.edges(keys=True):
        consumer_pc = graph.nodes[consumer].get("pc")
        size = groups[(producer, consumer_pc)]
        if size == 1:
            use = UseClass.SINGLE
        elif isinstance(producer, tuple):
            use = UseClass.DATA
        elif static_counts[graph.nodes[producer]["pc"]] == 1:
            use = UseClass.WRITE_ONCE
        else:
            use = UseClass.REPEAT
        graph.edges[producer, consumer, key]["use"] = use


def behavior_counts(graph: nx.MultiDiGraph):
    """Return (node behaviour Counter, arc behaviour Counter)."""
    node_counts: Counter = Counter(
        data["behavior"]
        for __, data in graph.nodes(data=True)
        if data.get("behavior") is not None
    )
    arc_counts: Counter = Counter(
        data["behavior"] for __, __, data in graph.edges(data=True)
    )
    return node_counts, arc_counts
