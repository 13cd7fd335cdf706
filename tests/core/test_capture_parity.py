"""Columns-native capture == the oracle's records→columns layout.

A cold run captures a trace straight into the kernel's columns
(:meth:`TraceColumns.capture`); the reference oracle, the examples and
the DPG builder read :class:`DynInst` views from ``Machine.trace()``.
Both come from the same simulator step, and every column, the op
table and every record subset must agree slot by slot with
:meth:`TraceColumns.from_records` over the views — for budget-truncated
and halting runs, integer and float workloads, and generated presets.
"""

from itertools import islice

import pytest

from repro.asm import assemble
from repro.core.kernel import TraceColumns
from repro.cpu import Machine
from repro.cpu.trace import ROW_FIELDS
from repro.errors import SimError
from repro.workloads import get_workload

HALTING = """
        .data
v:      .double 1.5
w:      .word 7
bv:     .byte 3
        .text
__start:
        li   $s0, 0
loop:   l.d  $f4, v
        lw   $t0, w
        lb   $t2, bv
        addu $s0, $s0, $t0
        add.d $f6, $f4, $f4
        s.d  $f6, v
        sw   $s0, w
        sb   $zero, bv
        slti $t1, $s0, 70
        bne  $t1, $zero, loop
        jal  done
        halt
done:   li   $a0, 4
        li   $v0, 1
        syscall
        jr   $ra
"""


def _slots(columns):
    return {slot: getattr(columns, slot) for slot in TraceColumns.__slots__}


def _assert_parity(make_machine, budget):
    captured_machine = make_machine()
    captured = TraceColumns.capture(captured_machine, budget)
    viewed_machine = make_machine()
    stream = viewed_machine.trace()
    if budget is not None:
        stream = islice(stream, budget)
    records = list(stream)
    oracle = TraceColumns.from_records(
        records, len(viewed_machine.program.instructions))
    got, want = _slots(captured), _slots(oracle)
    for slot in TraceColumns.__slots__:
        assert type(got[slot]) is type(want[slot]), slot
        assert got[slot] == want[slot], slot
    # The machines end in the same state, and the views are the
    # captured records.
    assert captured_machine.halted == viewed_machine.halted
    assert captured_machine.uid == viewed_machine.uid
    assert captured_machine.static_counts == viewed_machine.static_counts
    assert captured_machine.output == viewed_machine.output
    assert captured.to_records() == records
    return captured, captured_machine


@pytest.mark.parametrize("name", ["com", "gcc", "swm", "app"])
def test_truncated_suite_capture(name):
    captured, machine = _assert_parity(
        lambda: get_workload(name).machine(), 3000)
    assert captured.n_records == 3000
    assert not machine.halted


@pytest.mark.parametrize("name", ["gen:float-kernel@7",
                                  "gen:pointer-chase@11",
                                  "gen:callgraph@5", "gen:branchy@3"])
def test_generated_capture(name):
    _assert_parity(lambda: get_workload(name).machine(), 2500)


def test_float_workload_has_float_columns():
    captured, __ = _assert_parity(lambda: get_workload("swm").machine(),
                                  3000)
    assert any(isinstance(v, float) for v in captured.out)
    assert any(isinstance(v, float) for v in captured.src_value)


@pytest.mark.parametrize("budget", [None, 10_000, 40])
def test_halting_capture(budget):
    captured, machine = _assert_parity(
        lambda: Machine(assemble(HALTING)), budget)
    if budget != 40:
        assert machine.halted and machine.output == "4"
    assert captured.d_ids  # static data and initial registers are D nodes
    assert captured.pt_idx and captured.br_idx and captured.ov_idx


def test_capture_to_halt_runs_the_sentinel_step():
    """A program returning to the sentinel halts only when run on; a
    budget that ends on its last record leaves it running, exactly as
    ``islice`` over ``trace()`` does."""
    source = "li $t0, 1\nli $t1, 2\njr $ra\n"
    full = Machine(assemble(source))
    assert TraceColumns.capture(full).n_records == 3
    assert full.halted
    cut = Machine(assemble(source))
    assert TraceColumns.capture(cut, 3).n_records == 3
    assert not cut.halted


def test_capture_respects_instruction_limit():
    source = "loop: b loop\n"
    with pytest.raises(SimError, match="instruction limit"):
        Machine(assemble(source), max_instructions=50).capture()
    with pytest.raises(SimError, match="instruction limit"):
        Machine(assemble(source), max_instructions=50).capture(60)
    sink = Machine(assemble(source), max_instructions=50).capture(50)
    assert len(sink.rows) == 50 * ROW_FIELDS


def test_capture_needs_a_fresh_tracing_machine():
    machine = Machine(assemble("li $t0, 1\nhalt\n"))
    machine.step()
    with pytest.raises(SimError, match="fresh"):
        machine.capture()
    with pytest.raises(SimError, match="tracing disabled"):
        Machine(assemble("halt\n"), tracing=False).capture()


def test_trace_streams_in_constant_memory():
    machine = get_workload("go").machine()
    for __ in islice(machine.trace(), 2000):
        assert not machine.sink.rows and not machine.sink.arcs
