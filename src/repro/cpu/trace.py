"""Dynamic-trace records emitted by the simulator.

The simulator appends what it executes to a :class:`TraceSink` as flat
rows, which the columnar kernel adopts as its columns
(:meth:`repro.core.kernel.TraceColumns.capture`).  A :class:`DynInst`
is a per-record *view* of a row (:meth:`repro.cpu.Machine.trace`), for
the reference analyzer, the DPG builder and the examples.  It is a
node of the dynamic prediction graph; its :class:`Source` entries are
the in-arcs.  Reads
of the hard-wired zero register and instruction immediates are *not*
sources — following the paper, they are part of the instruction and
show up only through the ``has_imm`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.isa.opcodes import Category


class Source(NamedTuple):
    """One consumed operand (an in-arc of the DPG node).

    Attributes:
        value: the value consumed.
        producer: uid of the producing dynamic instruction, or None when
            the value is program input / static data (a ``D`` node).
        producer_pc: static PC of the producer, or None for ``D``.
        is_mem: True when this is the memory-data input of a load.
        loc: where the value was read from — the byte address for
            memory inputs, the register number for register inputs.
            Identifies the ``D`` node when ``producer`` is None.
    """

    value: int | float
    producer: int | None
    producer_pc: int | None
    is_mem: bool = False
    loc: int = 0

    def d_key(self) -> int:
        """Stable identity of the ``D`` node feeding this arc.

        Memory data items are identified by address; initial register
        values by ``2**33 + register number`` (addresses are < 2**32,
        so the spaces cannot collide).  Only meaningful when
        ``producer`` is None.
        """
        return self.loc if self.is_mem else 0x2_0000_0000 + self.loc


@dataclass(slots=True)
class DynInst:
    """One executed instruction (a node of the DPG).

    Attributes:
        uid: position in the dynamic instruction stream (0-based).
        pc: static instruction index.
        op: opcode mnemonic.
        category: dynamic category (ALU / LOAD / STORE / BRANCH / ...).
        has_imm: True when the instruction carries an immediate (or
            reads the zero register, which the model treats the same way).
        srcs: consumed operands, in operand order; a load's memory-data
            input comes last.
        out: the produced value — the result register value for ALU ops
            and loads, the stored value for stores, the target index for
            register-indirect jumps; None when nothing is produced.
        passthrough: index into ``srcs`` whose predictability the output
            inherits (loads, stores, register-indirect jumps), or None.
        taken: branch direction for conditional branches, else None.
        target: taken-target instruction index for branches and jumps.
    """

    uid: int
    pc: int
    op: str
    category: Category
    has_imm: bool
    srcs: tuple[Source, ...]
    out: int | float | None
    passthrough: int | None = None
    taken: bool | None = None
    target: int | None = None

    @property
    def is_branch(self) -> bool:
        """True for conditional branches."""
        return self.category is Category.BRANCH


#: ``taken`` code of a record that is not a conditional branch (a
#: branch stores its direction as a bool, i.e. 0 or 1).
TAKEN_NONE = 2

#: Fields per record row: pc, op-table index, out, passthrough (-1 =
#: None), taken (bool or :data:`TAKEN_NONE`), number of arc-row values
#: the record appended (:data:`ARC_FIELDS` per operand), target (None
#: when absent).
ROW_FIELDS = 7
#: Fields per arc row: value, producer uid (-1 = ``D`` node), producer
#: pc (0 for ``D``), is_mem (0/1), loc.
ARC_FIELDS = 5


class TraceSink:
    """Flat rows a tracing :class:`~repro.cpu.Machine` appends to.

    ``rows`` holds :data:`ROW_FIELDS` values per executed instruction,
    ``arcs`` :data:`ARC_FIELDS` values per consumed operand, in operand
    order.  ``ops`` is the opcode table — distinct ``(op, category,
    has_imm)`` triples in first-executed order — that record rows index.
    Column ``i`` of the rows is ``rows[i::ROW_FIELDS]``, so building
    columns is a stride slice per column, not a walk over records.
    """

    __slots__ = ("rows", "arcs", "ops", "_op_ids")

    def __init__(self):
        self.rows: list = []
        self.arcs: list = []
        self.ops: list[tuple[str, Category, bool]] = []
        self._op_ids: dict[tuple, int] = {}

    def op_index(self, entry: tuple[str, Category, bool]) -> int:
        """The op-table index of ``entry``, appending it on first use."""
        index = self._op_ids.get(entry)
        if index is None:
            index = self._op_ids[entry] = len(self.ops)
            self.ops.append(entry)
        return index

    def clear(self) -> None:
        """Drop the buffered rows (the op table stays)."""
        self.rows.clear()
        self.arcs.clear()

    def pop_view(self, uid: int) -> DynInst:
        """The one buffered record, with stream position ``uid``, as a
        :class:`DynInst`; the buffer is emptied."""
        rows = self.rows
        arcs = self.arcs
        pc, op_index, out, passthrough, taken, __, target = rows
        view = record_view(uid, self.ops[op_index], pc, out, passthrough,
                           taken, target, zip(*[iter(arcs)] * ARC_FIELDS))
        rows.clear()
        arcs.clear()
        return view


def record_view(uid: int, op_entry: tuple, pc: int, out, passthrough: int,
                taken, target, arcs) -> DynInst:
    """One record as a :class:`DynInst`, from row fields in the
    :class:`TraceSink` encoding (``op_entry`` from the op table, ``arcs``
    yielding arc rows) — for :meth:`TraceSink.pop_view` and
    :meth:`repro.core.kernel.TraceColumns.to_records`."""
    op, category, has_imm = op_entry
    srcs = tuple([
        Source(value, None, None, bool(is_mem), loc) if producer < 0
        else Source(value, producer, producer_pc, bool(is_mem), loc)
        for value, producer, producer_pc, is_mem, loc in arcs
    ])
    return DynInst(uid, pc, op, category, has_imm, srcs, out,
                   None if passthrough < 0 else passthrough,
                   None if taken == TAKEN_NONE else bool(taken), target)
