"""The tracing functional simulator.

:class:`Machine` interprets an assembled program and, in tracing mode,
records every executed instruction with full dependence information
(which dynamic instruction produced each consumed value) into its
:class:`~repro.cpu.trace.TraceSink` as flat rows.
:meth:`Machine.capture` keeps the rows for the columnar kernel and the
trace file; :meth:`Machine.trace` turns each one into a
:class:`~repro.cpu.trace.DynInst` view as it is executed.  Execution
is deterministic: running the same program on the same inputs twice
produces identical traces, which the analysis relies on for its
two-pass (profile, then analyse) structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asm.program import Program
from repro.cpu.alu import ALU_FUNCS, BRANCH_FUNCS
from repro.obs import get_recorder
from repro.cpu.memory import Memory
from repro.cpu.trace import TAKEN_NONE, TraceSink
from repro.errors import SimError
from repro.isa.layout import (
    DATA_BASE,
    INPUT_BASE,
    INPUT_FLOAT_BASE,
    INPUT_FLOAT_LEN_ADDR,
    INPUT_LEN_ADDR,
    STACK_TOP,
    SYS_EXIT,
    SYS_PRINT_CHAR,
    SYS_PRINT_FLOAT,
    SYS_PRINT_INT,
    WORD_MASK,
    to_signed,
)
from repro.isa.opcodes import Category, opcode_spec
from repro.isa.registers import REG_A0, REG_GP, REG_RA, REG_SP, REG_V0, fp_reg

_NO_PRODUCER = (-1, 0)


@dataclass(slots=True)
class MachineResult:
    """Summary of a completed (or aborted) run."""

    instructions: int
    exit_code: int
    output: str
    halted: bool


@dataclass(slots=True)
class _Decoded:
    """Per-instruction execution record precomputed for speed."""

    op: str
    category: Category
    dest: int | None
    src1: int | None
    src2: int | None
    imm: int | None
    target: int | None
    has_imm: bool
    func: object  # ALU or branch semantic function, or None
    passthrough: int  # operand slot the output inherits, -1 = None
    op_index: int = -1  # trace-sink op-table index, set on first use


class Machine:
    """Functional simulator over an assembled :class:`Program`.

    Args:
        program: the assembled program.
        input_words: synthetic integer program input, loaded at
            :data:`INPUT_BASE` as ``D`` data.
        input_floats: synthetic floating-point program input, loaded at
            :data:`INPUT_FLOAT_BASE` as ``D`` data.
        max_instructions: hard cap on executed instructions.
        tracing: when True (default), producer maps are maintained
            and every executed instruction is recorded into
            :attr:`sink` (read by :meth:`capture` and :meth:`trace`).
    """

    def __init__(
        self,
        program: Program,
        input_words=None,
        input_floats=None,
        max_instructions: int = 50_000_000,
        tracing: bool = True,
    ):
        self.program = program
        self.max_instructions = max_instructions
        self.tracing = tracing
        self.regs: list[int | float] = [0] * 32 + [0.0] * 32
        # Producer (uid, pc) of each register's value; -1 / 0 = D node.
        self.reg_uid: list[int] = [-1] * 64
        self.reg_ppc: list[int] = [0] * 64
        self.sink = TraceSink()
        self.memory = Memory()
        self.pc = program.entry
        self.uid = 0
        self.static_counts = [0] * len(program.instructions)
        self.halted = False
        self.exit_code = 0
        self._out: list[str] = []
        self._sentinel = len(program.instructions)
        self.regs[REG_SP] = STACK_TOP
        self.regs[REG_GP] = DATA_BASE
        self.regs[REG_RA] = self._sentinel
        self._decoded = [self._decode(instr) for instr in program.instructions]
        self._load_data(program)
        self._load_inputs(input_words or [], input_floats or [])

    # ------------------------------------------------------------------
    # Setup.
    # ------------------------------------------------------------------

    @staticmethod
    def _decode(instr) -> _Decoded:
        spec = opcode_spec(instr.op)
        category = spec.category
        if category is Category.ALU:
            func = ALU_FUNCS[instr.op]
        elif category is Category.BRANCH:
            func = BRANCH_FUNCS[instr.op]
        else:
            func = None
        reads_zero = instr.src1 == 0 or instr.src2 == 0
        no_inputs = instr.src1 is None and instr.src2 is None
        has_imm = spec.uses_imm or reads_zero or (
            no_inputs and category in (Category.ALU, Category.CALL)
        )
        # The operand slot the output inherits: a load's memory input
        # and a store's data (none for a store of $zero) follow the
        # base operand.
        base = 1 if instr.src1 else 0
        passthrough = {Category.LOAD: base, Category.JUMP_REG: 0,
                       Category.STORE: base if instr.src2 else -1,
                       }.get(category, -1)
        return _Decoded(
            op=instr.op,
            category=category,
            dest=instr.dest,
            src1=instr.src1,
            src2=instr.src2,
            imm=instr.imm,
            target=instr.target,
            has_imm=has_imm,
            func=func,
            passthrough=passthrough,
        )

    def _load_data(self, program: Program) -> None:
        for item in program.data:
            if item.is_float:
                self.memory.write_float(item.addr, item.value)
            elif item.size == 4:
                self.memory.write_word(item.addr, int(item.value) & WORD_MASK)
            elif item.size == 2:
                self.memory.write_half(item.addr, int(item.value))
            else:
                self.memory.write_byte(item.addr, int(item.value))

    def _load_inputs(self, input_words, input_floats) -> None:
        self.memory.write_word(INPUT_LEN_ADDR, len(input_words))
        for index, word in enumerate(input_words):
            self.memory.write_word(INPUT_BASE + 4 * index, word & WORD_MASK)
        self.memory.write_word(INPUT_FLOAT_LEN_ADDR, len(input_floats))
        for index, value in enumerate(input_floats):
            self.memory.write_float(INPUT_FLOAT_BASE + 8 * index, value)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------

    def trace(self):
        """Yield one :class:`~repro.cpu.trace.DynInst` per executed
        instruction.

        Each record is a view built from the rows the step just wrote
        to :attr:`sink`, which is emptied again, so a long trace is
        streamed in constant memory.
        """
        if not self.tracing:
            raise SimError("machine was created with tracing disabled")
        started = self.uid
        sink = self.sink
        sink.clear()
        try:
            for __ in self._stepping():
                if sink.rows:
                    yield sink.pop_view(self.uid - 1)
        finally:
            # Interpreter-loop accounting: fires once per consumed
            # trace, including truncated (islice'd) ones at close time.
            self._count(started, "sim.traces")

    def capture(self, budget: int | None = None) -> TraceSink:
        """Execute from the start and keep every record: the sink.

        Stops after ``budget`` instructions (None = run to halt) —
        exactly the records ``islice(self.trace(), budget)`` yields,
        with :attr:`halted` left as that leaves it.  Row ``r`` of the
        returned sink is the instruction with uid ``r``.
        """
        if not self.tracing:
            raise SimError("machine was created with tracing disabled")
        if self.uid:
            raise SimError("capture must start from a fresh machine")
        try:
            for __ in self._stepping(budget):
                pass
        finally:
            self._count(0, "sim.traces")
        return self.sink

    def run(self) -> MachineResult:
        """Run to completion without keeping trace records."""
        started = self.uid
        for __ in self._stepping():
            self.sink.clear()
        self._count(started, "sim.runs")
        return self.result()

    def _stepping(self, budget: int | None = None):
        """Step until halted, yielding after each step; stop quietly
        after ``budget`` instructions, raise :class:`SimError` at
        ``max_instructions``."""
        limit = self.max_instructions
        step = self.step
        while not self.halted:
            if budget is not None and self.uid >= budget:
                return
            if self.uid >= limit:
                raise SimError(
                    f"instruction limit exceeded ({limit} instructions)"
                )
            step()
            yield

    def _count(self, started: int, counter: str) -> None:
        recorder = get_recorder()
        recorder.count("sim.instructions", self.uid - started)
        recorder.count(counter, 1)

    def result(self) -> MachineResult:
        """Summarise the run so far."""
        return MachineResult(
            instructions=self.uid,
            exit_code=self.exit_code,
            output="".join(self._out),
            halted=self.halted,
        )

    @property
    def output(self) -> str:
        """Everything the program printed so far."""
        return "".join(self._out)

    def step(self) -> None:
        """Execute one instruction.

        When tracing, append its record row and one arc row per
        consumed operand to :attr:`sink` (layout in
        :class:`~repro.cpu.trace.TraceSink`).
        """
        pc = self.pc
        if pc == self._sentinel:
            self.halted = True
            return
        if not 0 <= pc < self._sentinel:
            raise SimError(f"program counter out of range: {pc}")
        ins = self._decoded[pc]
        self.static_counts[pc] += 1
        uid = self.uid
        self.uid = uid + 1
        category = ins.category
        regs = self.regs
        tracing = self.tracing
        arcs = self.sink.arcs
        arcs_before = len(arcs)
        arc = arcs.extend
        prod = self.reg_uid
        ppc = self.reg_ppc
        out = None
        taken = TAKEN_NONE
        target = ins.target
        next_pc = pc + 1

        if category is Category.ALU:
            src1, src2 = ins.src1, ins.src2
            a = 0
            b = ins.imm if ins.imm is not None else 0
            if src1:
                a = regs[src1]
                if tracing:
                    arc((a, prod[src1], ppc[src1], 0, src1))
            if src2:
                b = regs[src2]
                if tracing:
                    arc((b, prod[src2], ppc[src2], 0, src2))
            out = ins.func(a, b)
            dest = ins.dest
            if dest:
                regs[dest] = out
                prod[dest] = uid
                ppc[dest] = pc
        elif category is Category.LOAD:
            out = self._do_load(ins, uid, pc, arc)
        elif category is Category.STORE:
            out = self._do_store(ins, uid, pc, arc)
        elif category is Category.BRANCH:
            src1, src2 = ins.src1, ins.src2
            a = regs[src1] if src1 else 0
            b = regs[src2] if src2 else 0
            if tracing:
                if src1:
                    arc((a, prod[src1], ppc[src1], 0, src1))
                if src2:
                    arc((b, prod[src2], ppc[src2], 0, src2))
            taken = ins.func(a, b)
            if taken:
                next_pc = ins.target
        elif category is Category.JUMP:
            next_pc = ins.target
        elif category is Category.CALL:
            out = pc + 1
            regs[REG_RA] = out
            prod[REG_RA] = uid
            ppc[REG_RA] = pc
            next_pc = ins.target
        elif category is Category.JUMP_REG:
            src1 = ins.src1
            tgt = regs[src1]
            if tracing:
                arc((tgt, prod[src1], ppc[src1], 0, src1))
            if not 0 <= tgt <= self._sentinel:
                raise SimError(f"indirect jump to bad target: {tgt}")
            out = tgt
            target = tgt
            if ins.dest is not None:  # jalr
                regs[REG_RA] = pc + 1
                prod[REG_RA] = uid
                ppc[REG_RA] = pc
            next_pc = tgt
        elif category is Category.SYSCALL:
            self._do_syscall(ins, arc)
        # Category.NOP: nothing to do.

        self.pc = next_pc
        if tracing:
            op_index = ins.op_index
            if op_index < 0:
                op_index = ins.op_index = self.sink.op_index(
                    (ins.op, category, ins.has_imm))
            self.sink.rows.extend((pc, op_index, out, ins.passthrough,
                                   taken, len(arcs) - arcs_before, target))

    def _do_load(self, ins, uid, pc, arc):
        regs = self.regs
        memory = self.memory
        src1 = ins.src1
        base = regs[src1] if src1 else 0
        addr = (base + ins.imm) & WORD_MASK
        tracing = self.tracing
        if tracing and src1:
            arc((base, self.reg_uid[src1], self.reg_ppc[src1], 0, src1))
        op = ins.op
        if op == "lw":
            value = memory.read_word(addr)
        elif op == "lb":
            value = memory.read_byte(addr)
            if value & 0x80:
                value = (value - 0x100) & WORD_MASK
        elif op == "lbu":
            value = memory.read_byte(addr)
        elif op == "lh":
            value = memory.read_half(addr)
            if value & 0x8000:
                value = (value - 0x1_0000) & WORD_MASK
        elif op == "lhu":
            value = memory.read_half(addr)
        else:  # l.d
            value = memory.read_float(addr)
        if tracing:
            if op == "l.d":
                producer = memory.float_producer(addr)
            else:
                producer = memory.producer(addr)
            arc((value, *(producer or _NO_PRODUCER), 1, addr))
        dest = ins.dest
        if dest:
            regs[dest] = value
            self.reg_uid[dest] = uid
            self.reg_ppc[dest] = pc
        return value

    def _do_store(self, ins, uid, pc, arc):
        regs = self.regs
        memory = self.memory
        src1, src2 = ins.src1, ins.src2
        base = regs[src1] if src1 else 0
        addr = (base + ins.imm) & WORD_MASK
        tracing = self.tracing
        if tracing and src1:
            arc((base, self.reg_uid[src1], self.reg_ppc[src1], 0, src1))
        data = regs[src2] if src2 else (0.0 if ins.op == "s.d" else 0)
        if tracing and src2:
            arc((data, self.reg_uid[src2], self.reg_ppc[src2], 0, src2))
        op = ins.op
        if op == "sw":
            memory.write_word(addr, data)
            out = data & WORD_MASK
        elif op == "sb":
            memory.write_byte(addr, data)
            out = data & 0xFF
        elif op == "sh":
            memory.write_half(addr, data)
            out = data & 0xFFFF
        else:  # s.d
            memory.write_float(addr, data)
            out = data
        if tracing:
            if op == "s.d":
                memory.set_float_producer(addr, uid, pc)
            else:
                memory.set_producer(addr, uid, pc)
        return out

    def _do_syscall(self, ins, arc) -> None:
        if ins.op == "halt":
            self.halted = True
            return
        regs = self.regs
        tracing = self.tracing
        prod = self.reg_uid
        ppc = self.reg_ppc
        code = regs[REG_V0]
        if tracing:
            arc((code, prod[REG_V0], ppc[REG_V0], 0, REG_V0))
        if code == SYS_PRINT_FLOAT:
            arg = fp_reg(12)
        elif code in (SYS_PRINT_INT, SYS_PRINT_CHAR, SYS_EXIT):
            arg = REG_A0
        else:
            raise SimError(f"unknown syscall code: {code}")
        value = regs[arg]
        if tracing:
            arc((value, prod[arg], ppc[arg], 0, arg))
        if code == SYS_PRINT_INT:
            self._out.append(str(to_signed(value)))
        elif code == SYS_PRINT_CHAR:
            self._out.append(chr(value & 0xFF))
        elif code == SYS_PRINT_FLOAT:
            self._out.append(f"{value:g}")
        else:  # SYS_EXIT
            self.exit_code = to_signed(value)
            self.halted = True


def run_program(
    program: Program,
    input_words=None,
    input_floats=None,
    max_instructions: int = 50_000_000,
) -> MachineResult:
    """Assemble-and-go convenience: run ``program`` without tracing."""
    machine = Machine(
        program,
        input_words=input_words,
        input_floats=input_floats,
        max_instructions=max_instructions,
        tracing=False,
    )
    return machine.run()
