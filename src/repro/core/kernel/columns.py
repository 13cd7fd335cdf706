"""Columnar trace representation — the kernel's data layout.

:class:`TraceColumns` holds one trace as flat parallel arrays instead of
per-record :class:`~repro.cpu.trace.DynInst` objects: one
entry per dynamic instruction in the record columns (``pc``,
``op_index``, ``out`` ...) and one entry per consumed operand in the
arc columns (``src_value``, ``src_prod`` ...), joined by the
``src_start`` offset column (record ``r`` owns arcs
``src_start[r] : src_start[r+1]``).  A trace reaches this form one of
two ways, neither of which materialises a ``DynInst``: a cold run
adopts the simulator's own rows (:meth:`TraceColumns.capture`), a
replay decodes the stored v2 bytes (:meth:`TraceColumns.from_v2`).
:meth:`TraceColumns.from_records` is the reference oracle's builder.
Everything the analysis engine
needs per element is precomputed **once per trace** at build time —
predictor input keys, arc group keys, D-node identities, the
branch/output/passthrough record subsets — so a multi-config sweep
pays the layout cost once and every analyzer runs as batched passes
over the columns (:mod:`repro.core.kernel.engine`).

Budget truncation never re-decodes: every column is prefix-closed, so
an analyzer with ``max_instructions = m`` reads ``pc[:m]`` and arcs
``[:src_start[m]]`` of the same object.  Predictor hit streams are
prefix-closed too (a predictor's verdict on element ``i`` depends only
on elements ``< i``), which is what makes the per-spec hit cache
(:meth:`input_hits` / :meth:`output_hits` / :meth:`branch_hits`)
shareable across configs and budgets.

Byte columns are ``bytearray`` so the engine can combine them with
big-integer bitwise arithmetic and count them with ``bytes.translate``
+ ``collections.Counter`` at C speed; everything is stdlib-only.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from collections import Counter
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, is_, lshift, mul, or_, sub

from repro.cpu.trace import (ARC_FIELDS, ROW_FIELDS, TAKEN_NONE,
                             record_view)
# The v2 record layout, owned by the trace-file module.
from repro.cpu.tracefile import (
    _F64, _HAS_OUT, _HAS_TAKEN, _I64, _NSRC_SHIFT, _OUT_FLOAT, _REC_HEAD,
    _SRC_FLOAT, _SRC_GROUPS, _SRC_MEM, _SRC_PRODUCED, _TAKEN,
)
from repro.errors import ReproError
from repro.isa.opcodes import Category

#: ``taken`` column encoding (``None`` is distinct from ``False``: a
#: direction predictor can never be *correct* about an unknown
#: direction, but it still trains towards not-taken).  TAKEN_NONE is
#: the simulator's own code for "not a branch".
TAKEN_FALSE = 0
TAKEN_TRUE = 1

#: Categories whose output passes an input's predictability through.
_PASS_CATS = (Category.LOAD, Category.STORE, Category.JUMP_REG)

#: byte -> bool(byte) table, for nsrc -> has_src.
_NONZERO = bytes(1 if v else 0 for v in range(256))
#: byte -> byte // ARC_FIELDS: arc-row values appended -> operand count.
_PER_ARC = bytes(v // ARC_FIELDS for v in range(256))


class TraceColumns:
    """One decoded trace as flat parallel columns (see module doc)."""

    __slots__ = (
        # --- header facts -------------------------------------------------
        "n_static",      # max(n_static, 1), as the Analyzer uses it
        "n_records",
        "ops",           # op_index -> (op, Category, has_imm)
        # --- record columns (length n_records) ----------------------------
        "pc",            # list[int]
        "op_index",      # bytearray
        "out",           # list[int|float|None]
        "passthrough",   # list[int], -1 = None
        "taken",         # bytearray of TAKEN_* codes
        "nsrc",          # bytearray
        "has_imm",       # bytearray 0/1
        "has_src",       # bytearray 0/1
        "has_out",       # bytearray 0/1 (branches count as having one)
        "is_branch",     # bytearray 0/1
        "target",        # list[int|None] (file encoding only); None
                         # when decoded from v2, which drops it
        # --- arc columns (length src_start[-1]) ----------------------------
        "src_start",     # list[int], length n_records + 1
        "src_value",     # list[int|float]
        "src_prod",      # list[int], -1 = D node
        "src_ppc",       # list[int], 0 for D arcs
        "src_mem",       # bytearray (for DynInst reconstruction)
        "src_loc",       # list[int]
        "in_key",        # list[int]: (pc << 2) | slot
        "group_key",     # list[int]: ArcGroupTable key
        # --- D-node bookkeeping --------------------------------------------
        "d_prefix",      # list[int], length n_records + 1: D arcs so far
        "d_ids",         # list[int]: d_key of each D arc, in arc order
        # --- record subsets (indices ascending; sliceable by bisect) -------
        "br_idx", "br_pc", "br_taken",
        "ov_idx", "ov_pc", "ov_val",
        "pt_idx", "pt_arc",
        # --- per-object caches ---------------------------------------------
        "_counts_cache",    # budget m -> per-PC execution counts list
        "_genclass_cache",  # count-so-far GenClass byte column
        "_pred_cache",      # (tier, spec, ...) -> (covered, hits)
    )

    def __init__(self):
        self.ops = []
        self.pc = []
        self.op_index = bytearray()
        self.out = []
        self.passthrough = []
        self.taken = bytearray()
        self.nsrc = bytearray()
        self.target = []
        self.src_start = [0]
        self.src_value = []
        self.src_prod = []
        self.src_ppc = []
        self.src_mem = bytearray()
        self.src_loc = []
        self.in_key = []
        self.group_key = []
        self.d_prefix = [0]
        self.d_ids = []
        self._counts_cache = {}
        self._genclass_cache = None
        self._pred_cache = {}

    # ------------------------------------------------------------------
    # Builders.
    # ------------------------------------------------------------------

    @classmethod
    def capture(cls, machine, budget: int | None = None) -> "TraceColumns":
        """Run ``machine`` from its start (at most ``budget``
        instructions, None = to halt) and adopt its
        :class:`~repro.cpu.trace.TraceSink` rows: each primary column is
        a stride slice of them, the derived arc keys come from C-level
        ``map`` pipelines, so no Python code runs per record.  Equal,
        slot by slot, to :meth:`from_records` over ``machine.trace()``.
        """
        sink = machine.capture(budget)
        self = cls()
        self.n_static = n = max(len(machine.program.instructions), 1)
        self.ops = list(sink.ops)
        rows = sink.rows
        arcs = sink.arcs
        self.pc = pcs = rows[0::ROW_FIELDS]
        self.op_index = bytearray(rows[1::ROW_FIELDS])
        self.out = rows[2::ROW_FIELDS]
        self.passthrough = rows[3::ROW_FIELDS]
        self.taken = bytearray(rows[4::ROW_FIELDS])
        self.nsrc = nsrc = bytearray(rows[5::ROW_FIELDS]).translate(
            _PER_ARC)
        self.target = rows[6::ROW_FIELDS]
        self.n_records = len(pcs)
        self.src_value = arcs[0::ARC_FIELDS]
        self.src_prod = prods = arcs[1::ARC_FIELDS]
        self.src_ppc = ppcs = arcs[2::ARC_FIELDS]
        self.src_mem = mems = bytearray(arcs[3::ARC_FIELDS])
        self.src_loc = locs = arcs[4::ARC_FIELDS]
        sink.clear()  # the machine may outlive the capture
        self.src_start = starts = list(accumulate(nsrc, initial=0))
        # Per arc: its consumer's pc and its operand slot.
        arc_pc = list(chain.from_iterable(map(repeat, pcs, nsrc)))
        slots = chain.from_iterable(map(range, nsrc))
        self.in_key = list(map(or_, map(lshift, arc_pc, repeat(2)), slots))
        # (producer * n + producer_pc) * n + pc for produced arcs ...
        self.group_key = keys = list(map(
            add,
            map(mul, map(add, map(mul, prods, repeat(n)), ppcs), repeat(n)),
            arc_pc,
        ))
        # ... patched for the (rare) D arcs, which key on the D node.
        d_arcs = list(compress(range(len(prods)),
                               map((-1).__eq__, prods)))
        d_ids = self.d_ids
        for a in d_arcs:
            d_id = locs[a] if mems[a] else 0x2_0000_0000 + locs[a]
            d_ids.append(d_id)
            keys[a] = -(d_id * n + arc_pc[a]) - 1
        # D arcs seen before each record: a run of 0s up to the record
        # holding the first D arc, then 1s, ... (one int per run).
        cuts = [0]
        cuts += map(bisect_right, repeat(starts), d_arcs)
        cuts.append(len(starts))
        self.d_prefix = list(chain.from_iterable(map(
            repeat, range(len(d_arcs) + 1), map(sub, cuts[1:], cuts))))
        self._finish()
        return self

    @classmethod
    def from_records(cls, records, n_static: int,
                     limit: int | None = None) -> "TraceColumns":
        """Build columns from an iterable of :class:`DynInst` (the
        reference oracle's form; a live run uses :meth:`capture`)."""
        self = cls()
        self.n_static = n = max(n_static, 1)
        if limit is not None:
            records = islice(records, limit)
        op_table: dict[tuple, int] = {}
        ops = self.ops
        pcs = self.pc
        op_col = self.op_index
        outs = self.out
        pts = self.passthrough
        takens = self.taken
        nsrcs = self.nsrc
        targets = self.target
        starts = self.src_start
        values = self.src_value
        prods = self.src_prod
        ppcs = self.src_ppc
        mems = self.src_mem
        locs = self.src_loc
        in_keys = self.in_key
        group_keys = self.group_key
        d_prefix = self.d_prefix
        d_ids = self.d_ids
        d_count = 0
        arc_total = 0
        uid = 0
        for dyn in records:
            pc = dyn.pc
            pcs.append(pc)
            entry = (dyn.op, dyn.category, dyn.has_imm)
            op_index = op_table.get(entry)
            if op_index is None:
                op_index = op_table[entry] = len(op_table)
                if op_index > 0xFF:
                    raise ReproError(
                        "opcode table overflow (more than 256 distinct "
                        "opcode/category combinations)"
                    )
                ops.append(entry)
            op_col.append(op_index)
            outs.append(dyn.out)
            pts.append(-1 if dyn.passthrough is None else dyn.passthrough)
            taken = dyn.taken
            takens.append(
                TAKEN_NONE if taken is None
                else (TAKEN_TRUE if taken else TAKEN_FALSE)
            )
            targets.append(dyn.target)
            srcs = dyn.srcs
            nsrcs.append(len(srcs))
            key_base = pc << 2
            for slot, src in enumerate(srcs):
                values.append(src.value)
                producer = src.producer
                if producer is None:
                    d_id = src.d_key()
                    d_ids.append(d_id)
                    d_count += 1
                    prods.append(-1)
                    ppcs.append(0)
                    group_keys.append(-(d_id * n + pc) - 1)
                else:
                    prods.append(producer)
                    ppcs.append(src.producer_pc)
                    group_keys.append(
                        (producer * n + src.producer_pc) * n + pc
                    )
                mems.append(1 if src.is_mem else 0)
                locs.append(src.loc)
                in_keys.append(key_base | slot)
            arc_total += len(srcs)
            starts.append(arc_total)
            d_prefix.append(d_count)
            uid += 1
        self.n_records = uid
        self._finish()
        return self

    @classmethod
    def from_v2(cls, buf, header: dict, path="<trace>") -> "TraceColumns":
        """Build columns straight from a v2 trace body (no DynInst)."""
        return cls.from_v2_range(
            buf, header, 0, header["n_records"], 0, path)

    @classmethod
    def from_v2_range(cls, buf, header: dict, r0: int, r1: int,
                      byte_off: int, path="<trace>") -> "TraceColumns":
        """Build columns for records ``[r0, r1)`` of a v2 trace body.

        ``byte_off`` is the body offset of record ``r0`` (the layout is
        fixed-width: ``23*r + 25*arcs_before_r``, so a segment index
        only needs the arc count at each boundary).  The resulting
        columns are *local* — record/arc indices start at zero — but
        producer uids and ``group_key`` stay global because the v2
        format stores producers as absolute uids.  This is what lets a
        segment worker decode only its own byte range
        (:mod:`repro.core.shard`).
        """
        self = cls()
        self.target = None
        self.n_static = n = max(header["n_static"], 1)
        self.ops = [
            (entry[0], Category(entry[1]), bool(entry[2]))
            for entry in header["ops"]
        ]
        n_records = r1 - r0
        rec_head = _REC_HEAD.unpack_from
        src_groups = _SRC_GROUPS
        pack_i64 = _I64.pack
        unpack_f64 = _F64.unpack
        pcs = self.pc
        op_col = self.op_index
        outs = self.out
        pts = self.passthrough
        takens = self.taken
        nsrcs = self.nsrc
        starts = self.src_start
        values = self.src_value
        prods = self.src_prod
        ppcs = self.src_ppc
        mems = self.src_mem
        locs = self.src_loc
        in_keys = self.in_key
        group_keys = self.group_key
        d_prefix = self.d_prefix
        d_ids = self.d_ids
        d_count = 0
        arc_total = 0
        pos = byte_off
        try:
            for _ in range(n_records):
                __, pc, flags, op_index, passthrough, out_bits, __t = \
                    rec_head(buf, pos)
                pos += 23
                pcs.append(pc)
                op_col.append(op_index)
                if flags & _HAS_OUT:
                    if flags & _OUT_FLOAT:
                        (out,) = unpack_f64(pack_i64(out_bits))
                        outs.append(out)
                    else:
                        outs.append(out_bits)
                else:
                    outs.append(None)
                pts.append(passthrough)
                takens.append(
                    (TAKEN_TRUE if flags & _TAKEN else TAKEN_FALSE)
                    if flags & _HAS_TAKEN else TAKEN_NONE
                )
                n_srcs = flags >> _NSRC_SHIFT
                nsrcs.append(n_srcs)
                if n_srcs:
                    fields = src_groups[n_srcs].unpack_from(buf, pos)
                    pos += 25 * n_srcs
                    key_base = pc << 2
                    slot = 0
                    for base in range(0, 5 * n_srcs, 5):
                        src_flags = fields[base]
                        value = fields[base + 1]
                        if src_flags & _SRC_FLOAT:
                            (value,) = unpack_f64(pack_i64(value))
                        values.append(value)
                        loc = fields[base + 4]
                        locs.append(loc)
                        if src_flags & _SRC_PRODUCED:
                            producer = fields[base + 2]
                            producer_pc = fields[base + 3]
                            prods.append(producer)
                            ppcs.append(producer_pc)
                            group_keys.append(
                                (producer * n + producer_pc) * n + pc
                            )
                            mems.append(1 if src_flags & _SRC_MEM else 0)
                        else:
                            if src_flags & _SRC_MEM:
                                d_id = loc
                                mems.append(1)
                            else:
                                d_id = 0x2_0000_0000 + loc
                                mems.append(0)
                            d_ids.append(d_id)
                            d_count += 1
                            prods.append(-1)
                            ppcs.append(0)
                            group_keys.append(-(d_id * n + pc) - 1)
                        in_keys.append(key_base | slot)
                        slot += 1
                    arc_total += n_srcs
                starts.append(arc_total)
                d_prefix.append(d_count)
        except (struct.error, IndexError, TypeError) as error:
            raise ReproError(f"truncated trace file: {path}") from error
        self.n_records = n_records
        self._finish()
        return self

    # ------------------------------------------------------------------
    # Derived columns and subsets.
    # ------------------------------------------------------------------

    def _finish(self) -> None:
        """Compute flag columns and record subsets from the primaries."""
        m = self.n_records
        ops = self.ops
        # Per-op lookup tables -> per-record flags via bytes.translate.
        pad = 256 - len(ops)
        br_table = bytes(
            1 if cat is Category.BRANCH else 0 for __, cat, __i in ops
        ) + bytes(pad)
        imm_table = bytes(
            1 if has_imm else 0 for __, __c, has_imm in ops
        ) + bytes(pad)
        pass_table = bytes(
            1 if cat in _PASS_CATS else 0 for __, cat, __i in ops
        ) + bytes(pad)
        op_col = bytes(self.op_index)
        self.is_branch = is_branch = bytearray(op_col.translate(br_table))
        self.has_imm = bytearray(op_col.translate(imm_table))
        self.has_src = bytearray(bytes(self.nsrc).translate(_NONZERO))
        pass_cat = op_col.translate(pass_table)
        out_none = bytes(map(is_, self.out, repeat(None)))
        if m:
            ones = int.from_bytes(b"\x01" * m, "little")
            br_i = int.from_bytes(is_branch, "little")
            none_i = int.from_bytes(out_none, "little")
            pt_none = bytes(map((0).__gt__, self.passthrough))
            ptn_i = int.from_bytes(pt_none, "little")
            pass_i = int.from_bytes(pass_cat, "little")
            # has_out: a branch, or any record carrying an out value.
            self.has_out = bytearray(
                (br_i | (none_i ^ ones)).to_bytes(m, "little")
            )
            # Output-predictor subset: non-branch, real out, no
            # passthrough, not a pass-through category.
            ov_sel = ((none_i ^ ones) & (br_i ^ ones) & ptn_i
                      & (pass_i ^ ones)).to_bytes(m, "little")
            # Passthrough subset: non-branch, real out, passthrough set.
            pt_sel = ((none_i ^ ones) & (br_i ^ ones)
                      & (ptn_i ^ ones)).to_bytes(m, "little")
        else:
            self.has_out = bytearray()
            ov_sel = b""
            pt_sel = b""
        rng = range(m)
        self.br_idx = list(compress(rng, is_branch))
        pcs = self.pc
        takens = self.taken
        self.br_pc = [pcs[i] for i in self.br_idx]
        self.br_taken = bytearray(takens[i] for i in self.br_idx)
        self.ov_idx = list(compress(rng, ov_sel))
        outs = self.out
        self.ov_pc = [pcs[i] for i in self.ov_idx]
        self.ov_val = [outs[i] for i in self.ov_idx]
        self.pt_idx = list(compress(rng, pt_sel))
        starts = self.src_start
        pts = self.passthrough
        self.pt_arc = [starts[i] + pts[i] for i in self.pt_idx]

    # ------------------------------------------------------------------
    # Budget-dependent derived state (cached).
    # ------------------------------------------------------------------

    def counts_for(self, m: int) -> list:
        """Per-PC execution counts over the first ``m`` records."""
        cached = self._counts_cache.get(m)
        if cached is not None:
            return cached
        counts = [0] * self.n_static
        tally = Counter(self.pc if m == self.n_records else self.pc[:m])
        for pc, count in tally.items():
            counts[pc] = count
        self._counts_cache[m] = counts
        return counts

    def genclass_so_far(self) -> bytearray:
        """Per-arc :class:`~repro.core.events.GenClass` codes using the
        count-so-far write-once approximation (profile-free analysis).

        Matches the reference analyzer exactly: the record's own
        execution is counted *before* its arcs are classified, so the
        column is independent of any budget prefix.
        """
        cached = self._genclass_cache
        if cached is not None:
            return cached
        counts = [0] * self.n_static
        out = bytearray(self.src_start[-1])
        pcs = self.pc
        starts = self.src_start
        prods = self.src_prod
        ppcs = self.src_ppc
        for r in range(self.n_records):
            counts[pcs[r]] += 1
            for a in range(starts[r], starts[r + 1]):
                prod = prods[a]
                if prod < 0:
                    out[a] = 1                      # GenClass.D
                elif counts[ppcs[a]] == 1:
                    out[a] = 2                      # GenClass.W
                # else 0                            # GenClass.C
        self._genclass_cache = out
        return out

    def genclass_profiled(self, profile_counts) -> bytearray:
        """Per-arc GenClass codes with whole-run profile counts."""
        out = bytearray(self.src_start[-1])
        ppcs = self.src_ppc
        a = 0
        for prod in self.src_prod:
            if prod < 0:
                out[a] = 1
            elif profile_counts[ppcs[a]] == 1:
                out[a] = 2
            a += 1
        return out

    # ------------------------------------------------------------------
    # Predictor hit-stream cache.
    #
    # Hit streams are pure functions of (column prefix, spec) and
    # prefix-closed, so one computation at the largest budget seen
    # serves every config that shares the spec: the engine slices.
    # ------------------------------------------------------------------

    def _cached_hits(self, key: tuple, need: int, compute):
        cached = self._pred_cache.get(key)
        if cached is not None and cached[0] >= need:
            return cached[1]
        hits = compute(need)
        self._pred_cache[key] = (need, hits)
        return hits

    def input_hits(self, spec: str, need: int) -> bytearray:
        """Hit stream of one bank's *input* predictor over the first
        ``need`` arcs (0/1 per arc; may be longer than ``need``)."""
        from repro.core.kernel.passes import run_value_pass

        return self._cached_hits(
            ("in", spec), need,
            lambda n: run_value_pass(spec, self.in_key, self.src_value, n),
        )

    def output_hits(self, spec: str, need: int) -> bytearray:
        """Hit stream of one bank's *output* predictor over the first
        ``need`` output-predicted records (the ``ov_idx`` subset)."""
        from repro.core.kernel.passes import run_value_pass

        return self._cached_hits(
            ("out", spec), need,
            lambda n: run_value_pass(spec, self.ov_pc, self.ov_val, n),
        )

    def branch_hits(self, kind: str, index_bits: int, need: int) -> bytearray:
        """Hit stream of the shared direction predictor over the first
        ``need`` branch records (the ``br_idx`` subset)."""
        from repro.core.kernel.passes import run_branch_pass

        return self._cached_hits(
            ("br", kind, index_bits), need,
            lambda n: run_branch_pass(
                kind, index_bits, self.br_pc, self.br_taken, n
            ),
        )

    # ------------------------------------------------------------------
    # Reconstruction (reference-engine fallback on columnar input).
    # ------------------------------------------------------------------

    def to_records(self) -> list:
        """Rebuild the :class:`DynInst` list (uid = stream index).

        Used when a caller holding columns needs the reference engine
        (e.g. an ``auto`` fallback on a config the kernel does not
        support).  Columns decoded from a v2 file carry no ``target``
        — the analysis never reads it — so their records hold None.
        """
        ops = self.ops
        arcs = zip(self.src_value, self.src_prod, self.src_ppc,
                   self.src_mem, self.src_loc)
        return [
            record_view(r, ops[op_index], pc, out, passthrough, taken,
                        target, islice(arcs, n_srcs))
            for r, (op_index, pc, out, passthrough, taken, n_srcs, target)
            in enumerate(zip(self.op_index, self.pc, self.out,
                             self.passthrough, self.taken, self.nsrc,
                             self.target or repeat(None)))
        ]
