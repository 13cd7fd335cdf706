"""Dynamic-trace serialisation.

Traces are the interface between the substrate and the model, so they
are worth persisting: capture a workload's trace once, then re-analyse
it under different predictor configurations without re-simulating.
This is the bottom tier of the runner's two-tier cache (see
docs/runner.md); replay speed is what makes a warm trace store pay, so
the format is a compact binary one:

* the file is gzip-framed end to end (regardless of suffix);
* a fixed magic plus a JSON header carry the static facts the analyzer
  needs — instruction count, per-PC execution counts of the captured
  trace, a table of distinct (opcode, category, has_imm) triples — so
  records never repeat strings or enum values;
* each record is struct-packed with a *fixed* layout — a 23-byte head
  (uid, pc, flags, opcode table index, passthrough, output bits,
  target) plus 25 bytes per source — so decoding costs exactly two
  ``Struct.unpack_from`` calls per record; floats travel bit-exactly
  as the 64-bit pattern of their IEEE double, reinterpreted only when
  the float flag is set.

Integers travel as signed 64-bit fields and floats as IEEE doubles,
so values survive the round trip exactly *including their type* —
predictors compare values exactly and ``5 != 5.0`` for a last-value
hit streak.

The file is packed from the kernel's columns — what the simulator
captured (:meth:`repro.core.kernel.TraceColumns.capture`) — and read
back into columns (:func:`read_trace_columns`, the replay path) or
into :class:`DynInst` views of them (:func:`read_trace`).
"""

from __future__ import annotations

import gzip
import json
import os
import struct
from collections import Counter
from pathlib import Path

from repro.cpu.trace import DynInst
from repro.errors import ReproError
from repro.obs import get_recorder

#: Format identifier of the binary format written by :func:`save_trace`.
FORMAT = "repro-trace-v2"

#: Leading magic of a v2 payload (inside the gzip frame).
MAGIC = b"RPRT2BIN"

# Record head: uid, pc, flags, opcode-table index, passthrough (-1 =
# None), output bits (q; IEEE double pattern when the float flag is
# set), target (0 when absent).
_REC_HEAD = struct.Struct("<IIBBbqI")
# Per-source group: flags, value bits, producer, producer_pc, loc
# (producer fields are 0 when the produced flag is clear).
_SRC_FMT = "BqIIQ"
_SRC_GROUPS = [struct.Struct("<" + _SRC_FMT * n) for n in range(8)]
# A whole record: head plus its n source groups (no padding with "<").
_RECORDS = [struct.Struct(_REC_HEAD.format + _SRC_FMT * n) for n in range(8)]
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_U32 = struct.Struct("<I")

# Record-head flag bits.
_HAS_OUT = 0x01
_OUT_FLOAT = 0x02
_HAS_TAKEN = 0x04
_TAKEN = 0x08
_HAS_TARGET = 0x10
# bits 5-7: number of sources (0-7)
_NSRC_SHIFT = 5

# Per-source flag bits.
_SRC_MEM = 0x01
_SRC_PRODUCED = 0x02
_SRC_FLOAT = 0x04


def _open_read(path):
    """Binary read handle, transparently un-gzipping either format."""
    handle = open(path, "rb")
    magic = handle.read(2)
    handle.seek(0)
    if magic == b"\x1f\x8b":
        return gzip.open(handle, "rb")
    return handle


def save_trace(trace, path, n_static: int, complete: bool | None = None,
               workload: str | None = None) -> int:
    """Write ``trace`` to ``path``; returns the number of records.

    ``trace`` is a :class:`~repro.core.kernel.TraceColumns` captured
    from a machine (:meth:`~repro.core.kernel.TraceColumns.capture`,
    the runner's path — packed with no per-record objects) or an
    iterable of :class:`DynInst` (laid out as columns first, keeping
    each record's ``uid``).  ``complete`` records whether the trace
    covered the workload's whole execution (None = unknown); the trace
    store uses it to decide replay eligibility.  ``workload`` annotates
    the header with the originating workload name (purely
    informational — it is not part of the content address; ``cache
    info`` uses it to break occupancy out fixed-vs-generated).
    """
    from repro.core.kernel import TraceColumns

    recorder = get_recorder()
    with recorder.span("trace.encode"):
        if isinstance(trace, TraceColumns):
            columns, uids = trace, range(trace.n_records)
        else:
            records = list(trace)
            columns = TraceColumns.from_records(records, n_static)
            uids = [dyn.uid for dyn in records]
        return _save_columns(columns, uids, path, n_static, complete,
                             workload, recorder)


# Record-head flags of each ``taken`` column code (False, True, None).
_TAKEN_FLAGS = (_HAS_TAKEN, _HAS_TAKEN | _TAKEN, 0)


def _save_columns(columns, uids, path, n_static: int, complete, workload,
                  recorder) -> int:
    if columns.target is None:
        raise ReproError("columns decoded from a trace file carry no "
                         "branch targets; save the captured columns")
    if columns.nsrc and max(columns.nsrc) > 7:
        raise ReproError(
            f"cannot encode {max(columns.nsrc)} sources (record flag "
            "budget is 7)"
        )
    if len(columns.ops) > 0x100:
        raise ReproError("opcode table overflow (more than 256 "
                         "distinct opcode/category combinations)")
    counts = [0] * max(n_static, 1)
    for pc, count in Counter(columns.pc).items():
        if pc < len(counts):
            counts[pc] = count
    pack_f64 = _F64.pack
    unpack_i64 = _I64.unpack
    # v2 source groups, flattened: flags, value bits, producer,
    # producer_pc, loc (producer fields are 0 for a D node).
    arcs = []
    for value, producer, producer_pc, is_mem, loc in zip(
            columns.src_value, columns.src_prod, columns.src_ppc,
            columns.src_mem, columns.src_loc):
        flags = _SRC_MEM if is_mem else 0
        if isinstance(value, float):
            flags |= _SRC_FLOAT
            (value,) = unpack_i64(pack_f64(value))
        if producer < 0:
            arcs += (flags, value, 0, 0, loc)
        else:
            arcs += (flags | _SRC_PRODUCED, value, producer, producer_pc,
                     loc)
    # Per record: its head and source groups in one pack call.
    records = _RECORDS
    body = bytearray()
    end = 0
    for uid, pc, op_index, out, passthrough, taken, n_srcs, target in zip(
            uids, columns.pc, columns.op_index, columns.out,
            columns.passthrough, columns.taken, columns.nsrc,
            columns.target):
        flags = n_srcs << _NSRC_SHIFT | _TAKEN_FLAGS[taken]
        if out is None:
            out = 0
        elif isinstance(out, float):
            flags |= _HAS_OUT | _OUT_FLOAT
            (out,) = unpack_i64(pack_f64(out))
        else:
            flags |= _HAS_OUT
        if target is None:
            target = 0
        else:
            flags |= _HAS_TARGET
        start = end
        end += 5 * n_srcs
        body += records[n_srcs].pack(uid, pc, flags, op_index, passthrough,
                                     out, target, *arcs[start:end])
    header = json.dumps({
        "format": FORMAT,
        "n_static": n_static,
        "n_records": columns.n_records,
        "complete": complete,
        "workload": workload,
        "counts": counts,
        "ops": [[op, int(category), 1 if has_imm else 0]
                for op, category, has_imm in columns.ops],
    }).encode()
    with gzip.open(path, "wb", compresslevel=1) as handle:
        handle.write(MAGIC)
        handle.write(_U32.pack(len(header)))
        handle.write(header)
        handle.write(body)
    recorder.count("trace.encode.records", columns.n_records)
    recorder.count("trace.encode.bytes", len(body) + len(header))
    try:
        recorder.count("trace.encode.file_bytes", os.stat(path).st_size)
    except (OSError, TypeError):
        pass
    return columns.n_records


def _read_header(handle, path) -> dict:
    if handle.read(len(MAGIC)) != MAGIC:
        raise ReproError(f"not a repro-trace file: {path}")
    (length,) = _U32.unpack(handle.read(4))
    try:
        header = json.loads(handle.read(length))
    except ValueError as error:
        raise ReproError(f"corrupt {FORMAT} header: {path}") from error
    if header.get("format") != FORMAT:
        raise ReproError(f"not a {FORMAT} file: {path}")
    return header


def trace_header(path) -> dict:
    """Read and validate the header of a trace file."""
    with _open_read(path) as handle:
        return _read_header(handle, path)


def read_trace_raw(path) -> tuple[dict, bytes]:
    """Read a trace's header and **undecoded** record body.

    The segment-parallel path (:mod:`repro.core.shard`) un-gzips once
    in the parent and lets each worker decode only its own byte range
    — decode is the dominant serial cost, so it must happen in the
    workers.
    """
    with _open_read(path) as handle:
        return _read_rest(handle, path)


def _read_rest(handle, path) -> tuple[dict, bytes]:
    header = _read_header(handle, path)
    try:
        body = handle.read()
    except (OSError, EOFError) as error:
        raise ReproError(f"truncated trace file: {path}") from error
    get_recorder().count("trace.decode.bytes", len(body))
    return header, body


def load_trace(path):
    """Yield the :class:`DynInst` records stored in ``path``.

    Decode errors raise :class:`ReproError` — callers holding a cache
    treat that as a miss.
    """
    yield from read_trace(path)[1]


def read_trace(path) -> tuple[dict, list[DynInst]]:
    """Decode a whole trace file into records: ``(header, records)``.

    The v2 body is decoded once, into columns; the records are their
    :class:`DynInst` views with each record's stored ``uid`` and
    ``target`` (which the columns drop) read back from its head.
    """
    from repro.core.kernel import TraceColumns

    recorder = get_recorder()
    # Opened before the span: a missing file decodes nothing.
    with _open_read(path) as handle, recorder.span("trace.decode"):
        header, body = _read_rest(handle, path)
        columns = TraceColumns.from_v2(body, header, path=path)
        records = columns.to_records()
        pos = 0
        for dyn, n_srcs in zip(records, columns.nsrc):
            uid, __, flags, __, __, __, target = \
                _REC_HEAD.unpack_from(body, pos)
            dyn.uid = uid
            if flags & _HAS_TARGET:
                dyn.target = target
            pos += 23 + 25 * n_srcs
    recorder.count("trace.decode.records", len(records))
    return header, records


def read_trace_columns(path):
    """Decode a whole trace file into columns: ``(header, columns)``.

    The replay fast path: the v2 byte stream is parsed straight into
    :class:`~repro.core.kernel.TraceColumns` flat arrays without
    materialising a ``DynInst`` per record.  Decode errors raise
    :class:`ReproError`, same as :func:`read_trace`.
    """
    from repro.core.kernel import TraceColumns

    recorder = get_recorder()
    with _open_read(path) as handle, recorder.span("trace.decode"):
        header, body = _read_rest(handle, path)
        columns = TraceColumns.from_v2(body, header, path=path)
    recorder.count("trace.decode.records", columns.n_records)
    recorder.count("trace.decode.columnar", 1)
    return header, columns


def analyze_trace_file(path, name=None, config=None, profile_counts=None):
    """Analyse a saved trace end to end (decoded straight to columns)."""
    from repro.core.analysis import analyze_trace

    header, columns = read_trace_columns(path)
    return analyze_trace(
        columns,
        header["n_static"],
        name=name or Path(path).stem,
        config=config,
        profile_counts=profile_counts,
    )
