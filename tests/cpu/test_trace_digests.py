"""Pinned stored-trace bytes: the v2 payload of a capture never drifts.

Each digest is the sha256 of the *decompressed* v2 file (magic, header
and record body; the gzip frame carries a timestamp, so it is not
pinned) of a workload's first 6000 instructions, written the way the
trace store writes a cold capture.  The digests were produced by the
encoder that walked ``DynInst`` records, before capture went
columns-native; both today's capture path and the record path must
reproduce them.
"""

import gzip
import hashlib
from itertools import islice

import pytest

from repro.asm import assemble
from repro.core.kernel import TraceColumns
from repro.cpu import Machine
from repro.cpu.tracefile import save_trace
from repro.workloads import get_workload

BUDGET = 6000

DIGESTS = {
    "com": "0eee09ca5be548a1b19de140df207f37a927e60d3dd3ca78e560a6c47a8d5284",
    "gcc": "b64f90bf1039e136555704197e5071b0a84b9d59495e14ca0c74cf301f8bb809",
    "go": "7973c0240723b1f905ee599d4e18565436f5d8407f0c002272992a9edd5280b5",
    "ijp": "70046cd98ec16679154d671702a67d08cc2ac4b4c355ea7b5ce0c779e6f0b2d2",
    "per": "16025701cb2db125be87d3425b2481fa9f233d442ef45bbea46e56b10cd7efc9",
    "m88": "5eb44bbb470c7992f500d0854a894a83ad33c853f3a188648641f466d3e14117",
    "vor": "b7ab7474b99c5bb954360ee1e63c154c9abf593de109f4a4147514e7a9679534",
    "xli": "047c0f79eb7f96b9af7000e54ccb5ad278b784909b8514e238e25cdb197a0e69",
    "app": "f4ae90dbef9131809a9679a268d3ad1e8abb87a3fa89665d9d04231d771be2c8",
    "fpp": "f1ae19f84446aeadcbcffd7879ef7f35e547e2ea3e99d6ee7ecd75a858386ad1",
    "mgr": "00e3170b7947a4fadfcb786835a9453590d57c3af1b472c4423b4480c81d2ca7",
    "swm": "a7d167f96af5e08b89f3e8e4c3395569be6d7147d1f46bc51e36e155ba18e643",
    "gen:float-kernel@7":
        "2bad263989b15153c99012171f6f41056d1a177ec33eba3ade724d5c5e12c0cb",
    "gen:pointer-chase@11":
        "c5083cd156d511b0bb72dbd05188df8bd0764b39e46016a121c518cd2c836cfd",
    "gen:branchy@3":
        "9b6737f15dd747a44f90cafd5ada281acccb7117ef96a674ebcf33cba9c4a9ae",
}

# A program that halts (102 records, ``complete`` true), mixing
# integer and float loads, float arithmetic and a taken branch.
HALTING_SOURCE = """
        .data
v:      .double 1.5
w:      .word 7
        .text
__start:
        li   $s0, 0
loop:   l.d  $f4, v
        lw   $t0, w
        addu $s0, $s0, $t0
        add.d $f6, $f4, $f4
        slti $t1, $s0, 70
        bne  $t1, $zero, loop
        halt
"""
HALTING_DIGEST = (
    "8dc3c66c6c129373221c70e93719e908dcd66954ba1455984265172f63b46e43"
)


def _payload_digest(trace, path, machine, workload=None) -> str:
    save_trace(trace, path, len(machine.program.instructions),
               complete=machine.halted, workload=workload)
    with gzip.open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_capture_payload_is_pinned(tmp_path, name):
    machine = get_workload(name).machine()
    columns = TraceColumns.capture(machine, BUDGET)
    assert columns.n_records == BUDGET
    digest = _payload_digest(columns, tmp_path / "t.gz", machine, name)
    assert digest == DIGESTS[name]


@pytest.mark.parametrize("name", ["com", "swm", "gen:branchy@3"])
def test_record_payload_is_pinned(tmp_path, name):
    machine = get_workload(name).machine()
    records = list(islice(machine.trace(), BUDGET))
    digest = _payload_digest(records, tmp_path / "t.gz", machine, name)
    assert digest == DIGESTS[name]


def test_halting_capture_payload_is_pinned(tmp_path):
    machine = Machine(assemble(HALTING_SOURCE))
    columns = TraceColumns.capture(machine)
    assert machine.halted and columns.n_records == 102
    digest = _payload_digest(columns, tmp_path / "t.gz", machine)
    assert digest == HALTING_DIGEST
