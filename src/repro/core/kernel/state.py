"""Resumable predictor passes — the segment boundary's state carrier.

The batched passes in :mod:`repro.core.kernel.passes` replay a whole
predictor stream in one loop over dense tables.  Segment-parallel
analysis (:mod:`repro.core.shard`) needs the same streams replayed in
*pieces*: a worker that owns records ``[r0, r1)`` must start each
predictor exactly where the previous segment left it.  This module
provides the sparse twins of every pass:

* state lives in plain dicts keyed by table index, with untouched
  cells reading as the dense tables' initial values — the same
  equivalence the short-stream variant of ``_context_pass`` already
  relies on ("untouched cells read as (empty, counter 0) either way"),
  extended to every predictor kind;
* each ``run_*_slice`` call consumes one slice of the stream, appends
  its hit bytes, mutates the state in place, and can record the set of
  table cells it wrote;
* :func:`snapshot_delta` turns a touched-set into a **delta** — the
  written cells' values at the boundary — and :func:`fold_deltas`
  replays deltas ``0..i-1`` (mostly ``dict.update`` at C speed) to
  reconstruct the state a segment ``i`` worker resumes from.

Deltas are what the v2 segment index persists (see docs/sharding.md):
storing only the cells each segment wrote bounds the sidecar at
O(total table writes) instead of O(segments x table size).

The update rules are transcribed line-for-line from passes.py; the
differential suite and the segmented fuzz in
tests/properties/test_kernel_fuzz.py hold the two implementations
byte-identical.
"""

from __future__ import annotations

from repro.predictors.base import parse_predictor_spec

_EMPTY = object()

_MASK32 = 0xFFFF_FFFF
_SIGN32 = 0x8000_0000


# ----------------------------------------------------------------------
# State construction.
#
# A state is a dict of named sub-tables (plain dicts) plus, for
# gshare, the scalar history register.  Keys absent from a sub-table
# read as the dense pass's initial cell value.
# ----------------------------------------------------------------------

#: Sub-tables whose values are mutable lists (stride entries); folding
#: a delta into a live state must copy them so the worker's in-place
#: updates never corrupt the shared delta.
_LIST_TABLES = frozenset({"entries"})

_VALUE_TABLES = {
    "last": ("table", "counters"),
    "stride": ("entries",),
    "context": ("contexts", "table", "counters"),
    "hybrid": ("entries", "contexts", "c_table", "c_counters", "chooser"),
}

_BRANCH_TABLES = {
    "gshare": ("counters",),
    "local": ("histories", "counters"),
}


def new_value_state(kind: str) -> dict:
    """Fresh (stream-start) state for one value-predictor kind."""
    if kind not in _VALUE_TABLES:
        raise ValueError(f"unknown value predictor kind: {kind!r}")
    return {name: {} for name in _VALUE_TABLES[kind]}


def new_branch_state(kind: str) -> dict:
    """Fresh (stream-start) state for one branch-predictor kind."""
    if kind not in _BRANCH_TABLES:
        raise ValueError(f"unknown branch predictor kind: {kind!r}")
    state = {name: {} for name in _BRANCH_TABLES[kind]}
    if kind == "gshare":
        state["history"] = 0
    return state


def new_touched(state: dict) -> dict:
    """A touched-set per sub-table of ``state`` (scalars excluded)."""
    return {name: set() for name, value in state.items()
            if isinstance(value, dict)}


def snapshot_delta(state: dict, touched: dict) -> dict:
    """The written cells' current values: one segment's state delta.

    Values are copied where mutable, so the delta stays valid however
    the live state evolves afterwards.  Scalars (gshare history) ride
    along unconditionally — they change nearly every element.
    """
    delta: dict = {}
    for name, keys in touched.items():
        table = state[name]
        if name in _LIST_TABLES:
            delta[name] = {key: table[key].copy() for key in keys
                           if key in table}
        else:
            delta[name] = {key: table[key] for key in keys
                           if key in table}
    for name, value in state.items():
        if not isinstance(value, dict):
            delta[name] = value
    return delta


def fold_deltas(state: dict, deltas) -> dict:
    """Apply ``deltas`` (oldest first) onto ``state``; returns it.

    Later deltas win per cell, reproducing the state at the boundary
    the last delta ends on.  List-valued cells are copied in so the
    caller may mutate the folded state freely.
    """
    for delta in deltas:
        for name, value in delta.items():
            if not isinstance(value, dict):
                state[name] = value
            elif name in _LIST_TABLES:
                table = state[name]
                for key, entry in value.items():
                    table[key] = entry.copy()
            else:
                state[name].update(value)
    return state


# ----------------------------------------------------------------------
# Value predictors (sparse twins of passes._last_pass etc.).
# ----------------------------------------------------------------------

def _last_slice(state, keys, values, hits, touched,
                index_bits=16, hysteresis=3):
    mask = (1 << index_bits) - 1
    table = state["table"]
    counters = state["counters"]
    table_get = table.get
    counters_get = counters.get
    replace = min(1, hysteresis)
    empty = _EMPTY
    hit = hits.append
    touch = touched["table"].add if touched is not None else None
    for key, value in zip(keys, values):
        index = key & mask
        stored = table_get(index, empty)
        if stored is not empty and stored == value:
            hit(1)
            counter = counters_get(index, 0)
            if counter < hysteresis:
                counters[index] = counter + 1
        else:
            hit(0)
            counter = counters_get(index, 0)
            if counter > 0:
                counters[index] = counter - 1
            else:
                table[index] = value
                counters[index] = replace
        if touch is not None:
            touch(index)
    if touched is not None:
        touched["counters"] |= touched["table"]


def _stride_slice(state, keys, values, hits, touched, index_bits=16):
    mask = (1 << index_bits) - 1
    entries = state["entries"]
    entries_get = entries.get
    hit = hits.append
    touch = touched["entries"].add if touched is not None else None
    int_t = int
    for key, value in zip(keys, values):
        index = key & mask
        entry = entries_get(index)
        if touch is not None:
            touch(index)
        if entry is None:
            entries[index] = [value, 0, 0]
            hit(0)
            continue
        last = entry[0]
        stride = entry[1]
        if (type(value) is int_t and type(last) is int_t
                and type(stride) is int_t):
            prediction = (last + stride) & _MASK32
            new_stride = (value - last) & _MASK32
            if new_stride & _SIGN32:
                new_stride -= 0x1_0000_0000
        else:
            prediction = last + stride
            new_stride = value - last
        hit(1 if prediction == value else 0)
        if new_stride == entry[2]:
            entry[1] = new_stride
        entry[2] = new_stride
        entry[0] = value
    return None


def _context_slice(state, keys, values, hits, touched,
                   l1_bits=16, l2_bits=20, order=4, hysteresis=7):
    hash_bits = max(1, l2_bits // order)
    l1_mask = (1 << l1_bits) - 1
    l2_mask = (1 << l2_bits) - 1
    contexts = state["contexts"]
    contexts_get = contexts.get
    table = state["table"]
    table_get = table.get
    counters = state["counters"]
    counters_get = counters.get
    replace = min(1, hysteresis)
    empty = _EMPTY
    hit = hits.append
    if touched is not None:
        touch_l1 = touched["contexts"].add
        touch_ctx = touched["table"].add
    else:
        touch_l1 = touch_ctx = None
    for key, value in zip(keys, values):
        l1_index = key & l1_mask
        context = contexts_get(l1_index, 0)
        stored = table_get(context, empty)
        if stored is not empty and stored == value:
            hit(1)
            counter = counters_get(context, 0)
            if counter < hysteresis:
                counters[context] = counter + 1
        else:
            hit(0)
            counter = counters_get(context, 0)
            if counter > 0:
                counters[context] = counter - 1
            else:
                table[context] = value
                counters[context] = replace
        raw = hash(value)
        folded = (raw ^ (raw >> 20) ^ (raw >> 40)) & l2_mask
        contexts[l1_index] = ((context << hash_bits) ^ folded) & l2_mask
        if touch_l1 is not None:
            touch_l1(l1_index)
            touch_ctx(context)
    if touched is not None:
        touched["counters"] |= touched["table"]


def _hybrid_slice(state, keys, values, hits, touched,
                  index_bits=16, l2_bits=20, chooser_init=2):
    mask = (1 << index_bits) - 1
    entries = state["entries"]
    entries_get = entries.get
    hash_bits = max(1, l2_bits // 4)
    l2_mask = (1 << l2_bits) - 1
    contexts = state["contexts"]
    contexts_get = contexts.get
    c_table = state["c_table"]
    c_table_get = c_table.get
    c_counters = state["c_counters"]
    c_counters_get = c_counters.get
    chooser_tab = state["chooser"]
    chooser_get = chooser_tab.get
    empty = _EMPTY
    hit = hits.append
    if touched is not None:
        touch_idx = touched["entries"].add
        touch_ctx = touched["c_table"].add
    else:
        touch_idx = touch_ctx = None
    int_t = int
    for key, value in zip(keys, values):
        index = key & mask
        chooser = chooser_get(index, chooser_init)
        # --- peeks (before either component trains) -------------------
        entry = entries_get(index)
        if chooser >= 2:
            context = contexts_get(index, 0)
            stored = c_table_get(context, empty)
            chosen = None if stored is empty else stored
        elif entry is None:
            chosen = None
        else:
            last = entry[0]
            stride = entry[1]
            # peek() checks only last/stride types, unlike see().
            if type(last) is int_t and type(stride) is int_t:
                chosen = (last + stride) & _MASK32
            else:
                chosen = last + stride
        hit(1 if chosen is not None and chosen == value else 0)
        # --- stride component trains ----------------------------------
        if entry is None:
            entries[index] = [value, 0, 0]
            stride_hit = False
        else:
            last = entry[0]
            stride = entry[1]
            if (type(value) is int_t and type(last) is int_t
                    and type(stride) is int_t):
                prediction = (last + stride) & _MASK32
                new_stride = (value - last) & _MASK32
                if new_stride & _SIGN32:
                    new_stride -= 0x1_0000_0000
            else:
                prediction = last + stride
                new_stride = value - last
            stride_hit = prediction == value
            if new_stride == entry[2]:
                entry[1] = new_stride
            entry[2] = new_stride
            entry[0] = value
        # --- context component trains ---------------------------------
        context = contexts_get(index, 0)
        stored = c_table_get(context, empty)
        context_hit = stored is not empty and stored == value
        counter = c_counters_get(context, 0)
        if context_hit:
            if counter < 7:
                c_counters[context] = counter + 1
        elif counter > 0:
            c_counters[context] = counter - 1
        else:
            c_table[context] = value
            c_counters[context] = 1
        raw = hash(value)
        folded = (raw ^ (raw >> 20) ^ (raw >> 40)) & l2_mask
        contexts[index] = ((context << hash_bits) ^ folded) & l2_mask
        # --- chooser trains on disagreement ---------------------------
        if stride_hit != context_hit:
            if context_hit:
                if chooser < 3:
                    chooser_tab[index] = chooser + 1
            elif chooser > 0:
                chooser_tab[index] = chooser - 1
        if touch_idx is not None:
            touch_idx(index)
            touch_ctx(context)
    if touched is not None:
        touched["contexts"] |= touched["entries"]
        touched["chooser"] |= touched["entries"]
        touched["c_counters"] |= touched["c_table"]


_VALUE_SLICES = {
    "last": _last_slice,
    "stride": _stride_slice,
    "context": _context_slice,
    "hybrid": _hybrid_slice,
}


def run_value_slice(spec: str, state: dict, keys, values,
                    hits: bytearray, touched: dict | None = None) -> None:
    """Replay one value predictor over a stream slice, resuming from
    (and mutating) ``state``; hit bytes are appended to ``hits``."""
    kind, kwargs = parse_predictor_spec(spec)
    _VALUE_SLICES[kind](state, keys, values, hits, touched, **kwargs)


# ----------------------------------------------------------------------
# Branch predictors.
# ----------------------------------------------------------------------

def _gshare_slice(state, pcs, takens, hits, touched, index_bits=16):
    mask = (1 << index_bits) - 1
    counters = state["counters"]
    counters_get = counters.get
    history = state["history"]
    hit = hits.append
    touch = touched["counters"].add if touched is not None else None
    for pc, taken in zip(pcs, takens):
        index = (pc ^ history) & mask
        counter = counters_get(index, 1)
        if taken == 1:
            hit(1 if counter >= 2 else 0)
            if counter < 3:
                counters[index] = counter + 1
            history = ((history << 1) | 1) & mask
        else:
            hit(1 if counter < 2 and taken == 0 else 0)
            if counter > 0:
                counters[index] = counter - 1
            history = (history << 1) & mask
        if touch is not None:
            touch(index)
    state["history"] = history


def _local_slice(state, pcs, takens, hits, touched,
                 history_bits=12, table_bits=14):
    history_mask = (1 << history_bits) - 1
    table_mask = (1 << table_bits) - 1
    histories = state["histories"]
    histories_get = histories.get
    counters = state["counters"]
    counters_get = counters.get
    hit = hits.append
    if touched is not None:
        touch_slot = touched["histories"].add
        touch_idx = touched["counters"].add
    else:
        touch_slot = touch_idx = None
    for pc, taken in zip(pcs, takens):
        slot = pc & table_mask
        history = histories_get(slot, 0)
        index = (history ^ (pc << 2)) & table_mask
        counter = counters_get(index, 1)
        if taken == 1:
            hit(1 if counter >= 2 else 0)
            if counter < 3:
                counters[index] = counter + 1
            histories[slot] = ((history << 1) | 1) & history_mask
        else:
            hit(1 if counter < 2 and taken == 0 else 0)
            if counter > 0:
                counters[index] = counter - 1
            histories[slot] = (history << 1) & history_mask
        if touch_slot is not None:
            touch_slot(slot)
            touch_idx(index)


def run_branch_slice(kind: str, index_bits: int, state: dict, pcs,
                     takens, hits: bytearray,
                     touched: dict | None = None) -> None:
    """Replay the direction predictor over a branch-subset slice,
    resuming from (and mutating) ``state``."""
    if kind == "gshare":
        _gshare_slice(state, pcs, takens, hits, touched, index_bits)
    elif kind == "local":
        # make_branch_predictor("local") ignores index_bits.
        _local_slice(state, pcs, takens, hits, touched)
    else:
        raise ValueError(f"unknown branch predictor kind: {kind!r}")


def value_state_for(spec: str) -> dict:
    """Fresh value state for a predictor spec string."""
    kind, __ = parse_predictor_spec(spec)
    return new_value_state(kind)
