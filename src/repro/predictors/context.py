"""Two-level context-based value predictor.

The version of Sazeides & Smith's context predictor used in the paper
(refs [13], [14]): a first-level *value history table* of 2^16 entries,
indexed by a truncated PC, holds the last four values produced for that
entry in hashed form — a rolling 20-bit signature built by shifting
left 5 bits per value and XORing in a full-width fold of the new value,
so each value's influence decays out after four steps (an order-4
hashed FCM).  The signature indexes a **shared** 2^20-entry
second-level *value prediction table* holding a predicted next value
and a 3-bit saturating counter that guides replacement.

Sharing the second level is deliberate (it matches the paper's setup):
it lets one instruction benefit from patterns learned by another, and
also allows destructive interference — both effects show up in the
paper's results and are reproduced here.
"""

from __future__ import annotations

from repro.predictors.base import ValuePredictor

_EMPTY = object()


class ContextPredictor(ValuePredictor):
    """Order-4 hashed finite-context-method predictor."""

    kind = "context"
    letter = "C"

    #: Bits of hashed history per value in the context signature
    #: (the default ``l2_bits // order``).
    HASH_BITS = 5
    #: Number of values forming the context (the default ``order``).
    ORDER = 4

    def __init__(self, l1_bits: int = 16, l2_bits: int = 20,
                 order: int = 4, hysteresis: int = 7):
        self.l1_bits = l1_bits
        self.l2_bits = l2_bits
        #: history depth: how many values form the context signature.
        self.order = order
        #: saturating-counter ceiling (7 = the paper's 3-bit counter).
        self.hysteresis = hysteresis
        #: per-value shift keeping ``order`` values alive in the
        #: signature; 20/4 reproduces the class-level default of 5.
        self._hash_bits = max(1, l2_bits // order)
        self._l1_mask = (1 << l1_bits) - 1
        self._l2_mask = (1 << l2_bits) - 1
        #: first level: rolling context signature per entry.
        self._contexts = [0] * (1 << l1_bits)
        #: shared second level: predicted value + saturating counter.
        self._values: list = [_EMPTY] * (1 << l2_bits)
        self._counters = bytearray(1 << l2_bits)

    def see(self, key: int, value) -> bool:
        l1_index = key & self._l1_mask
        context = self._contexts[l1_index]
        values = self._values
        stored = values[context]
        correct = stored is not _EMPTY and stored == value
        counters = self._counters
        counter = counters[context]
        if correct:
            if counter < self.hysteresis:
                counters[context] = counter + 1
        elif counter > 0:
            counters[context] = counter - 1
        else:
            values[context] = value
            counters[context] = min(1, self.hysteresis)
        # Fold the full-width hash into the signature; shifting by
        # _hash_bits per value decays it out after ``order`` values
        # (an order-4 hashed FCM by default, per ECE-TR-97-8).
        raw = hash(value)
        l2_mask = self._l2_mask
        folded = (raw ^ (raw >> 20) ^ (raw >> 40)) & l2_mask
        self._contexts[l1_index] = (
            ((context << self._hash_bits) ^ folded) & l2_mask
        )
        return correct

    def peek(self, key: int):
        context = self._contexts[key & self._l1_mask]
        stored = self._values[context]
        return None if stored is _EMPTY else stored
