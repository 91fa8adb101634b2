"""Exact bounded-integer draws for the tracer's sample offsets.

The tracer draws each sampled key's address offsets with
``rng.integers(0, h, size=c)`` — one call per key, so ``h`` changes
between calls.  Concatenating those calls into one ``integers`` call
would change the stream: NumPy picks the rejection threshold per ``h``.
:class:`OffsetDraws` instead reproduces NumPy's own algorithm, bit for
bit, for one key or a whole window of ``(h, c)`` pairs, and at a
fraction of the per-call cost.

What it reproduces (NumPy's ``random_bounded_uint64_fill`` on a
``PCG64`` bit generator, the ``default_rng`` one):

- ``integers(0, h)`` with ``2 <= h <= 2**32 - 1`` is Lemire's bounded
  method on 32-bit words: ``m = u32 * h``; the value ``m >> 32`` is
  accepted when ``m mod 2**32 >= 2**32 mod h``, else a fresh word is
  drawn for the same value.
- ``h == 1`` draws nothing (the value is always 0).
- The 32-bit words come from ``PCG64``'s ``next32``: one 64-bit output
  yields its low half, and its high half is buffered (``has_uint32`` /
  ``uinteger`` in the state dict) for the next 32-bit request — the
  buffer carries across calls.

Only 32-bit requests read or write that buffer; 64-bit outputs
(``random_raw``, and every word ``normal`` consumes) leave it alone.  So
:class:`OffsetDraws` carries the buffer in Python, pulls 64-bit outputs
with ``random_raw`` exactly when the sequential algorithm would, and
writes the buffer back on :meth:`OffsetDraws.sync`.  Between syncs the
generator may serve 64-bit draws such as ``normal`` (the tracer's load
latencies interleave with load offsets), but no other 32-bit ones.  Any
``h > 2**32 - 1`` (NumPy switches to 64-bit words) syncs and makes the
real per-key call.

``tests/profiling/test_offset_draws.py`` pins values and the full state
dict against the per-key calls; if NumPy ever changes the algorithm,
that test is what fails.
"""

from __future__ import annotations

from typing import List

import numpy as np

_U32_MAX = (1 << 32) - 1


class OffsetDraws:
    """``rng.integers(0, h, size=c)`` draws with PCG64's 32-bit buffer
    carried in Python (see the module docstring for the contract)."""

    def __init__(self, rng: np.random.Generator):
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise TypeError(
                f"OffsetDraws emulates PCG64, got {type(rng.bit_generator).__name__}")
        self.rng = rng
        self._raw = rng.bit_generator.random_raw
        self._load_buffer()

    def _load_buffer(self) -> None:
        state = self.rng.bit_generator.state
        self._has = bool(state["has_uint32"])
        self._buf = int(state["uinteger"])

    def sync(self) -> None:
        """Write the carried buffer back into the generator's state."""
        state = self.rng.bit_generator.state
        state["has_uint32"] = int(self._has)
        state["uinteger"] = self._buf
        self.rng.bit_generator.state = state

    def draw_key(self, h: int, c: int) -> List[int]:
        """One key: ``rng.integers(0, h, size=c)`` as a list."""
        if h > _U32_MAX:
            self.sync()
            values = self.rng.integers(0, h, size=c).tolist()
            self._load_buffer()
            return values
        if h == 1:
            return [0] * c
        threshold = (1 << 32) % h
        raw = self._raw
        out: List[int] = []
        words = [self._buf] if self._has else []
        pos = 0
        while len(out) < c:
            if pos == len(words):
                # every remaining value consumes at least one word: draw
                # the fewest 64-bit outputs that cover them
                n_raw = (c - len(out) + 1) // 2
                for w in [raw()] if n_raw == 1 else raw(n_raw).tolist():
                    words.append(w & _U32_MAX)
                    words.append(w >> 32)
            m = words[pos] * h
            pos += 1
            if m & _U32_MAX >= threshold:
                out.append(m >> 32)
        # an unconsumed high half stays buffered; a consumed one stays in
        # ``uinteger`` too, as in PCG64
        self._has = pos < len(words)
        self._buf = words[-1]
        return out

    def draw(self, highs: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Many keys in call order: the concatenated per-key
        ``rng.integers(0, h, size=c)`` draws, without the per-key calls."""
        out: List[int] = []
        for h, c in zip(np.asarray(highs).tolist(), np.asarray(counts).tolist()):
            out.extend(self.draw_key(h, c))
        return np.array(out, dtype=np.int64)
