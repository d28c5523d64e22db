"""Hamming-weight / Hamming-distance leakage synthesis.

``LeakageModel.expand`` turns the CPU's per-instruction execution
events into one noiseless power sample per clock cycle:

- the *fetch* cycle of every instruction leaks the Hamming weight of the
  fetched word and the Hamming distance to the previously fetched word
  (instruction-bus toggling) — this is what makes the three branches of
  Fig. 2 visually distinguishable (Fig. 3b of the paper);
- *operand* and *writeback* cycles leak the Hamming weights of source
  and destination values and the Hamming distance to the overwritten
  register content — this carries the sampled coefficient (vulnerability
  2) and its negation (vulnerability 3);
- the sequential multiplier/divider engines leak the evolving internal
  accumulator/remainder per step, with a constant engine-activity
  offset; these long high-power bursts are the "distinguishable and
  visible peaks" that the segmentation stage anchors on (Fig. 3a);
- memory cycles leak address and data-bus weights (the
  ``coeff_modulus[j] - noise`` stores of the negative branch).

The expansion is fully vectorized over the event log's int64 columns:
32-bit Hamming weights come from a 16-bit popcount lookup table, the
per-op-class cycle layouts are scattered into one preallocated sample
buffer through cumulative cycle offsets, and the 32-step
multiplier/divider engine traces are computed as ``(n_events, 32)``
bit-matrix operations (steps contiguous per event).  ``expand_reference`` keeps the original scalar
implementation; both produce bit-identical float64 output (the tests
assert exact equality).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.backends import get_kernel
from repro.riscv import cycles as cy
from repro.riscv.cpu import EventLog, ExecutionEvent

_MASK32 = 0xFFFFFFFF

_HAS_BITWISE_COUNT = hasattr(np, "bitwise_count")

#: Popcount of every 16-bit value; two lookups give a 32-bit popcount.
#: uint8 keeps the table at 64 KiB so the gathers stay cache-resident.
_POP16 = (
    np.unpackbits(np.arange(1 << 16, dtype=np.uint16).view(np.uint8))
    .reshape(1 << 16, 16)
    .sum(axis=1)
    .astype(np.uint8)
)

#: CYCLES as a dense vector indexable by op-class arrays.
_CYCLES_BY_CLASS = np.array(
    [cy.CYCLES[op] for op in range(len(cy.CYCLES))], dtype=np.int64
)

#: Engine-step indices as a row so the per-event step matrices come out
#: ``(n_events, 32)``: the 32 steps of one event are then contiguous,
#: which keeps the axis-1 cumsum/divmod and the sample scatter (32
#: consecutive samples per event) cache-friendly on long event logs.
_ENGINE_STEPS_UP = np.arange(32, dtype=np.int64)[None, :]
_ENGINE_STEPS_DOWN = np.arange(31, -1, -1, dtype=np.int64)[None, :]


def _hw(value: int) -> int:
    return (value & _MASK32).bit_count()


def _hw32(values: np.ndarray) -> np.ndarray:
    """Elementwise 32-bit Hamming weight of 32-bit values held in int64.

    ``np.bitwise_count`` is a native popcount ufunc (NumPy >= 2.0);
    the 16-bit table double-lookup is kept as the fallback for older
    runtimes.  Both return the exact same small integers.
    """
    if _HAS_BITWISE_COUNT:
        return np.bitwise_count(values)
    return _POP16[values & 0xFFFF] + _POP16[values >> 16]


def _event_columns(events) -> np.ndarray:
    """Events as an ``(8, n)`` int64 matrix, zero-copy for an EventLog."""
    if isinstance(events, EventLog):
        return events.columns()
    if len(events) == 0:
        return np.zeros((len(ExecutionEvent._fields), 0), dtype=np.int64)
    return np.asarray(events, dtype=np.int64).T


@dataclass
class LeakageModel:
    """Weights of the first-order CMOS power model.

    The defaults give data-dependent swings comparable to the baseline,
    which together with the scope noise reproduces the paper's accuracy
    regime (Table I): negatives well separated, positives confused
    within Hamming-weight classes.
    """

    weight_data: float = 1.0  # HW of operands / results / bus data
    weight_transition: float = 0.8  # HD of overwritten state
    weight_fetch: float = 0.4  # HW/HD of the instruction bus
    weight_engine: float = 1.0  # HW of mul/div internal state per step
    engine_offset: float = 40.0  # constant mul/div engine activity
    baseline: float = 4.0  # static power per cycle

    # ------------------------------------------------------------------
    def expand(
        self, events: Sequence[ExecutionEvent]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Expand events into per-cycle samples (vectorized).

        Returns ``(samples, starts)`` where ``starts[i]`` is the sample
        index of event ``i``'s first cycle (ground truth used only by
        tests, never by the attack).  Accepts an
        :class:`~repro.riscv.cpu.EventLog` (zero-copy) or any sequence
        of :class:`~repro.riscv.cpu.ExecutionEvent`.
        """
        cols = _event_columns(events)
        n = cols.shape[1]
        if n == 0:
            return np.zeros(0, dtype=np.float64), np.zeros(0, dtype=np.int64)
        wd = self.weight_data
        wt = self.weight_transition
        wf = self.weight_fetch
        we = self.weight_engine
        base = self.baseline

        # A compiled compute backend replaces everything below with two
        # passes over the event log's rows, read in place: one for the
        # cycle offsets, one writing every sample (padding cycles at the
        # baseline).  Bit-exact by the backend contract: its float
        # expression trees mirror this method operation for operation
        # (``backend.*.expand`` oracles).  It declines an op class
        # outside the cycle table, which only this path can judge.
        kernel = get_kernel("expand_events")
        if kernel is not None:
            expanded = kernel(cols, (wd, wt, wf, we, self.engine_offset, base))
            if expanded is not None:
                return expanded

        op, word, rs1, rs2, result, old_rd, address, _pc = cols
        cycles = _CYCLES_BY_CLASS[op]
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(cycles[:-1], out=starts[1:])
        total = int(starts[-1] + cycles[-1])
        samples = np.full(total, base, dtype=np.float64)

        # The word fetched before each event (instruction-bus toggling).
        previous_word = np.empty_like(word)
        previous_word[0] = 0
        previous_word[1:] = word[:-1]

        # Event indices of one op class, ascending (the same order a
        # stable sort would give).  A boolean scan per class beats one
        # O(n log n) argsort of the whole log, and only the classes
        # actually gathered below pay for their scan.
        def cls(klass: int) -> np.ndarray:
            return np.nonzero(op == klass)[0]

        # Hamming weights shared by several cycle layouts, computed once
        # over the whole event log (one batched call for the contiguous
        # rs1/rs2/result rows).  The combined per-cycle values keep the
        # scalar reference's evaluation order so float64 output is
        # bit-identical.
        hw_rs1, hw_rs2, hw_res = _hw32(cols[2:5])
        hw_wb = _hw32(result ^ old_rd)  # writeback Hamming distance
        fetch_v = base + wf * (_hw32(word) + _hw32(word ^ previous_word))
        operand_v = base + 0.5 * wd * (hw_rs1 + hw_rs2)
        writeback_v = base + wd * hw_res + wt * hw_wb
        data_v = base + wd * hw_res
        target_v = base + wf * hw_res

        # fetch cycle of every instruction: HW of the word + bus toggling
        samples[starts] = fetch_v

        # -- ALU: operand read, then writeback -------------------------
        ev = cls(cy.OP_ALU)
        idx = starts[ev]
        if idx.size:
            samples[idx + 1] = operand_v[ev]
            samples[idx + 2] = writeback_v[ev]

        # -- sequential multiplier: 32 engine steps + writeback --------
        ev = cls(cy.OP_MUL)
        idx = starts[ev]
        if idx.size:
            a = rs1[ev]
            b = rs2[ev]
            samples[idx + 1] = operand_v[ev]
            # partial products gated by the multiplier bits; the running
            # shift-add accumulator is their masked prefix sum
            partial = ((b[:, None] >> _ENGINE_STEPS_UP) & 1) * (
                (a[:, None] << _ENGINE_STEPS_UP) & _MASK32
            )
            acc = np.cumsum(partial, axis=1) & _MASK32
            samples[idx[:, None] + 2 + _ENGINE_STEPS_UP] = (
                base + self.engine_offset + we * _hw32(acc)
            )
            samples[idx + 34] = writeback_v[ev]
            # remaining cycles up to CYCLES[OP_MUL] stay at the baseline

        # -- restoring divider: 32 remainder steps + writeback ---------
        ev = cls(cy.OP_DIV)
        idx = starts[ev]
        if idx.size:
            samples[idx + 1] = operand_v[ev]
            # The restoring-divider invariant: after consuming dividend
            # bits 31..i the engine holds remainder = (dividend >> i) mod
            # divisor and quotient = (dividend >> i) div divisor, so the
            # whole 32-step evolution is one broadcast divmod.  A zero
            # divisor never restores: the remainder window slides through
            # the dividend and the quotient stays zero.
            dividend = rs1[ev]
            divisor = rs2[ev][:, None]
            shifted = dividend[:, None] >> _ENGINE_STEPS_DOWN
            zero = divisor == 0
            quo_steps, rem_steps = np.divmod(shifted, np.where(zero, 1, divisor))
            rem_steps = np.where(zero, shifted, rem_steps)
            quo_steps = np.where(zero, 0, quo_steps)
            samples[idx[:, None] + 2 + _ENGINE_STEPS_UP] = (
                base
                + self.engine_offset
                + we * 0.5 * (_hw32(rem_steps) + _hw32(quo_steps))
            )
            samples[idx + 34] = writeback_v[ev]

        # -- loads: address, data bus, writeback, turnaround -----------
        ev = cls(cy.OP_LOAD)
        idx = starts[ev]
        if idx.size:
            samples[idx + 1] = base + 0.5 * wd * _hw32(address[ev])
            samples[idx + 2] = data_v[ev]
            samples[idx + 3] = writeback_v[ev]

        # -- stores: address, data bus drive, settle -------------------
        ev = cls(cy.OP_STORE)
        idx = starts[ev]
        if idx.size:
            samples[idx + 1] = base + 0.5 * wd * _hw32(address[ev])
            samples[idx + 2] = data_v[ev]
            samples[idx + 3] = base + 0.5 * wd * hw_res[ev]

        # -- branches --------------------------------------------------
        ev = cls(cy.OP_BRANCH_NOT_TAKEN)
        idx = starts[ev]
        if idx.size:
            samples[idx + 1] = operand_v[ev]

        ev = cls(cy.OP_BRANCH_TAKEN)
        idx = starts[ev]
        if idx.size:
            samples[idx + 1] = operand_v[ev]
            samples[idx + 2] = target_v[ev]  # target fetch

        # -- jumps -----------------------------------------------------
        ev = cls(cy.OP_JUMP)
        idx = starts[ev]
        if idx.size:
            samples[idx + 1] = target_v[ev]
            samples[idx + 2] = base + wt * hw_wb[ev]

        # OP_SYSTEM: fetch cycle only — already written above
        return samples, starts

    # ------------------------------------------------------------------
    def expand_reference(
        self, events: Sequence[ExecutionEvent]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The original scalar expansion, kept as the correctness oracle.

        ``expand`` must produce float64 output exactly equal to this on
        every op class (the tests assert it).
        """
        samples: List[float] = []
        starts = np.empty(len(events), dtype=np.int64)
        wd = self.weight_data
        wt = self.weight_transition
        wf = self.weight_fetch
        base = self.baseline
        previous_word = 0
        for index, event in enumerate(events):
            starts[index] = len(samples)
            op = event.op_class
            word = event.word
            # fetch cycle
            samples.append(
                base + wf * (_hw(word) + _hw(word ^ previous_word))
            )
            previous_word = word
            if op == cy.OP_ALU:
                samples.append(
                    base + 0.5 * wd * (_hw(event.rs1_value) + _hw(event.rs2_value))
                )
                samples.append(
                    base
                    + wd * _hw(event.result)
                    + wt * _hw(event.result ^ event.old_rd)
                )
            elif op == cy.OP_MUL:
                self._expand_mul(event, samples)
            elif op == cy.OP_DIV:
                self._expand_div(event, samples)
            elif op == cy.OP_LOAD:
                samples.append(base + 0.5 * wd * _hw(event.address))
                samples.append(base + wd * _hw(event.result))
                samples.append(
                    base
                    + wd * _hw(event.result)
                    + wt * _hw(event.result ^ event.old_rd)
                )
                samples.append(base)
            elif op == cy.OP_STORE:
                samples.append(base + 0.5 * wd * _hw(event.address))
                samples.append(base + wd * _hw(event.result))  # data bus drive
                samples.append(base + 0.5 * wd * _hw(event.result))
                samples.append(base)
            elif op == cy.OP_BRANCH_NOT_TAKEN:
                samples.append(
                    base + 0.5 * wd * (_hw(event.rs1_value) + _hw(event.rs2_value))
                )
                samples.append(base)
            elif op == cy.OP_BRANCH_TAKEN:
                samples.append(
                    base + 0.5 * wd * (_hw(event.rs1_value) + _hw(event.rs2_value))
                )
                samples.append(base + wf * _hw(event.result))  # target fetch
                samples.append(base)  # pipeline refill
                samples.append(base)
            elif op == cy.OP_JUMP:
                samples.append(base + wf * _hw(event.result))
                samples.append(base + wt * _hw(event.result ^ event.old_rd))
                samples.append(base)
                samples.append(base)
            else:  # OP_SYSTEM: fetch only
                pass
        return np.asarray(samples, dtype=np.float64), starts

    # ------------------------------------------------------------------
    def _expand_mul(self, event: ExecutionEvent, samples: List[float]) -> None:
        """Sequential shift-add multiplier: 32 engine steps + writeback."""
        base = self.baseline
        we = self.weight_engine
        samples.append(
            base
            + 0.5 * self.weight_data * (_hw(event.rs1_value) + _hw(event.rs2_value))
        )
        a = event.rs1_value
        b = event.rs2_value
        acc = 0
        for i in range(32):
            if (b >> i) & 1:
                acc = (acc + (a << i)) & _MASK32
            samples.append(base + self.engine_offset + we * _hw(acc))
        samples.append(
            base
            + self.weight_data * _hw(event.result)
            + self.weight_transition * _hw(event.result ^ event.old_rd)
        )
        # pad to the architectural cycle count
        for _ in range(cy.CYCLES[cy.OP_MUL] - 35):
            samples.append(base)

    def _expand_div(self, event: ExecutionEvent, samples: List[float]) -> None:
        """Restoring divider: 32 remainder steps + writeback."""
        base = self.baseline
        we = self.weight_engine
        samples.append(
            base
            + 0.5 * self.weight_data * (_hw(event.rs1_value) + _hw(event.rs2_value))
        )
        dividend = event.rs1_value
        divisor = event.rs2_value
        remainder = 0
        quotient = 0
        for i in range(31, -1, -1):
            remainder = ((remainder << 1) | ((dividend >> i) & 1)) & _MASK32
            quotient <<= 1
            if divisor and remainder >= divisor:
                remainder -= divisor
                quotient |= 1
            samples.append(
                base + self.engine_offset + we * 0.5 * (_hw(remainder) + _hw(quotient))
            )
        samples.append(
            base
            + self.weight_data * _hw(event.result)
            + self.weight_transition * _hw(event.result ^ event.old_rd)
        )
        for _ in range(cy.CYCLES[cy.OP_DIV] - 35):
            samples.append(base)
